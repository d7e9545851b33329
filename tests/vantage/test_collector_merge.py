"""Sharded collection merges back to the serial collector, exactly.

The property the sharded execution path rests on: partition the VP ring
into any number of disjoint shards, probe each shard over the full
schedule, merge the shard collectors — and the result is the collector a
serial run produces.  Same summary, same change counts, same columnar
tables, same interner contents *in the same order*, same identity
dictionaries (including dict insertion order).
"""

import numpy as np
import pytest

from repro.core import StudyConfig, StudyPipeline
from repro.util.timeutil import parse_ts
from repro.vantage.collector import CampaignCollector
from tests.vantage.row_collector import RowRecorder


def tiny_config(**overrides) -> StudyConfig:
    """A days-long, dozen-VP campaign: fast, but exercises sampling,
    traceroutes, transfers and the fault plan."""
    base = dict(
        seed=77,
        ring_scale=0.02,
        interval_scale=96.0,
        campaign_start=parse_ts("2023-11-25"),
        campaign_end=parse_ts("2023-11-30"),
        rtt_sample_every=1,
        traceroute_sample_every=2,
        axfr_sample_every=2,
        clean_transfer_keep_one_in=20,
    )
    base.update(overrides)
    return StudyConfig(**base)


@pytest.fixture(scope="module")
def serial_collector() -> CampaignCollector:
    study = StudyPipeline(tiny_config()).run()
    return study.collector


def assert_collectors_identical(
    merged: CampaignCollector, serial: CampaignCollector
) -> None:
    assert merged.summary() == serial.summary()
    assert merged.change_counts() == serial.change_counts()

    # Interners: same values in the same (first-occurrence) order, so
    # every stored index means the same thing in both collectors.
    assert merged.sites.values == serial.sites.values
    assert merged.hops.values == serial.hops.values

    # Identity counts, including per-letter dict insertion order.
    assert merged.identities == serial.identities
    assert list(merged.identities) == list(serial.identities)
    for letter in serial.identities:
        assert list(merged.identities[letter]) == list(serial.identities[letter])

    for getter in ("probe_columns", "traceroute_columns"):
        m_cols = getattr(merged, getter)()
        s_cols = getattr(serial, getter)()
        assert set(m_cols) == set(s_cols)
        for name in s_cols:
            assert np.array_equal(m_cols[name], s_cols[name]), (getter, name)

    assert [
        (o.vp_id, o.true_ts, o.observed_ts, o.serial, o.fault)
        for o in merged.transfers
    ] == [
        (o.vp_id, o.true_ts, o.observed_ts, o.serial, o.fault)
        for o in serial.transfers
    ]


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_run_equals_serial(serial_collector, shards):
    study = StudyPipeline(tiny_config().with_sharding(shards)).run()
    assert_collectors_identical(study.collector, serial_collector)


def test_merge_of_explicit_split_equals_serial():
    """Drive the shard path by hand (no StudyPipeline plumbing): split,
    advance every shard, merge in scrambled shard order — merge is
    order-independent and reproduces the serial scalar oracle."""
    from repro.core.pipeline import CampaignShards, build_platform, build_world
    from tests.vantage.scalar_campaign import run_scalar_campaign

    config = tiny_config().with_sharding(3)
    world = build_world(config)
    platform = build_platform(config, world)
    with CampaignShards(config, world, platform) as shards:
        collectors = shards.advance(0, platform.expected_rounds)

    merged = CampaignCollector.merge([collectors[2], collectors[0], collectors[1]])
    assert_collectors_identical(merged, run_scalar_campaign(config))


class TestMergeUnit:
    def test_empty_merge(self):
        merged = CampaignCollector.merge([])
        assert merged.summary()["rounds"] == 0
        assert merged.summary()["probe_samples"] == 0

    def test_round_mismatch_rejected(self):
        a, b = CampaignCollector(), CampaignCollector()
        a.rounds_processed = 3
        b.rounds_processed = 4
        with pytest.raises(ValueError, match="different round counts"):
            CampaignCollector.merge([a, b])

    def test_overlapping_vp_pair_rejected(self):
        a, b = RowRecorder(), RowRecorder()
        a.note_site(0, 0, "site-x")
        b.note_site(0, 0, "site-y")
        a, b = a.flush(), b.flush()
        with pytest.raises(ValueError, match="overlap"):
            CampaignCollector.merge([a, b])

    def test_interner_rebuilt_in_first_occurrence_order(self):
        # In the serial scan VP 0 is probed before VP 1 in each round, so
        # the site VP 0 saw must come first in the merged interner even
        # when its shard is listed last.
        a, b = RowRecorder(), RowRecorder()
        b.note_site(1, 0, "later-site")
        a.note_site(0, 0, "earlier-site")
        a, b = a.flush(), b.flush()
        a.rounds_processed = b.rounds_processed = 1
        merged = CampaignCollector.merge([b, a])
        assert merged.sites.values == ["earlier-site", "later-site"]

    def test_probe_rows_remapped_and_reordered(self):
        a, b = RowRecorder(), RowRecorder()
        # Shard A: VP 0 at ts=100 hits "beta"; shard B: VP 1 at ts=50
        # hits "alpha".  Serial row order is by (ts, vp).
        a.add_probe_sample(0, 100, 2, "beta", 1.0, 10.0, 5.0, False)
        b.add_probe_sample(1, 50, 2, "alpha", 2.0, 20.0, 5.0, True, transit_asn=7)
        a, b = a.flush(), b.flush()
        a.rounds_processed = b.rounds_processed = 1
        merged = CampaignCollector.merge([a, b])
        cols = merged.probe_columns()
        assert cols["ts"].tolist() == [50, 100]
        assert cols["vp"].tolist() == [1, 0]
        assert cols["transit"].tolist() == [7, 0]
        # Site indices are remapped into the merged interner.
        assert [merged.sites[i] for i in cols["site"].tolist()] == ["alpha", "beta"]

    def test_identity_counts_sum(self):
        a, b = RowRecorder(), RowRecorder()
        a.note_identity("b", "b1-ams", 0, 0)
        a.note_identity("b", "b1-ams", 0, 0)
        b.note_identity("b", "b1-ams", 1, 0)
        b.note_identity("b", "b2-lax", 1, 0)
        a, b = a.flush(), b.flush()
        a.rounds_processed = b.rounds_processed = 1
        merged = CampaignCollector.merge([a, b])
        assert merged.identities["b"] == {"b1-ams": 3, "b2-lax": 1}
        assert list(merged.identities["b"]) == ["b1-ams", "b2-lax"]
