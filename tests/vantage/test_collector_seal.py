"""Collector sealing and row draining.

A :class:`~repro.data.Dataset` takes zero-copy ownership of the
collector's column buffers, and the streaming engine detaches them
chunk-by-chunk; both moves are only safe if later appends fail loudly
instead of silently corrupting (or vanishing from) the handed-off
arrays — and fail before the first write, so a refused call leaves the
aggregates the dataset shares exactly as they were.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.pipeline import build_platform, build_world
from repro.data import Dataset
from repro.vantage.collector import CampaignCollector, CollectorSealedError
from repro.vantage.epoch_engine import EpochCampaignPlan
from tests.streamutil import tiny_stream_config
from tests.vantage.row_collector import RowRecorder


def _populated_collector() -> CampaignCollector:
    recorder = RowRecorder()
    recorder.note_site(3, 1, "k-FRA-1")
    recorder.note_identity("k", "k1.ams", vp_id=3, addr_idx=1)
    recorder.add_probe_sample(3, 1000, 1, "k-FRA-1", 12.5, 100.0, 90.0, False)
    recorder.add_traceroute(3, 1000, 1, "peer-1")
    recorder.count_transfer(clean=True)
    return recorder.flush()


def _one_probe_row() -> dict:
    one = np.ones(1, np.int32)
    return dict(
        vp=one, ts=one, addr=one, site=one, rtt=one.astype(np.float64),
        direct_km=one.astype(np.float64), closest_km=one.astype(np.float64),
        peer=one.astype(bool), transit=one,
    )


def test_sealed_collector_rejects_every_ingest_path():
    collector = _populated_collector()
    collector.seal()
    assert collector.sealed
    one = np.ones(1, np.int32)
    ingests = [
        lambda: collector.add_probe_block(**_one_probe_row()),
        lambda: collector.add_traceroute_block(vp=one, ts=one, addr=one, hop=one),
        lambda: collector.attach_rows({}, {}, []),
        lambda: collector.drain_rows(),
    ]
    for ingest in ingests:
        with pytest.raises(CollectorSealedError):
            ingest()
    # seal is idempotent and read-side access still works
    collector.seal()
    assert collector.summary()["probe_samples"] == 1


def test_to_dataset_seals_the_collector():
    collector = _populated_collector()
    dataset = Dataset.from_collector(collector)
    assert collector.sealed
    assert len(dataset.table("probes")) == 1
    with pytest.raises(CollectorSealedError):
        collector.add_probe_block(**_one_probe_row())


def test_drain_rows_detaches_rows_but_keeps_aggregates():
    collector = _populated_collector()
    probes, traceroutes, transfers = collector.drain_rows()
    assert len(probes["vp"]) == 1 and len(traceroutes["vp"]) == 1
    assert transfers == []
    # row tables are empty now, aggregate state survives
    assert len(collector.probe_columns()["vp"]) == 0
    assert collector.summary()["transfers"] == 1
    assert collector.change_counts()
    # and the collector keeps ingesting after a drain
    collector.add_probe_block(**_one_probe_row())
    assert len(collector.probe_columns()["vp"]) == 1


def test_sealed_collector_refuses_a_campaign_range_before_writing():
    """The epoch engine checks the seal before its first write: a
    refused range leaves the aggregates the dataset shares untouched."""
    config = tiny_stream_config()
    platform = build_platform(config, build_world(config))
    collector = CampaignCollector()
    plan = EpochCampaignPlan(
        platform.prober, platform.vps, platform.schedule, collector
    )
    plan.emit_range(0, 2)
    dataset = Dataset.from_collector(collector)
    state = collector.state()
    identities = copy.deepcopy(collector.identities)
    summary = collector.summary()

    with pytest.raises(CollectorSealedError):
        plan.emit_range(2, 3)
    assert collector.state() == state
    assert collector.identities == identities
    assert dataset.identities == identities
    assert collector.summary() == summary
