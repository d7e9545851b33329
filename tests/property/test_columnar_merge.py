"""Property tests: columnar shard recombination is a record-level merge.

:mod:`repro.data.columnar` recombines shard outputs at array level —
concatenate, remap interned ids, one stable lexsort.  The contract is
that this is *exactly* the merge a record-at-a-time implementation would
produce: walk every shard's rows, pool them, and stable-sort into
campaign scan order (timestamp, then vp, ties kept in shard order).
These tests pit the vectorised primitives against that naive reference
over generated inputs (uneven shards, empty shards, duplicate keys) and
pit the full :meth:`CampaignCollector.merge` against the serial campaign
across shard counts, with fault injection active.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.columnar import (
    merge_shard_columns,
    remap_lookup,
    scan_order,
    stitch_columns,
)

# (vp, ts, payload) rows; narrow key ranges force duplicate (ts, vp)
# pairs so the stability of the sort is actually exercised.
row_st = st.tuples(
    st.integers(0, 5),
    st.integers(0, 20),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
shards_st = st.lists(
    st.lists(row_st, max_size=30), min_size=1, max_size=8
)

_DTYPES = {"vp": np.int32, "ts": np.int64, "x": np.float32}
_NAMES = ["vp", "ts", "x"]


def _as_part(rows):
    return {
        "vp": np.array([r[0] for r in rows], dtype=np.int32),
        "ts": np.array([r[1] for r in rows], dtype=np.int64),
        "x": np.array([r[2] for r in rows], dtype=np.float32),
    }


class TestMergeShardColumns:
    @given(shards_st)
    @settings(max_examples=100, deadline=None)
    def test_matches_record_level_merge(self, shards):
        merged = merge_shard_columns(
            _NAMES, [_as_part(rows) for rows in shards], empty_dtypes=_DTYPES
        )
        # reference: pool rows in shard order, stable-sort by (ts, vp)
        pooled = [r for rows in shards for r in rows]
        reference = sorted(
            range(len(pooled)), key=lambda i: (pooled[i][1], pooled[i][0])
        )
        assert merged["vp"].tolist() == [pooled[i][0] for i in reference]
        assert merged["ts"].tolist() == [pooled[i][1] for i in reference]
        ref_x = np.array(
            [pooled[i][2] for i in reference], dtype=np.float32
        )
        assert np.array_equal(merged["x"], ref_x)

    @given(shards_st)
    @settings(max_examples=50, deadline=None)
    def test_dtypes_survive_merge(self, shards):
        merged = merge_shard_columns(
            _NAMES, [_as_part(rows) for rows in shards], empty_dtypes=_DTYPES
        )
        for name, dtype in _DTYPES.items():
            assert merged[name].dtype == np.dtype(dtype)

    def test_all_empty_shards_yield_typed_empty_columns(self):
        merged = merge_shard_columns(
            _NAMES, [_as_part([]) for _ in range(4)], empty_dtypes=_DTYPES
        )
        for name, dtype in _DTYPES.items():
            assert len(merged[name]) == 0
            assert merged[name].dtype == np.dtype(dtype)


class TestStitchAndOrder:
    @given(shards_st)
    @settings(max_examples=50, deadline=None)
    def test_stitch_is_plain_concatenation(self, shards):
        stitched = stitch_columns(
            _NAMES, [_as_part(rows) for rows in shards], empty_dtypes=_DTYPES
        )
        pooled = [r for rows in shards for r in rows]
        assert stitched["vp"].tolist() == [r[0] for r in pooled]
        assert stitched["ts"].tolist() == [r[1] for r in pooled]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 20)), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_scan_order_is_stable(self, pairs):
        columns = {
            "vp": np.array([p[0] for p in pairs], dtype=np.int32),
            "ts": np.array([p[1] for p in pairs], dtype=np.int64),
        }
        order = scan_order(columns)
        reference = sorted(range(len(pairs)), key=lambda i: (pairs[i][1], pairs[i][0]))
        assert order.tolist() == reference


class TestRemapLookup:
    @given(
        st.dictionaries(st.integers(0, 30), st.integers(0, 100), max_size=31),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_gather_equals_dict_lookup(self, mapping, data):
        lookup = remap_lookup(mapping)
        keys = data.draw(
            st.lists(st.sampled_from(sorted(mapping)), max_size=50)
        ) if mapping else []
        ids = np.array(keys, dtype=np.int64)
        assert lookup[ids].tolist() == [mapping[k] for k in keys]

    def test_sized_lookup_covers_unmapped_slots(self):
        lookup = remap_lookup({0: 5}, size=4)
        assert len(lookup) == 4
        assert lookup[0] == 5


class TestCampaignShardCounts:
    """The end-to-end invariant: any shard count merges byte-identically
    to the serial campaign (fault injection active in the tiny config)."""

    @pytest.fixture(scope="class")
    def serial_collector(self):
        from repro.core.pipeline import StudyPipeline

        from tests.core.test_pipeline import tiny_config

        return StudyPipeline(tiny_config()).run().collector

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_merge_equals_serial(self, shards, serial_collector):
        from repro.core.pipeline import (
            StudyPipeline,
        )

        from tests.core.test_pipeline import tiny_config

        merged = StudyPipeline(
            tiny_config().with_sharding(shards)
        ).run().collector
        assert merged.state() == serial_collector.state()
        ours, ref = merged.probe_columns(), serial_collector.probe_columns()
        for name in ours:
            assert np.array_equal(ours[name], ref[name]), name
        ours, ref = (
            merged.traceroute_columns(),
            serial_collector.traceroute_columns(),
        )
        for name in ours:
            assert np.array_equal(ours[name], ref[name]), name
        assert [o.serial for o in merged.transfers] == (
            [o.serial for o in serial_collector.transfers]
        )

    def test_empty_shards_are_neutral_merge_inputs(self, serial_collector):
        """A shard that owned zero VPs contributes an empty collector;
        merging it in must not perturb the result."""
        from repro.core.pipeline import (
            CampaignShards,
            build_platform,
            build_world,
        )
        from repro.vantage.collector import CampaignCollector

        from tests.core.test_pipeline import tiny_config

        config = tiny_config().with_sharding(2)
        world = build_world(config)
        platform = build_platform(config, world)
        with CampaignShards(config, world, platform) as shards:
            shard_collectors = shards.advance(0, platform.expected_rounds)

        empty = CampaignCollector()
        empty.rounds_processed = shard_collectors[0].rounds_processed
        merged = CampaignCollector.merge(shard_collectors + [empty])
        assert merged.state() == serial_collector.state()
        ours, ref = merged.probe_columns(), serial_collector.probe_columns()
        for name in ours:
            assert np.array_equal(ours[name], ref[name]), name
