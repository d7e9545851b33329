"""The collector's growth policy never changes what readers see.

`_ColumnTable` stores rows in geometrically-doubled preallocated numpy
buffers; batch ``extend`` (which writes into slack), ``drain_rows`` and
``merge`` must all be byte-transparent against the obvious row-list
reference no matter how blocks fall across reallocation boundaries.
Plus the ``attach_rows`` contract: adopting drained (possibly
slack-backed) columns is zero-copy, and the adopted tables refuse
further blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vantage.collector import (
    CampaignCollector,
    CollectorSealedError,
    _ColumnTable,
    _PROBE_SPEC,
)
from tests.vantage.row_collector import RowRecorder

_SITE_POOL = [f"site-{i}" for i in range(6)]


# -- _ColumnTable vs a row-list reference ---------------------------------------------

_SPEC = (
    ("a", np.dtype(np.int32)),
    ("b", np.dtype(np.float64)),
    ("c", np.dtype(bool)),
)


_row = st.tuples(
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
)

_block = st.lists(_row, min_size=0, max_size=700)


class TestColumnTableGrowth:
    @settings(max_examples=60, deadline=None)
    @given(blocks=st.lists(_block, min_size=0, max_size=12))
    def test_extend_sequences_match_reference(self, blocks):
        table = _ColumnTable(_SPEC)
        reference = []
        for payload in blocks:
            table.extend(
                a=np.array([r[0] for r in payload], dtype=np.int32),
                b=np.array([r[1] for r in payload], dtype=np.float64),
                c=np.array([r[2] for r in payload], dtype=bool),
            )
            reference.extend(payload)
        assert len(table) == len(reference)
        for i, (name, dtype) in enumerate(_SPEC):
            col = table.column(name)
            assert col.dtype == dtype
            want = np.array([r[i] for r in reference], dtype=dtype)
            assert np.array_equal(col, want)
        # Capacity is the doubling schedule's: initial * 2^k, >= rows.
        assert table.capacity >= max(len(reference), 1)
        cap = table.capacity
        while cap > _ColumnTable._INITIAL and cap % 2 == 0:
            cap //= 2
        assert cap == _ColumnTable._INITIAL

    def test_extend_rejects_ragged_and_mismatched(self):
        table = _ColumnTable(_SPEC)
        with pytest.raises(ValueError, match="ragged"):
            table.extend(
                a=np.zeros(2, np.int32),
                b=np.zeros(3, np.float64),
                c=np.zeros(2, bool),
            )
        with pytest.raises(ValueError, match="mismatch"):
            table.extend(a=np.zeros(2, np.int32), b=np.zeros(2, np.float64))


# -- collector-level interleavings -----------------------------------------------------


def _probe_block(rng, n):
    return {
        "vp": rng.integers(0, 40, n).astype(np.int32),
        "ts": np.sort(rng.integers(10_000, 99_000, n)).astype(np.int64),
        "addr": rng.integers(0, 28, n).astype(np.int16),
        "site_key": [_SITE_POOL[k] for k in rng.integers(0, len(_SITE_POOL), n)],
        "rtt": rng.random(n) * 300.0,
        "direct_km": rng.random(n) * 9000.0,
        "closest_km": rng.random(n) * 2000.0,
        "peer": rng.random(n) < 0.5,
        "transit": rng.integers(0, 65000, n).astype(np.int32),
    }


def _ingest_scalar(collector, block):
    """Row-at-a-time reference ingest (buffered, then one block)."""
    recorder = RowRecorder(collector)
    for i in range(len(block["vp"])):
        recorder.add_probe_sample(
            int(block["vp"][i]),
            int(block["ts"][i]),
            int(block["addr"][i]),
            block["site_key"][i],
            float(block["rtt"][i]),
            float(block["direct_km"][i]),
            float(block["closest_km"][i]),
            bool(block["peer"][i]),
            int(block["transit"][i]),
        )
    recorder.flush()


def _ingest_batch(collector, block):
    site = np.array(
        [
            collector.sites.intern(key, (collector.rounds_processed, int(vp), int(addr)))
            for key, vp, addr in zip(block["site_key"], block["vp"], block["addr"])
        ],
        dtype=np.int64,
    )
    collector.add_probe_block(
        vp=block["vp"],
        ts=block["ts"],
        addr=block["addr"],
        site=site,
        rtt=block["rtt"],
        direct_km=block["direct_km"],
        closest_km=block["closest_km"],
        peer=block["peer"],
        transit=block["transit"],
    )


def _drained_concat(drains):
    names = [name for name, _ in _PROBE_SPEC]
    return {name: np.concatenate([d[name] for d in drains]) for name in names}


class TestCollectorGrowthInterleavings:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        sizes=st.lists(st.integers(min_value=0, max_value=900), min_size=1, max_size=8),
        batch_flags=st.lists(st.booleans(), min_size=8, max_size=8),
        drain_flags=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_any_interleaving_matches_scalar_no_drain(
        self, seed, sizes, batch_flags, drain_flags
    ):
        """Scalar/batch ingest with arbitrary drain points concatenates
        to the same bytes as pure scalar ingest with no drains."""
        rng = np.random.default_rng(seed)
        blocks = [_probe_block(rng, n) for n in sizes]

        reference = CampaignCollector()
        for block in blocks:
            _ingest_scalar(reference, block)

        subject = CampaignCollector()
        drains = []
        for i, block in enumerate(blocks):
            (_ingest_batch if batch_flags[i] else _ingest_scalar)(subject, block)
            if drain_flags[i]:
                probes, _traces, _transfers = subject.drain_rows()
                drains.append(probes)
        probes, _traces, _transfers = subject.drain_rows()
        drains.append(probes)

        got = _drained_concat(drains)
        assert subject.sites.values == reference.sites.values
        for name, dtype in _PROBE_SPEC:
            want = reference._probes.column(name)
            assert got[name].dtype == want.dtype == dtype
            assert np.array_equal(got[name], want), name

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        batch_flags=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_merge_indifferent_to_ingest_mode(self, seed, batch_flags):
        """merge() output is byte-identical whether its shard inputs
        were filled row by row (through the recorder) or by direct
        block appends."""
        rng = np.random.default_rng(seed)
        blocks = [_probe_block(rng, n) for n in (700, 120, 0, 333)]

        def shards(flags):
            out = [CampaignCollector(), CampaignCollector()]
            for i, block in enumerate(blocks):
                ingest = _ingest_batch if flags[i] else _ingest_scalar
                ingest(out[i % 2], block)
            return out

        merged = CampaignCollector.merge(shards(batch_flags))
        reference = CampaignCollector.merge(shards([False] * 4))
        assert merged.sites.values == reference.sites.values
        for name, _dtype in _PROBE_SPEC:
            assert np.array_equal(
                merged._probes.column(name), reference._probes.column(name)
            ), name


class TestAttachRowsAfterGrowth:
    def test_attach_is_zero_copy_over_grown_buffers(self):
        """Columns drained out of a grown (slack-carrying) table are
        adopted by attach_rows without copying a byte."""
        rng = np.random.default_rng(7)
        source = CampaignCollector()
        _ingest_scalar(source, _probe_block(rng, 3000))  # > _INITIAL: grown twice
        assert source._probes.capacity > len(source._probes)
        state = source.state()
        probes, traceroutes, transfers = source.drain_rows()

        restored = CampaignCollector.from_state(state)
        restored.attach_rows(probes, traceroutes, transfers)
        for name, _dtype in _PROBE_SPEC:
            assert np.shares_memory(restored._probes.column(name), probes[name]), name
            assert np.array_equal(restored._probes.column(name), probes[name])
        with pytest.raises(CollectorSealedError, match="read-only"):
            restored.add_probe_block(**probes)

    def test_attach_requires_empty_tables(self):
        rng = np.random.default_rng(8)
        full = CampaignCollector()
        _ingest_scalar(full, _probe_block(rng, 5))
        probes, traceroutes, transfers = CampaignCollector().drain_rows()
        with pytest.raises(ValueError, match="empty row tables"):
            full.attach_rows(probes, traceroutes, transfers)
