"""The binary collector-state codec round-trips every aggregate exactly.

:meth:`CampaignCollector.state` snapshots the aggregate state as columns
and :mod:`repro.data.state` writes it in the dataset's column format —
the one codec behind checkpoint chunks, shard spills and the worker-pool
hand-off.  The properties under test:

* write → read → :meth:`CampaignCollector.from_state` gives back the
  same interners (values and first-occurrence keys, ``_NO_ORDER_KEY``
  included), identity counts and keys in dict order, stability columns
  and counters, for arbitrary unicode site, hop and identity strings,
* empty collectors and identity-only collectors round-trip,
* a multi-shard checkpoint's per-shard states merge into its stored
  merged state,
* damaged state directories fail with a typed error.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.streaming import run_streaming_campaign
from repro.data import CheckpointReader, DatasetError
from repro.data.state import STATE_NAME, read_state, write_state
from repro.vantage.collector import _NO_ORDER_KEY, CampaignCollector

from tests.streamutil import tiny_stream_config
from tests.vantage.row_collector import RowRecorder

_text = st.text(min_size=0, max_size=12)

_op = st.one_of(
    st.tuples(
        st.just("site"),
        st.integers(0, 2**20),
        st.integers(0, 27),
        st.sampled_from(["k-FRA-1", "ä-東京", "", "é"]) | _text,
    ),
    st.tuples(
        st.just("identity"),
        st.sampled_from(["a", "k", "λ"]),
        _text,
        st.booleans(),  # with a campaign position, or _NO_ORDER_KEY
        st.integers(0, 500),
        st.integers(0, 27),
    ),
    st.tuples(st.just("hop"), st.integers(0, 500), st.integers(0, 27), _text),
    st.tuples(st.just("round")),
)


def _build(ops) -> CampaignCollector:
    recorder = RowRecorder()
    for op in ops:
        kind = op[0]
        if kind == "site":
            recorder.note_site(op[1], op[2], op[3])
        elif kind == "identity":
            _kind, letter, identity, positioned, vp, addr = op
            if positioned:
                recorder.note_identity(letter, identity, vp, addr)
            else:
                recorder.note_identity(letter, identity)
        elif kind == "hop":
            recorder.add_traceroute(op[1], 0, op[2], op[3])
        else:
            recorder.collector.rounds_processed += 1
    collector = recorder.flush()
    collector.queries_simulated = 7 * len(ops)
    collector.transfer_total = len(ops) // 2
    collector.transfer_clean = len(ops) // 3
    return collector


def _assert_same_aggregates(got: CampaignCollector, want: CampaignCollector) -> None:
    assert got.sites.values == want.sites.values
    assert got.sites.first_keys == want.sites.first_keys
    assert got.hops.values == want.hops.values
    assert got.hops.first_keys == want.hops.first_keys
    assert list(got.identities.items()) == list(want.identities.items())
    for letter, bucket in want.identities.items():
        assert list(got.identities[letter].items()) == list(bucket.items())
    assert got._identity_order == want._identity_order
    assert list(got.change_counts().items()) == list(want.change_counts().items())
    for name, column in want.stability_columns().items():
        assert np.array_equal(got.stability_columns()[name], column), name
    assert got.summary()["stability_pairs"] == want.summary()["stability_pairs"]
    for name in ("rounds_processed", "queries_simulated", "transfer_total",
                 "transfer_clean"):
        assert getattr(got, name) == getattr(want, name), name


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_op, min_size=0, max_size=40))
def test_state_round_trips_through_disk(ops):
    original = _build(ops)
    state = original.state()
    with tempfile.TemporaryDirectory() as tmp:
        reloaded = read_state(write_state(Path(tmp) / "state", state))
    assert reloaded == state
    restored = CampaignCollector.from_state(reloaded)
    _assert_same_aggregates(restored, original)
    assert restored.state() == state
    # the pool hand-off ships the same object pickled
    assert pickle.loads(pickle.dumps(state)) == state


def test_restored_collector_keeps_counting():
    """A restored collector's stability counters continue exactly where
    the original's would (scalar ingest after restore)."""
    original = _build([("site", 1, 0, "x"), ("round",), ("site", 1, 0, "y")])
    restored = CampaignCollector.from_state(original.state())
    for collector in (original, restored):
        recorder = RowRecorder(collector)
        recorder.note_site(1, 0, "x")
        recorder.note_site(2, 3, "z")
        recorder.flush()
    _assert_same_aggregates(restored, original)
    assert original.change_counts()[(1, 0)] == (2, 3)


def test_empty_and_identity_only_collectors(tmp_path):
    empty = CampaignCollector()
    assert read_state(write_state(tmp_path / "empty", empty.state())) == empty.state()
    recorder = RowRecorder()
    recorder.note_identity("a", "ä-1")
    only = recorder.flush()
    state = read_state(write_state(tmp_path / "only", only.state()))
    restored = CampaignCollector.from_state(state)
    assert restored.identities == {"a": {"ä-1": 1}}
    assert restored._identity_order == {("a", "ä-1"): _NO_ORDER_KEY}


def test_state_rejects_keys_that_are_not_positions():
    collector = CampaignCollector()
    collector.sites.intern("odd", (1, 2))
    with pytest.raises(ValueError, match="order key"):
        collector.state()


# --- multi-shard checkpoints --------------------------------------------------------


@pytest.fixture(scope="module")
def two_shard_checkpoint(tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("two-shard") / "ckpt"
    run = run_streaming_campaign(
        tiny_stream_config(shards=2), ckpt, checkpoint_every=2
    )
    assert run.complete
    return ckpt


def test_shard_states_merge_into_the_stored_state(two_shard_checkpoint):
    reader = CheckpointReader(two_shard_checkpoint)
    for entry in reader.chunk_entries():
        assert (reader.chunk_path(entry) / "state" / "shards" / "001").is_dir()
    shards = reader.shard_states()
    assert len(shards) == 2 and shards[0] != shards[1]
    merged = CampaignCollector.merge(
        [CampaignCollector.from_state(state) for state in shards]
    )
    assert merged.state() == reader.state()


def test_missing_shard_state_raises(two_shard_checkpoint, tmp_path):
    from repro.data import CheckpointError

    copy = tmp_path / "copy"
    shutil.copytree(two_shard_checkpoint, copy)
    shutil.rmtree(copy / "chunks" / "000002" / "state" / "shards" / "001")
    with pytest.raises(CheckpointError, match="shards/001"):
        CheckpointReader(copy).shard_states()


# --- damage -------------------------------------------------------------------------


@pytest.fixture
def written_state(tmp_path):
    collector = _build(
        [("site", 1, 0, "s"), ("hop", 1, 0, "h"), ("identity", "a", "i", True, 1, 0)]
    )
    return write_state(tmp_path / "state", collector.state())


def test_truncated_text_column_raises(written_state):
    column = written_state / "tables" / "text" / "byte.bin"
    column.write_bytes(column.read_bytes()[:-1])
    with pytest.raises(DatasetError, match="text/byte.bin"):
        read_state(written_state)


def test_missing_manifest_raises(written_state):
    (written_state / STATE_NAME).unlink()
    with pytest.raises(DatasetError, match="missing STATE.json"):
        read_state(written_state)


def test_inconsistent_counts_raise(written_state):
    import json

    manifest = json.loads((written_state / STATE_NAME).read_text())
    manifest["counts"]["sites"] += 1
    (written_state / STATE_NAME).write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="strings"):
        read_state(written_state)
