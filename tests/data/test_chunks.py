"""Chunked checkpoint writer/reader: roundtrip, stitching, corruption.

The invariants under test:

* a streamed campaign finalizes into a dataset directory byte-identical
  to a batch ``results.save``,
* the sealed prefix stitches into a partial dataset whose tables equal
  the batch tables,
* every way a checkpoint directory can be damaged — torn JSON, version
  skew, round gaps, row-count lies, truncated or missing chunks, a
  missing or truncated chunk ``state/`` — fails loudly with a typed
  :class:`CheckpointError`, never a silent mis-stitch,
* resume discards an unsealed tail chunk rather than trusting it.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.pipeline import StudyPipeline
from repro.core.streaming import (
    finalize_streaming_campaign,
    load_streaming_checkpoint,
    run_streaming_campaign,
)
from repro.data import (
    CHECKPOINT_NAME,
    CheckpointError,
    CheckpointReader,
    ChunkedDatasetWriter,
    load_dataset,
)
from repro.passive.recipes import build_capture

from tests.streamutil import (
    TINY_STREAM_SEED,
    assert_trees_identical,
    tiny_stream_config,
)


@pytest.fixture(scope="module")
def stream_config():
    return tiny_stream_config()


@pytest.fixture(scope="module")
def batch_dir(stream_config, tmp_path_factory):
    """The uninterrupted batch dataset for the tiny study."""
    out = tmp_path_factory.mktemp("batch") / "dataset"
    StudyPipeline(stream_config).run().save(out, passive=False)
    return out


@pytest.fixture(scope="module")
def checkpoint_dir(stream_config, tmp_path_factory):
    """A complete streamed checkpoint (5 rounds in chunks of 2)."""
    ckpt = tmp_path_factory.mktemp("ckpt") / "stream"
    run = run_streaming_campaign(stream_config, ckpt, checkpoint_every=2)
    assert run.complete and run.chunks == 3
    return ckpt


def _damaged_copy(checkpoint_dir, tmp_path):
    copy = tmp_path / "damaged"
    shutil.copytree(checkpoint_dir, copy)
    return copy


def _doctor(copy, **overrides):
    ckpt = json.loads((copy / CHECKPOINT_NAME).read_text())
    ckpt.update(overrides)
    (copy / CHECKPOINT_NAME).write_text(json.dumps(ckpt))
    return ckpt


# --- roundtrip ---------------------------------------------------------------------


def test_finalize_matches_batch_save_byte_for_byte(
    checkpoint_dir, batch_dir, tmp_path
):
    out = tmp_path / "finalized"
    finalize_streaming_campaign(checkpoint_dir, out, passive=False)
    assert_trees_identical(batch_dir, out)


def test_stitched_dataset_equals_batch_tables(checkpoint_dir, batch_dir):
    stitched = load_streaming_checkpoint(checkpoint_dir)
    batch = load_dataset(batch_dir)
    assert stitched.summary() == batch.summary()
    for table in ("probes", "traceroutes", "stability"):
        for column in stitched.table(table).columns():
            assert np.array_equal(
                stitched.table(table).column(column),
                batch.table(table).column(column),
            ), (table, column)
    assert stitched.identities == batch.identities
    assert len(stitched.transfers) == len(batch.transfers)


def test_load_dataset_dispatches_to_checkpoint_reader(checkpoint_dir):
    dataset = load_dataset(checkpoint_dir)
    info = dataset.meta["checkpoint"]
    assert info["rounds_done"] == info["n_rounds"] == 5
    assert info["chunks"] == 3
    assert dataset.study_config().seed == TINY_STREAM_SEED


def test_chunks_are_self_contained_datasets(checkpoint_dir):
    reader = CheckpointReader(checkpoint_dir)
    chunks = reader.chunk_datasets()
    assert [c.meta["chunk"]["round_lo"] for c in chunks] == [0, 2, 4]
    total_probes = sum(len(c.table("probes")) for c in chunks)
    assert total_probes == reader.checkpoint()["totals"]["probes"]
    # each chunk also loads through the ordinary dataset entry point
    entry = reader.chunk_entries()[0]
    direct = load_dataset(reader.chunk_path(entry))
    assert len(direct.table("probes")) == entry["rows"]["probes"]


def test_start_refuses_existing_checkpoint(checkpoint_dir):
    writer = ChunkedDatasetWriter(checkpoint_dir)
    with pytest.raises(CheckpointError, match="already"):
        writer.start(study=None, addresses=[], shards=1, n_rounds=1)


def test_finalize_requires_complete_campaign(checkpoint_dir, tmp_path):
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    # drop the tail chunk so the checkpoint is a valid 4-round prefix
    ckpt = json.loads((copy / CHECKPOINT_NAME).read_text())
    tail = ckpt["chunks"].pop()
    ckpt["rounds_done"] = tail["round_lo"]
    for key in ckpt["totals"]:
        ckpt["totals"][key] -= tail["rows"][key]
    (copy / CHECKPOINT_NAME).write_text(json.dumps(ckpt))
    shutil.rmtree(copy / "chunks" / tail["name"])
    with pytest.raises(CheckpointError, match="4 of 5"):
        finalize_streaming_campaign(copy, tmp_path / "out", passive=False)


# --- corruption --------------------------------------------------------------------


def test_missing_checkpoint_file_raises(tmp_path):
    with pytest.raises(CheckpointError, match="missing CHECKPOINT.json"):
        CheckpointReader(tmp_path).checkpoint()


def test_torn_checkpoint_json_raises(checkpoint_dir, tmp_path):
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    payload = (copy / CHECKPOINT_NAME).read_bytes()
    (copy / CHECKPOINT_NAME).write_bytes(payload[: len(payload) // 2])
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        CheckpointReader(copy).checkpoint()


def test_wrong_checkpoint_version_raises(checkpoint_dir, tmp_path):
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    _doctor(copy, checkpoint_version=99)
    with pytest.raises(CheckpointError, match="version 99"):
        CheckpointReader(copy).checkpoint()


def test_wrong_schema_version_raises(checkpoint_dir, tmp_path):
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    _doctor(copy, schema_version=0)
    with pytest.raises(CheckpointError, match="schema version"):
        CheckpointReader(copy).checkpoint()


def test_missing_required_key_raises(checkpoint_dir, tmp_path):
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    ckpt = json.loads((copy / CHECKPOINT_NAME).read_text())
    del ckpt["totals"]
    (copy / CHECKPOINT_NAME).write_text(json.dumps(ckpt))
    with pytest.raises(CheckpointError, match="required key 'totals'"):
        CheckpointReader(copy).checkpoint()


def test_version_1_checkpoint_raises(checkpoint_dir, tmp_path):
    """A v1 checkpoint (collector state inside CHECKPOINT.json) is not
    read: resume and finalize refuse it with the version in the error."""
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    _doctor(copy, checkpoint_version=1, state={}, shard_states=[{}])
    with pytest.raises(CheckpointError, match="version 1"):
        ChunkedDatasetWriter(copy).resume()
    with pytest.raises(CheckpointError, match="version 1"):
        finalize_streaming_campaign(copy, tmp_path / "out", passive=False)


def test_checkpoint_holds_no_collector_state(checkpoint_dir):
    """CHECKPOINT.json is the cursor only; the state sits beside each
    chunk, and a one-shard run stores no separate shard state."""
    ckpt = json.loads((checkpoint_dir / CHECKPOINT_NAME).read_text())
    assert set(ckpt) == {
        "checkpoint_version", "schema_version", "study", "addresses",
        "shards", "n_rounds", "rounds_done", "totals", "chunks",
        "passive_done",
    }
    for entry in ckpt["chunks"]:
        state_dir = checkpoint_dir / "chunks" / entry["name"] / "state"
        assert (state_dir / "STATE.json").is_file()
        assert not (state_dir / "shards").exists()


def test_missing_state_on_last_chunk_raises(checkpoint_dir, tmp_path):
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    shutil.rmtree(copy / "chunks" / "000002" / "state")
    with pytest.raises(CheckpointError, match="000002.*state"):
        CheckpointReader(copy).dataset()
    with pytest.raises(CheckpointError, match="000002.*state"):
        finalize_streaming_campaign(copy, tmp_path / "out", passive=False)


def test_truncated_state_column_raises(checkpoint_dir, tmp_path):
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    column = (
        copy / "chunks" / "000002" / "state" / "tables" / "stability" / "rounds.bin"
    )
    column.write_bytes(column.read_bytes()[:-4])
    with pytest.raises(CheckpointError, match="000002.*state.*damaged"):
        CheckpointReader(copy).dataset()


def test_round_gap_raises(checkpoint_dir, tmp_path):
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    ckpt = json.loads((copy / CHECKPOINT_NAME).read_text())
    ckpt["chunks"][1]["round_lo"] = 3
    (copy / CHECKPOINT_NAME).write_text(json.dumps(ckpt))
    with pytest.raises(CheckpointError, match="round gap"):
        CheckpointReader(copy).checkpoint()


def test_row_total_mismatch_raises(checkpoint_dir, tmp_path):
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    ckpt = json.loads((copy / CHECKPOINT_NAME).read_text())
    ckpt["chunks"][0]["rows"]["probes"] += 1
    (copy / CHECKPOINT_NAME).write_text(json.dumps(ckpt))
    with pytest.raises(CheckpointError, match="do not match recorded totals"):
        CheckpointReader(copy).checkpoint()


def test_missing_chunk_dir_raises(checkpoint_dir, tmp_path):
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    shutil.rmtree(copy / "chunks" / "000001")
    with pytest.raises(CheckpointError, match="000001"):
        CheckpointReader(copy).dataset()


def test_truncated_chunk_column_raises(checkpoint_dir, tmp_path):
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    column = copy / "chunks" / "000000" / "tables" / "probes" / "rtt.bin"
    payload = column.read_bytes()
    column.write_bytes(payload[:-4])
    with pytest.raises(CheckpointError, match="chunk '000000'.*damaged"):
        CheckpointReader(copy).dataset()


@pytest.mark.parametrize("damage", ["truncated column", "missing chunk"])
def test_finalize_refuses_damaged_chunk(checkpoint_dir, tmp_path, damage):
    """Finalize reads each sealed chunk's columns as it writes them; a
    damaged middle chunk stops it with a CheckpointError naming it."""
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    chunk = copy / "chunks" / "000001"
    if damage == "missing chunk":
        shutil.rmtree(chunk)
    else:
        column = chunk / "tables" / "traceroutes" / "hop.bin"
        column.write_bytes(column.read_bytes()[:-1])
    with pytest.raises(CheckpointError, match="000001"):
        finalize_streaming_campaign(copy, tmp_path / "out", passive=False)


def test_resume_discards_unsealed_tail_chunk(checkpoint_dir, tmp_path):
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    junk = copy / "chunks" / "000007"
    junk.mkdir()
    (junk / "partial.bin").write_bytes(b"\x00" * 16)
    writer = ChunkedDatasetWriter(copy)
    ckpt = writer.resume()
    assert not junk.exists()
    assert ckpt["rounds_done"] == 5
    assert writer.rounds_done == 5


def test_checkpoint_with_retired_engine_key_still_resumes(
    checkpoint_dir, batch_dir, tmp_path
):
    """Checkpoints started before the campaign engine selector was
    retired carry an ``engine`` key; the reader ignores extra keys."""
    copy = _damaged_copy(checkpoint_dir, tmp_path)
    _doctor(copy, engine="epoch")
    assert ChunkedDatasetWriter(copy).resume()["rounds_done"] == 5
    out = tmp_path / "finalized"
    finalize_streaming_campaign(copy, out, passive=False)
    assert_trees_identical(batch_dir, out)


# --- passive capture cache --------------------------------------------------------


def _passive_writer(tmp_path):
    writer = ChunkedDatasetWriter(tmp_path)
    writer.start(study=None, addresses=[], shards=1, n_rounds=1)
    return writer


def test_passive_aggregate_cache_roundtrip(tmp_path):
    """The cache is the capture's two tables in the dataset's column
    format: recaching a reloaded capture writes the same bytes."""
    writer = _passive_writer(tmp_path)
    writer.cache_passive("isp", build_capture("isp", TINY_STREAM_SEED))
    assert writer.checkpoint["passive_done"] == ["isp"]
    reread = writer.cached_passive("isp")
    writer.cache_passive("isp2", reread)
    cache = tmp_path / "passive"
    assert not list(cache.glob("*.tmp"))
    first = {
        path.relative_to(cache / "isp"): path.read_bytes()
        for path in (cache / "isp").rglob("*.bin")
    }
    second = {
        path.relative_to(cache / "isp2"): path.read_bytes()
        for path in (cache / "isp2").rglob("*.bin")
    }
    assert first and first == second


def test_passive_aggregate_cache_missing_and_corrupt(tmp_path):
    writer = _passive_writer(tmp_path)
    with pytest.raises(CheckpointError, match="cache at .* is missing"):
        writer.cached_passive("isp")
    writer.cache_passive("isp", build_capture("isp", TINY_STREAM_SEED))
    (tmp_path / "passive" / "isp" / "MANIFEST.json").write_text("{not json")
    with pytest.raises(CheckpointError, match="passive cache .* is damaged"):
        writer.cached_passive("isp")
