"""Streamed campaigns: resume equivalence, guards, config recovery.

The crash-injection harness (tests/integration/test_crash_resume.py)
kills real subprocesses; these tests exercise the same resume machinery
in-process, where aborts are cheap enough to check one and two shards
and the guard rails around a bad resume.
"""

from __future__ import annotations

import pytest

from repro.core.streaming import (
    config_from_checkpoint,
    finalize_streaming_campaign,
    load_streaming_checkpoint,
    run_streaming_campaign,
)
from repro.data import CheckpointError

from tests.streamutil import assert_trees_identical, tiny_stream_config


class _Abort(Exception):
    """Raised from after_chunk to simulate dying at a chunk boundary."""


@pytest.mark.parametrize("shards", [1, 2], ids=["epoch-1", "epoch-2"])
def test_abort_and_resume_is_byte_identical(shards, tmp_path):
    config = tiny_stream_config(shards=shards)

    clean_ckpt = tmp_path / "clean-ckpt"
    run = run_streaming_campaign(config, clean_ckpt, checkpoint_every=2)
    assert run.complete and run.chunks == 3
    reference = tmp_path / "clean"
    finalize_streaming_campaign(clean_ckpt, reference, passive=False)

    # die right after the first seal, then resume to completion
    ckpt = tmp_path / "crashed-ckpt"

    def bomb(index, _chunk_dir, _lo, _hi):
        if index == 0:
            raise _Abort

    with pytest.raises(_Abort):
        run_streaming_campaign(config, ckpt, checkpoint_every=2, after_chunk=bomb)
    partial = load_streaming_checkpoint(ckpt)
    assert partial.meta["checkpoint"]["rounds_done"] == 2

    resumed = run_streaming_campaign(config, ckpt, checkpoint_every=2, resume=True)
    assert resumed.complete
    out = tmp_path / "resumed"
    finalize_streaming_campaign(ckpt, out, passive=False)
    assert_trees_identical(reference, out)


def test_resume_of_complete_checkpoint_is_a_noop(tmp_path):
    config = tiny_stream_config()
    ckpt = tmp_path / "ckpt"
    first = run_streaming_campaign(config, ckpt, checkpoint_every=2)
    again = run_streaming_campaign(config, ckpt, checkpoint_every=2, resume=True)
    assert again.complete and again.chunks == first.chunks
    assert again.collector.summary() == first.collector.summary()


def test_resume_rejects_different_study(tmp_path):
    ckpt = tmp_path / "ckpt"
    run_streaming_campaign(tiny_stream_config(), ckpt, checkpoint_every=2)
    other = tiny_stream_config(seed=78)
    with pytest.raises(CheckpointError, match="different.*study configuration"):
        run_streaming_campaign(other, ckpt, checkpoint_every=2, resume=True)


def test_fresh_run_refuses_existing_checkpoint(tmp_path):
    config = tiny_stream_config()
    ckpt = tmp_path / "ckpt"
    run_streaming_campaign(config, ckpt, checkpoint_every=2)
    with pytest.raises(CheckpointError, match="already exists"):
        run_streaming_campaign(config, ckpt, checkpoint_every=2)


def test_multiprocess_streaming_matches_in_process(tmp_path):
    """Shard workers on a process pool seal the same chunks — the
    finalized tree differs from the in-process run only in the study
    fingerprint's worker count."""
    import json

    from tests.streamutil import tree_bytes

    ckpt1, ckpt2 = tmp_path / "ckpt1", tmp_path / "ckpt2"
    run_streaming_campaign(
        tiny_stream_config().with_sharding(2, workers=1), ckpt1, checkpoint_every=2
    )
    mp_run = run_streaming_campaign(
        tiny_stream_config().with_sharding(2, workers=2), ckpt2, checkpoint_every=2
    )
    assert mp_run.complete and mp_run.chunks == 3
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    finalize_streaming_campaign(ckpt1, out1, passive=False)
    finalize_streaming_campaign(ckpt2, out2, passive=False)

    left, right = tree_bytes(out1), tree_bytes(out2)
    assert set(left) == set(right)
    different = [name for name in left if left[name] != right[name]]
    assert different in ([], ["MANIFEST.json"])
    m1 = json.loads(left["MANIFEST.json"])
    m2 = json.loads(right["MANIFEST.json"])
    m1["study"]["workers"] = m2["study"]["workers"] = 0
    assert m1 == m2


def test_checkpoint_every_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="checkpoint_every"):
        run_streaming_campaign(
            tiny_stream_config(), tmp_path / "ckpt", checkpoint_every=0
        )


def test_config_from_checkpoint_roundtrips(tmp_path):
    config = tiny_stream_config()
    ckpt = tmp_path / "ckpt"
    run_streaming_campaign(config, ckpt, checkpoint_every=3)
    assert config_from_checkpoint(ckpt) == config


# --- finalize-phase passive cache -------------------------------------------------


@pytest.fixture(scope="module")
def sealed_checkpoint(tmp_path_factory):
    """A fully sealed streamed run of the tiny study (copy before use:
    finalize records its passive captures in the checkpoint)."""
    ckpt = tmp_path_factory.mktemp("sealed") / "ckpt"
    run_streaming_campaign(tiny_stream_config(), ckpt, checkpoint_every=2)
    return ckpt


def test_finalize_resumes_passive_cache_after_crash(
    sealed_checkpoint, tmp_path, monkeypatch
):
    """A finalize that dies while building the second capture resumes
    from the first one's cache and still matches the batch save."""
    import shutil

    import repro.passive.recipes as recipes
    from repro.core.pipeline import StudyPipeline
    from repro.data import CheckpointReader

    from tests.streamutil import assert_trees_identical

    ckpt = tmp_path / "ckpt"
    shutil.copytree(sealed_checkpoint, ckpt)
    real_build = recipes.build_capture
    built = []

    def build_once(name, seed, traffic=None):
        if built:
            raise _Abort
        built.append(name)
        return real_build(name, seed, traffic)

    monkeypatch.setattr(recipes, "build_capture", build_once)
    with pytest.raises(_Abort):
        finalize_streaming_campaign(ckpt, tmp_path / "out")
    assert CheckpointReader(ckpt).checkpoint()["passive_done"] == ["isp"]

    rebuilt = []

    def build_counted(name, seed, traffic=None):
        rebuilt.append(name)
        return real_build(name, seed, traffic)

    monkeypatch.setattr(recipes, "build_capture", build_counted)
    out = finalize_streaming_campaign(ckpt, tmp_path / "out")
    assert rebuilt == ["ixp-eu", "ixp-na"]
    batch = StudyPipeline(tiny_stream_config()).run().save(tmp_path / "batch")
    assert_trees_identical(batch, out)


def test_truncated_passive_cache_column_raises(sealed_checkpoint, tmp_path):
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(sealed_checkpoint, ckpt)
    finalize_streaming_campaign(ckpt, tmp_path / "out")
    column = ckpt / "passive" / "ixp-eu" / "tables" / "passive_clients" / "flows.bin"
    column.write_bytes(column.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="passive cache .* is damaged"):
        finalize_streaming_campaign(ckpt, tmp_path / "again")
