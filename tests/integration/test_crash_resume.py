"""Crash-injection harness: SIGKILL at a chunk boundary, then resume.

The acceptance invariant of the streaming layer, checked end-to-end with
real process death: a campaign killed with SIGKILL immediately after a
chunk seal, resumed in a *fresh* process, finalizes into a dataset
directory byte-identical to an uninterrupted run — serial, for sharded
rings and with shards on a worker pool.  The kill point is drawn from a
seeded RNG so the suite stays deterministic while the boundary under
test varies across the matrix.  Two more windows are killed on purpose:
inside a seal between the chunk's durable ``state/`` and the checkpoint
commit, and inside finalize's passive phase.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.streaming import finalize_streaming_campaign
from repro.data import CHECKPOINT_NAME

from tests.streamutil import assert_trees_identical

REPO_ROOT = Path(__file__).resolve().parents[2]
N_CHUNKS = 3  # 5 rounds, checkpoint_every=2 -> [0,2) [2,4) [4,5)


def _run_child(
    checkpoint_dir,
    engine,
    shards,
    *,
    workers=1,
    kill_after=None,
    resume=False,
    extra=(),
):
    argv = [
        sys.executable,
        "-m",
        "tests.integration._crash_child",
        str(checkpoint_dir),
        "--engine", engine,
        "--shards", str(shards),
        "--workers", str(workers),
    ]
    if kill_after is not None:
        argv += ["--kill-after-chunk", str(kill_after)]
    if resume:
        argv.append("--resume")
    argv += list(extra)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Capture into *files*, not pipes: a SIGKILLed child's pool workers
    # hold its inherited stdout/stderr for a moment before the orphan
    # watchdog fires, and pipe capture would wait on them for EOF
    # instead of returning when the child itself is reaped.
    out_path = Path(str(checkpoint_dir) + ".stdout")
    err_path = Path(str(checkpoint_dir) + ".stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.run(
            argv, cwd=REPO_ROOT, env=env, stdout=out, stderr=err,
            timeout=600,
        )
    proc.stdout = out_path.read_text()
    proc.stderr = err_path.read_text()
    return proc


@pytest.mark.parametrize("engine", ["epoch"])
@pytest.mark.parametrize("shards", [1, 2])
def test_sigkill_at_chunk_boundary_resumes_byte_identical(
    engine, shards, tmp_path
):
    # uninterrupted reference, streamed in its own process
    clean_ckpt = tmp_path / "clean-ckpt"
    done = _run_child(clean_ckpt, engine, shards)
    assert done.returncode == 0, done.stderr
    reference = tmp_path / "reference"
    finalize_streaming_campaign(clean_ckpt, reference, passive=False)

    # kill after a seeded-random sealed boundary (never the final seal,
    # so the resumed process has real work left)
    kill_after = random.Random(f"{engine}-{shards}").randrange(N_CHUNKS - 1)
    ckpt = tmp_path / "crash-ckpt"
    killed = _run_child(ckpt, engine, shards, kill_after=kill_after)
    assert killed.returncode == -signal.SIGKILL, (
        killed.returncode, killed.stderr
    )
    ckpt_state = json.loads((ckpt / CHECKPOINT_NAME).read_text())
    assert 0 < ckpt_state["rounds_done"] < 5

    resumed = _run_child(ckpt, engine, shards, resume=True)
    assert resumed.returncode == 0, resumed.stderr

    out = tmp_path / "resumed"
    finalize_streaming_campaign(ckpt, out, passive=False)
    assert_trees_identical(reference, out)


@pytest.mark.parametrize("engine", ["epoch"])
def test_sigkill_with_multiprocess_workers_resumes_byte_identical(
    engine, tmp_path
):
    """SIGKILL of the *parent* mid-campaign with shard workers on a
    process pool: the sealed prefix survives, the resume (also with
    workers) finalizes byte-identically to an uninterrupted multiprocess
    run."""
    shards, workers = 2, 2
    clean_ckpt = tmp_path / "clean-ckpt"
    done = _run_child(clean_ckpt, engine, shards, workers=workers)
    assert done.returncode == 0, done.stderr
    reference = tmp_path / "reference"
    finalize_streaming_campaign(clean_ckpt, reference, passive=False)

    kill_after = random.Random(f"mp-{engine}").randrange(N_CHUNKS - 1)
    ckpt = tmp_path / "crash-ckpt"
    killed = _run_child(
        ckpt, engine, shards, workers=workers, kill_after=kill_after
    )
    assert killed.returncode == -signal.SIGKILL, (
        killed.returncode, killed.stderr
    )
    ckpt_state = json.loads((ckpt / CHECKPOINT_NAME).read_text())
    assert 0 < ckpt_state["rounds_done"] < 5

    resumed = _run_child(ckpt, engine, shards, workers=workers, resume=True)
    assert resumed.returncode == 0, resumed.stderr

    out = tmp_path / "resumed"
    finalize_streaming_campaign(ckpt, out, passive=False)
    assert_trees_identical(reference, out)


def test_resume_survives_a_second_kill(tmp_path):
    """Two crashes in one campaign: kill, resume-and-kill again, resume."""
    engine, shards = "epoch", 1
    clean_ckpt = tmp_path / "clean-ckpt"
    assert _run_child(clean_ckpt, engine, shards).returncode == 0
    reference = tmp_path / "reference"
    finalize_streaming_campaign(clean_ckpt, reference, passive=False)

    ckpt = tmp_path / "crash-ckpt"
    first = _run_child(ckpt, engine, shards, kill_after=0)
    assert first.returncode == -signal.SIGKILL
    second = _run_child(ckpt, engine, shards, kill_after=1, resume=True)
    assert second.returncode == -signal.SIGKILL
    final = _run_child(ckpt, engine, shards, resume=True)
    assert final.returncode == 0, final.stderr

    out = tmp_path / "resumed"
    finalize_streaming_campaign(ckpt, out, passive=False)
    assert_trees_identical(reference, out)


@pytest.mark.parametrize("shards", [1, 2])
def test_sigkill_between_state_and_commit_discards_the_tail(shards, tmp_path):
    """Killed after a chunk's ``state/`` is durable but before
    CHECKPOINT.json lists the chunk: resume discards that directory,
    re-runs its rounds and finalizes byte-identically."""
    engine = "epoch"
    clean_ckpt = tmp_path / "clean-ckpt"
    assert _run_child(clean_ckpt, engine, shards).returncode == 0
    reference = tmp_path / "reference"
    finalize_streaming_campaign(clean_ckpt, reference, passive=False)

    ckpt = tmp_path / "crash-ckpt"
    killed = _run_child(
        ckpt, engine, shards, extra=["--kill-before-commit", "1"]
    )
    assert killed.returncode == -signal.SIGKILL, (
        killed.returncode, killed.stderr
    )
    ckpt_state = json.loads((ckpt / CHECKPOINT_NAME).read_text())
    assert [entry["name"] for entry in ckpt_state["chunks"]] == ["000000"]
    tail = ckpt / "chunks" / "000001"
    assert (tail / "state" / "STATE.json").is_file()  # the window was hit
    assert (tail / "state" / "shards").is_dir() == (shards > 1)

    resumed = _run_child(ckpt, engine, shards, resume=True)
    assert resumed.returncode == 0, resumed.stderr
    out = tmp_path / "resumed"
    finalize_streaming_campaign(ckpt, out, passive=False)
    assert_trees_identical(reference, out)


def test_sigkill_during_passive_finalize_resumes_byte_identical(tmp_path):
    """Killed during finalize's passive phase, right after the first
    capture is cached and recorded: a fresh finalize reuses that cache,
    builds the rest, and matches an uninterrupted finalize."""
    engine, shards = "epoch", 1
    clean_ckpt = tmp_path / "clean-ckpt"
    reference = tmp_path / "reference"
    done = _run_child(
        clean_ckpt, engine, shards, extra=["--finalize", str(reference)]
    )
    assert done.returncode == 0, done.stderr

    ckpt = tmp_path / "crash-ckpt"
    killed = _run_child(
        ckpt,
        engine,
        shards,
        extra=["--finalize", str(tmp_path / "killed"), "--kill-after-passive", "1"],
    )
    assert killed.returncode == -signal.SIGKILL, (
        killed.returncode, killed.stderr
    )
    ckpt_state = json.loads((ckpt / CHECKPOINT_NAME).read_text())
    assert ckpt_state["passive_done"] == ["isp"]
    assert ckpt_state["rounds_done"] == 5
    assert not (tmp_path / "killed").exists()

    out = tmp_path / "resumed"
    resumed = _run_child(
        ckpt, engine, shards, resume=True, extra=["--finalize", str(out)]
    )
    assert resumed.returncode == 0, resumed.stderr
    assert_trees_identical(reference, out)
