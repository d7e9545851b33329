"""Subprocess target for the crash-injection harness.

Runs the tiny streamed campaign and — when told to — SIGKILLs itself at
one of three points:

* ``--kill-after-chunk N``: right after chunk N's seal returns.  The
  chunk and checkpoint are durable, every in-memory structure past them
  is lost.
* ``--kill-before-commit N``: inside chunk N's seal, after its
  directory and ``state/`` are durable but before ``CHECKPOINT.json`` is
  replaced — the chunk is an unsealed tail that resume must discard.
* ``--kill-after-passive N`` (with ``--finalize OUT``): during finalize's
  passive phase, right after the N-th captured aggregate is recorded in
  the checkpoint.

The last two wrap ``ChunkedDatasetWriter._write_checkpoint`` in this
process only.  Invoked by tests/integration/test_crash_resume.py as::

    python -m tests.integration._crash_child CKPT_DIR \
        --engine epoch --shards 2 [--workers N] \
        [--kill-after-chunk N | --kill-before-commit N] [--resume] \
        [--finalize OUT [--kill-after-passive N]]
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro.core.streaming import finalize_streaming_campaign, run_streaming_campaign
from repro.data.chunks import ChunkedDatasetWriter

from tests.streamutil import tiny_stream_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("checkpoint_dir")
    parser.add_argument("--engine", default="epoch")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--checkpoint-every", type=int, default=2)
    parser.add_argument("--kill-after-chunk", type=int, default=-1)
    parser.add_argument("--kill-before-commit", type=int, default=-1)
    parser.add_argument("--kill-after-passive", type=int, default=-1)
    parser.add_argument("--finalize", default=None)
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args(argv)

    commit = ChunkedDatasetWriter._write_checkpoint

    def killing_commit(writer):
        ckpt = writer._checkpoint
        if 0 <= args.kill_before_commit == len(ckpt["chunks"]) - 1:
            os.kill(os.getpid(), signal.SIGKILL)
        commit(writer)
        if len(ckpt["passive_done"]) == args.kill_after_passive:
            os.kill(os.getpid(), signal.SIGKILL)

    ChunkedDatasetWriter._write_checkpoint = killing_commit

    config = tiny_stream_config(
        engine=args.engine, shards=args.shards, workers=args.workers
    )

    def maybe_kill(index, _chunk_dir, _lo, _hi):
        if index == args.kill_after_chunk:
            os.kill(os.getpid(), signal.SIGKILL)

    run = run_streaming_campaign(
        config,
        args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        after_chunk=maybe_kill,
    )
    if args.finalize is not None:
        finalize_streaming_campaign(args.checkpoint_dir, args.finalize)
    return 0 if run.complete else 1


if __name__ == "__main__":
    sys.exit(main())
