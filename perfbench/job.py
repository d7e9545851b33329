"""One repetition of a ``save-churn`` or ``stream-dense`` job, in a fresh
process.

Run by ``run.py`` with ``PYTHONPATH=src``; writes ``job.json`` into the
``--out`` directory.  ``--spawn-t`` is the parent's ``perf_counter()``
just before it started this process (the monotonic clock is shared
between processes on Linux), so ``setup_s`` covers interpreter start
and imports too.

Modes:

* ``setup`` — stop once the platform is built (a cheap extra sample of
  ``setup_s``);
* ``full`` — run the job to a finalized dataset directory under
  ``--out/dataset``.

With ``--trace 1`` spans are recorded around each layer call, and
around the calls the program's own entry points make inside (dataset
assembly, transfer sealing, passive captures, writes, chunk seals) by
wrapping those functions.  Untraced runs patch nothing.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import common


def dataset_counters(path: Path) -> dict:
    """Row counts of a saved dataset, from its manifest summary."""
    summary = json.loads((path / "MANIFEST.json").read_text())["summary"]
    return {
        "vantage.queries": summary.get("queries", 0),
        "vantage.rows": summary.get("probe_samples", 0)
        + summary.get("traceroute_samples", 0),
        "transfers.observations": summary.get("transfer_observations", 0),
    }


def run_setup(workload: str, seed: int, tracer: common.Tracer):
    from repro.core.pipeline import StudyPipeline

    stamps = {"config": time.perf_counter()}
    with tracer.span("scenarios.compose"):
        config = common.study_config(workload, seed)
    pipeline = StudyPipeline(config)
    with tracer.span("pipeline.build_world"):
        pipeline.build_world()
    with tracer.span("pipeline.build_platform"):
        platform = pipeline.build_platform()
    stamps["platform"] = time.perf_counter()
    return config, pipeline, platform, stamps


def run_save(config, pipeline, platform, out: Path, tracer: common.Tracer) -> dict:
    """``rootsim-study --save``'s work: ``pipeline.run()`` then
    ``StudyResults.save``.  Traced runs wrap the layer calls ``save``
    makes, so each is spanned without copying the sequence here."""
    import repro.data
    import repro.data.dataset as dataset_module
    import repro.passive.recipes as recipes
    from repro.dnssec.digestcache import shared_cache

    if tracer.enabled:
        tracer.wrap(dataset_module.Dataset, "from_collector", "data.assemble")
        tracer.wrap(dataset_module, "seal_transfers", "transfers.seal")
        tracer.wrap(recipes, "standard_captures", "passive.captures")
        tracer.wrap(repro.data, "save_dataset", "data.write")

    with tracer.span("vantage.campaign"):
        results = pipeline.run()
    with tracer.span("results.save"):
        path = results.save(str(out / "dataset"))
    return {
        "dataset": str(path),
        "counters": {
            **dataset_counters(path),
            "vantage.rounds": platform.schedule.round_count(),
            "transfers.contents": len(shared_cache()),
        },
    }


def run_stream(config, workload: str, out: Path, tracer: common.Tracer) -> dict:
    """``rootsim-study --checkpoint DIR --save``'s work: the streamed
    campaign with a per-chunk callback, then finalize."""
    import repro.data.chunks as chunks
    import repro.passive.recipes as recipes
    from repro.core.streaming import (
        finalize_streaming_campaign,
        run_streaming_campaign,
    )
    from repro.dnssec.digestcache import shared_cache

    if tracer.enabled:
        tracer.wrap(chunks, "seal_transfers", "transfers.seal")
        tracer.wrap(chunks.ChunkedDatasetWriter, "seal_chunk", "streaming.seal_chunk")
        tracer.wrap(chunks.ChunkedDatasetWriter, "finalize", "data.write")
        tracer.wrap(recipes, "build_capture", "passive.captures")

    checkpoint = out / "checkpoint"
    chunk_span = [None]

    def after_chunk(_index, _chunk_dir, _lo, _hi):
        tracer.end(chunk_span[0])
        chunk_span[0] = tracer.begin("streaming.chunk")

    with tracer.span("streaming.run"):
        chunk_span[0] = tracer.begin("streaming.chunk")
        run = run_streaming_campaign(
            config,
            checkpoint,
            checkpoint_every=int(common.SHAPES[workload]["checkpoint_every"]),
            after_chunk=after_chunk,
        )
        if chunk_span[0] is not None:
            # the span opened after the last seal covers only the return
            tracer.spans[chunk_span[0]]["name"] = "streaming.tail"
        tracer.end(chunk_span[0])
    with tracer.span("streaming.finalize"):
        path = finalize_streaming_campaign(checkpoint, out / "dataset")
    return {
        "dataset": str(path),
        "counters": {
            **dataset_counters(path),
            "vantage.rounds": run.n_rounds,
            "transfers.contents": len(shared_cache()),
            "streaming.chunks": run.chunks,
            "streaming.checkpoint_bytes": common.tree_bytes(checkpoint),
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("save-churn", "stream-dense"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "full"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-t", type=float, required=True)
    args = parser.parse_args()

    tracer = common.Tracer(enabled=bool(args.trace))
    with tracer.span("imports"):
        import repro.core.pipeline  # noqa: F401  (the job's import cost)
        import repro.scenarios  # noqa: F401
    config, pipeline, platform, stamps = run_setup(args.workload, args.seed, tracer)
    result = {"setup_s": stamps["platform"] - args.spawn_t}
    if args.mode == "full":
        if args.workload == "save-churn":
            result.update(run_save(config, pipeline, platform, args.out, tracer))
        else:
            result.update(run_stream(config, args.workload, args.out, tracer))
        stamps["end"] = time.perf_counter()
        result["wall_s"] = stamps["end"] - stamps["config"]
    result["peak_rss_mb"] = common.peak_rss_mb()
    result["stamps"] = stamps
    result["spans"] = tracer.spans
    (args.out / "job.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
