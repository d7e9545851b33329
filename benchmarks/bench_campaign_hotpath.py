"""Campaign hot-path benchmark: scalar engine vs the epoch-compiled engine.

Runs the same campaign on both execution engines (serial and sharded),
checks that every variant produces a byte-identical collector, and writes
the timings to ``BENCH_hotpath.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign_hotpath.py --scale bench
    PYTHONPATH=src python benchmarks/bench_campaign_hotpath.py --scale tiny \
        --min-speedup 1.0   # CI smoke: equivalence + "epoch not slower"

Exits non-zero when any variant's collector differs from the scalar
serial baseline, or when the epoch engine's serial speedup falls below
``--min-speedup``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core.config import StudyConfig
from repro.core.pipeline import StudyPipeline
from repro.util.timeutil import parse_ts
from repro.vantage.collector import CampaignCollector

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_config(scale: str) -> StudyConfig:
    if scale == "bench":
        # The bench-scale campaign: full timeline, ~89 VPs.
        return StudyConfig(
            seed=2024,
            ring_scale=0.1,
            ring_min_per_region=8,
            interval_scale=48.0,
            rtt_sample_every=1,
            traceroute_sample_every=2,
            axfr_sample_every=2,
            clean_transfer_keep_one_in=200,
        )
    # "tiny": a dozen VPs over a month around the ZONEMD switch —
    # CI-friendly, still exercising sampling, traceroutes, transfers and
    # enough rounds that engine timing differences beat scheduler noise.
    return StudyConfig(
        seed=77,
        ring_scale=0.02,
        interval_scale=96.0,
        campaign_start=parse_ts("2023-11-15"),
        campaign_end=parse_ts("2023-12-15"),
        rtt_sample_every=1,
        traceroute_sample_every=2,
        axfr_sample_every=2,
        clean_transfer_keep_one_in=20,
    )


def collector_mismatches(
    candidate: CampaignCollector, baseline: CampaignCollector
) -> List[str]:
    """Differences between two collectors; empty means byte-identical."""
    diffs: List[str] = []
    if candidate.summary() != baseline.summary():
        diffs.append("summary")
    if candidate.change_counts() != baseline.change_counts():
        diffs.append("change_counts")
    if candidate.sites.values != baseline.sites.values:
        diffs.append("sites interner")
    if candidate.hops.values != baseline.hops.values:
        diffs.append("hops interner")
    if candidate.identities != baseline.identities or any(
        list(candidate.identities[letter]) != list(baseline.identities[letter])
        for letter in baseline.identities
    ):
        diffs.append("identities")
    for getter in ("probe_columns", "traceroute_columns"):
        c_cols = getattr(candidate, getter)()
        b_cols = getattr(baseline, getter)()
        for name in b_cols:
            if not np.array_equal(c_cols[name], b_cols[name]):
                diffs.append(f"{getter}[{name}]")
    key = lambda o: (
        o.vp_id, o.true_ts, o.observed_ts, o.address.label, o.serial,
        o.fault, o.fault_detail,
    )
    if [key(o) for o in candidate.transfers] != [key(o) for o in baseline.transfers]:
        diffs.append("transfers")
    if candidate.transfer_clean != baseline.transfer_clean:
        diffs.append("transfer_clean")
    return diffs


def run_variant(
    config: StudyConfig, engine: str, shards: int, workers: int = 1
) -> Tuple[CampaignCollector, float, float]:
    """Run one campaign variant; returns (collector, build s, campaign s)."""
    variant = config.with_engine(engine)
    if shards > 1 or workers > 1:
        variant = variant.with_sharding(shards, workers=workers)
    pipeline = StudyPipeline(variant)
    started = time.perf_counter()
    pipeline.build_platform()
    built = time.perf_counter()
    collector = pipeline.run_campaign()
    return collector, built - started, time.perf_counter() - built


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("tiny", "bench"), default="bench")
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_hotpath.json"),
        help="result file (default: BENCH_hotpath.json at the repo root)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail unless serial epoch/scalar speedup reaches this factor",
    )
    args = parser.parse_args(argv)

    config = make_config(args.scale)
    variants = [
        ("scalar", 1, 1),
        ("scalar", 2, 1),
        ("epoch", 1, 1),
        ("epoch", 2, 1),
        ("epoch", 4, 1),
    ]

    # Un-timed warm-up: the variants share the checkpointed world, so the
    # first timed run must not be the one paying zone building, AXFR and
    # route-cache warm-up for everyone.
    run_variant(config, "epoch", 1)

    runs = []
    baseline: Optional[CampaignCollector] = None
    times: Dict[Tuple[str, int], float] = {}
    failures: List[str] = []
    for engine, shards, workers in variants:
        collector, build_s, campaign_s = run_variant(config, engine, shards, workers)
        times[(engine, shards)] = campaign_s
        if baseline is None:
            baseline = collector
            mismatches: List[str] = []
        else:
            mismatches = collector_mismatches(collector, baseline)
            if mismatches:
                failures.append(
                    f"{engine}/shards={shards} differs from scalar serial: "
                    + ", ".join(mismatches)
                )
        label = f"{engine:<6s} shards={shards}"
        status = "IDENTICAL" if not mismatches else "DIFFERS: " + ", ".join(mismatches)
        print(f"{label}  campaign {campaign_s:7.2f}s  build {build_s:5.2f}s  {status}")
        runs.append(
            {
                "engine": engine,
                "shards": shards,
                "workers": workers,
                "build_seconds": round(build_s, 2),
                "campaign_seconds": round(campaign_s, 2),
                "identical_to_baseline": not mismatches,
                "summary": collector.summary(),
            }
        )

    speedup = (
        times[("scalar", 1)] / times[("epoch", 1)] if times[("epoch", 1)] else 0.0
    )
    print(f"serial speedup (scalar/epoch): {speedup:.1f}x")
    if args.min_speedup is not None and speedup < args.min_speedup:
        failures.append(
            f"serial epoch speedup {speedup:.2f}x below required {args.min_speedup}x"
        )

    config_dict = asdict(config)
    report = {
        "benchmark": "campaign hot path: scalar engine vs epoch-compiled engine",
        "scale": args.scale,
        "config": config_dict,
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        # High-water mark of this (parent) process over every variant.
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "equivalence": (
            "all variants byte-identical to the scalar serial baseline"
            if not failures
            else failures
        ),
        "serial_speedup": round(speedup, 2),
        "runs": runs,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"results written to {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
