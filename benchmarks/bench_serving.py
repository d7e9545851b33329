"""Analysis-serving load test: cached HTTP latency vs cold computation.

Builds one campaign dataset, serves it with ``rootsim-serve`` (stdlib
server, real subprocess, real sockets), and measures:

* **equivalence** — every registered analysis fetched over HTTP must be
  byte-identical to ``rootsim-analyze DIR NAME --json`` (the CLI run in
  its own subprocess, exactly as a user would);
* **cold vs warm** — the in-process computation time of each analysis
  (what every request would pay without the cache) against the served
  warm-cache p50; the two heaviest analyses gate the speedup
  (``--min-warm-speedup``, the ≥10x acceptance bar);
* **a concurrency sweep** — keep-alive clients at ``--concurrency``
  levels (default 1, 4, 16) hammering the analysis endpoints for
  ``--duration`` seconds each, reporting p50/p99 latency, requests/s and
  the server's cache hit ratio per level, plus a conditional
  (``If-None-Match``) pass measuring the 304 path.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py --scale bench \
        --min-warm-speedup 10
    PYTHONPATH=src python benchmarks/bench_serving.py --scale tiny \
        --duration 1.5 --output BENCH_serving_ci.json   # CI smoke

Exits non-zero on any equivalence mismatch, request error, or a failed
speedup gate.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from benchutil import cpu_scaling_meta
from repro.core.config import StudyConfig
from repro.util.timeutil import parse_ts

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
    # "tiny": a dozen VPs over a month around the ZONEMD switch — a
    # CI-friendly campaign that still exercises sampling, traceroutes
    # and transfers.
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


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def build_dataset(scale: str, directory: str) -> Dict[str, object]:
    """Run the campaign and save it (passive tables included, so the
    passive analyses replay from disk like a real served dataset)."""
    from repro.core import StudyPipeline

    started = time.perf_counter()
    results = StudyPipeline(make_config(scale)).run()
    campaign_s = time.perf_counter() - started
    started = time.perf_counter()
    results.save(directory)
    save_s = time.perf_counter() - started
    return {
        "campaign_seconds": round(campaign_s, 2),
        "save_seconds": round(save_s, 2),
        "summary": results.collector.summary(),
    }


def start_server(dataset_dir: str) -> Tuple[subprocess.Popen, int]:
    """``rootsim-serve --port 0`` as a subprocess; returns (proc, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "from repro.serving.app import serve_main; import sys; "
         "sys.exit(serve_main(sys.argv[1:]))",
         dataset_dir, "--port", "0"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    if "http://" not in line:
        proc.kill()
        raise RuntimeError(
            f"server failed to start: {line!r}\n{proc.stderr.read()}"
        )
    port = int(line.rsplit(":", 1)[1].split()[0])
    return proc, port


def fetch(
    port: int, path: str, headers: Optional[Dict[str, str]] = None,
    method: str = "GET",
) -> Tuple[int, Dict[str, str], bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


def sweep_level(
    port: int,
    dataset_id: str,
    analyses: List[str],
    concurrency: int,
    duration: float,
    conditional: bool,
) -> Dict[str, object]:
    """One load level: *concurrency* keep-alive clients looping over the
    analysis endpoints for *duration* seconds."""
    stop_at = time.perf_counter() + duration
    errors: List[str] = []
    per_thread: List[List[float]] = [[] for _ in range(concurrency)]
    statuses: Dict[int, int] = {}
    status_lock = threading.Lock()

    def client(worker: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        etags: Dict[str, str] = {}
        latencies = per_thread[worker]
        step = worker  # stagger starting offsets across workers
        try:
            while time.perf_counter() < stop_at:
                name = analyses[step % len(analyses)]
                step += 1
                path = f"/datasets/{dataset_id}/analyses/{name}"
                headers = {}
                if conditional and name in etags:
                    headers["If-None-Match"] = etags[name]
                started = time.perf_counter()
                conn.request("GET", path, headers=headers)
                resp = conn.getresponse()
                body = resp.read()
                latencies.append(time.perf_counter() - started)
                with status_lock:
                    statuses[resp.status] = statuses.get(resp.status, 0) + 1
                if resp.status == 200:
                    etag = resp.headers.get("ETag")
                    if etag:
                        etags[name] = etag
                elif resp.status != 304:
                    errors.append(f"{path} -> {resp.status}: {body[:120]!r}")
                    return
        except Exception as exc:  # connection failures are bench failures
            errors.append(f"worker {worker}: {type(exc).__name__}: {exc}")
        finally:
            conn.close()

    stats_before = json.loads(fetch(port, "/stats")[2])["cache"]
    started = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(worker,))
        for worker in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    stats_after = json.loads(fetch(port, "/stats")[2])["cache"]

    latencies = [sample for bucket in per_thread for sample in bucket]
    hits = stats_after["hits"] - stats_before["hits"]
    misses = stats_after["misses"] - stats_before["misses"]
    return {
        "concurrency": concurrency,
        "conditional": conditional,
        "duration_seconds": round(elapsed, 2),
        "requests": len(latencies),
        "requests_per_second": round(len(latencies) / elapsed, 1) if elapsed else 0.0,
        "p50_ms": round(percentile(latencies, 0.50) * 1e3, 3) if latencies else None,
        "p99_ms": round(percentile(latencies, 0.99) * 1e3, 3) if latencies else None,
        "statuses": {str(code): count for code, count in sorted(statuses.items())},
        "cache_hit_ratio": round(hits / (hits + misses), 4) if hits + misses else None,
        "errors": errors,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("tiny", "bench"), default="bench")
    parser.add_argument(
        "--concurrency", default="1,4,16",
        help="comma-separated client counts for the sweep (default 1,4,16)",
    )
    parser.add_argument(
        "--duration", type=float, default=5.0,
        help="seconds of load per concurrency level (default 5)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="cold-computation timings per analysis; medians reported",
    )
    parser.add_argument(
        "--min-warm-speedup", type=float, default=None,
        help="fail unless warm-cache served p50 beats the cold in-process "
             "computation by this factor for the two heaviest analyses",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_serving.json"),
        help="result file (default: BENCH_serving.json at the repo root)",
    )
    parser.add_argument(
        "--dataset-dir", default=None,
        help="reuse a saved dataset instead of running the campaign",
    )
    args = parser.parse_args(argv)
    levels = [int(part) for part in args.concurrency.split(",") if part.strip()]
    if len(levels) < 3:
        print(
            f"warning: only {len(levels)} concurrency level(s); the "
            f"published sweep should cover at least 3",
            file=sys.stderr,
        )

    import shutil
    import tempfile

    failures: List[str] = []
    work = None
    if args.dataset_dir:
        dataset_dir = args.dataset_dir
        build = {"reused": dataset_dir}
    else:
        work = tempfile.mkdtemp(prefix="bench-serving-")
        dataset_dir = os.path.join(work, "ds")
        print(f"building {args.scale} dataset ...")
        build = build_dataset(args.scale, dataset_dir)
        print(f"  campaign {build['campaign_seconds']}s, "
              f"save {build['save_seconds']}s")
    dataset_id = os.path.basename(dataset_dir.rstrip(os.sep))

    # -- cold: what every request would pay without the cache ----------------
    from repro.analysis.summaries import analysis_json_bytes, analysis_inputs
    from repro.data import load_dataset
    from repro.serving.catalog import CatalogEntry

    entry = CatalogEntry(dataset_id, __import__("pathlib").Path(dataset_dir))
    analyses = entry.analyses()
    print(f"cold in-process computation ({args.repeats} repeats):")
    dataset = load_dataset(dataset_dir)
    cold: Dict[str, float] = {}
    served_bytes: Dict[str, bytes] = {}
    for name in analyses:
        runs = []
        for _ in range(max(args.repeats, 1)):
            fresh = load_dataset(dataset_dir)  # no warm mmap pages carried over
            started = time.perf_counter()
            served_bytes[name] = analysis_json_bytes(fresh, name)
            runs.append(time.perf_counter() - started)
        cold[name] = statistics.median(runs)
        print(f"  {name:<16s} {cold[name] * 1e3:9.1f} ms")
    heaviest = sorted(cold, key=cold.get, reverse=True)[:2]
    print(f"heaviest analyses: {', '.join(heaviest)}")

    proc, port = start_server(dataset_dir)
    try:
        # -- equivalence: served bytes == rootsim-analyze --json -------------
        print("equivalence: served JSON vs rootsim-analyze --json ...")
        for name in analyses:
            status, _, body = fetch(
                port, f"/datasets/{dataset_id}/analyses/{name}"
            )
            if status != 200:
                failures.append(f"{name}: HTTP {status}: {body[:200]!r}")
                continue
            cli = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from repro.cli import analyze_main; "
                 "sys.exit(analyze_main(sys.argv[1:]))",
                 dataset_dir, name, "--json"],
                env=_env(), capture_output=True,
            )
            if cli.returncode != 0:
                failures.append(
                    f"{name}: rootsim-analyze --json failed: "
                    f"{cli.stderr.decode()[:200]}"
                )
            elif cli.stdout != body + b"\n":
                failures.append(
                    f"{name}: served bytes differ from rootsim-analyze --json"
                )
        if not any(failure for failure in failures):
            print(f"  all {len(analyses)} analyses byte-identical")

        # -- warm p50 per analysis (sequential, cache hot) --------------------
        warm: Dict[str, float] = {}
        for name in analyses:
            samples = []
            for _ in range(30):
                started = time.perf_counter()
                status, _, _ = fetch(
                    port, f"/datasets/{dataset_id}/analyses/{name}"
                )
                samples.append(time.perf_counter() - started)
                if status != 200:
                    failures.append(f"warm {name}: HTTP {status}")
                    break
            warm[name] = percentile(samples, 0.50)
        speedups = {
            name: (cold[name] / warm[name] if warm[name] else 0.0)
            for name in analyses
        }
        for name in heaviest:
            print(f"warm p50 {name}: {warm[name] * 1e3:.2f} ms "
                  f"({speedups[name]:.0f}x cold)")
            if (
                args.min_warm_speedup is not None
                and speedups[name] < args.min_warm_speedup
            ):
                failures.append(
                    f"{name}: warm speedup {speedups[name]:.1f}x below the "
                    f"--min-warm-speedup {args.min_warm_speedup}x gate"
                )

        # -- concurrency sweep ------------------------------------------------
        sweep: List[Dict[str, object]] = []
        for concurrency in levels:
            fetch(port, "/cache/clear", method="POST")
            # one untimed warm pass so the level measures steady state,
            # not the first-miss computation spike
            for name in analyses:
                fetch(port, f"/datasets/{dataset_id}/analyses/{name}")
            level = sweep_level(
                port, dataset_id, analyses, concurrency, args.duration,
                conditional=False,
            )
            sweep.append(level)
            failures.extend(level.pop("errors"))
            print(f"c={concurrency:<3d} {level['requests']:6d} req  "
                  f"{level['requests_per_second']:8.1f} req/s  "
                  f"p50 {level['p50_ms']:7.3f} ms  "
                  f"p99 {level['p99_ms']:7.3f} ms  "
                  f"hit {level['cache_hit_ratio']}")
        conditional = sweep_level(
            port, dataset_id, analyses, levels[-1], args.duration,
            conditional=True,
        )
        failures.extend(conditional.pop("errors"))
        print(f"conditional (If-None-Match) c={levels[-1]}: "
              f"{conditional['requests_per_second']:.1f} req/s  "
              f"p50 {conditional['p50_ms']:.3f} ms  "
              f"304s {conditional['statuses'].get('304', 0)}")
    finally:
        proc.terminate()
        proc.wait(timeout=30)

    report = {
        "benchmark": "analysis-serving layer: warm-cache HTTP latency vs "
                     "cold in-process computation, with a concurrency sweep",
        "scale": args.scale,
        "build": build,
        "machine": {
            "python": platform.python_version(),
            **cpu_scaling_meta(),
        },
        "analyses": analyses,
        "cold_seconds": {name: round(cold[name], 4) for name in analyses},
        "warm_p50_ms": {
            name: round(warm[name] * 1e3, 3) for name in analyses
        },
        "warm_speedup": {
            name: round(speedups[name], 1) for name in analyses
        },
        "heaviest": heaviest,
        "equivalence": (
            "served JSON byte-identical to rootsim-analyze --json for "
            "every registered analysis"
            if not failures else "FAILED (see failures)"
        ),
        "sweep": sweep,
        "conditional_sweep": conditional,
        "failures": failures,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"results written to {args.output}")

    if work:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
