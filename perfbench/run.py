"""The repo benchmark: ``save-churn``, ``stream-dense`` and ``query``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload save-churn --seed 1 --seconds 25 --trace 0

Prints every metric by name and unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics (timed with tracing off), ``--trace 1``
the per-layer metrics of a separate traced run.  A digest or body
mismatch is a failed operation and makes ``correct`` false.  See
WORKLOADS.md for what each workload isolates and why the estimators are
best-of over short units.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import common
import httpload

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
#: Extra setup-only processes after each full repetition.
SETUP_PROBES_PER_REP = 1
#: Passes over the 13 analyses per warm or revalidation burst.
BURST_PASSES = 4
#: In save-churn and stream-dense, seconds of warm/revalidation bursts
#: after each repetition, against the dataset the first one saved.
BURST_SECONDS_PER_REP = 1.5
#: In ``query``, warm and revalidation bursts after each cold round, and
#: an extra server spawned for a setup sample every N rounds.
BURSTS_PER_ROUND = 16
SETUP_PROBE_EVERY = 2
#: A job repetition that takes longer is a failed operation.
JOB_TIMEOUT_S = 120


class Run:
    """State of one benchmark run: checkout paths, tallies, record."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = Path.cwd()
        self.src = common.src_dir(self.root)
        self.work = self.root / ".perfbench-run" / f"{workload}-{seed}-{os.getpid()}"
        self.out = self.root / ".perfbench-out"
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.calibration: List[float] = []
        self.record: Dict[str, object] = {"workload": workload, "seed": seed, "trace": trace}
        self.pins = json.loads((HERE / "digests.json").read_text())

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def calibrate(self) -> None:
        self.calibration.append(common.calibration_loop())

    # -- job children ---------------------------------------------------------

    def job(self, workload: str, mode: str, tag: str, trace: bool = False) -> Optional[dict]:
        """Run one job repetition in a fresh process; None if it failed."""
        out = self.work / tag
        out.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(self.src))
        self.attempted += 1
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "job.py"),
                    "--workload", workload, "--seed", str(self.seed), "--mode", mode,
                    "--out", str(out), "--trace", str(int(trace)), "--spawn-t", repr(spawned),
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.fail(f"{workload} {mode} job did not finish within {JOB_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            self.fail(f"{workload} {mode} job exited {proc.returncode}: {' | '.join(tail)}")
            return None
        result = json.loads((out / "job.json").read_text())
        if mode == "full":
            result["digest"] = common.tree_digest(Path(result["dataset"]))
        return result

    def check_digest(self, workload: str, digest: str, first: Optional[str]) -> None:
        """Every repetition saves the same bytes; on the default seed they
        match the pinned digest."""
        self.attempted += 1
        pinned = self.pins.get(workload, {}).get(str(self.seed))
        if first is not None and digest != first:
            self.fail(f"{workload}: repetition digest {digest[:12]} != first {first[:12]}")
        elif pinned is not None and digest != pinned:
            self.fail(f"{workload}: digest {digest[:12]} != pinned {pinned[:12]}")

    # -- serving --------------------------------------------------------------

    def absorb(self, client: "httpload.Client") -> None:
        self.attempted += client.attempted
        self.failed += client.failed
        self.failures.extend(client.failures)

    def bursts(self, client: "httpload.Client", tag: str, seconds: float,
               warm: List[float], reval: List[float], count: int = 1) -> None:
        """At least *count* warm + revalidation burst pairs, continuing
        until *seconds* have passed; every request's latency is appended
        to *warm* or *reval*."""
        deadline = time.perf_counter() + seconds
        k = 0
        while k < count or time.perf_counter() < deadline:
            order = common.request_order(self.seed, f"burst{tag}.{k}")
            warm.extend(client.burst(order, BURST_PASSES, conditional=False))
            reval.extend(client.burst(order, BURST_PASSES, conditional=True))
            k += 1

    # -- workloads ------------------------------------------------------------

    def run_jobs(self) -> Dict[str, float]:
        """save-churn / stream-dense, untraced: best-of fresh-process
        repetitions spread over the run.  The first repetition's dataset
        is then served, and warm/revalidation bursts run between the
        later repetitions."""
        started = time.perf_counter()
        reps: List[dict] = []
        setups: List[float] = []
        warm: List[float] = []
        reval: List[float] = []
        last_rep = 0.0
        first_digest: Optional[str] = None
        n = 0
        with contextlib.ExitStack() as stack:
            client = None
            while len(reps) < MIN_REPS or (
                time.perf_counter() - started + last_rep <= self.seconds
            ):
                if n >= MIN_REPS + 20 or (n >= MIN_REPS and not reps):
                    break
                self.calibrate()
                rep_started = time.perf_counter()
                rep = self.job(self.workload, "full", f"rep{n}")
                last_rep = time.perf_counter() - rep_started
                if rep is not None:
                    self.check_digest(self.workload, rep["digest"], first_digest)
                    reps.append(rep)
                    setups.append(rep["setup_s"])
                    if client is None:
                        first_digest = rep["digest"]
                        dataset = Path(rep["dataset"])
                        bodies, _, _ = httpload.expected_bodies(dataset, common.Tracer(False))
                        server = stack.enter_context(httpload.Server(self.src, dataset))
                        client = httpload.Client(server, bodies, common.Tracer(False))
                        stack.callback(self.absorb, client)
                        client.cold_round(common.request_order(self.seed, "fill"))
                    else:
                        shutil.rmtree(Path(rep["dataset"]).parent, ignore_errors=True)
                for k in range(SETUP_PROBES_PER_REP):
                    probe = self.job(self.workload, "setup", f"setup{n}.{k}")
                    if probe is not None:
                        setups.append(probe["setup_s"])
                if client is not None:
                    self.bursts(client, str(n), BURST_SECONDS_PER_REP, warm, reval)
                n += 1
        if not reps:
            raise SystemExit(f"perfbench: every {self.workload} job failed: {self.failures}")
        walls = [rep["wall_s"] for rep in reps]
        self.record.update(
            reps=len(reps),
            digest=first_digest,
            wall_s_samples=walls,
            setup_s_samples=setups,
            counters=reps[-1]["counters"],
            warm_request_ms=common.distribution([w * 1e3 for w in warm]),
            revalidate_request_ms=common.distribution([r * 1e3 for r in reval]),
        )
        return {
            "setup_s": common.best_of(setups),
            "wall_s": common.best_of(walls),
            "peak_rss_mb": common.best_of(rep["peak_rss_mb"] for rep in reps),
            "warm_ms": common.best_of(warm) * 1e3,
            "revalidate_ms": common.best_of(reval) * 1e3,
        }

    def build_query_dataset(self) -> Path:
        """The dataset ``query`` serves: saved by the code under test from
        save-churn's scenario, before timing."""
        build = self.job("save-churn", "full", "build")
        if build is None:
            raise SystemExit(f"perfbench: the query dataset build failed: {self.failures}")
        self.check_digest("save-churn", build["digest"], None)
        self.record["build"] = {"wall_s": build["wall_s"], "digest": build["digest"]}
        return Path(build["dataset"])

    def server_counts(self, path: Path) -> Dict[str, float]:
        """The counters the traced server wrote when it was terminated:
        campaign rounds run and zone contents validated inside it."""
        self.attempted += 1
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            self.fail(f"the traced server wrote no counters: {exc}")
            return {}

    def run_query(self, tracer: common.Tracer) -> Dict[str, float]:
        """One closed-loop client interleaving cold rounds, warm bursts
        and revalidation bursts for the whole run, with extra server
        spawns for setup samples.  Returns the end-to-end metrics, or the
        per-layer ones when *tracer* is enabled."""
        dataset = self.build_query_dataset()
        bodies, analysis_best, load_s = httpload.expected_bodies(
            dataset, tracer, repeats=3 if tracer.enabled else 1
        )
        rss_after_load = max(
            (s["rss_mb"] for s in tracer.spans if s["name"] == "data.load"), default=0.0
        )
        rss_after_analyses = common.peak_rss_mb() if tracer.enabled else 0.0
        setups: List[float] = []
        colds: List[Dict[str, float]] = []
        warm: List[float] = []
        reval: List[float] = []
        counts_path = self.work / "server-counts.json" if tracer.enabled else None
        with httpload.Server(self.src, dataset, counts=counts_path) as server:
            setups.append(server.startup_s)
            client = httpload.Client(server, bodies, tracer)
            phase_start = time.perf_counter()
            i = 0
            while i < MIN_REPS or time.perf_counter() - phase_start < self.seconds:
                self.calibrate()
                colds.append(client.cold_round(common.request_order(self.seed, f"cold{i}")))
                self.bursts(client, str(i), 0.0, warm, reval, count=BURSTS_PER_ROUND)
                if i % SETUP_PROBE_EVERY == 0:
                    with tracer.span("serving.startup"):
                        with httpload.Server(self.src, dataset) as probe:
                            self.attempted += 1
                            setups.append(probe.startup_s)
                i += 1
            phase_end = time.perf_counter()
            stats = client.stats()
            server_hwm = server.hwm_mb()
        self.absorb(client)
        server_counts = self.server_counts(counts_path) if tracer.enabled else {}

        cold_best = {name: common.best_of(c[name] for c in colds) for name in common.ANALYSES}
        cold_sum = sum(cold_best.values())
        self.record.update(
            cold_rounds=len(colds),
            cold_round_s=common.distribution([sum(c.values()) for c in colds]),
            cold_best_s=cold_best,
            setup_s_samples=setups,
            warm_request_ms=common.distribution([w * 1e3 for w in warm]),
            revalidate_request_ms=common.distribution([r * 1e3 for r in reval]),
            server_stats=stats,
        )
        cache = stats.get("cache", {})
        hits, misses = cache.get("hits", 0), cache.get("misses", 0)
        if not tracer.enabled:
            return {
                "setup_s": common.best_of(setups),
                "wall_s": cold_sum,
                "peak_rss_mb": server_hwm,
                "warm_ms": common.best_of(warm) * 1e3,
                "revalidate_ms": common.best_of(reval) * 1e3,
            }
        return {
            "data.load_s": load_s,
            "data.bytes_mapped": sum(
                p.stat().st_size for p in (dataset / "tables").rglob("*.bin")
            ),
            **{f"analysis.{name}_s": analysis_best[name] for name in common.ANALYSES},
            "serving.cold_s": cold_sum,
            "serving.miss_overhead_s": cold_sum - sum(analysis_best.values()),
            "serving.hits": hits,
            "serving.misses": misses,
            "serving.coalesced": cache.get("coalesced", 0),
            "serving.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serving.not_modified": client.not_modified,
            "serving.startup_s": common.best_of(setups),
            "vantage.rounds": server_counts.get("vantage.rounds", 0),
            "transfers.contents": server_counts.get("transfers.contents", 0),
            "rss.after_load_mb": rss_after_load,
            "rss.after_analyses_mb": rss_after_analyses,
            "rss.after_serve_mb": server_hwm,
            "trace.wall_s": phase_end - phase_start,
            "trace.coverage": common.coverage(
                [s for s in tracer.spans if s["start"] >= phase_start],
                phase_start,
                phase_end,
            ),
            "trace.overhead": _span_cost(len(tracer.spans)) / (phase_end - phase_start),
        }

    def run_jobs_traced(self) -> Dict[str, float]:
        """One traced repetition, plus one untraced for the overhead."""
        plain = self.job(self.workload, "full", "plain")
        traced = self.job(self.workload, "full", "traced", trace=True)
        if plain is None or traced is None:
            raise SystemExit(f"perfbench: traced {self.workload} run failed: {self.failures}")
        self.check_digest(self.workload, plain["digest"], None)
        self.check_digest(self.workload, traced["digest"], plain["digest"])
        spans = traced["spans"]
        counters = traced["counters"]
        stamps = traced["stamps"]
        wall = traced["wall_s"]
        self.record["spans"] = spans
        dataset = Path(traced["dataset"])
        manifest = json.loads((dataset / "MANIFEST.json").read_text())

        def total(name: str) -> float:
            return common.total_by_name(spans, name)

        def rss_after(name: str) -> float:
            return max((s["rss_mb"] for s in spans if s["name"] == name), default=0.0)

        chunks = [common.duration(s) for s in spans if s["name"] == "streaming.chunk"]
        if self.workload == "save-churn":
            campaign = total("vantage.campaign")
        else:
            campaign = common.self_by_name(spans, "streaming.chunk") + common.self_by_name(
                spans, "streaming.tail"
            )
        seal = total("transfers.seal")
        contents = counters["transfers.contents"]
        layers = {
            "process.imports_s": total("imports"),
            "scenarios.compose_s": total("scenarios.compose"),
            "pipeline.build_world_s": total("pipeline.build_world"),
            "pipeline.build_platform_s": total("pipeline.build_platform"),
            "vantage.campaign_s": campaign,
            "vantage.rounds": counters["vantage.rounds"],
            "vantage.queries": counters["vantage.queries"],
            "vantage.rows_per_s": counters["vantage.rows"] / campaign if campaign else 0.0,
            "transfers.seal_s": seal,
            "transfers.observations": counters["transfers.observations"],
            "transfers.contents": contents,
            "transfers.obs_per_content": (
                counters["transfers.observations"] / contents if contents else 0.0
            ),
            "passive.captures_s": total("passive.captures"),
            "passive.flow_rows": manifest["tables"].get("passive_flows", {}).get("rows", 0),
            "data.assemble_s": total("data.assemble"),
            "data.write_s": common.self_by_name(spans, "data.write"),
            "data.bytes_written": common.tree_bytes(dataset),
            "streaming.chunks": counters.get("streaming.chunks", 0),
            "streaming.chunk_p50_s": statistics.median(chunks) if chunks else 0.0,
            "streaming.chunk_max_s": max(chunks, default=0.0),
            "streaming.seal_chunk_s": total("streaming.seal_chunk"),
            "streaming.finalize_s": total("streaming.finalize"),
            "streaming.checkpoint_bytes": counters.get("streaming.checkpoint_bytes", 0),
            "rss.after_setup_mb": rss_after("pipeline.build_platform"),
            "rss.after_campaign_mb": rss_after("vantage.campaign"),
            "rss.after_seal_mb": rss_after("transfers.seal"),
            "rss.after_passive_mb": rss_after("passive.captures"),
            "rss.after_write_mb": rss_after("data.write"),
            "rss.after_stream_mb": rss_after("streaming.run"),
            "rss.after_finalize_mb": rss_after("streaming.finalize"),
            "trace.wall_s": wall,
            "trace.coverage": common.coverage(spans, stamps["config"], stamps["end"]),
            "trace.overhead": wall / plain["wall_s"] - 1.0,
            "trace.seal_share": seal / wall,
        }
        self.record["untraced_wall_s"] = plain["wall_s"]
        return layers


def _span_cost(n_spans: int) -> float:
    """Estimated seconds the tracer added for *n_spans* spans, from a
    timed batch of empty spans."""
    probe = common.Tracer(True)
    batch = 2000
    started = time.perf_counter()
    for _ in range(batch):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - started) / batch * n_spans


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    spec = json.loads((run.root / "BENCHMARK.json").read_text())
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(run.src)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if compiled.returncode != 0:
        print("perfbench: the program sources do not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.src))
    started = time.perf_counter()
    try:
        if args.workload == "query":
            values = run.run_query(common.Tracer(run.trace))
        elif run.trace:
            values = run.run_jobs_traced()
        else:
            values = run.run_jobs()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass

    wanted = spec["per_layer"] if run.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    run.record.update(
        run_s=time.perf_counter() - started,
        machine=common.machine_metadata(run.calibration),
        failures=run.failures,
        metrics={name: m["value"] for name, m in metrics.items()},
    )
    run.out.mkdir(exist_ok=True)
    kind = "trace" if run.trace else "record"
    (run.out / f"{kind}-{args.workload}-{args.seed}.json").write_text(
        json.dumps(run.record, indent=1, default=str)
    )
    for name, m in metrics.items():
        print(f"{args.workload:<13s} {name:<28s} {m['value']:>16.6f} {m['unit']}")
    if run.failures:
        for failure in run.failures:
            print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
