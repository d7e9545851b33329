"""Subprocess targets for the measurement gates.

Peak RSS is a per-process high-water mark, so every variant a gate
compares runs in its own fresh interpreter and reports one JSON line on
stdout.  :func:`run_child` is the parent side::

    python -m tests.gates._child streamed-rss {materialized|streamed} OUT
    python -m tests.gates._child epoch-plan {materialized|streamed}
    python -m tests.gates._child population {legacy|indexed}
    python -m tests.gates._child serving OUT
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The streamed-RSS gate streams its campaign in chunks of this many rounds.
CHECKPOINT_EVERY = 32

#: Seed of the epoch-plan and population gates.
SCALE_SEED = 2024
#: The epoch-plan gate: ring scale of the ``paper`` config, rounds
#: emitted, and the streamed child's chunk.
EPOCH_RING_SCALE = 0.3
EPOCH_ROUNDS = 128
EPOCH_CHUNK = 64
#: The population gate: ISP clients and the daily capture's length.
POPULATION_CLIENTS = 100_000
POPULATION_DAYS = 7


def streamed_rss_config():
    """A month of campaign at ring scale 0.15 and a dense probing
    cadence, with every probe's RTT kept: an 81 MB dataset, so the row
    tables (what streaming keeps out of memory) dominate the working
    set rather than the world, platform and imports every child
    shares."""
    from repro.core.config import StudyConfig
    from repro.util.timeutil import parse_ts

    return StudyConfig(
        seed=77,
        ring_scale=0.15,
        interval_scale=4.0,
        campaign_start=parse_ts("2023-11-15"),
        campaign_end=parse_ts("2023-12-15"),
        rtt_sample_every=1,
        traceroute_sample_every=2,
        axfr_sample_every=2,
        clean_transfer_keep_one_in=20,
    )


def serving_config():
    """A dozen VPs over a month around the ZONEMD switch: sampling,
    traceroutes and transfers all present, in seconds."""
    from repro.core.config import StudyConfig
    from repro.util.timeutil import parse_ts

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


def _status_kb(field: str) -> int:
    """One ``/proc/self/status`` memory field, in kB.

    ``VmHWM``, the peak RSS of this process's address space, starts
    afresh at exec; ``ru_maxrss`` does not, and would report the parent's
    peak when it is the larger.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} line in /proc/self/status")


def streamed_rss(mode: str, out_dir: str) -> Dict[str, object]:
    """Run the campaign in memory and save it, or stream it through a
    checkpoint and finalize it; either way into *out_dir*."""
    config = streamed_rss_config()
    if mode == "materialized":
        from repro.core.pipeline import StudyPipeline

        StudyPipeline(config).run().save(out_dir, passive=False)
    else:
        from repro.core.streaming import (
            finalize_streaming_campaign,
            run_streaming_campaign,
        )

        run_streaming_campaign(
            config, out_dir + ".ckpt", checkpoint_every=CHECKPOINT_EVERY
        )
        finalize_streaming_campaign(out_dir + ".ckpt", out_dir, passive=False)
    return {"peak_rss_kb": _status_kb("VmHWM")}


def epoch_plan(mode: str) -> Dict[str, object]:
    """Build the epoch plan and emit its opening rounds.

    The ``materialized`` comparator also holds every (VP, address)
    pair's whole-campaign epoch list as ``(start, end, index)`` tuples:
    what a plan that compiled the campaign up front would keep.  It
    emits the rounds in one range, the ``streamed`` child in chunks.
    ``plan_rss_kb`` is what the child retains over its own world +
    platform floor once the plan exists.
    """
    from dataclasses import replace

    from repro.core.config import StudyConfig
    from repro.core.pipeline import build_platform, build_world
    from repro.netsim.epochs import PairEpochs
    from repro.vantage.collector import CampaignCollector
    from repro.vantage.epoch_engine import EpochCampaignPlan

    config = replace(
        StudyConfig.paper(seed=SCALE_SEED),
        ring_scale=EPOCH_RING_SCALE,
        ring_min_per_region=1,
    )
    platform = build_platform(config, build_world(config, reuse=False))
    floor_kb = _status_kb("VmRSS")

    prober = platform.prober
    collector = CampaignCollector()
    plan = EpochCampaignPlan(prober, platform.vps, platform.schedule, collector)
    held: List[List[tuple]] = []
    if mode == "materialized":
        selector = prober.selector
        pairs = [
            (vp, sa) for vp in platform.vps for sa in collector.addresses
        ]
        view = PairEpochs(
            selector.churn,
            [(vp.vp_id, sa.address, sa.letter, sa.family) for vp, sa in pairs],
            plan.n_rounds,
            [
                len(selector.candidates(vp.attachment, sa.letter, sa.family))
                for vp, sa in pairs
            ],
        ).take(0, plan.n_rounds)
        start, end, index = (
            view.start.tolist(), view.end.tolist(), view.index.tolist()
        )
        bounds = view.ptr.tolist()
        held = [
            list(zip(start[a:b], end[a:b], index[a:b]))
            for a, b in zip(bounds, bounds[1:])
        ]
        del view, start, end, index
    plan_kb = max(0, _status_kb("VmRSS") - floor_kb)

    step = EPOCH_CHUNK if mode == "streamed" else EPOCH_ROUNDS
    for lo in range(0, EPOCH_ROUNDS, step):
        plan.emit_range(lo, min(lo + step, EPOCH_ROUNDS))
    return {
        "plan_rss_kb": plan_kb,
        "held_epochs": sum(len(epochs) for epochs in held),
        "summary": collector.summary(),
    }


def population(mode: str) -> Dict[str, object]:
    """A week-long daily ISP capture over compiled (``indexed``) or
    object-built (``legacy``) clients.

    ``path_seconds`` times the two phases the indexed path replaces:
    the population build, and the per-client read-out (Figure 8 off the
    aggregate's client table, or the legacy eager dicts with one string
    key per entry).  The capture kernel between them is the same
    vectorized engine for both modes and is not timed.
    """
    from dataclasses import replace

    from repro.passive.clients import ISP_PROFILE, build_client_population
    from repro.passive.isp import IspCapture
    from repro.passive.population_engine import compile_population
    from repro.util.rng import RngFactory
    from repro.util.timeutil import DAY, parse_ts

    profile = replace(
        ISP_PROFILE,
        name=f"isp-scale-{POPULATION_CLIENTS}",
        n_clients=POPULATION_CLIENTS,
    )
    start = parse_ts("2024-02-05")

    started = time.perf_counter()
    if mode == "indexed":
        clients = compile_population(profile, SCALE_SEED)
    else:
        clients = build_client_population(
            profile, RngFactory(SCALE_SEED).fork("scale")
        )
    capture = IspCapture(clients, seed=SCALE_SEED)
    capture.client_columns()  # legacy pays the object -> columns walk here
    built = time.perf_counter()

    aggregate = capture.capture(
        start, start + POPULATION_DAYS * DAY, bucket_seconds=DAY
    )
    captured = time.perf_counter()

    if mode == "indexed":
        for sa in capture.addresses:
            aggregate.mean_daily_flows_per_client(sa.address)
    else:
        table = aggregate.client_table
        addresses = aggregate.addresses
        prefixes = aggregate.prefixes.tolist()
        per_client_flows = {}
        per_client_days = {}
        for addr, prefix, flows, days in zip(
            table["addr"].tolist(), table["prefix"].tolist(),
            table["flows"].tolist(), table["days"].tolist(),
        ):
            key = (addresses[addr], prefixes[prefix])
            per_client_flows[key] = flows
            per_client_days[key] = days
    finished = time.perf_counter()
    return {
        "path_seconds": (built - started) + (finished - captured),
        "flow_cells": len(aggregate.flow_table["bucket"]),
    }


def serving(out_dir: str) -> Dict[str, object]:
    """Run the serving campaign, save it with its passive tables, then
    time each analysis's JSON document once against a fresh load: what
    every request would pay without the cache.  Returns those seconds
    and the documents, in catalog order."""
    from repro.analysis.summaries import analysis_json_bytes
    from repro.core.pipeline import StudyPipeline
    from repro.data import load_dataset
    from repro.serving.catalog import CatalogEntry

    StudyPipeline(serving_config()).run().save(out_dir)
    cold_s: Dict[str, float] = {}
    bodies: Dict[str, str] = {}
    for name in CatalogEntry(Path(out_dir).name, Path(out_dir)).analyses():
        dataset = load_dataset(out_dir)
        started = time.perf_counter()
        body = analysis_json_bytes(dataset, name)
        cold_s[name] = time.perf_counter() - started
        bodies[name] = body.decode("utf-8")
    return {"cold_s": cold_s, "bodies": bodies}


def child_env() -> Dict[str, str]:
    """This environment with the repo's ``src`` and root importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(*argv: str) -> Dict[str, object]:
    """Run one variant in a fresh interpreter; returns its JSON line."""
    proc = subprocess.run(
        [sys.executable, "-m", "tests.gates._child", *argv],
        cwd=REPO_ROOT, env=child_env(), capture_output=True, text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {list(argv)} failed ({proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


GATES = {
    "streamed-rss": streamed_rss,
    "epoch-plan": epoch_plan,
    "population": population,
    "serving": serving,
}


if __name__ == "__main__":
    gate, *args = sys.argv[1:]
    print(json.dumps(GATES[gate](*args)))
