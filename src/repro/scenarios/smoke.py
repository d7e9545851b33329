"""Tiny-scale smoke runs over every registered scenario.

CI's scenario-smoke job (and the pack tests) drive each registered
scenario through the full path — compose → campaign → saved dataset →
reload → headline analyses → figure text — at a scale that finishes in
seconds: ring capped at 0.1, a ~5-day campaign window, dense sampling.
The scaled-down config keeps the scenario's own layers (build-out,
traffic, fault toggles); only the execution cost shrinks.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.config import StudyConfig
from repro.scenarios.registry import Scenario, compose, scenario_names
from repro.util.timeutil import parse_ts

#: The smoke campaign window (~5 days around the b.root change).
SMOKE_WINDOW = ("2023-11-25", "2023-11-30")

SMOKE_SEED = 77


def smoke_config(scenario: Scenario, seed: int = SMOKE_SEED) -> StudyConfig:
    """The scenario's config, shrunk to smoke scale.

    The world/traffic/fault layers are untouched; ring scale is capped,
    the window is cut to ~5 days and sampling densified so the few
    remaining rounds still populate every table.
    """
    config = scenario.study_config(seed=seed)
    return replace(
        config,
        ring_scale=min(config.ring_scale, 0.1),
        interval_scale=max(config.interval_scale, 96.0),
        campaign_start=parse_ts(SMOKE_WINDOW[0]),
        campaign_end=parse_ts(SMOKE_WINDOW[1]),
        rtt_sample_every=1,
        traceroute_sample_every=2,
        axfr_sample_every=2,
        clean_transfer_keep_one_in=20,
    )


def run_scenario_smoke(
    name: str,
    out_dir: str,
    seed: int = SMOKE_SEED,
    overlays: Sequence[str] = (),
) -> Dict[str, Path]:
    """Run scenario *name* end to end at smoke scale.

    Saves the dataset under ``out_dir/<name>/dataset``, reloads it, runs
    the scenario's headline analyses against the reloaded copy and
    writes each rendered figure/table to ``out_dir/<name>/<analysis>.txt``.
    Returns the written artefact paths (dataset directory included).
    """
    from repro.analysis import registry
    from repro.analysis.summaries import PASSIVE_ANALYSES, render_summary
    from repro.core.pipeline import StudyPipeline
    from repro.data import load_dataset

    scenario = compose(name, overlays)
    config = smoke_config(scenario, seed=seed)
    results = StudyPipeline(config).run()

    base = Path(out_dir) / name
    base.mkdir(parents=True, exist_ok=True)
    dataset_dir = results.save(str(base / "dataset"))

    dataset = load_dataset(dataset_dir)
    stamp = (dataset.study or {}).get("scenario") or {}
    if stamp.get("fingerprint") != scenario.fingerprint():
        raise RuntimeError(
            f"scenario {name!r}: saved manifest carries fingerprint "
            f"{stamp.get('fingerprint')!r}, expected {scenario.fingerprint()!r}"
        )

    written: Dict[str, Path] = {"dataset": dataset_dir}
    for analysis_name in scenario.analyses:
        inputs = {}
        if analysis_name in PASSIVE_ANALYSES:
            inputs["aggregate"] = dataset.passive.aggregate("isp")
        analysis = registry.run(analysis_name, dataset, **inputs)
        target = base / f"{analysis_name}.txt"
        target.write_text(render_summary(analysis_name, analysis) + "\n")
        written[analysis_name] = target
    return written


def main(argv: Optional[List[str]] = None) -> int:
    """Enumerate every registered scenario at smoke scale (CI job)."""
    parser = argparse.ArgumentParser(
        prog="rootsim-scenario-smoke",
        description="run every registered scenario end to end at tiny "
                    "scale, writing figure data per scenario",
    )
    parser.add_argument("--out", required=True, help="artefact directory")
    parser.add_argument("--seed", type=int, default=SMOKE_SEED)
    parser.add_argument(
        "--scenario", metavar="NAME", action="append", default=None,
        help="limit to specific scenario(s); default: all registered",
    )
    args = parser.parse_args(argv)

    names = args.scenario or scenario_names()
    for name in names:
        print(f"scenario {name}: running smoke campaign ...")
        written = run_scenario_smoke(name, args.out, seed=args.seed)
        artefacts = ", ".join(sorted(k for k in written if k != "dataset"))
        print(f"scenario {name}: ok ({artefacts or 'dataset only'})")
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution helper
    sys.exit(main())
