"""Generate every table and figure into a directory.

``rootsim-report --out DIR`` runs a campaign, persists its dataset
(passive captures included) under ``DIR/dataset``, and writes one text
file per paper artefact (table1.txt .. fig14.txt, ablation-style extras
included), plus an index.  This is the one-command "regenerate the
paper" path; the benchmarks wrap the same calls with timing and shape
assertions.

Artefact generation is structured as independent **groups**, each a
pure function of the saved dataset directory (the campaign tables plus
the passive tables are all on disk by the time a group runs).  That
makes the fan-out trivial and safe:

* ``--workers N`` dispatches the groups across a process pool, each
  worker memory-mapping the dataset read-only (zero-copy, no pickling
  of results objects);
* serial mode runs the *same* group functions inline against the same
  saved dataset — one code path, so parallel output is byte-identical
  to serial output by construction.

The only artefact that cannot replay from disk is Figure 10: its
line-level diff needs the transferred zone *content*, which datasets
deliberately do not persist.  ``generate_all`` therefore renders it in
the main process from the live results; the dataset-replay path
(``--dataset DIR``) degrades it to the fault descriptions.

Wall-clock per group lands in ``TIMINGS.json`` (not in the index, so
artefact diffs between runs stay meaningful).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Artefacts each group emits.  Groups are the unit of parallel
#: dispatch; every group is independent of every other.
GROUP_ARTEFACTS: Dict[str, Tuple[str, ...]] = {
    "coverage": ("table1", "table4"),
    "audit": ("table2",),
    "stability": ("fig3",),
    "colocation": ("fig4",),
    "distance": ("fig5",),
    "rtt": ("fig6", "fig14"),
    "paths": ("paths_sec6",),
    "bitflip": ("fig10",),
    "isp": ("fig7", "fig8", "fig12"),
    "ixp": ("fig9", "fig13"),
}

#: Registered analyses each group runs — the preflight checks their
#: declared table needs (``registry.tables_for``) against the saved
#: dataset before dispatching anything to a worker.
GROUP_ANALYSES: Dict[str, Tuple[str, ...]] = {
    "coverage": ("coverage",),
    "audit": ("zonemd_audit",),
    "stability": ("stability",),
    "colocation": ("colocation",),
    "distance": ("distance",),
    "rtt": ("rtt",),
    "paths": ("paths",),
    "bitflip": ("zonemd_audit",),
    "isp": ("trafficshift", "clientbehavior"),
    "ixp": ("trafficshift",),
}

#: Passive captures each group replays from the dataset's passive tables.
GROUP_CAPTURES: Dict[str, Tuple[str, ...]] = {
    "isp": ("isp",),
    "ixp": ("ixp-eu", "ixp-na"),
}

#: Per-process dataset cache: a worker handling several groups maps the
#: dataset once and shares the mmap-backed columns between them.
_DATASET_CACHE: Dict[str, Any] = {}


def _load(dataset_dir: str):
    dataset = _DATASET_CACHE.get(dataset_dir)
    if dataset is None:
        from repro.data import load_dataset

        dataset = _DATASET_CACHE[dataset_dir] = load_dataset(dataset_dir)
    return dataset


# --- artefact groups (worker-side; each is dataset dir -> {name: content}) ---------


def _group_coverage(dataset) -> Dict[str, str]:
    from repro.analysis import registry, report

    coverage = registry.run("coverage", dataset)
    return {
        "table1": report.render_table1(coverage),
        "table4": report.render_table4(coverage),
    }


def _summary(name: str, dataset) -> str:
    """The canonical summary of one analysis, which is exactly its
    artefact's text for the groups below."""
    from repro.analysis import registry
    from repro.analysis.summaries import render_summary

    return render_summary(name, registry.run(name, dataset))


def _group_audit(dataset) -> Dict[str, str]:
    return {"table2": _summary("zonemd_audit", dataset)}


def _group_stability(dataset) -> Dict[str, str]:
    return {"fig3": _summary("stability", dataset)}


def _group_colocation(dataset) -> Dict[str, str]:
    return {"fig4": _summary("colocation", dataset)}


def _group_distance(dataset) -> Dict[str, str]:
    return {"fig5": _summary("distance", dataset)}


def _group_rtt(dataset) -> Dict[str, str]:
    from repro.analysis import registry, report
    from repro.analysis.summaries import render_summary
    from repro.geo.continents import Continent

    rtt = registry.run("rtt", dataset)
    addresses = [sa.address for sa in dataset.addresses]
    return {
        "fig6": render_summary("rtt", rtt),
        "fig14": report.render_figure6(rtt, list(Continent), addresses, {}),
    }


def _group_paths(dataset) -> Dict[str, str]:
    return {"paths_sec6": _summary("paths", dataset)}


def _group_bitflip(dataset) -> Dict[str, str]:
    """Figure 10 from a reloaded dataset: descriptions only — the zone
    content a line diff needs is not persisted (``generate_all`` renders
    the full diff from the live results instead)."""
    from repro.analysis import registry

    audit = registry.run("zonemd_audit", dataset)
    return {"fig10": _bitflip_report(audit, None)}


def _group_isp(dataset) -> Dict[str, str]:
    from repro.analysis import registry, report
    from repro.analysis.summaries import render_summary
    from repro.passive.recipes import ISP_WINDOW

    aggregate = dataset.passive.aggregate("isp")
    shift = registry.run("trafficshift", aggregate=aggregate)
    behavior = registry.run("clientbehavior", aggregate=aggregate)
    return {
        "fig7": report.render_traffic_series(
            f"Figure 7: ISP b.root traffic ({ISP_WINDOW[0]} .. {ISP_WINDOW[1]})",
            shift.broot_series(),
        ),
        "fig8": render_summary("clientbehavior", behavior),
        "fig12": _letter_share_table(shift),
    }


def _group_ixp(dataset) -> Dict[str, str]:
    from repro.analysis import registry, report
    from repro.geo.continents import Continent

    out: Dict[str, str] = {}
    fig9_parts: List[str] = []
    for capture_name, region in (
        ("ixp-eu", Continent.EUROPE),
        ("ixp-na", Continent.NORTH_AMERICA),
    ):
        regional_shift = registry.run(
            "trafficshift", aggregate=dataset.passive.aggregate(capture_name)
        )
        fig9_parts.append(report.render_traffic_series(
            f"Figure 9 ({region}): IPv6 b.root traffic",
            regional_shift.broot_series(families=(6,)),
        ))
        if capture_name == "ixp-eu":
            out["fig13"] = _letter_share_table(regional_shift, title="Figure 13")
    out["fig9"] = "\n\n".join(fig9_parts)
    return out


_GROUPS = {
    "coverage": _group_coverage,
    "audit": _group_audit,
    "stability": _group_stability,
    "colocation": _group_colocation,
    "distance": _group_distance,
    "rtt": _group_rtt,
    "paths": _group_paths,
    "bitflip": _group_bitflip,
    "isp": _group_isp,
    "ixp": _group_ixp,
}


def _run_group(name: str, dataset_dir: str) -> Tuple[str, Dict[str, str], float]:
    """One group, timed — the unit a pool worker executes."""
    start = time.perf_counter()
    contents = _GROUPS[name](_load(dataset_dir))
    return name, contents, time.perf_counter() - start


def render_group(name: str, dataset) -> Dict[str, str]:
    """Render one artefact group from an in-memory dataset.

    The serving layer's figure endpoints go through here so a live
    checkpoint's *current* stitched dataset is what renders — the
    dir-keyed worker cache (:func:`_load`) would pin the first load
    forever.  Returns ``{artefact_name: content}``; unknown groups raise
    a :class:`KeyError` naming the registered ones.
    """
    try:
        group = _GROUPS[name]
    except KeyError:
        raise KeyError(
            f"unknown artefact group {name!r}; "
            f"registered: {', '.join(sorted(_GROUPS))}"
        ) from None
    return group(dataset)


def group_requirements_error(name: str, dataset) -> Optional[str]:
    """Why group *name* cannot run against *dataset* (``None`` = it can).

    The same preflight the report driver runs before dispatching to a
    worker, reusable per group: declared analysis tables present, and
    every passive capture the group replays on disk.
    """
    from repro.analysis import registry
    from repro.data import DatasetError

    for analysis in GROUP_ANALYSES[name]:
        try:
            dataset.require_tables(
                registry.tables_for(analysis), consumer=f"report group {name!r}"
            )
        except DatasetError as exc:
            return str(exc)
    for capture in GROUP_CAPTURES.get(name, ()):
        if dataset.passive is None or capture not in dataset.passive.names():
            return (
                f"report group {name!r} needs passive capture {capture!r}; "
                f"save the dataset with passive captures "
                f"(rootsim-study --save / StudyResults.save)"
            )
    return None


# --- shared renderers ---------------------------------------------------------------


def _letter_share_table(shift, title: str = "Figure 12") -> str:
    from repro.util.tables import Table, series_buckets

    series = shift.letter_share_series()
    buckets = series_buckets(series)
    window = (buckets[0], buckets[-1] + 1)
    shares = shift.letter_shares(*window)
    table = Table(["Root", "share %"], float_digits=2)
    for letter in sorted(shares, key=shares.get, reverse=True):
        table.add_row([letter, 100 * shares[letter]])
    return table.render(f"{title}: traffic share per letter")


def _bitflip_report(audit, distributor) -> str:
    lines = ["Figure 10: bitflips in transferred zones"]
    for obs, description in audit.bitflip_examples()[:5]:
        if distributor is None or obs.zone is None:
            # Replay mode: the zone content the diff needs is not in the
            # dataset; keep the fault inventory.
            lines.append(f"VP {obs.vp_id}, {obs.address.label}: {description}")
            lines.append("  (zone content not persisted; diff needs a live run)")
            continue
        reference = distributor.zone_for_publication(
            *distributor.latest_publication(obs.true_ts)
        )
        if reference.serial != obs.serial:
            continue
        for before, after in audit.bitflip_diff(obs, reference):
            lines.append(f"VP {obs.vp_id}, {obs.address.label}: {description}")
            lines.append(f"  - {before[:110]}")
            lines.append(f"  + {after[:110]}")
    if len(lines) == 1:
        lines.append("(no bitflipped transfers recorded in this run)")
    return "\n".join(lines)


# --- drivers ------------------------------------------------------------------------


def _generate(
    dataset_dir: str,
    out_path: Path,
    workers: int,
    precomputed: Dict[str, str],
    timings: Optional[Dict[str, float]] = None,
) -> Dict[str, Path]:
    """Run every group not covered by *precomputed* and write artefacts."""
    from repro.analysis import registry

    timings = dict(timings or {})
    written: Dict[str, Path] = {}

    def emit(name: str, content: str) -> None:
        target = out_path / f"{name}.txt"
        target.write_text(content + "\n")
        written[name] = target

    for name, content in precomputed.items():
        emit(name, content)

    groups = [
        name for name, artefacts in GROUP_ARTEFACTS.items()
        if not all(artefact in precomputed for artefact in artefacts)
    ]

    # Preflight in the main process: every group's analyses must find
    # their declared tables (and passive captures) in the saved dataset
    # before any worker starts.
    dataset = _load(dataset_dir)
    for group in groups:
        problem = group_requirements_error(group, dataset)
        if problem is not None:
            from repro.data import DatasetError

            raise DatasetError(problem)

    if workers > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        from repro.util.procutil import exit_when_orphaned, mp_context, pool_width

        with ProcessPoolExecutor(
            max_workers=pool_width(workers, len(groups)),
            mp_context=mp_context(preload=("repro.reportgen",)),
            initializer=exit_when_orphaned,
            initargs=(os.getpid(),),
        ) as pool:
            futures = [
                pool.submit(_run_group, group, dataset_dir) for group in groups
            ]
            outcomes = [future.result() for future in as_completed(futures)]
    else:
        outcomes = [_run_group(group, dataset_dir) for group in groups]

    for group, contents, seconds in outcomes:
        timings[f"group.{group}"] = round(seconds, 4)
        for name, content in contents.items():
            emit(name, content)

    index = "\n".join(
        f"{name}: {target.name}" for name, target in sorted(written.items())
    )
    emit("INDEX", index)

    # Timings live next to the artefacts but outside the index/returned
    # set: re-runs byte-diff clean on everything but this file.
    artefact_timings = {
        artefact: timings[f"group.{group}"]
        for group, artefacts in GROUP_ARTEFACTS.items()
        for artefact in artefacts
        if f"group.{group}" in timings
    }
    (out_path / "TIMINGS.json").write_text(
        json.dumps(
            {"groups": timings, "artefacts": artefact_timings},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return written


def generate_all(results, out_dir: str, workers: int = 1) -> Dict[str, Path]:
    """Write every artefact for a finished study's *results* bundle;
    returns name -> path.

    Persists the study's dataset under ``out_dir/dataset`` first, exactly
    as ``rootsim-study --save`` does (passive captures for the study's
    own seed included), then fans the artefact groups out over *workers*
    processes (or runs them inline when ``workers == 1``) against that
    saved dataset.
    """
    from repro.analysis import registry

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    timings: Dict[str, float] = {}
    start = time.perf_counter()
    dataset_dir = out_path / "dataset"
    results.save(str(dataset_dir))
    timings["dataset"] = round(time.perf_counter() - start, 4)

    # Figure 10 renders in the main process from the live results: its
    # line diff needs transferred zone content, which the dataset does
    # not carry.
    start = time.perf_counter()
    audit = registry.run("zonemd_audit", results)
    precomputed = {"fig10": _bitflip_report(audit, results.distributor)}
    timings["group.bitflip"] = round(time.perf_counter() - start, 4)

    return _generate(
        str(dataset_dir), out_path, workers, precomputed, timings=timings
    )


def generate_from_dataset(
    dataset_dir: str, out_dir: str, workers: int = 1
) -> Dict[str, Path]:
    """Replay every artefact from a saved dataset — zero re-simulation.

    The dataset must have been saved with passive captures (the default
    for ``rootsim-study --save``).  Figure 10 degrades to the fault
    descriptions; everything else is byte-identical to a live run.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    return _generate(str(dataset_dir), out_path, workers, {})


def report_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``rootsim-report``."""
    from repro.cli import add_config_arguments, config_from_args

    parser = argparse.ArgumentParser(
        prog="rootsim-report",
        description="regenerate every paper table/figure into a directory",
    )
    parser.add_argument("--out", required=True, help="output directory")
    add_config_arguments(parser)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="generate artefact groups across N processes "
             "(output is byte-identical to a serial run)",
    )
    parser.add_argument(
        "--dataset", metavar="DIR", default=None,
        help="replay artefacts from a saved dataset directory instead of "
             "running a campaign (fig10 degrades to fault descriptions)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")

    if args.dataset is not None:
        print(f"replaying artefacts from {args.dataset} ...")
        written = generate_from_dataset(
            args.dataset, args.out, workers=args.workers
        )
    else:
        from repro.core import StudyPipeline

        config, label = config_from_args(parser, args)
        print(f"running study: {label} seed={args.seed} ...")
        results = StudyPipeline(config).run()
        written = generate_all(results, args.out, workers=args.workers)
    print(f"wrote {len(written)} artefacts to {args.out}:")
    for name in sorted(written):
        print(f"  {name}.txt")
    return 0
