#!/usr/bin/env python3
"""Quickstart: run a scaled-down root measurement study end to end.

Builds the simulated world (root zone machinery, anycast fabric, the 13
letters' deployments, a vantage-point ring), runs a campaign over the
paper's timeline, and prints the headline results for all three research
questions.

Run:  python examples/quickstart.py
"""

from repro.analysis import (
    ColocationAnalysis,
    CoverageAnalysis,
    StabilityAnalysis,
    ZonemdAudit,
)
from repro.analysis.report import render_table1, render_table2
from repro.core import StudyConfig, StudyPipeline


def main() -> None:
    config = StudyConfig.quick()
    print(f"Building study (seed={config.seed}, ring_scale={config.ring_scale}) ...")
    study = StudyPipeline(config)
    world = study.build_world()
    platform = study.build_platform()
    print(f"  {len(platform.vps)} vantage points, {len(world.catalog)} root sites, "
          f"{platform.schedule.round_count()} measurement rounds")

    print("Running campaign (this takes a minute) ...")
    results = study.run()
    summary = results.summary()
    print(f"  simulated {summary['queries']:,} DNS queries, "
          f"{summary['transfers']:,} zone transfers")

    print("\n=== RQ1: server co-location ===")
    colocation = ColocationAnalysis(results.collector, results.vps)
    print(f"VPs observing >=2 co-located letters: "
          f"{100 * colocation.fraction_with_colocation():.1f}% "
          f"(max co-location: {colocation.max_observed_colocation()})")

    print("\n=== RQ2: site stability, IPv4 vs IPv6 ===")
    stability = StabilityAnalysis(results.collector)
    for letter in ("b", "g"):
        series = stability.series_for(letter)
        medians = {s.label: s.median_changes() for s in series}
        print(f"{letter}.root median changes per VP: {medians}")

    print("\n=== RQ3: zone integrity ===")
    audit = ZonemdAudit(results.collector.transfers)
    findings, valid = audit.validate_transfers()
    print(f"{valid} recorded transfers validate; {len(findings)} finding groups:")
    print(render_table2(findings, valid))

    print("\n=== Coverage (Table 1) ===")
    coverage = CoverageAnalysis(results.catalog, results.collector.identities)
    print(render_table1(coverage))


if __name__ == "__main__":
    main()
