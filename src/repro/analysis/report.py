"""Plain-text rendering of every table and figure.

The benchmark harness calls these to print the same rows/series the
paper reports; each function takes analysis objects and returns a string.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.clientbehavior import ClientBehaviorAnalysis
from repro.analysis.colocation import ColocationAnalysis
from repro.analysis.coverage import CoverageAnalysis
from repro.analysis.distance import DistanceAnalysis
from repro.analysis.rtt import RttAnalysis
from repro.analysis.stability import StabilityAnalysis
from repro.analysis.trafficshift import TrafficShiftAnalysis
from repro.analysis.zonemd_audit import AuditFinding, SourceAuditRow
from repro.geo.continents import Continent
from repro.rss.operators import ROOT_LETTERS
from repro.util.tables import Table, render_histogram, series_buckets
from repro.util.timeutil import format_day, format_ts


def render_table1(coverage: CoverageAnalysis) -> str:
    """Table 1: worldwide coverage of root sites."""
    table = Table(
        [
            "Root",
            "Glob #", "Glob cov", "Glob %",
            "Loc #", "Loc cov", "Loc %",
            "Tot #", "Tot cov", "Tot %",
        ]
    )
    worldwide = coverage.worldwide()
    for letter in ROOT_LETTERS:
        rows = {r.scope: r for r in worldwide[letter]}
        cells: List[object] = [letter]
        for scope in ("global", "local", "total"):
            row = rows[scope]
            cells.extend([row.sites, row.covered, row.pct])
        table.add_row(cells)
    return table.render("Table 1: Coverage of root sites (worldwide)")


def render_table4(coverage: CoverageAnalysis) -> str:
    """Table 4: coverage per region."""
    blocks: List[str] = []
    for continent, per_letter in coverage.per_region().items():
        table = Table(
            ["Root", "Glob #", "Glob cov", "Loc #", "Loc cov", "Tot #", "Tot cov", "Tot %"]
        )
        for letter in ROOT_LETTERS:
            rows = {r.scope: r for r in per_letter[letter]}
            total = rows["total"]
            table.add_row(
                [
                    letter,
                    rows["global"].sites, rows["global"].covered,
                    rows["local"].sites, rows["local"].covered,
                    total.sites, total.covered, total.pct,
                ]
            )
        blocks.append(table.render(f"-- {continent} --"))
    return "Table 4: Coverage of root sites per region\n" + "\n\n".join(blocks)


def render_table2(findings: List[AuditFinding], valid_count: int) -> str:
    """Table 2: ZONEMD/RRSIG validation errors for zones from AXFRs."""
    table = Table(
        ["Reason", "#SOA", "First Obs.", "Last Obs.", "#Obs.", "Server", "VP", "Fault"]
    )
    for finding in findings:
        table.add_row(
            [
                finding.reason,
                finding.n_soa,
                format_ts(finding.first_obs),
                format_ts(finding.last_obs),
                finding.observations,
                ",".join(finding.servers),
                ",".join(str(v) for v in finding.vp_ids),
                finding.fault or "-",
            ]
        )
    header = "Table 2: ZONEMD validation errors for zones from AXFRs"
    footer = f"(plus {valid_count} recorded transfer observations that fully validate)"
    return "\n".join([table.render(header), footer])


def render_figure3(stability: StabilityAnalysis, letters: Tuple[str, ...] = ("b", "g")) -> str:
    """Figure 3: complementary eCDF of change events."""
    blocks: List[str] = []
    for letter in letters:
        lines = [f"{letter}.root-servers.net."]
        for series in stability.series_for(letter):
            ecdf = series.ecdf()
            points = [
                f"x={x:g} ccdf={y:.3f}" for x, y in ecdf.points()[:12]
            ]
            lines.append(
                f"  {series.label}: median={series.median_changes():g} "
                f"n={len(series.changes_per_vp)}"
            )
            lines.append("    " + "; ".join(points))
        blocks.append("\n".join(lines))
    return "Figure 3: ceCDF of per-VP site change events\n" + "\n\n".join(blocks)


def render_figure4(colocation: ColocationAnalysis) -> str:
    """Figure 4: reduced redundancy histograms per continent."""
    blocks: List[str] = []
    for continent in Continent:
        lines = [f"-- {continent} --"]
        for family in (4, 6):
            avg = colocation.average(continent, family)
            hist = colocation.histogram(continent, family)
            avg_text = "n/a" if avg is None else f"{avg:.2f}"
            lines.append(
                render_histogram(
                    [str(i) for i in range(len(hist))],
                    hist,
                    width=30,
                    title=f"IPv{family} (avg={avg_text})",
                )
            )
        blocks.append("\n".join(lines))
    summary = (
        f"VPs observing >=2 co-located letters: "
        f"{100.0 * colocation.fraction_with_colocation():.1f}% "
        f"(max co-location: {colocation.max_observed_colocation()})"
    )
    return "Figure 4: Reduced redundancy due to shared last hop\n" + summary + "\n\n" + "\n\n".join(blocks)


def render_figure5(distance: DistanceAnalysis, addresses: List[str]) -> str:
    """Figure 5: distance to closest global vs actual site."""
    blocks: List[str] = []
    for address in addresses:
        grid = distance.grid(address, bin_km=2500.0)
        frac = distance.fraction_optimal(address)
        lines = [
            f"{grid.address.label} IPv{grid.address.family}: "
            f"{100 * frac:.1f}% routed to closest global site or closer "
            f"({grid.observations} observations)"
        ]
        for (cb, ab), pct in sorted(grid.cells.items()):
            if pct < 0.5:
                continue
            lines.append(
                f"  closest {cb * 2.5:4.1f}-{(cb + 1) * 2.5:4.1f}k km, "
                f"actual {ab * 2.5:4.1f}-{(ab + 1) * 2.5:4.1f}k km: {pct:5.1f}%"
            )
        blocks.append("\n".join(lines))
    return "Figure 5: Distance per request from VPs to root sites\n" + "\n\n".join(blocks)


def render_figure6(
    rtt: RttAnalysis,
    continents: List[Continent],
    addresses: List[str],
    collector_addr_labels: Dict[str, str],
) -> str:
    """Figures 6/14/15: RTT distributions by continent."""
    blocks: List[str] = []
    for continent in continents:
        table = Table(["Server", "Fam", "n", "mean", "std", "p10", "p50", "p90"])
        for address in addresses:
            summary = rtt.summary(address, continent)
            if summary is None:
                continue
            table.add_row(
                [
                    summary.label,
                    f"v{summary.address.family}",
                    summary.count,
                    summary.mean,
                    summary.std,
                    summary.p10,
                    summary.p50,
                    summary.p90,
                ]
            )
        blocks.append(table.render(f"-- {continent} --"))
    return "Figure 6/14/15: RTTs of requests by continent (ms)\n" + "\n\n".join(blocks)


def render_traffic_series(
    title: str, series: Dict[str, List[Tuple[int, float]]], daily: bool = True
) -> str:
    """Figures 7/9: normalised traffic share series."""
    lines = [title]
    labels = sorted(series)
    buckets = series_buckets(series)
    index: Dict[str, Dict[int, float]] = {
        label: dict(points) for label, points in series.items()
    }
    header = "bucket" + "".join(f"\t{label}" for label in labels)
    lines.append(header)
    for bucket in buckets:
        stamp = format_day(bucket) if daily else format_ts(bucket)
        row = stamp + "".join(
            f"\t{index[label].get(bucket, 0.0):.3f}" for label in labels
        )
        lines.append(row)
    return "\n".join(lines)


def render_figure8(behavior: ClientBehaviorAnalysis, family: int) -> str:
    """Figure 8: mean # of unique client subnets per day vs flows."""
    lines = [f"Figure 8 (IPv{family}): flows/client vs share of clients"]
    for label, dist in sorted(behavior.by_family(family).items()):
        if not len(dist.flows_per_client):
            continue
        single = dist.fraction_single_daily_contact()
        lines.append(
            f"  {label}: clients={dist.mean_clients_per_day()} "
            f"single-daily-contact={100 * single:.1f}%"
        )
        points = dist.cdf_points()
        for x, y in points[:: max(1, len(points) // 8)]:
            lines.append(f"    <= {x:8.1f} flows/day: {100 * y:5.1f}% of clients")
    return "\n".join(lines)


def render_path_breakdown(
    paths, continent: Continent, letter: str, top_n: int = 5
) -> str:
    """§6 drill-down: per-AS path shares and latencies for one cell."""
    lines = [f"Path composition: {letter}.root from {continent}"]
    for family in (4, 6):
        breakdown = paths.as_breakdown(
            continent=continent, letter=letter, family=family
        )
        lines.append(f"  IPv{family}:")
        for stats in breakdown[:top_n]:
            lines.append(
                f"    {stats.label:<12} share {100 * stats.share:5.1f}%  "
                f"mean RTT {stats.mean_rtt_ms:6.1f} ms  (n={stats.requests})"
            )
    return "\n".join(lines)


def render_source_audit(rows: List[SourceAuditRow]) -> str:
    """CZDS/IANA download validation schedule (§7)."""
    table = Table(["Source", "Retrieved", "Serial", "ZONEMD", "RRSIGs"])
    for row in rows:
        table.add_row(
            [
                row.source,
                format_ts(row.retrieved_at),
                row.serial,
                row.zonemd_status.name,
                "valid" if row.rrsig_valid else "INVALID",
            ]
        )
    return table.render("Out-of-band zone source validation")
