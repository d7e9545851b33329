"""Canonical summaries, one per registered analysis — text and JSON.

``rootsim-analyze DIR <name>`` prints exactly what
:func:`render_summary` returns, and the dataset round-trip tests compare
these strings between a live study and a reloaded dataset — so this
module is the definition of "byte-identical analysis output" across the
save/load boundary.

The renderings reuse :mod:`repro.analysis.report` wherever a paper
artefact exists; the few analyses without a dedicated report function
(rssac, variability) get compact tables here.

The JSON side is the same contract, one layer down:
:func:`analysis_document` builds one canonical JSON-able document per
analysis (headline numbers plus the text summary) and
:func:`canonical_json_bytes` fixes its byte encoding (sorted keys,
compact separators, UTF-8).  ``rootsim-analyze --json`` and every
``repro.serving`` analysis endpoint emit exactly these bytes, which is
what makes the served responses equivalence-testable against the CLI —
and makes them exact ETag material.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional

from repro.analysis import report
from repro.geo.continents import Continent
from repro.rss.operators import root_server
from repro.util.tables import Table

#: Analyses that consume a passive capture aggregate instead of the
#: campaign dataset (see :func:`passive_aggregate`).
PASSIVE_ANALYSES = ("trafficshift", "clientbehavior", "querymix")

#: The ISP capture window reportgen uses for Figures 7/8/12 (the
#: canonical definition lives in :mod:`repro.passive.recipes`).
from repro.passive.recipes import ISP_WINDOW as PASSIVE_WINDOW  # noqa: E402


def passive_aggregate(seed: int, traffic=None):
    """The deterministic ISP capture aggregate for *seed*.

    This is the exact aggregate ``rootsim-report`` feeds the passive
    analyses (same window, same RNG streams), rebuilt without any
    campaign simulation.  Delegates to
    :func:`repro.passive.recipes.isp_aggregate`; *traffic* (a scenario's
    :class:`~repro.scenarios.specs.TrafficSpec`) overrides the capture
    population.  Datasets saved with passive tables carry the identical
    aggregate on disk instead (``dataset.passive.aggregate("isp")``).
    """
    from repro.passive.recipes import isp_aggregate

    return isp_aggregate(seed, traffic=traffic)


def _render_coverage(coverage) -> str:
    total, unmapped = coverage.observed_identifier_count()
    header = f"{total} identifiers observed, {unmapped} unmapped"
    return "\n\n".join(
        [header, report.render_table1(coverage), report.render_table4(coverage)]
    )


def _render_stability(stability) -> str:
    return report.render_figure3(stability)


def _render_colocation(colocation) -> str:
    return report.render_figure4(colocation)


def _render_distance(distance) -> str:
    b = root_server("b")
    m = root_server("m")
    return report.render_figure5(distance, [b.ipv4, b.ipv6, m.ipv4, m.ipv6])


def _render_rtt(rtt) -> str:
    addresses = [sa.address for sa in rtt.dataset.addresses]
    return report.render_figure6(
        rtt,
        [
            Continent.AFRICA,
            Continent.SOUTH_AMERICA,
            Continent.NORTH_AMERICA,
            Continent.EUROPE,
        ],
        addresses,
        {},
    )


def _render_paths(paths) -> str:
    return "\n\n".join(
        report.render_path_breakdown(paths, continent, "i")
        for continent in (Continent.SOUTH_AMERICA, Continent.NORTH_AMERICA)
    )


def _render_zonemd(audit) -> str:
    findings, valid = audit.validate_transfers()
    return report.render_table2(findings, valid)


def _render_rssac(metrics) -> str:
    table = Table(["Root", "n", "p50 ms", "p95 ms", "<=250ms %"], float_digits=2)
    for latency in metrics.all_response_latencies():
        table.add_row(
            [
                latency.letter,
                latency.samples,
                latency.p50_ms,
                latency.p95_ms,
                100.0 * latency.within_threshold,
            ]
        )
    return table.render("RSSAC047 response latency per letter")


def _render_variability(variability) -> str:
    full, subsets = variability.subset_spread(4, max_subsets=6)
    lines = [
        "Variability of k=4 letter subsets vs the full RSS",
        f"full RSS: median changes v4={full.median_changes_v4:g} "
        f"v6={full.median_changes_v6:g} v6-excess={full.v6_excess:.2f}",
    ]
    for metric in ("changes_v4", "changes_v6", "v6_excess"):
        low, high = variability.relative_spread(full, subsets, metric)
        lines.append(f"  {metric}: subset/full spread {low:.2f}x .. {high:.2f}x")
    return "\n".join(lines)


def _render_trafficshift(shift) -> str:
    from repro.util.timeutil import parse_ts

    series = report.render_traffic_series(
        f"Figure 7: ISP b.root traffic ({PASSIVE_WINDOW[0]} .. {PASSIVE_WINDOW[1]})",
        shift.broot_series(),
    )
    ratios = shift.shift_ratios(
        parse_ts(PASSIVE_WINDOW[0]), parse_ts(PASSIVE_WINDOW[1])
    )
    footer = (
        f"in-family shift: v4 {100 * ratios.v4_shifted:.1f}% "
        f"v6 {100 * ratios.v6_shifted:.1f}%"
    )
    return "\n".join([series, footer])


def _render_clientbehavior(behavior) -> str:
    return "\n\n".join(
        report.render_figure8(behavior, family) for family in (4, 6)
    )


def _render_querymix(querymix) -> str:
    shares = querymix.category_shares()
    lines = [
        "Query composition (synthesised over the ISP aggregate)",
        "  "
        + "  ".join(
            f"{category}={100 * share:.1f}%"
            for category, share in shares.items()
        ),
    ]
    table = Table(["QNAME", "queries"], float_digits=0)
    for qname, count in querymix.top_qnames(10):
        table.add_row([qname, count])
    lines.append(table.render("Top query names (Zipf head)"))
    for burst in querymix.burst_report():
        lines.append(
            f"burst {burst['start']}..{burst['end']} "
            f"({burst['category']} x{burst['multiplier']:g}): "
            f"observed amplification {burst['amplification']:.2f}x"
        )
    return "\n".join(lines)


def _render_regional_rtt(regional) -> str:
    table = Table(["Region", "family", "n", "mean ms", "p50 ms", "p90 ms"],
                  float_digits=1)
    for region, cells in regional.regional_summary().items():
        for family in (4, 6):
            cell = cells.get(family)
            if cell is None:
                continue
            table.add_row(
                [region, f"v{family}", cell.count, cell.mean, cell.p50, cell.p90]
            )
    lines = [table.render("f.root RTT per region")]
    monthly = regional.monthly_medians()
    if monthly:
        lines.append("Monthly median RTT (v4):")
        for region, series in monthly.items():
            points = "  ".join(f"{month}={median:.1f}ms" for month, median, _n in series)
            lines.append(f"  {region}: {points}")
    stages = regional.buildout_stages()
    if stages:
        lines.append(
            "build-out: "
            + ", ".join(f"{s['label']} @ {s['start']}" for s in stages)
        )
    return "\n".join(lines)


_RENDERERS: Dict[str, Any] = {
    "coverage": _render_coverage,
    "stability": _render_stability,
    "colocation": _render_colocation,
    "distance": _render_distance,
    "rtt": _render_rtt,
    "paths": _render_paths,
    "zonemd_audit": _render_zonemd,
    "rssac": _render_rssac,
    "variability": _render_variability,
    "trafficshift": _render_trafficshift,
    "clientbehavior": _render_clientbehavior,
    "querymix": _render_querymix,
    "regional_rtt": _render_regional_rtt,
}


def summary_names() -> List[str]:
    """Every analysis name with a canonical summary (all of them)."""
    return sorted(_RENDERERS)


def render_summary(name: str, analysis: Any) -> str:
    """The canonical text summary of one constructed analysis."""
    try:
        renderer = _RENDERERS[name]
    except KeyError:
        raise KeyError(
            f"no summary renderer for analysis {name!r}; "
            f"known: {', '.join(summary_names())}"
        ) from None
    return renderer(analysis)


# --- canonical JSON documents -------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """*value* with numpy scalars/arrays reduced to plain Python types
    (canonical JSON must not depend on who computed it)."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


def canonical_json_bytes(document: Dict[str, Any]) -> bytes:
    """The one byte encoding of a JSON document this repo serves:
    sorted keys, compact separators, UTF-8, no trailing newline."""
    return json.dumps(
        _jsonable(document), sort_keys=True, separators=(",", ":"),
        ensure_ascii=False,
    ).encode("utf-8")


def _data_coverage(coverage) -> Dict[str, Any]:
    total, unmapped = coverage.observed_identifier_count()
    return {"identifiers_observed": total, "unmapped": unmapped}


def _data_stability(stability) -> Dict[str, Any]:
    return {
        "median_changes": {
            "b_v4_new": stability.median_changes("b", 4, "new"),
            "g_v4": stability.median_changes("g", 4),
            "g_v6": stability.median_changes("g", 6),
        },
        "letters_with_v6_excess": stability.letters_with_v6_excess(),
    }


def _data_colocation(colocation) -> Dict[str, Any]:
    return {
        "fraction_with_colocation": colocation.fraction_with_colocation(),
        "max_observed_colocation": colocation.max_observed_colocation(),
    }


def _data_zonemd(audit) -> Dict[str, Any]:
    findings, valid = audit.validate_transfers()
    return {"valid_transfers": valid, "finding_groups": len(findings)}


def _data_rssac(metrics) -> Dict[str, Any]:
    return {
        "response_latency": [
            {
                "letter": latency.letter,
                "samples": latency.samples,
                "p50_ms": latency.p50_ms,
                "p95_ms": latency.p95_ms,
                "within_threshold": latency.within_threshold,
            }
            for latency in metrics.all_response_latencies()
        ]
    }


def _data_variability(variability) -> Dict[str, Any]:
    full, subsets = variability.subset_spread(4, max_subsets=6)
    spreads = {}
    for metric in ("changes_v4", "changes_v6", "v6_excess"):
        low, high = variability.relative_spread(full, subsets, metric)
        spreads[metric] = {"low": low, "high": high}
    return {
        "full": {
            "median_changes_v4": full.median_changes_v4,
            "median_changes_v6": full.median_changes_v6,
            "v6_excess": full.v6_excess,
        },
        "subset_spread": spreads,
    }


def _data_trafficshift(shift) -> Dict[str, Any]:
    from repro.util.timeutil import parse_ts

    ratios = shift.shift_ratios(
        parse_ts(PASSIVE_WINDOW[0]), parse_ts(PASSIVE_WINDOW[1])
    )
    return {
        "window": list(PASSIVE_WINDOW),
        "in_family_shift": {"v4": ratios.v4_shifted, "v6": ratios.v6_shifted},
    }


def _data_clientbehavior(behavior) -> Dict[str, Any]:
    return {
        "by_family": {
            str(family): {
                address: {
                    "mean_clients_per_day": dist.mean_clients_per_day(),
                    "single_daily_contact":
                        dist.fraction_single_daily_contact(),
                }
                for address, dist in sorted(behavior.by_family(family).items())
            }
            for family in (4, 6)
        }
    }


def _data_querymix(querymix) -> Dict[str, Any]:
    return {
        "category_shares": dict(querymix.category_shares()),
        "top_qnames": [
            {"qname": qname, "queries": count}
            for qname, count in querymix.top_qnames(10)
        ],
        "bursts": [dict(burst) for burst in querymix.burst_report()],
    }


def _data_regional_rtt(regional) -> Dict[str, Any]:
    cells = {}
    for region, families in regional.regional_summary().items():
        cells[region] = {
            f"v{family}": {
                "count": cell.count,
                "mean_ms": cell.mean,
                "p50_ms": cell.p50,
                "p90_ms": cell.p90,
            }
            for family, cell in sorted(families.items())
            if cell is not None
        }
    return {"regions": cells, "buildout_stages": regional.buildout_stages()}


#: Structured headline data per analysis, folded into the canonical JSON
#: document next to the text summary.  Analyses without an entry (the
#: figure-shaped ones: distance, rtt, paths) carry their text alone.
_JSON_DATA: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "coverage": _data_coverage,
    "stability": _data_stability,
    "colocation": _data_colocation,
    "zonemd_audit": _data_zonemd,
    "rssac": _data_rssac,
    "variability": _data_variability,
    "trafficshift": _data_trafficshift,
    "clientbehavior": _data_clientbehavior,
    "querymix": _data_querymix,
    "regional_rtt": _data_regional_rtt,
}


def render_json(name: str, analysis: Any) -> Dict[str, Any]:
    """The canonical JSON document of one constructed analysis."""
    document: Dict[str, Any] = {"analysis": name}
    builder = _JSON_DATA.get(name)
    if builder is not None:
        document["data"] = builder(analysis)
    document["summary"] = render_summary(name, analysis)
    return document


def analysis_inputs(dataset, name: str) -> Dict[str, Any]:
    """The explicit inputs analysis *name* needs beyond the dataset.

    Passive analyses consume a capture aggregate: replayed from the
    dataset's passive tables when present, rebuilt from the recorded
    study seed otherwise (pure function of the seed — no campaign
    stage).  Shared by ``rootsim-analyze`` and the serving layer so both
    construct the analysis from identical inputs.
    """
    if name not in PASSIVE_ANALYSES:
        return {}
    passive = dataset.passive
    if passive is not None and "isp" in passive.names():
        return {"aggregate": passive.aggregate("isp")}
    config = dataset.study_config()
    return {
        "aggregate": passive_aggregate(
            config.seed, traffic=config.traffic_spec()
        )
    }


def analysis_document(dataset, name: str, inputs: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Run analysis *name* against *dataset* and build its canonical
    JSON document (:class:`KeyError` for unknown names,
    :class:`~repro.data.schema.DatasetError` for missing tables)."""
    from repro.analysis import registry

    if inputs is None:
        inputs = analysis_inputs(dataset, name)
    return render_json(name, registry.run(name, dataset, **inputs))


def analysis_json_bytes(dataset, name: str, inputs: Optional[Dict[str, Any]] = None) -> bytes:
    """The exact bytes ``rootsim-analyze --json`` prints and the serving
    layer returns for analysis *name* over *dataset*."""
    return canonical_json_bytes(analysis_document(dataset, name, inputs))
