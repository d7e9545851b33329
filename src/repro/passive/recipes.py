"""Canonical passive-capture recipes.

The paper's passive artefacts (Figures 7–13) all derive from three
deterministic aggregates of the study seed: the ISP capture over the
post-change month, and the EU / NA regional IXP merges over the
December 2023 shift window.  This module is the single definition of
those recipes — ``rootsim-report``, the analysis summaries, the dataset
export and the parallel report workers all build captures through it,
so "the ISP aggregate for seed S" means exactly one thing everywhere.

A scenario's traffic layer (:class:`~repro.scenarios.specs.TrafficSpec`)
may override the capture-point populations; every recipe takes it as an
optional ``traffic`` argument, defaulting to the paper's profiles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.geo.continents import Continent
from repro.passive.clients import ISP_PROFILE, build_client_population
from repro.passive.isp import IspCapture
from repro.passive.ixp import IxpCapture, build_ixp_captures, regional_aggregate
from repro.passive.traces import FlowAggregate
from repro.util.rng import RngFactory
from repro.util.timeutil import parse_ts

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.scenarios.specs import TrafficSpec

#: The ISP capture window (Figures 7/8/12: the post-change month).
ISP_WINDOW: Tuple[str, str] = ("2024-02-05", "2024-03-04")

#: The IXP capture window (Figures 9/13: the December shift period).
IXP_WINDOW: Tuple[str, str] = ("2023-12-08", "2023-12-28")

#: Clients per exchange at report scale.
CLIENTS_PER_IXP = 120

#: Every standard capture name, in canonical order.
STANDARD_CAPTURES: Tuple[str, ...] = ("isp", "ixp-eu", "ixp-na")

_REGIONS: Dict[str, Continent] = {
    "ixp-eu": Continent.EUROPE,
    "ixp-na": Continent.NORTH_AMERICA,
}


def isp_capture(
    seed: int,
    traffic: Optional["TrafficSpec"] = None,
) -> IspCapture:
    """The ISP capture point for *seed* (population included)."""
    profile = ISP_PROFILE if traffic is None else traffic.profile("isp")
    return IspCapture(build_client_population(profile, RngFactory(seed)), seed=seed)


def isp_aggregate(
    seed: int,
    traffic: Optional["TrafficSpec"] = None,
) -> FlowAggregate:
    """The ISP aggregate over :data:`ISP_WINDOW` for *seed*."""
    return isp_capture(seed, traffic).capture(
        parse_ts(ISP_WINDOW[0]), parse_ts(ISP_WINDOW[1])
    )


def ixp_captures(
    seed: int,
    traffic: Optional["TrafficSpec"] = None,
) -> List[IxpCapture]:
    """The 14 per-exchange capture points at report scale."""
    kwargs = {}
    if traffic is not None:
        kwargs["eu_profile"] = traffic.profile("ixp-eu")
        kwargs["na_profile"] = traffic.profile("ixp-na")
    return build_ixp_captures(
        RngFactory(seed).fork("ixp"),
        seed=seed,
        clients_per_ixp=CLIENTS_PER_IXP,
        **kwargs,
    )


def build_capture(
    name: str,
    seed: int,
    traffic: Optional["TrafficSpec"] = None,
) -> FlowAggregate:
    """One standard aggregate by name ("isp", "ixp-eu", "ixp-na")."""
    if name == "isp":
        return isp_aggregate(seed, traffic)
    try:
        region = _REGIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown capture {name!r}; standard captures: "
            f"{', '.join(STANDARD_CAPTURES)}"
        ) from None
    window = (parse_ts(IXP_WINDOW[0]), parse_ts(IXP_WINDOW[1]))
    return regional_aggregate(ixp_captures(seed, traffic), region, *window)


def standard_captures(
    seed: int,
    traffic: Optional["TrafficSpec"] = None,
) -> Dict[str, FlowAggregate]:
    """All standard aggregates for *seed*, keyed by capture name."""
    out = {"isp": isp_aggregate(seed, traffic)}
    captures = ixp_captures(seed, traffic)
    window = (parse_ts(IXP_WINDOW[0]), parse_ts(IXP_WINDOW[1]))
    for name, region in _REGIONS.items():
        out[name] = regional_aggregate(captures, region, *window)
    return out
