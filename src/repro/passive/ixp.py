"""The IXP-DNS-1 analogue: passive capture at 14 EU/NA exchanges.

Each exchange sees a regional client mix whose address-change adoption
differs (paper Fig. 9: by late December 2023, ~60.8 % of b.root IPv6
traffic at European IXPs had shifted to the new address, but only
~16.5 % in North America).  IXP captures are much more heavily sampled
than the ISP's, and traffic is letter-skewed (k.root and d.root dominate,
Fig. 13).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.geo.continents import Continent
from repro.netsim.facilities import Ixp, IXP_CATALOG, PASSIVE_IXP_IDS
from repro.passive.clients import (
    IXP_EU_PROFILE,
    IXP_NA_PROFILE,
    LETTER_WEIGHTS_IXP,
    PopulationProfile,
    build_client_population,
)
from repro.netsim.mix import mix_str
from repro.passive.isp import IspCapture
from repro.passive.traces import FlowAggregate, TrafficTimeSeries
from repro.util.rng import RngFactory
from repro.util.timeutil import DAY, Timestamp


@dataclass
class IxpCapture:
    """One exchange's capture point.

    Reuses the ISP flow engine with the exchange's own client population,
    letter skew and heavy sampling — the capture pipeline is identical,
    only the vantage differs (as in the paper).
    """

    ixp: Ixp
    engine: IspCapture

    @property
    def region(self) -> Continent:
        return self.ixp.continent

    def capture(
        self, start: Timestamp, end: Timestamp, bucket_seconds: int = DAY
    ) -> FlowAggregate:
        return self.engine.capture(start, end, bucket_seconds)

    def time_series(self, aggregate: FlowAggregate) -> TrafficTimeSeries:
        return self.engine.time_series(aggregate)


def build_ixp_captures(
    rng_factory: RngFactory,
    seed: int,
    clients_per_ixp: int = 300,
    sampling_rate: float = 0.1,
    eu_profile: PopulationProfile = IXP_EU_PROFILE,
    na_profile: PopulationProfile = IXP_NA_PROFILE,
    region: Optional[Continent] = None,
) -> List[IxpCapture]:
    """The 14 passive IXP vantage points with region-specific behaviour,
    or only *region*'s exchanges.

    The regional profiles default to the paper's; a scenario's traffic
    layer substitutes its overridden ones.  Exchanges draw from their own
    named streams, so one region's populations equal the full build's.
    """
    captures: List[IxpCapture] = []
    by_id: Dict[str, Ixp] = {ixp.ixp_id: ixp for ixp in IXP_CATALOG}
    for ixp_id in PASSIVE_IXP_IDS:
        ixp = by_id[ixp_id]
        if region not in (None, ixp.continent):
            continue
        profile = eu_profile if ixp.continent is Continent.EUROPE else na_profile
        # Per-exchange population: share the regional behaviour profile
        # but draw independent clients.
        sized = replace(
            profile, name=f"{profile.name}.{ixp_id}", n_clients=clients_per_ixp
        )
        clients = build_client_population(sized, rng_factory)
        flow_engine = IspCapture(
            clients,
            seed=seed ^ (mix_str(ixp_id) & 0xFFFF),
            sampling_rate=sampling_rate,
            letter_weights=LETTER_WEIGHTS_IXP,
        )
        captures.append(IxpCapture(ixp=ixp, engine=flow_engine))
    return captures


def regional_aggregate(
    captures: List[IxpCapture],
    region: Continent,
    start: Timestamp,
    end: Timestamp,
    bucket_seconds: int = DAY,
) -> FlowAggregate:
    """Merged aggregate over all exchanges of one region (Fig. 9 view)."""
    from repro.passive.flow_engine import capture_group

    engines = [capture.engine for capture in captures if capture.region is region]
    return capture_group(engines, start, end, bucket_seconds)
