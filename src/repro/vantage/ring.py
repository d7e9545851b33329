"""The vantage point population.

Reproduces the paper's Table 3 distribution: 675 VPs in 523 networks and
62 countries — Europe-heavy (435 VPs), with thin coverage of Africa (10)
and South America (13).  Populations can be scaled down proportionally
for cheaper runs while preserving the regional mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.geo.cities import City, cities_in
from repro.geo.continents import Continent
from repro.netsim.attachment import Attachment
from repro.netsim.facilities import IXP_CATALOG
from repro.netsim.transit import TRANSIT_CATALOG, TransitProvider
from repro.util.rng import RngFactory
from repro.vantage.node import VantagePoint

#: Paper Table 3: (vantage points, unique countries, unique networks).
REGION_PLAN: Dict[Continent, Tuple[int, int, int]] = {
    Continent.AFRICA: (10, 4, 9),
    Continent.ASIA: (52, 19, 31),
    Continent.EUROPE: (435, 29, 386),
    Continent.NORTH_AMERICA: (133, 3, 94),
    Continent.SOUTH_AMERICA: (13, 3, 12),
    Continent.OCEANIA: (32, 4, 22),
}

#: Probability a VP's network peers at a reachable exchange, per region
#: (Europe's dense peering culture vs thinner fabrics elsewhere).
IXP_MEMBERSHIP_PROB: Dict[Continent, float] = {
    Continent.AFRICA: 0.35,
    Continent.ASIA: 0.35,
    Continent.EUROPE: 0.55,
    Continent.NORTH_AMERICA: 0.40,
    Continent.SOUTH_AMERICA: 0.45,
    Continent.OCEANIA: 0.35,
}

#: Mean last-mile latency (ms) per region for ring nodes (mostly hosted
#: in server networks, so low).
LAST_MILE_MS: Dict[Continent, float] = {
    Continent.AFRICA: 6.0,
    Continent.ASIA: 4.0,
    Continent.EUROPE: 2.0,
    Continent.NORTH_AMERICA: 2.5,
    Continent.SOUTH_AMERICA: 5.0,
    Continent.OCEANIA: 4.0,
}


@dataclass(frozen=True)
class RingConfig:
    """Scaling knobs for the VP population.

    ``min_per_region`` keeps thin regions (Africa, South America)
    statistically usable in scaled-down rings; the paper itself flags
    their low VP counts as a limitation (Appendix E).
    """

    scale: float = 1.0  # 1.0 = the paper's 675 VPs
    first_asn: int = 50000
    min_per_region: int = 1
    #: Per-continent multipliers (by :class:`Continent` name, e.g.
    #: ``(("ASIA", 1.6),)``) applied on top of ``scale`` — how a
    #: scenario's world layer densifies coverage of a studied region.
    region_scale: Tuple[Tuple[str, float], ...] = ()

    def region_count(self, continent: Continent) -> int:
        full, _countries, _nets = REGION_PLAN[continent]
        scale = self.scale * dict(self.region_scale).get(continent.name, 1.0)
        return max(self.min_per_region, int(round(full * scale)))


def _pick_transits(
    rng: random.Random, city: City, family: int, count: int
) -> Tuple[TransitProvider, ...]:
    """Weighted upstream choice: openness × regional proximity."""
    weights: List[float] = []
    for transit in TRANSIT_CATALOG:
        proximity = 1.0 / (1.0 + transit.pop_distance_km(city) / 2000.0)
        proximity = max(proximity, transit.remote_appeal)
        # Squared: transit markets concentrate on the locally strong
        # carriers; a provider with no nearby PoP and no open-peering
        # appeal rarely wins an upstream slot.
        weights.append((transit.openness(family) * proximity) ** 2)
    chosen: List[TransitProvider] = []
    pool = list(TRANSIT_CATALOG)
    pool_weights = list(weights)
    for _ in range(min(count, len(pool))):
        pick = rng.choices(range(len(pool)), weights=pool_weights, k=1)[0]
        chosen.append(pool.pop(pick))
        pool_weights.pop(pick)
    return tuple(chosen)


def _ixp_memberships(
    rng: random.Random, city: City, continent: Continent
) -> Tuple[str, ...]:
    """Exchanges this network peers at: nearby ones, region-weighted."""
    memberships: List[str] = []
    prob = IXP_MEMBERSHIP_PROB[continent]
    for ixp in IXP_CATALOG:
        if ixp.continent is not continent:
            continue
        distance = city.location.distance_km(ixp.city.location)
        # Joining likelihood decays with distance; big exchanges attract
        # remote peering from further away.
        reach = 1500.0 * ixp.size
        if distance > reach * 2:
            continue
        if rng.random() < prob * max(0.2, 1.0 - distance / (reach * 2)):
            memberships.append(ixp.ixp_id)
    return tuple(memberships)


def build_ring(rng_factory: RngFactory, config: RingConfig = RingConfig()) -> List[VantagePoint]:
    """Build the VP population.

    Networks (ASes) are created per region to match the Table 3
    VP:network ratio; some ASes host multiple VPs, as on the real ring.
    IPv6 attachments differ from IPv4 (extra open-v6 upstream adoption,
    differing memberships) — the substrate for every RQ2 analysis.
    """
    rng = rng_factory.stream("ring.population")
    vps: List[VantagePoint] = []
    vp_id = 0
    next_asn = config.first_asn
    for continent in Continent:
        full_vps, _n_countries, full_nets = REGION_PLAN[continent]
        n_vps = config.region_count(continent)
        n_networks = max(1, int(round(full_nets * n_vps / full_vps)))
        cities = cities_in(continent)
        for transit in TRANSIT_CATALOG:
            transit.nearest_pops(cities)  # one pass for the upstream weights
        # Build the networks first; VPs then land in them.
        networks: List[Attachment] = []
        for _ in range(n_networks):
            home = rng.choice(cities)
            transits_v4 = _pick_transits(rng, home, 4, rng.choice((1, 2, 2, 3)))
            # IPv6 upstreams are chosen independently: many networks buy
            # v6 from different (often fewer, more open) providers.
            transits_v6 = _pick_transits(rng, home, 6, rng.choice((1, 1, 2)))
            memberships_v4 = _ixp_memberships(rng, home, continent)
            # v6 peering is a subset/superset: some sessions are v4-only,
            # open exchanges add v6-only reach.
            memberships_v6 = tuple(
                m for m in memberships_v4 if rng.random() < 0.85
            )
            networks.append(
                Attachment(
                    asn=next_asn,
                    city=home,
                    transits_v4=transits_v4,
                    transits_v6=transits_v6,
                    ixp_memberships_v4=memberships_v4,
                    ixp_memberships_v6=memberships_v6,
                )
            )
            next_asn += 1
        for i in range(n_vps):
            attachment = networks[i % len(networks)]
            last_mile = max(
                0.5, rng.gauss(LAST_MILE_MS[continent], LAST_MILE_MS[continent] / 3)
            )
            vps.append(
                VantagePoint(
                    vp_id=vp_id,
                    name=f"ring{vp_id:04d}.{attachment.city.iata.lower()}",
                    attachment=attachment,
                    last_mile_ms=last_mile,
                )
            )
            vp_id += 1
    return vps

