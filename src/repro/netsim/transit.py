"""Transit providers with per-address-family policies.

The paper repeatedly traces IPv4/IPv6 RTT differences to two ASes:

* **AS6939** (Hurricane Electric-like, here ``OPEN_V6_TRANSIT``): an open
  IPv6 peering policy makes it carry a large share of IPv6 paths; in
  North America that *lowers* latency (i.root: 46.2 ms v6 vs 62.6 ms v4),
  while in Africa/South America it hauls traffic to remote replicas and
  *raises* it (l.root Africa via AS6939: ~62.5 ms; i.root South America
  +100 % on v6).
* **AS12956** (Telxius-like, ``SA_V4_TRANSIT``): dominates South American
  IPv4 paths toward North America.

A provider's ``pops`` are the cities where it can hand traffic off; the
haul from a client's entry PoP to the PoP nearest the chosen anycast site
is what creates out-of-continent detours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.geo.cities import City, city
from repro.geo.continents import Continent
from repro.geo.coords import nearest


#: (asn, origin IATA) -> (nearest PoP, distance km); providers and
#: cities are static.
_NEAREST_POP_CACHE: Dict[Tuple[int, str], Tuple[City, float]] = {}


@dataclass(frozen=True)
class TransitProvider:
    """One transit AS."""

    asn: int
    name: str
    pops: Tuple[City, ...]
    #: Relative likelihood of being picked as upstream, per family.
    openness_v4: float
    openness_v6: float
    #: Floor on the proximity factor in upstream choice: providers with
    #: open/cheap peering attract customers far from their PoPs (how the
    #: AS6939-like network ends up carrying South American and African
    #: IPv6 despite having no PoPs there — paper §6).
    remote_appeal: float = 0.0
    #: Added queueing latency (ms) on paths through this provider, per
    #: family.  The paper measured the AS6939-like network at 221.4 ms
    #: average on IPv4 but 23.4 ms on IPv6 in North America — congested
    #: v4 ports, clean v6 — which is what flips i.root's NA family ratio.
    congestion_ms_v4: float = 0.0
    congestion_ms_v6: float = 0.0

    def congestion_ms(self, family: int) -> float:
        if family == 4:
            return self.congestion_ms_v4
        if family == 6:
            return self.congestion_ms_v6
        raise ValueError(f"family must be 4 or 6, got {family}")

    def nearest_pop(self, origin: City) -> City:
        """The provider PoP closest to *origin* — the client's entry point."""
        return self._nearest([origin])[0][0]

    def nearest_pops(self, origins: Sequence[City]) -> List[City]:
        """:meth:`nearest_pop` of every origin, the uncached ones found
        together: route compilation asks for the hub of every global
        site, ring construction for every network city."""
        return [pop for pop, _km in self._nearest(origins)]

    def pop_distance_km(self, origin: City) -> float:
        """Distance from *origin* to the nearest PoP."""
        return self._nearest([origin])[0][1]

    def _nearest(self, origins: Sequence[City]) -> List[Tuple[City, float]]:
        """(nearest PoP, its ``haversine_km``) per origin — the first PoP
        on a tie — memoised per (provider, origin city); the uncached
        origins go through one :func:`~repro.geo.coords.nearest` call."""
        missing = {
            c.iata: c for c in origins if (self.asn, c.iata) not in _NEAREST_POP_CACHE
        }
        if missing:
            index, km = nearest(
                [c.location for c in missing.values()], [p.location for p in self.pops]
            )
            for iata, i, d in zip(missing, index, km):
                _NEAREST_POP_CACHE[(self.asn, iata)] = (self.pops[i], d)
        return [_NEAREST_POP_CACHE[(self.asn, c.iata)] for c in origins]

    def openness(self, family: int) -> float:
        if family == 4:
            return self.openness_v4
        if family == 6:
            return self.openness_v6
        raise ValueError(f"family must be 4 or 6, got {family}")


def _cities(*iatas: str) -> Tuple[City, ...]:
    return tuple(city(i) for i in iatas)


#: AS6939-like: PoPs concentrated in NA/EU (plus a handful in Asia), open
#: IPv6 peering.  Its *absence* of PoPs in Africa/South America is what
#: drags v6 traffic from those regions out of continent.
OPEN_V6_TRANSIT = TransitProvider(
    asn=6939,
    name="OpenPeer6 (AS6939-like)",
    pops=_cities(
        "SJC", "LAX", "SEA", "ORD", "DFW", "MIA", "JFK", "IAD", "YYZ",
        "FRA", "AMS", "LHR", "CDG", "ARN", "ZRH",
        "NRT", "HKG", "SIN",
    ),
    openness_v4=0.25,
    openness_v6=0.90,
    remote_appeal=0.6,
    congestion_ms_v4=60.0,
    congestion_ms_v6=0.0,
)

#: AS12956-like: the South-America <-> North-America IPv4 workhorse.
SA_V4_TRANSIT = TransitProvider(
    asn=12956,
    name="AtlanticCarrier (AS12956-like)",
    pops=_cities("MAD", "LIS", "MIA", "GRU", "EZE", "SCL", "BOG", "LIM"),
    openness_v4=0.80,
    openness_v6=0.35,
)

TRANSIT_CATALOG: List[TransitProvider] = [
    OPEN_V6_TRANSIT,
    SA_V4_TRANSIT,
    TransitProvider(
        asn=3356, name="GlobalTier1-A",
        pops=_cities(
            "IAD", "JFK", "ORD", "DFW", "LAX", "SEA", "MIA", "DEN",
            "FRA", "AMS", "LHR", "CDG", "MXP", "MAD",
            "NRT", "HKG", "SIN", "SYD", "GRU", "EZE", "JNB",
        ),
        openness_v4=0.85, openness_v6=0.70,
    ),
    TransitProvider(
        asn=1299, name="GlobalTier1-B",
        pops=_cities(
            "ARN", "OSL", "CPH", "HEL", "FRA", "AMS", "LHR", "CDG", "WAW",
            "JFK", "IAD", "ORD", "LAX", "MIA",
            "HKG", "SIN", "NRT",
        ),
        openness_v4=0.80, openness_v6=0.75,
    ),
    TransitProvider(
        asn=174, name="BudgetTransit",
        pops=_cities(
            "IAD", "JFK", "ORD", "LAX", "DFW",
            "FRA", "AMS", "LHR", "CDG", "MAD", "MXP", "WAW",
        ),
        openness_v4=0.70, openness_v6=0.50,
        congestion_ms_v4=18.0, congestion_ms_v6=18.0,
    ),
    TransitProvider(
        asn=2914, name="PacificTier1",
        pops=_cities(
            "NRT", "KIX", "HKG", "SIN", "ICN", "TPE", "SYD",
            "SJC", "LAX", "SEA", "IAD", "FRA", "LHR", "AMS",
        ),
        openness_v4=0.65, openness_v6=0.65,
    ),
    TransitProvider(
        asn=5511, name="EuroAfricaCarrier",
        pops=_cities(
            "CDG", "MRS", "FRA", "LHR", "MAD", "LIS",
            "CMN", "DKR", "ABJ", "LOS", "JNB", "NBO", "CAI",
        ),
        openness_v4=0.55, openness_v6=0.40,
    ),
    TransitProvider(
        asn=6453, name="IndiaAtlanticCarrier",
        pops=_cities(
            "BOM", "DEL", "MAA", "SIN", "HKG", "DXB",
            "LHR", "FRA", "CDG", "JFK", "IAD", "MIA",
        ),
        openness_v4=0.60, openness_v6=0.45,
    ),
    TransitProvider(
        asn=4637, name="AsiaPacTransit",
        pops=_cities(
            "HKG", "SIN", "NRT", "SYD", "AKL", "CGK", "KUL", "BKK", "MNL",
            "LAX", "SJC", "LHR",
        ),
        openness_v4=0.55, openness_v6=0.50,
    ),
    TransitProvider(
        asn=37100, name="AfricaRegional",
        pops=_cities("JNB", "CPT", "NBO", "LOS", "ACC", "DAR", "CAI", "MRS", "LHR"),
        openness_v4=0.50, openness_v6=0.35,
    ),
    TransitProvider(
        asn=61832, name="BrazilRegional",
        pops=_cities("GRU", "GIG", "POA", "FOR", "BSB", "MIA"),
        openness_v4=0.55, openness_v6=0.45,
    ),
    TransitProvider(
        asn=4826, name="OceaniaTransit",
        pops=_cities("SYD", "MEL", "BNE", "PER", "AKL", "SIN", "LAX", "SJC"),
        openness_v4=0.50, openness_v6=0.50,
    ),
]

TRANSIT_BY_ASN: Dict[int, TransitProvider] = {t.asn: t for t in TRANSIT_CATALOG}
