"""How an edge network (vantage point or client population) attaches to
the routing fabric: its AS, home city, per-family upstream transit
providers and IXP memberships.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.geo.cities import City
from repro.geo.continents import Continent
from repro.netsim.transit import TransitProvider


@dataclass(frozen=True)
class Attachment:
    """One edge network's view of the Internet.

    ``transits`` are ordered by local preference (first = most preferred).
    IPv4 and IPv6 connectivity commonly differ (different upstreams,
    different peering reach) — the root cause of most of the paper's
    v4-vs-v6 findings — so both are carried explicitly.
    """

    asn: int
    city: City
    transits_v4: Tuple[TransitProvider, ...]
    transits_v6: Tuple[TransitProvider, ...]
    ixp_memberships_v4: Tuple[str, ...] = ()
    ixp_memberships_v6: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.transits_v4 or not self.transits_v6:
            raise ValueError("attachment needs at least one transit per family")

    @property
    def continent(self) -> Continent:
        return self.city.continent

    def transits(self, family: int) -> Tuple[TransitProvider, ...]:
        if family == 4:
            return self.transits_v4
        if family == 6:
            return self.transits_v6
        raise ValueError(f"family must be 4 or 6, got {family}")

    def ixp_memberships(self, family: int) -> Tuple[str, ...]:
        if family == 4:
            return self.ixp_memberships_v4
        if family == 6:
            return self.ixp_memberships_v6
        raise ValueError(f"family must be 4 or 6, got {family}")
