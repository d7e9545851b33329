"""A single vantage point (ring node)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.continents import Continent
from repro.netsim.attachment import Attachment


@dataclass(frozen=True)
class VantagePoint:
    """One measurement node.

    ``clock_offset_s`` models skewed node clocks — the paper found six
    time-related validation errors caused by two VPs with inaccurate
    clocks (§7), so the timestamp a VP *records* is ``true_ts + offset``.
    """

    vp_id: int
    name: str
    attachment: Attachment
    last_mile_ms: float
    clock_offset_s: int = 0

    @property
    def asn(self) -> int:
        return self.attachment.asn

    @property
    def country(self) -> str:
        return self.attachment.city.country

    @property
    def continent(self) -> Continent:
        return self.attachment.continent
