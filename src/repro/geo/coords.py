"""Geographic coordinates and distance/delay models.

The paper converts distance to delay with the rule of thumb "every 1,000 km
induces ~10 ms of (round-trip) delay" (speed of light in fiber, §6).  We use
the same constant so distance-derived RTT floors line up with the paper's
framing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

EARTH_RADIUS_KM = 6371.0

#: Round-trip milliseconds per kilometre of great-circle path (paper §6:
#: ~10 ms per 1,000 km).
RTT_MS_PER_KM = 0.01


@dataclass(frozen=True)
class GeoPoint:
    """A WGS-84 latitude/longitude pair in degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to *other* in kilometres."""
        return haversine_km(self, other)


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points (haversine formula)."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    # Clamp to guard against floating-point drift pushing h past 1.0.
    h = min(1.0, max(0.0, h))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def fiber_rtt_ms(distance_km: float) -> float:
    """Idealised round-trip time over fibre for a one-way path length.

    This is a *floor*: real paths add queueing, detours and equipment
    latency on top, which the network simulator models separately.
    """
    if distance_km < 0:
        raise ValueError(f"negative distance: {distance_km}")
    return distance_km * RTT_MS_PER_KM


#: Targets this close to an origin's approximate nearest distance are
#: measured exactly by :func:`nearest`.  The numpy and ``math``
#: haversines disagree by well under a metre, even near antipodes.
NEAREST_SLACK_KM = 1.0


def nearest(
    origins: Sequence[GeoPoint], targets: Sequence[GeoPoint]
) -> Tuple[List[int], List[float]]:
    """For each origin, the index of its nearest target and the distance
    to it, exactly as ``min`` over ``haversine_km(origin, target)`` in
    target order picks them (the first index wins a tie).

    For several origins, a numpy haversine over every (origin, target)
    pair first keeps the targets within :data:`NEAREST_SLACK_KM` of each
    origin's approximate minimum — the exact nearest always among them;
    a single origin skips that pass, which would cost more than it
    saves.  The scalar :func:`haversine_km` decides among the kept
    targets, so results never depend on numpy's last bits.
    """
    if not targets:
        raise ValueError("nearest() needs at least one target")
    if len(origins) == 1:
        rows, cols = [0] * len(targets), range(len(targets))
    else:
        o_lat, o_lon = np.radians([(p.lat, p.lon) for p in origins]).reshape(-1, 2).T
        t_lat, t_lon = np.radians([(p.lat, p.lon) for p in targets]).T
        dlat = t_lat[None, :] - o_lat[:, None]
        dlon = t_lon[None, :] - o_lon[:, None]
        h = np.sin(dlat / 2.0) ** 2 + np.outer(np.cos(o_lat), np.cos(t_lat)) * (
            np.sin(dlon / 2.0) ** 2
        )
        approx = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
        keep = approx <= approx.min(axis=1, keepdims=True) + NEAREST_SLACK_KM
        rows, cols = (a.tolist() for a in np.nonzero(keep))  # targets ascend per row
    index = [-1] * len(origins)
    km = [math.inf] * len(origins)
    for row, col in zip(rows, cols):
        d = haversine_km(origins[row], targets[col])
        if d < km[row]:
            index[row], km[row] = col, d
    return index, km
