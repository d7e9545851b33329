"""Distance inflation analysis (paper §6, Figure 5).

For each sampled request: the great-circle distance to the *closest
global* site of the letter versus the distance to the site the request
was actually routed to.  Requests on the diagonal reached their closest
global replica; below it, a closer local replica; above it, a more
distant (inflated) one.
"""

from __future__ import annotations

from repro.analysis.base import RegisteredAnalysis

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.rss.operators import ServiceAddress


@dataclass(frozen=True)
class DistanceGrid:
    """Figure 5 heatmap: % of observations per (closest, actual) bin."""

    address: ServiceAddress
    bin_km: float
    #: (closest_bin, actual_bin) -> percentage of observations
    cells: Dict[Tuple[int, int], float]
    observations: int


class DistanceAnalysis(RegisteredAnalysis):
    """Distance statistics over the sampled probe table."""

    name = "distance"
    requires = ("dataset",)
    tables = ("probes",)

    def __init__(self, dataset) -> None:
        self.dataset = dataset
        self.columns = dataset.probe_columns()

    def _mask_for(self, address: str) -> np.ndarray:
        addr_idx = self.dataset.addr_index[address]
        return self.columns["addr"] == addr_idx

    def grid(self, address: str, bin_km: float = 500.0) -> DistanceGrid:
        """The Figure 5 heatmap for one service address."""
        mask = self._mask_for(address)
        closest = self.columns["closest_km"][mask]
        actual = self.columns["direct_km"][mask]
        n = len(closest)
        if n == 0:
            raise ValueError(f"no observations for {address}")
        cbins = (closest / bin_km).astype(np.int64)
        abins = (actual / bin_km).astype(np.int64)
        width = int(abins.max()) + 1
        keys, first, counts = np.unique(
            cbins * width + abins, return_index=True, return_counts=True
        )
        # Cells in order of first observation, as a dict filled row by row.
        seen = np.argsort(first)
        cb, ab = np.divmod(keys[seen], width)
        percent = 100.0 * counts[seen] / n
        cells = dict(zip(zip(cb.tolist(), ab.tolist()), percent.tolist()))
        sa = self.dataset.addresses[self.dataset.addr_index[address]]
        return DistanceGrid(
            address=sa,
            bin_km=bin_km,
            cells=cells,
            observations=n,
        )

    def fraction_optimal(self, address: str, slack_km: float = 100.0) -> float:
        """Share of requests routed to the closest global site or closer
        (paper: 78-82 % for b.root and m.root)."""
        mask = self._mask_for(address)
        closest = self.columns["closest_km"][mask]
        actual = self.columns["direct_km"][mask]
        if len(closest) == 0:
            raise ValueError(f"no observations for {address}")
        return float(np.mean(actual <= closest + slack_km))

    def per_client_extra_distance(self, address: str) -> List[float]:
        """Per VP: mean additional distance (actual − closest), clamped at
        zero (a closer local replica is not a penalty).  Basis for the
        paper's '79.5 % of clients see < 1,000 km extra' statistic."""
        mask = self._mask_for(address)
        vps = self.columns["vp"][mask]
        extra = np.maximum(
            self.columns["direct_km"][mask] - self.columns["closest_km"][mask], 0.0
        )
        # Per VP, in order of first observation: the float64 sum of its
        # extras in row order (bincount adds sequentially, as sum() does).
        _, first, inverse, counts = np.unique(
            vps, return_index=True, return_inverse=True, return_counts=True
        )
        sums = np.bincount(inverse, weights=extra)
        seen = np.argsort(first)
        return (sums[seen] / counts[seen]).tolist()

    def fraction_clients_under(self, address: str, km: float = 1000.0) -> float:
        """Fraction of clients whose mean extra distance is below *km*."""
        extras = self.per_client_extra_distance(address)
        if not extras:
            raise ValueError(f"no observations for {address}")
        return sum(1 for e in extras if e < km) / len(extras)
