"""Server co-location analysis (paper §5, Figure 4 — RQ1).

Per VP and address family, collect the second-to-last traceroute hop
toward each letter; letters sharing a hop share last-hop infrastructure.
*Reduced redundancy* = (number of letters with an observed hop) − (number
of unique hops).  Hops that went unanswered are treated as unique, making
the estimate a lower bound — the paper's §5 convention.
"""

from __future__ import annotations

from repro.analysis.base import RegisteredAnalysis

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.geo.continents import Continent
from repro.vantage.node import VantagePoint


@dataclass(frozen=True)
class VpColocation:
    """One VP's co-location view for one address family."""

    vp_id: int
    family: int
    continent: Continent
    letters_observed: int
    unique_hops: int

    @property
    def reduced_redundancy(self) -> int:
        return self.letters_observed - self.unique_hops

    @property
    def max_colocated(self) -> int:
        """Letters behind the single most-shared hop cannot exceed
        reduced redundancy + 1."""
        return self.reduced_redundancy + 1


class ColocationAnalysis(RegisteredAnalysis):
    """Figure 4 and the §5 headline statistics."""

    name = "colocation"
    requires = ("dataset", "vps")
    tables = ("traceroutes",)

    def __init__(self, dataset, vps: List[VantagePoint]) -> None:
        self.dataset = dataset
        self.vps = {vp.vp_id: vp for vp in vps}
        self._views = self._build_views()

    def _build_views(self) -> List[VpColocation]:
        cols = self.dataset.traceroute_columns()
        n_addr = len(self.dataset.addresses)
        # Latest observed hop per (vp, address): rows are appended in
        # time order, so the first occurrence in reverse row order wins.
        key = np.asarray(cols["vp"], dtype=np.int64) * n_addr + cols["addr"]
        pairs, first = np.unique(key[::-1], return_index=True)
        hop = np.asarray(cols["hop"])[::-1][first].astype(np.int64)
        vp_id, addr_idx = np.divmod(pairs, n_addr)

        # Per (vp, family): hops across letters, current generation only
        # (old and new b.root share sites; counting both would double b).
        current = np.array([sa.generation != "old" for sa in self.dataset.addresses])
        is_v6 = np.array([sa.family == 6 for sa in self.dataset.addresses])
        keep = current[addr_idx]
        group = vp_id[keep] * 2 + is_v6[addr_idx[keep]]
        hop = hop[keep]
        groups, letters_observed = np.unique(group, return_counts=True)
        # An unanswered hop (< 0) is unique by convention (lower bound);
        # answered hops count once per distinct value.
        answered = hop >= 0
        max_hop = hop.max(initial=0) + 1
        distinct = np.unique(group[answered] * max_hop + hop[answered])
        unique_hops = np.bincount(
            np.searchsorted(groups, group[~answered]), minlength=len(groups)
        ) + np.bincount(
            np.searchsorted(groups, distinct // max_hop), minlength=len(groups)
        )

        views: List[VpColocation] = []
        for g, observed, unique in zip(
            groups.tolist(), letters_observed.tolist(), unique_hops.tolist()
        ):
            vp = self.vps.get(g // 2)
            if vp is None:
                continue
            views.append(
                VpColocation(
                    vp_id=g // 2,
                    family=6 if g % 2 else 4,
                    continent=vp.continent,
                    letters_observed=observed,
                    unique_hops=unique,
                )
            )
        return views

    # -- figure data ---------------------------------------------------------------

    def views(self) -> List[VpColocation]:
        return list(self._views)

    def histogram(
        self, continent: Continent, family: int, max_value: int = 12
    ) -> List[int]:
        """#VPs per reduced-redundancy value 0..max_value (Fig. 4 bars)."""
        counts = [0] * (max_value + 1)
        for view in self._views:
            if view.continent is not continent or view.family != family:
                continue
            counts[min(view.reduced_redundancy, max_value)] += 1
        return counts

    def average(self, continent: Continent, family: int) -> Optional[float]:
        """Mean reduced redundancy (the avg(v4)/avg(v6) figure labels)."""
        values = [
            v.reduced_redundancy
            for v in self._views
            if v.continent is continent and v.family == family
        ]
        if not values:
            return None
        return sum(values) / len(values)

    def fraction_with_colocation(self, min_colocated: int = 2) -> float:
        """§5 headline: fraction of VPs observing >= *min_colocated*
        co-located letters (on either family)."""
        per_vp_max: Dict[int, int] = {}
        for view in self._views:
            per_vp_max[view.vp_id] = max(
                per_vp_max.get(view.vp_id, 0), view.max_colocated
            )
        if not per_vp_max:
            raise ValueError("no traceroute observations")
        hits = sum(1 for m in per_vp_max.values() if m >= min_colocated)
        return hits / len(per_vp_max)

    def max_observed_colocation(self) -> int:
        """The paper reports sites where up to 12 letters shared a hop."""
        return max((v.max_colocated for v in self._views), default=0)
