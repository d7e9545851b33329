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
from typing import Dict, List, Optional, Tuple

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
        # Latest observed hop per (vp, address); rows are appended in
        # time order, so the last write wins.
        latest: Dict[Tuple[int, int], int] = {}
        cols = self.dataset.traceroute_columns()
        for vp_id, addr_idx, hop in zip(
            cols["vp"].tolist(), cols["addr"].tolist(), cols["hop"].tolist()
        ):
            latest[(vp_id, addr_idx)] = hop

        # Per (vp, family): hops across letters, current generation only
        # (old and new b.root share sites; counting both would double b).
        per_vp: Dict[Tuple[int, int], List[int]] = {}
        for (vp_id, addr_idx), hop in latest.items():
            sa = self.dataset.addresses[addr_idx]
            if sa.generation == "old":
                continue
            per_vp.setdefault((vp_id, sa.family), []).append(hop)

        views: List[VpColocation] = []
        unique_counter = -1
        for (vp_id, family), hops in sorted(per_vp.items()):
            resolved: List[int] = []
            for hop in hops:
                if hop < 0:
                    # Unanswered hop: unique by convention (lower bound).
                    resolved.append(unique_counter)
                    unique_counter -= 1
                else:
                    resolved.append(hop)
            vp = self.vps.get(vp_id)
            if vp is None:
                continue
            views.append(
                VpColocation(
                    vp_id=vp_id,
                    family=family,
                    continent=vp.continent,
                    letters_observed=len(resolved),
                    unique_hops=len(set(resolved)),
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
