"""Site stability analysis (paper §4.2, Figure 3).

Counts, per (VP, service address), how often two subsequent measurements
reached different anycast sites, and summarises the distribution as the
complementary eCDF the paper plots — per letter, per address family, and
for b.root per address generation.
"""

from __future__ import annotations

from repro.analysis.base import RegisteredAnalysis

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.rss.operators import ServiceAddress
from repro.util.stats import Ecdf, median


@dataclass(frozen=True)
class StabilitySeries:
    """Change-count sample for one service address across VPs."""

    address: ServiceAddress
    changes_per_vp: Tuple[int, ...]

    @property
    def label(self) -> str:
        gen = "" if self.address.generation == "current" else self.address.generation
        return f"IPv{self.address.family}{gen}"

    def median_changes(self) -> float:
        if not self.changes_per_vp:
            raise ValueError(f"no observations for {self.address.address}")
        return median(self.changes_per_vp)

    def ecdf(self) -> Ecdf:
        return Ecdf(self.changes_per_vp)


class StabilityAnalysis(RegisteredAnalysis):
    """Figure 3 over a campaign's change counters."""

    name = "stability"
    requires = ("dataset",)
    tables = ("stability",)

    def __init__(self, dataset) -> None:
        """*dataset* is a :class:`repro.data.Dataset` or any
        collector-compatible object (``change_counts``/``addresses``)."""
        self.dataset = dataset
        counts = dataset.change_counts()
        self._per_addr: Dict[int, List[int]] = {}
        for (vp_id, addr_idx), (changes, _rounds) in counts.items():
            self._per_addr.setdefault(addr_idx, []).append(changes)

    def series_for(self, letter: str) -> List[StabilitySeries]:
        """All change-count series of one letter (old/new generations of
        b.root appear as distinct series, like the paper's Fig. 3 left)."""
        out: List[StabilitySeries] = []
        for addr_idx, changes in sorted(self._per_addr.items()):
            sa = self.dataset.addresses[addr_idx]
            if sa.letter != letter:
                continue
            out.append(StabilitySeries(address=sa, changes_per_vp=tuple(sorted(changes))))
        return out

    def median_changes(self, letter: str, family: int, generation: Optional[str] = None) -> float:
        """Median per-VP change count for (letter, family[, generation])."""
        for series in self.series_for(letter):
            if series.address.family != family:
                continue
            if generation is not None and series.address.generation != generation:
                continue
            return series.median_changes()
        raise KeyError(f"no series for {letter} IPv{family} {generation}")

    def letters_with_v6_excess(self, threshold: float = 1.3) -> List[str]:
        """Letters whose v6 median changes exceed v4 by *threshold*×
        (the paper names g, c and h)."""
        out: List[str] = []
        letters = sorted({sa.letter for sa in self.dataset.addresses})
        for letter in letters:
            try:
                v4 = self.median_changes(letter, 4, "current")
                v6 = self.median_changes(letter, 6, "current")
            except KeyError:
                # b.root has no "current" generation; compare new addrs.
                try:
                    v4 = self.median_changes(letter, 4, "new")
                    v6 = self.median_changes(letter, 6, "new")
                except KeyError:
                    continue
            if v4 > 0 and v6 / max(v4, 0.5) >= threshold:
                out.append(letter)
        return out
