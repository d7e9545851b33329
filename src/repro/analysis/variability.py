"""Subset-generalisation analysis (paper §8, "Variability of the Root
Server System").

The paper's methodological conclusion: "a subset of root servers does
not generalize to the RSS or even anycast in general" — studies like
Schmidt et al.'s four-letter analysis can land far from the all-letter
picture.  This module quantifies that: for k-letter subsets, how far do
subset-level statistics (median catchment changes, median RTT, IPv6
excess) deviate from the all-letter values?
"""

from __future__ import annotations

from repro.analysis.base import RegisteredAnalysis

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.probe_cells import ProbeCells
from repro.analysis.stability import StabilityAnalysis
from repro.geo.continents import Continent
from repro.rss.operators import ROOT_LETTERS
from repro.util.stats import median, weighted_median
from repro.vantage.node import VantagePoint


@dataclass(frozen=True)
class SubsetStats:
    """One letter subset's aggregate statistics."""

    letters: Tuple[str, ...]
    median_changes_v4: float
    median_changes_v6: float
    median_rtt_ms: Optional[float]

    @property
    def v6_excess(self) -> float:
        """v6/v4 change ratio — the RQ2 statistic a study would report."""
        return self.median_changes_v6 / max(self.median_changes_v4, 0.5)


class VariabilityAnalysis(RegisteredAnalysis):
    """How much do k-letter subsets disagree with the full RSS?"""

    name = "variability"
    requires = ("dataset", "vps")
    tables = ("probes", "stability")

    def __init__(self, dataset, vps: List[VantagePoint]) -> None:
        self.dataset = dataset
        self.vps = vps
        self.stability = StabilityAnalysis(dataset)
        self.cells = ProbeCells(dataset, vps)
        # Per-instance results: a letter's median RTT is shared by every
        # subset containing it, and a rendering asks for one spread twice.
        self._median_rtts: Optional[Dict[str, float]] = None
        self._spreads: Dict[
            Tuple[int, int], Tuple[SubsetStats, List[SubsetStats]]
        ] = {}

    def _letter_median_changes(self, letter: str, family: int) -> Optional[float]:
        for series in self.stability.series_for(letter):
            if series.address.family != family:
                continue
            if series.address.generation == "old":
                continue
            return series.median_changes()
        return None

    def _letter_median_rtt(self, letter: str) -> Optional[float]:
        if self._median_rtts is None:
            self._median_rtts = self._compute_median_rtts()
        return self._median_rtts.get(letter)

    def _compute_median_rtts(self) -> Dict[str, float]:
        """Per letter: the median of its current-generation (address,
        continent) cell medians, each weighted by its samples / 100 (at
        least 1).  Every cell's median comes from one quantile pass."""
        cells = [
            (sa.letter, i, continent)
            for continent in Continent
            for i, sa in enumerate(self.dataset.addresses)
            if sa.generation != "old"
        ]
        counts, p50 = self.cells.quantiles(
            [((i,), continent) for _, i, continent in cells], (50,)
        )
        medians: Dict[str, List[float]] = {}
        weights: Dict[str, List[int]] = {}
        for (letter, _, _), count, (median_rtt,) in zip(
            cells, counts.tolist(), p50.tolist()
        ):
            if count:
                medians.setdefault(letter, []).append(median_rtt)
                weights.setdefault(letter, []).append(max(1, count // 100))
        return {
            letter: weighted_median(values, weights[letter])
            for letter, values in medians.items()
        }

    def subset_stats(self, letters: Sequence[str]) -> SubsetStats:
        """Aggregate statistics over one letter subset."""
        changes_v4 = [
            c for c in (self._letter_median_changes(l, 4) for l in letters)
            if c is not None
        ]
        changes_v6 = [
            c for c in (self._letter_median_changes(l, 6) for l in letters)
            if c is not None
        ]
        rtts = [
            r for r in (self._letter_median_rtt(l) for l in letters) if r is not None
        ]
        if not changes_v4 or not changes_v6:
            raise ValueError(f"no stability data for subset {letters}")
        return SubsetStats(
            letters=tuple(letters),
            median_changes_v4=median(changes_v4),
            median_changes_v6=median(changes_v6),
            median_rtt_ms=median(rtts) if rtts else None,
        )

    def full_stats(self) -> SubsetStats:
        """The all-letter reference values."""
        return self.subset_stats(list(ROOT_LETTERS))

    def subset_spread(
        self, k: int, max_subsets: int = 60
    ) -> Tuple[SubsetStats, List[SubsetStats]]:
        """(full-set stats, stats for up to *max_subsets* k-subsets).

        Subsets are enumerated deterministically (lexicographic combi-
        nations, evenly strided) so results are reproducible.
        """
        if not 1 <= k <= len(ROOT_LETTERS):
            raise ValueError(f"k out of range: {k}")
        if (k, max_subsets) not in self._spreads:
            combos = list(itertools.combinations(ROOT_LETTERS, k))
            stride = max(1, len(combos) // max_subsets)
            chosen = combos[::stride][:max_subsets]
            self._spreads[k, max_subsets] = (
                self.full_stats(), [self.subset_stats(c) for c in chosen]
            )
        full, subsets = self._spreads[k, max_subsets]
        return full, list(subsets)

    @staticmethod
    def relative_spread(
        full: SubsetStats, subsets: List[SubsetStats], metric: str
    ) -> Tuple[float, float]:
        """(min, max) of subset metric relative to the full-set value.

        ``metric`` is one of ``changes_v4``, ``changes_v6``, ``rtt``,
        ``v6_excess``.  A wide interval is the §8 warning sign.
        """
        def value(stats: SubsetStats) -> Optional[float]:
            if metric == "changes_v4":
                return stats.median_changes_v4
            if metric == "changes_v6":
                return stats.median_changes_v6
            if metric == "rtt":
                return stats.median_rtt_ms
            if metric == "v6_excess":
                return stats.v6_excess
            raise ValueError(f"unknown metric {metric!r}")

        reference = value(full)
        if reference is None or reference == 0:
            raise ValueError(f"no reference value for {metric!r}")
        ratios = [
            v / reference
            for v in (value(s) for s in subsets)
            if v is not None
        ]
        if not ratios:
            raise ValueError(f"no subset values for {metric!r}")
        return min(ratios), max(ratios)
