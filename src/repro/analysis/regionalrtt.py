"""Longitudinal per-region RTT for one letter (the froot-sea pack's
headline view).

"Unravelling DNS Performance: A Historical Examination of F-ROOT in
Southeast Asia" reads one letter's latency per region over time, as the
letter's site build-out lands.  This analysis is that view over the
probe table: per-(continent, family) RTT distributions for a chosen
letter, plus calendar-month median series per continent — the
longitudinal figure a staged :class:`WorldSpec` build-out is designed
to move.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.base import RegisteredAnalysis
from repro.analysis.probe_cells import ProbeCells, grouped_quantiles
from repro.geo.continents import Continent
from repro.vantage.node import VantagePoint

#: The letter whose deployment the froot-sea scenario stages.
DEFAULT_LETTER = "f"


@dataclass(frozen=True)
class RegionCell:
    """One (continent, family) RTT distribution for the letter."""

    continent: Continent
    family: int
    count: int
    mean: float
    p50: float
    p90: float


class RegionalRttAnalysis(RegisteredAnalysis):
    """Per-region, per-family RTT of one letter, over the campaign and
    month by month."""

    name = "regional_rtt"
    requires = ("dataset", "vps", "config?")
    tables = ("probes",)

    def __init__(self, dataset, vps: List[VantagePoint], config=None) -> None:
        self.dataset = dataset
        self.config = config
        self.cells = ProbeCells(dataset, vps)
        self._summaries: Dict[str, Dict[str, Dict[int, RegionCell]]] = {}
        # (count, p50, p90) per continent, one quantile pass per
        # (letter, family).
        self._quantiles: Dict[Tuple[str, int], Dict[Continent, Tuple]] = {}

    def _letter_addrs(self, letter: str, family: Optional[int] = None) -> List[int]:
        indices = [
            self.dataset.addr_index[sa.address]
            for sa in self.dataset.addresses
            if sa.letter == letter and (family is None or sa.family == family)
        ]
        if not indices:
            raise ValueError(f"no {letter}.root addresses in this dataset")
        return indices

    def cell(
        self, continent: Continent, family: int, letter: str = DEFAULT_LETTER
    ) -> Optional[RegionCell]:
        """The (continent, family) distribution, or None if unobserved."""
        addrs = self._letter_addrs(letter, family)
        if (letter, family) not in self._quantiles:
            counts, values = self.cells.quantiles(
                [(addrs, c) for c in Continent], (50, 90)
            )
            self._quantiles[letter, family] = {
                c: (count, *q)
                for c, count, q in zip(Continent, counts.tolist(), values.tolist())
            }
        count, p50, p90 = self._quantiles[letter, family][continent]
        if count == 0:
            return None
        return RegionCell(
            continent=continent,
            family=family,
            count=count,
            # float32 means sum pairwise: reduce the cell in table order.
            mean=float(np.mean(self.cells.rtt(addrs, continent))),
            p50=p50,
            p90=p90,
        )

    def regional_summary(
        self, letter: str = DEFAULT_LETTER
    ) -> Dict[str, Dict[int, RegionCell]]:
        """Every observed (continent, family) cell, keyed by continent
        name then family."""
        if letter not in self._summaries:
            out: Dict[str, Dict[int, RegionCell]] = {}
            for continent in Continent:
                cells = {
                    family: cell
                    for family in (4, 6)
                    for cell in [self.cell(continent, family, letter)]
                    if cell is not None
                }
                if cells:
                    out[continent.name] = cells
            self._summaries[letter] = out
        return {
            region: dict(cells) for region, cells in self._summaries[letter].items()
        }

    @staticmethod
    def _month_labels(ts: np.ndarray) -> np.ndarray:
        """``YYYY-MM`` label per timestamp (vectorised via the day grid)."""
        unique_days, inverse = np.unique(ts // 86400, return_inverse=True)
        labels = np.array(
            [
                time.strftime("%Y-%m", time.gmtime(int(day) * 86400))
                for day in unique_days
            ]
        )
        return labels[inverse]

    def monthly_medians(
        self, letter: str = DEFAULT_LETTER, family: int = 4
    ) -> Dict[str, List[Tuple[str, float, int]]]:
        """Per-continent ``(month, median RTT, count)`` series — the
        longitudinal build-out figure."""
        addrs = self._letter_addrs(letter, family)
        observed = [
            (continent, rows)
            for continent in Continent
            for rows in [self.cells.rows(addrs, continent)]
            if len(rows)
        ]
        if not observed:
            return {}
        rows = np.concatenate([rows for _, rows in observed])
        months, month_of_row = np.unique(
            self._month_labels(self.cells.column("ts", rows)), return_inverse=True
        )
        region_of_row = np.repeat(
            np.arange(len(observed)), [len(rows) for _, rows in observed]
        )
        counts, medians = grouped_quantiles(
            self.cells.column("rtt", rows),
            region_of_row * len(months) + month_of_row,
            len(observed) * len(months),
            (50,),
        )
        counts = counts.reshape(len(observed), len(months)).tolist()
        medians = medians.reshape(len(observed), len(months)).tolist()
        return {
            continent.name: [
                (month, median, count)
                for month, median, count in zip(months.tolist(), medians[k], counts[k])
                if count
            ]
            for k, (continent, _) in enumerate(observed)
        }

    def buildout_stages(self) -> List[Dict[str, object]]:
        """The world layer's build-out timeline (for figure annotation);
        empty without a config or build-out."""
        if self.config is None:
            return []
        return [
            stage.to_dict() for stage in self.config.world_spec().buildout
        ]
