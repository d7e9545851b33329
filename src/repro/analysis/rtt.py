"""RTT analysis by continent, letter and address family
(paper §6, Figures 6/14/15).

Summarises the sampled request RTTs as the per-(region, letter, family)
distributions the violin/box figures plot, and computes the per-family
comparisons the paper highlights (e.g. a.root South America v4 > v6;
i.root North America v6 26 % below v4).
"""

from __future__ import annotations

from repro.analysis.base import RegisteredAnalysis

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.probe_cells import ProbeCells
from repro.geo.continents import Continent
from repro.rss.operators import ServiceAddress
from repro.vantage.node import VantagePoint


@dataclass(frozen=True)
class RttSummary:
    """Distribution summary for one (region, address) cell."""

    address: ServiceAddress
    continent: Continent
    count: int
    mean: float
    std: float
    p10: float
    p50: float
    p90: float

    @property
    def label(self) -> str:
        return self.address.label


class RttAnalysis(RegisteredAnalysis):
    """Figures 6/14/15 over the sampled probe table."""

    name = "rtt"
    requires = ("dataset", "vps")
    tables = ("probes",)

    def __init__(self, dataset, vps: List[VantagePoint]) -> None:
        self.dataset = dataset
        self.cells = ProbeCells(dataset, vps)
        # (count, p10, p50, p90) per (address index, continent), computed
        # for every cell in one pass on first use.
        self._quantiles: Optional[Dict[Tuple[int, Continent], Tuple]] = None

    def _cell(self, address: str, continent: Continent) -> np.ndarray:
        return self.cells.rtt((self.dataset.addr_index[address],), continent)

    def _cell_quantiles(self) -> Dict[Tuple[int, Continent], Tuple]:
        if self._quantiles is None:
            keys = [
                (i, continent)
                for i in range(len(self.dataset.addresses))
                for continent in Continent
            ]
            counts, values = self.cells.quantiles(
                [((i,), continent) for i, continent in keys], (10, 50, 90)
            )
            self._quantiles = {
                key: (count, *q)
                for key, count, q in zip(keys, counts.tolist(), values.tolist())
            }
        return self._quantiles

    def summary(self, address: str, continent: Continent) -> Optional[RttSummary]:
        """Distribution summary, or None with no observations."""
        addr_idx = self.dataset.addr_index[address]
        count, p10, p50, p90 = self._cell_quantiles()[addr_idx, continent]
        if count == 0:
            return None
        # float32 means sum pairwise: reduce the cell in table order.
        rtts = self._cell(address, continent)
        return RttSummary(
            address=self.dataset.addresses[addr_idx],
            continent=continent,
            count=count,
            mean=float(np.mean(rtts)),
            std=float(np.std(rtts)),
            p10=p10,
            p50=p50,
            p90=p90,
        )

    def violin_bins(
        self, address: str, continent: Continent, n_bins: int = 24
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(log-spaced bin edges in ms, densities) — violin plot data."""
        rtts = self._cell(address, continent)
        if len(rtts) == 0:
            raise ValueError(f"no observations for {address} in {continent}")
        edges = np.logspace(0, 3, n_bins + 1)
        hist, _ = np.histogram(np.clip(rtts, 1.0, 1000.0), bins=edges)
        return edges, hist / hist.sum()

    def family_ratio(
        self, letter: str, continent: Continent, generation: str = "current"
    ) -> Optional[float]:
        """mean(v6) / mean(v4) for one letter in one region — the paper's
        per-family asymmetry metric (e.g. < 1 for i.root North America,
        > 2 for i.root South America)."""
        v4 = v6 = None
        for sa in self.dataset.addresses:
            if sa.letter != letter or sa.generation != generation:
                continue
            summary = self.summary(sa.address, continent)
            if summary is None:
                return None
            if sa.family == 4:
                v4 = summary.mean
            else:
                v6 = summary.mean
        if not v4 or v6 is None:
            return None
        return v6 / v4
