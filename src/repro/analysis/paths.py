"""Path-level analysis: which upstream ASes carry the requests, and at
what latency (paper §6's per-AS drill-down).

The paper explains every regional IPv4/IPv6 RTT asymmetry through path
composition: e.g. "paths via AS6939 having a lower average latency for
IPv6 (23.4 ms) than for IPv4 (221.4 ms), while AS6939 is also more
frequent for IPv6 paths".  This module computes exactly those two
quantities — per-AS path share and per-AS mean RTT — per region, letter
and family.
"""

from __future__ import annotations

from repro.analysis.base import RegisteredAnalysis

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.probe_cells import ProbeCells
from repro.geo.continents import Continent
from repro.vantage.node import VantagePoint

#: Pseudo-ASN bucket for peer/local (non-transit) paths.
PEER_PATH = 0


@dataclass(frozen=True)
class AsPathStats:
    """One upstream's role in a (region, letter, family) cell."""

    asn: int
    share: float  # fraction of the cell's requests through this AS
    mean_rtt_ms: float
    requests: int

    @property
    def label(self) -> str:
        return "peer/local" if self.asn == PEER_PATH else f"AS{self.asn}"


class PathAnalysis(RegisteredAnalysis):
    """Per-AS path shares and latencies over the sampled probe table."""

    name = "paths"
    requires = ("dataset", "vps")
    tables = ("probes",)

    def __init__(self, dataset, vps: List[VantagePoint]) -> None:
        self.dataset = dataset
        self.cells = ProbeCells(dataset, vps)

    def as_breakdown(
        self,
        continent: Optional[Continent] = None,
        letter: Optional[str] = None,
        family: Optional[int] = None,
    ) -> List[AsPathStats]:
        """Per-AS share and mean RTT for a cell, descending by share."""
        rows = self.cells.rows(
            (
                i
                for i, sa in enumerate(self.dataset.addresses)
                if (letter is None or sa.letter == letter)
                and (family is None or sa.family == family)
            ),
            continent,
        )
        total = len(rows)
        if total == 0:
            return []
        asns, inverse, counts = np.unique(
            self.cells.column("transit", rows), return_inverse=True, return_counts=True
        )
        # Each AS's RTTs in table order (float32 means sum pairwise).
        by_asn = np.split(
            self.cells.column("rtt", rows)[np.argsort(inverse, kind="stable")],
            np.cumsum(counts)[:-1],
        )
        out = [
            AsPathStats(
                asn=asn,
                share=float(requests) / total,
                mean_rtt_ms=float(np.mean(rtts)),
                requests=requests,
            )
            for asn, requests, rtts in zip(asns.tolist(), counts.tolist(), by_asn)
        ]
        out.sort(key=lambda s: -s.share)
        return out

    def share_of(
        self,
        asn: int,
        continent: Optional[Continent] = None,
        letter: Optional[str] = None,
        family: Optional[int] = None,
    ) -> float:
        """One AS's path share in a cell (0 when the cell is empty)."""
        for stats in self.as_breakdown(continent, letter, family):
            if stats.asn == asn:
                return stats.share
        return 0.0

    def family_share_contrast(
        self, asn: int, continent: Continent, letter: Optional[str] = None
    ) -> Tuple[float, float]:
        """(v4 share, v6 share) of one AS in a region — the paper's
        'AS6939 is more frequent for IPv6 paths' measurement."""
        return (
            self.share_of(asn, continent, letter, 4),
            self.share_of(asn, continent, letter, 6),
        )
