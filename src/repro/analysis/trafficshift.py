"""Traffic-shift analysis around the b.root renumbering
(paper §6, Figures 7/9/12/13 and the §6 headline ratios).

Operates on passive captures (ISP or IXP), producing normalised traffic
series per service address and the in-family shift ratios.
"""

from __future__ import annotations

from repro.analysis.base import RegisteredAnalysis

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.passive.traces import FlowAggregate, TrafficTimeSeries
from repro.rss.operators import ServiceAddress, all_service_addresses, root_server
from repro.util.timeutil import Timestamp


@dataclass(frozen=True)
class ShiftRatios:
    """In-family shift ratios over a window (paper: 87.1 % / 96.3 %)."""

    v4_shifted: float
    v6_shifted: float


class TrafficShiftAnalysis(RegisteredAnalysis):
    """Normalised traffic views over one capture aggregate."""

    name = "trafficshift"
    requires = ("aggregate",)

    def __init__(self, aggregate: FlowAggregate) -> None:
        self.aggregate = aggregate
        self.addresses: List[ServiceAddress] = all_service_addresses()
        self.series = TrafficTimeSeries(aggregate, self.addresses)
        b = root_server("b")
        self.b_addresses: Dict[str, str] = {
            "V4new": b.ipv4,
            "V4old": b.old_ipv4,  # type: ignore[dict-item]
            "V6new": b.ipv6,
            "V6old": b.old_ipv6,  # type: ignore[dict-item]
        }

    # -- Figure 7 / 9 -----------------------------------------------------------------

    def broot_series(
        self, families: Tuple[int, ...] = (4, 6)
    ) -> Dict[str, List[Tuple[Timestamp, float]]]:
        """Normalised traffic across b.root's subnets (Figure 7), or only
        the IPv6 ones with ``families=(6,)`` (Figure 9)."""
        labels = [
            label
            for label in self.b_addresses
            if int(label[1]) in families
        ]
        subset = [self.b_addresses[label] for label in labels]
        shares = self.series.normalized_shares(subset)
        return {label: shares[self.b_addresses[label]] for label in labels}

    def shift_ratios(self, start: Timestamp, end: Timestamp) -> ShiftRatios:
        """In-family new/(new+old) traffic shares over a window."""
        ratios: Dict[int, float] = {}
        for family in (4, 6):
            new = self.b_addresses[f"V{family}new"]
            old = self.b_addresses[f"V{family}old"]
            share = self.series.window_share(new, start, end, [new, old])
            ratios[family] = share
        return ShiftRatios(v4_shifted=ratios[4], v6_shifted=ratios[6])

    def new_address_share_before_change(
        self, start: Timestamp, end: Timestamp
    ) -> float:
        """Traffic share of the (not yet published) new subnets across all
        four b.root subnets — the paper's 0.8 % pre-change trickle."""
        subset = list(self.b_addresses.values())
        return self.series.window_share(
            self.b_addresses["V4new"], start, end, subset
        ) + self.series.window_share(self.b_addresses["V6new"], start, end, subset)

    # -- Figures 12 / 13 ---------------------------------------------------------------

    def letter_shares(
        self, start: Timestamp, end: Timestamp
    ) -> Dict[str, float]:
        """Per-letter share of total root traffic over a window, old and
        new generations combined (Figures 12/13 stack heights)."""
        letters: Dict[str, float] = {}
        shares = self.series.window_shares(
            start, end, [sa.address for sa in self.addresses]
        )
        for sa in self.addresses:
            letters[sa.letter] = letters.get(sa.letter, 0.0) + shares[sa.address]
        return letters

    def letter_share_series(self) -> Dict[str, List[Tuple[Timestamp, float]]]:
        """Per-letter normalised share per bucket (the stacked series)."""
        shares = self.series.normalized_shares()
        out: Dict[str, Dict[Timestamp, float]] = {}
        for sa in self.addresses:
            for bucket, value in shares[sa.address]:
                out.setdefault(sa.letter, {})[bucket] = (
                    out.get(sa.letter, {}).get(bucket, 0.0) + value
                )
        return {
            letter: sorted(series.items()) for letter, series in out.items()
        }
