"""A RIPE-Atlas-built-ins measurement platform (paper Appendix E).

The paper explains why it could not use RIPE Atlas: the built-in root
measurements only run SOA (every 1800 s), ``hostname.bind`` (240 s),
``id.server`` (1800 s) and version queries (43200 s) — no AXFR, no
A/AAAA for the root addresses, no old/new b.root distinction.  This
module simulates a campaign restricted to exactly those built-ins, so
the difference in scientific reach (which analyses survive) can be
measured rather than argued — see the corresponding ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.netsim.routing import RouteSelector
from repro.rss.operators import ServiceAddress
from repro.util.timeutil import MINUTE, Timestamp
from repro.vantage.node import VantagePoint

#: The built-in measurement intervals (seconds), from the paper's
#: Appendix E / atlas.ripe.net docs.
BUILTIN_INTERVALS: Dict[str, int] = {
    "soa": 1800,
    "hostname.bind": 240,
    "id.server": 1800,
    "version.bind": 43200,
    "version.server": 43200,
}


@dataclass
class AtlasCampaignResult:
    """What an Atlas-built-ins campaign yields."""

    #: letter -> CHAOS identity -> answers, in first-answer order.
    identities: Dict[str, Dict[str, int]]
    #: (vp_id, address index) -> (site changes, rounds observed).
    change_counts: Dict[Tuple[int, int], Tuple[int, int]]
    queries: int
    #: The service address list the address indices refer to.
    addresses: List[ServiceAddress]

    #: Atlas built-ins never AXFR — RQ3 is out of reach.
    has_transfers = False

    def distinguishes_b_generations(self) -> bool:
        """Old/new b.root addresses are not separately measured."""
        generations = {
            self.addresses[addr_idx].generation
            for _vp, addr_idx in self.change_counts
            if self.addresses[addr_idx].letter == "b"
        }
        return {"old", "new"} <= generations


class AtlasPlatform:
    """Runs the built-in suite only (identity + SOA; no AXFR, no
    per-generation b.root probing)."""

    def __init__(self, selector: RouteSelector) -> None:
        self.selector = selector

    def run(
        self,
        vps: List[VantagePoint],
        addresses: List[ServiceAddress],
        start: Timestamp,
        end: Timestamp,
        interval_scale: float = 1.0,
    ) -> AtlasCampaignResult:
        """Simulate the built-ins over [start, end).

        Only *current-generation* addresses are measured (the built-ins
        target the published NS set), and only identity/SOA-class
        observables are collected.  Every (VP, letter, family) key is
        ranked once; each round then asks the churn model which
        candidate each (VP, address) pair uses.
        """
        identity_interval = max(
            MINUTE, int(BUILTIN_INTERVALS["hostname.bind"] * interval_scale)
        )
        n_rounds = len(range(start, end, identity_interval))
        pairs = [
            (vp, addr_idx, sa)
            for vp in vps
            for addr_idx, sa in enumerate(addresses)
            if sa.generation != "old"
        ]
        table = self.selector.table(
            [(vp.attachment, sa.letter, sa.family) for vp, _idx, sa in pairs]
        )
        first = table.ptr[:-1].tolist()
        width = np.diff(table.ptr).tolist()
        site = table.site.tolist()
        select_index = self.selector.churn.select_index
        # Site code per (round, pair): rounds outer, pairs in (VP,
        # address) order, the built-ins' scan order.
        codes = np.empty((n_rounds, len(pairs)), dtype=np.int64)
        for round_no in range(n_rounds):
            codes[round_no] = [
                site[
                    first[k]
                    + select_index(
                        vp.vp_id, sa.address, sa.letter, sa.family, round_no, width[k]
                    )
                ]
                for k, (vp, _idx, sa) in enumerate(pairs)
            ]

        changes = np.count_nonzero(codes[1:] != codes[:-1], axis=0).tolist()
        change_counts = (
            {
                (vp.vp_id, addr_idx): (changed, n_rounds)
                for (vp, addr_idx, _sa), changed in zip(pairs, changes)
            }
            if n_rounds
            else {}
        )

        # hostname.bind answers, counted per site and then folded into
        # identities in scan order of each site's first answer.
        flat = codes.reshape(-1)
        seen, first_seen, counts = np.unique(
            flat, return_index=True, return_counts=True
        )
        identities: Dict[str, Dict[str, int]] = {}
        for pos in np.argsort(first_seen).tolist():
            answered = self.selector.sites[int(seen[pos])]
            bucket = identities.setdefault(answered.letter, {})
            identity = answered.identity()
            bucket[identity] = bucket.get(identity, 0) + int(counts[pos])

        return AtlasCampaignResult(
            identities=identities,
            change_counts=change_counts,
            # hostname.bind + the slower built-ins amortised.
            queries=2 * len(flat),
            addresses=addresses,
        )
