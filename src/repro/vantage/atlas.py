"""A RIPE-Atlas-built-ins measurement platform (paper Appendix E).

The paper explains why it could not use RIPE Atlas: the built-in root
measurements only run SOA (every 1800 s), ``hostname.bind`` (240 s),
``id.server`` (1800 s) and version queries (43200 s) — no AXFR, no
A/AAAA for the root addresses, no old/new b.root distinction.  This
module simulates a campaign restricted to exactly those built-ins, so
the difference in scientific reach (which analyses survive) can be
measured rather than argued — see the corresponding ablation bench.
Routes come from the campaign's churn process: one
:class:`~repro.netsim.epochs.PairEpochs` walk over every (VP, address)
pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.netsim.epochs import PairEpochs
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
        ranked once, and every (VP, address) pair's campaign is read from
        one epoch walk, as the campaign engine does: route choice is a
        pure function of (VP, address, round), so a rerun on the same
        selector gives the same result.
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
        if not n_rounds:
            return AtlasCampaignResult({}, {}, 0, addresses)
        table = self.selector.table(
            [(vp.attachment, sa.letter, sa.family) for vp, _idx, sa in pairs]
        )
        ep = PairEpochs(
            self.selector.churn,
            [(vp.vp_id, sa.address, sa.letter, sa.family) for vp, _idx, sa in pairs],
            n_rounds,
            np.diff(table.ptr),
        ).take(0, n_rounds)
        # Epoch rows are sorted by (pair, start): a change is a site
        # differing from the pair's previous epoch.
        site = table.site[table.ptr[:-1][ep.pair] + ep.index]
        moved = (site[1:] != site[:-1]) & (ep.pair[1:] == ep.pair[:-1])
        changes = np.bincount(ep.pair[1:][moved], minlength=len(pairs)).tolist()
        change_counts = {
            (vp.vp_id, addr_idx): (changed, n_rounds)
            for (vp, addr_idx, _sa), changed in zip(pairs, changes)
        }

        # hostname.bind answers, counted per site and then folded into
        # identities in (round, pair) scan order of each site's first
        # answer: the built-ins scan rounds outer, pairs in (VP, address)
        # order.
        order = np.argsort(ep.start * len(pairs) + ep.pair, kind="stable")
        seen, first_seen = np.unique(site[order], return_index=True)
        answers = np.bincount(site, weights=ep.end - ep.start).astype(np.int64)
        identities: Dict[str, Dict[str, int]] = {}
        for code in seen[np.argsort(first_seen)].tolist():
            answered = self.selector.sites[code]
            bucket = identities.setdefault(answered.letter, {})
            identity = answered.identity()
            bucket[identity] = bucket.get(identity, 0) + int(answers[code])

        return AtlasCampaignResult(
            identities=identities,
            change_counts=change_counts,
            # hostname.bind + the slower built-ins amortised.
            queries=2 * n_rounds * len(pairs),
            addresses=addresses,
        )
