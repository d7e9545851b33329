"""Client contact-frequency analysis (paper §6, Figure 8).

For each root service address: the distribution of per-client daily flow
counts.  The priming signal is the mass of clients contacting the *old*
b.root IPv6 subnet about once per day — IPv6-capable stacks re-prime
(RFC 8109) against the old address and otherwise leave it alone.
"""

from __future__ import annotations

from repro.analysis.base import RegisteredAnalysis

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.passive.traces import FlowAggregate
from repro.rss.operators import ServiceAddress, all_service_addresses


@dataclass(frozen=True, eq=False)
class ClientFlowDistribution:
    """Per-client daily flow counts for one address (Figure 8 series)."""

    address: ServiceAddress
    #: Ascending float64 (read-only).
    flows_per_client: np.ndarray

    def cdf_points(self) -> List[Tuple[float, float]]:
        """(flows/day, fraction of clients with <= that many) points."""
        flows = self.flows_per_client
        n = len(flows)
        if not n:
            return []
        # The last index of each run of equal values is its rank - 1.
        last = np.flatnonzero(np.append(flows[1:] != flows[:-1], True))
        ccdf = 1.0 - (last + 1) / n
        return list(zip(flows[last].tolist(), (1.0 - ccdf).tolist()))

    def fraction_single_daily_contact(self, threshold: float = 1.5) -> float:
        """Clients touching the address at most ~once per day — the
        priming fingerprint."""
        n = len(self.flows_per_client)
        if not n:
            return 0.0
        few = int(np.searchsorted(self.flows_per_client, threshold, side="right"))
        return few / n

    def mean_clients_per_day(self) -> int:
        return len(self.flows_per_client)


class ClientBehaviorAnalysis(RegisteredAnalysis):
    """Figure 8 over one capture aggregate."""

    name = "clientbehavior"
    requires = ("aggregate",)

    def __init__(self, aggregate: FlowAggregate) -> None:
        self.aggregate = aggregate
        self.addresses = all_service_addresses()

    def distribution(self, address: str) -> ClientFlowDistribution:
        """The per-client flow distribution for one address."""
        sa = next(a for a in self.addresses if a.address == address)
        flows = np.sort(self.aggregate.mean_daily_flows_per_client(address))
        flows.flags.writeable = False
        return ClientFlowDistribution(address=sa, flows_per_client=flows)

    def by_family(self, family: int) -> Dict[str, ClientFlowDistribution]:
        """All addresses of one family, keyed by display label."""
        out: Dict[str, ClientFlowDistribution] = {}
        for sa in self.addresses:
            if sa.family != family:
                continue
            out[sa.label] = self.distribution(sa.address)
        return out

    def priming_signal(self) -> Dict[str, float]:
        """Single-daily-contact fractions for b.root's four subnets.

        The paper's conjecture holds when the old IPv6 subnet's value
        clearly exceeds the new IPv6 subnet's.
        """
        from repro.rss.operators import root_server

        b = root_server("b")
        labels = {
            "V4new": b.ipv4,
            "V4old": b.old_ipv4,
            "V6new": b.ipv6,
            "V6old": b.old_ipv6,
        }
        return {
            label: self.distribution(addr).fraction_single_daily_contact()
            for label, addr in labels.items()
            if addr is not None
        }
