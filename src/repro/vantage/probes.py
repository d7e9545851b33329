"""The prober: the measurement platform's view of the Appendix F suite.

Per measurement round, each VP probes every root service address (14 IPv4
+ 14 IPv6, b.root counted twice) over the routing fabric:

* catchment selection (every round — feeds site stability, Fig. 3),
* CHAOS identity (every round — feeds coverage, Tables 1/4),
* RTT + geographic distances (sampled — Figs. 5/6/14/15),
* traceroute second-to-last hop (sampled — Fig. 4),
* AXFR + validation context (sampled, and always when a fault fires —
  Table 2).

:class:`Prober` bundles what a campaign measures with — fabric, route
selector, deployments, fault plan, sampling policy — and the campaign
itself runs in the epoch-compiled engine
(:class:`~repro.vantage.epoch_engine.EpochCampaignPlan`).  The dig-level
message codec is exercised end-to-end by
:meth:`Prober.probe_full_fidelity`, which tests and examples use on small
configurations; the engine's sampled fast path produces identical
analysis-level records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.dns.constants import RRClass, RRType
from repro.dns.edns import add_edns
from repro.dns.message import Message
from repro.dns.name import Name
from repro.faults.plan import FaultPlan
from repro.netsim.mix import mix64
from repro.netsim.routing import RouteSelector
from repro.netsim.topology import NetworkFabric
from repro.rss.operators import ServiceAddress
from repro.rss.server import RootServerDeployment
from repro.util.timeutil import Timestamp
from repro.vantage.node import VantagePoint

#: Probability the traceroute's second-to-last hop went unanswered.
STLH_MISSING_PROB = 0.03

#: Queries the Appendix F script sends per service address per round.
QUERIES_PER_ADDRESS = 47


@dataclass
class SamplingPolicy:
    """How densely the expensive observables are recorded."""

    rtt_every: int = 4
    traceroute_every: int = 8
    axfr_every: int = 16
    clean_transfer_keep_one_in: int = 2000

    def __post_init__(self) -> None:
        for name in ("rtt_every", "traceroute_every", "axfr_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class Prober:
    """The measurement platform's probing context against the simulated
    RSS."""

    def __init__(
        self,
        fabric: NetworkFabric,
        selector: RouteSelector,
        deployments: Dict[str, RootServerDeployment],
        fault_plan: FaultPlan,
        sampling: Optional[SamplingPolicy] = None,
    ) -> None:
        self.fabric = fabric
        self.selector = selector
        self.deployments = deployments
        self.fault_plan = fault_plan
        self.sampling = sampling or SamplingPolicy()

    # -- full-fidelity path -----------------------------------------------------------

    def probe_full_fidelity(
        self, vp: VantagePoint, sa: ServiceAddress, round_no: int, ts: Timestamp
    ) -> Dict[str, Message]:
        """Issue the actual Appendix F query set as wire messages.

        Exercises the DNS codec and server answer logic end-to-end;
        returns the parsed responses keyed by query mnemonic.
        """
        route = self.selector.select(
            vp.attachment, vp.vp_id, sa.letter, sa.family, sa.address, round_no
        )
        deployment = self.deployments[sa.letter]
        site_key = route.site.key
        responses: Dict[str, Message] = {}

        def ask(
            tag: str,
            qname: str,
            qtype: RRType,
            qclass: RRClass = RRClass.IN,
            dnssec: bool = False,
        ) -> None:
            query = Message.make_query(
                Name.from_text(qname), qtype, qclass, msg_id=mix64(vp.vp_id, round_no) & 0xFFFF
            )
            if dnssec:
                add_edns(query, dnssec_ok=True)  # dig +dnssec
            wire = query.to_wire()  # round-trip the codec like a real probe
            answer = deployment.answer(site_key, Message.from_wire(wire), ts)
            responses[tag] = Message.from_wire(answer.to_wire())

        # The Appendix F script runs the record queries with +dnssec and
        # the CHAOS identity queries without.
        ask("NS .", ".", RRType.NS, dnssec=True)
        ask("ZONEMD .", ".", RRType.ZONEMD, dnssec=True)
        ask("NS root-servers.net", "root-servers.net.", RRType.NS, dnssec=True)
        for chaos in ("hostname.bind", "id.server", "version.bind", "version.server"):
            ask(f"CH TXT {chaos}", f"{chaos}.", RRType.TXT, RRClass.CH)
        for letter in "abcdefghijklm":
            target = f"{letter}.root-servers.net."
            ask(f"A {target}", target, RRType.A, dnssec=True)
            ask(f"AAAA {target}", target, RRType.AAAA, dnssec=True)
            ask(f"TXT {target}", target, RRType.TXT, dnssec=True)
        return responses
