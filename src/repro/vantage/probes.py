"""The prober: executes the Appendix F measurement suite.

Per measurement round, each VP probes every root service address (14 IPv4
+ 14 IPv6, b.root counted twice) over the routing fabric:

* catchment selection (every round — feeds site stability, Fig. 3),
* CHAOS identity (every round — feeds coverage, Tables 1/4),
* RTT + geographic distances (sampled — Figs. 5/6/14/15),
* traceroute second-to-last hop (sampled — Fig. 4),
* AXFR + validation context (sampled, and always when a fault fires —
  Table 2).

The dig-level message codec is exercised end-to-end by
:meth:`Prober.probe_full_fidelity`, which tests and examples use on small
configurations; campaign runs use the sampled fast path, which produces
identical analysis-level records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dns.constants import RRClass, RRType
from repro.dns.edns import add_edns
from repro.dns.message import Message
from repro.dns.name import Name, ROOT_NAME
from repro.faults.bitflip import flip_bit_in_zone
from repro.faults.plan import FaultPlan
from repro.geo.cities import city
from repro.netsim.latency import route_rtt_ms
from repro.netsim.mix import mix64, mix_float
from repro.netsim.routing import RouteSelector
from repro.netsim.topology import NetworkFabric
from repro.rss.operators import ServiceAddress
from repro.rss.server import RootServerDeployment
from repro.util.timeutil import Timestamp
from repro.vantage.collector import CampaignCollector, TransferObservation
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
    """Runs the measurement campaign against the simulated RSS."""

    def __init__(
        self,
        fabric: NetworkFabric,
        selector: RouteSelector,
        deployments: Dict[str, RootServerDeployment],
        fault_plan: FaultPlan,
        collector: CampaignCollector,
        sampling: Optional[SamplingPolicy] = None,
    ) -> None:
        self.fabric = fabric
        self.selector = selector
        self.deployments = deployments
        self.fault_plan = fault_plan
        self.collector = collector
        self.sampling = sampling or SamplingPolicy()
        self._closest_global_cache: Dict[Tuple[str, str], float] = {}
        self._stale_frozen: Dict[str, bool] = {}

    def reset(self) -> None:
        """Clear campaign-scoped fault tracking.

        ``_stale_frozen`` mirrors the distributor's freeze state; when a
        cached world is reused across runs the distributor is reset via
        ``reset_faults()``, and this must be cleared alongside it or the
        next campaign skips its freeze/unfreeze transitions.
        """
        self._stale_frozen.clear()

    # -- helpers -------------------------------------------------------------------

    def _closest_global_km(self, city_iata: str, letter: str) -> float:
        key = (city_iata, letter)
        if key not in self._closest_global_cache:
            origin = city(city_iata)
            sites = self.fabric.global_sites(letter)
            self._closest_global_cache[key] = min(
                self.selector.distance_km(origin, s.city) for s in sites
            )
        return self._closest_global_cache[key]

    def _apply_stale_events(self, ts: Timestamp) -> None:
        """Freeze/unfreeze sites according to the fault plan's windows."""
        for event in self.fault_plan.stale_sites:
            frozen = self._stale_frozen.get(event.site_key, False)
            if event.active(ts) and not frozen:
                self.deployments[event.letter].freeze_site(
                    event.site_key, event.freeze_from
                )
                self._stale_frozen[event.site_key] = True
            elif not event.active(ts) and frozen:
                self.deployments[event.letter].unfreeze_site(event.site_key)
                self._stale_frozen[event.site_key] = False

    # -- campaign ------------------------------------------------------------------

    def run_round(self, vp: VantagePoint, round_no: int, ts: Timestamp) -> None:
        """One VP's measurement round across all service addresses."""
        sampling = self.sampling
        collector = self.collector
        phase = vp.vp_id  # de-synchronise sampling across VPs
        do_rtt = (round_no + phase) % sampling.rtt_every == 0
        do_traceroute = (round_no + phase) % sampling.traceroute_every == 0
        do_axfr = (round_no + phase) % sampling.axfr_every == 0

        for addr_idx, sa in enumerate(collector.addresses):
            route = self.selector.select(
                vp.attachment, vp.vp_id, sa.letter, sa.family, sa.address, round_no
            )
            collector.note_site(vp.vp_id, addr_idx, route.site.key)
            collector.note_identity(sa.letter, route.site.identity(), vp.vp_id, addr_idx)
            collector.queries_simulated += QUERIES_PER_ADDRESS

            if do_rtt:
                request_key = mix64(vp.vp_id, addr_idx, round_no)
                rtt = route_rtt_ms(route, vp.last_mile_ms, request_key)
                collector.add_probe_sample(
                    vp_id=vp.vp_id,
                    ts=ts,
                    addr_idx=addr_idx,
                    site_key=route.site.key,
                    rtt_ms=rtt,
                    direct_km=route.direct_km,
                    closest_global_km=self._closest_global_km(
                        vp.attachment.city.iata, sa.letter
                    ),
                    via_peer=route.via != "transit",
                    transit_asn=0 if route.transit is None else route.transit.asn,
                )

            if do_traceroute:
                missing = (
                    mix_float(vp.vp_id, addr_idx, round_no, 13) < STLH_MISSING_PROB
                )
                collector.add_traceroute(
                    vp_id=vp.vp_id,
                    ts=ts,
                    addr_idx=addr_idx,
                    second_to_last_hop=None if missing else route.second_to_last_hop,
                )

            bitflip = self.fault_plan.bitflip_for(vp.vp_id, ts, sa.address)
            if do_axfr or bitflip is not None:
                self._do_transfer(vp, ts, addr_idx, sa, route.site.key, bitflip)

    def _do_transfer(
        self,
        vp: VantagePoint,
        ts: Timestamp,
        addr_idx: int,
        sa: ServiceAddress,
        site_key: str,
        bitflip,
    ) -> None:
        collector = self.collector
        deployment = self.deployments[sa.letter]
        result = deployment.serve_axfr(site_key, ts)
        zone = result.zone
        fault = ""
        fault_detail = ""
        if bitflip is not None:
            zone, report = flip_bit_in_zone(zone, bitflip, ts)
            fault = "bitflip"
            fault_detail = report.description
        stale = deployment.distributor.is_frozen(site_key)
        if stale and not fault:
            fault = "stale"
            fault_detail = f"site {site_key} frozen"
        clock_offset = self.fault_plan.clocks.offset_for(vp.vp_id, ts)
        clean = not fault and clock_offset == 0
        collector.count_transfer(clean)

        interesting = bool(fault) or clock_offset != 0
        keep_clean_sample = (
            mix_float(vp.vp_id, addr_idx, ts, 29)
            < 1.0 / self.sampling.clean_transfer_keep_one_in
        )
        if interesting or keep_clean_sample:
            collector.add_transfer_observation(
                TransferObservation(
                    vp_id=vp.vp_id,
                    true_ts=ts,
                    observed_ts=ts + clock_offset,
                    address=sa,
                    serial=zone.serial,
                    zone=zone,
                    fault=fault,
                    fault_detail=fault_detail,
                )
            )

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
