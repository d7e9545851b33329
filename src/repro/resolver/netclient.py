"""The resolver's network stack: send a query to a root service address
over the simulated fabric and get (response, RTT) back.

Binds a client attachment to the routing fabric and the letters'
deployments, so every resolver query exercises the same catchment
selection, latency model and serving logic as the measurement suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.dns.message import Message
from repro.netsim.attachment import Attachment
from repro.netsim.latency import route_rtt_ms
from repro.netsim.mix import mix64
from repro.netsim.routing import RouteSelector
from repro.rss.operators import ServiceAddress, address_owner
from repro.rss.server import RootServerDeployment
from repro.util.timeutil import Timestamp
from repro.zone.transfer import AxfrResult


@dataclass
class QueryOutcome:
    """One query's result as the resolver sees it."""

    response: Message
    rtt_ms: float
    site_key: str
    letter: str


class RootNetworkClient:
    """Queries root service addresses from one client network.

    The client's query counter is its measurement round: the n-th query
    or transfer (counting from 1) takes the route its (client, address)
    pair uses in round n of the churn process.
    """

    def __init__(
        self,
        attachment: Attachment,
        selector: RouteSelector,
        deployments: Dict[str, RootServerDeployment],
        client_id: int,
        last_mile_ms: float = 3.0,
    ) -> None:
        self.attachment = attachment
        self.selector = selector
        self.deployments = deployments
        self.client_id = client_id
        self.last_mile_ms = last_mile_ms
        self._query_counter = 0

    def _resolve_address(self, address: str) -> ServiceAddress:
        return address_owner(address)

    def query(self, address: str, message: Message, ts: Timestamp) -> QueryOutcome:
        """Send *message* to a root service address at time *ts*."""
        sa = self._resolve_address(address)
        self._query_counter += 1
        route = self.selector.select(
            self.attachment,
            self.client_id,
            sa.letter,
            sa.family,
            sa.address,
            round_no=self._query_counter,
        )
        deployment = self.deployments[sa.letter]
        response = deployment.answer(route.site.key, message, ts)
        rtt = route_rtt_ms(
            route,
            self.last_mile_ms,
            request_key=mix64(self.client_id, self._query_counter),
        )
        return QueryOutcome(
            response=response, rtt_ms=rtt, site_key=route.site.key, letter=sa.letter
        )

    def axfr(self, address: str, ts: Timestamp) -> Optional[AxfrResult]:
        """Full zone transfer from a root service address."""
        sa = self._resolve_address(address)
        self._query_counter += 1
        route = self.selector.select(
            self.attachment,
            self.client_id,
            sa.letter,
            sa.family,
            sa.address,
            round_no=self._query_counter,
        )
        result = self.deployments[sa.letter].serve_axfr(route.site.key, ts)
        return None if result.refused else result

    def ixfr(self, address: str, have_serial: int, ts: Timestamp):
        """Incremental transfer (RFC 1995) against a root address.

        Returns an :class:`repro.zone.ixfr.IxfrResponse` served from the
        letter's distribution journal; stale-frozen sites fall back to
        their (old) full zone via :meth:`axfr` semantics on the caller's
        side when the delta chain cannot be applied.
        """
        sa = self._resolve_address(address)
        self._query_counter += 1
        distributor = self.deployments[sa.letter].distributor
        return distributor.ixfr_respond(have_serial, ts)
