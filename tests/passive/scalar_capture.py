"""The scalar capture oracle: the passive flow model as a triple loop.

:meth:`repro.passive.isp.IspCapture.capture` evaluates the model as
numpy kernels (:mod:`repro.passive.flow_engine`).  This module states
the same model one ``(bucket, client, address)`` cell at a time, through
:meth:`FlowAggregate.add_flows`, and is the reference the equivalence
tests in ``test_flow_engine.py`` compare against byte for byte.  It is
test-only: no runtime code calls it, and it needs the population as a
list of :class:`~repro.passive.clients.ClientNetwork` objects.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.mix import mix_float, mix_str
from repro.passive.clients import ClientBehavior, ClientNetwork
from repro.passive.isp import (
    TESTER_FRACTION,
    TESTER_TRAFFIC_SHARE,
    V6_TRAFFIC_SHARE,
    IspCapture,
)
from repro.passive.traces import FlowAggregate
from repro.rss.operators import ServiceAddress
from repro.util.timeutil import DAY, HOUR, Timestamp


def _client_bucket_flows(
    capture: IspCapture, client: ClientNetwork, bucket_ts: Timestamp, bucket_seconds: int
) -> float:
    """Total root-bound flows of one client in one bucket."""
    base = client.daily_flows * bucket_seconds / DAY
    # Diurnal pattern for sub-daily buckets (traffic peaks in the
    # evening, as in the paper's hourly Figure 7 panel).
    if bucket_seconds < DAY:
        hour = (bucket_ts % DAY) / HOUR
        base *= 0.6 + 0.8 * max(0.0, 1.0 - abs(hour - 19.0) / 12.0)
    noise = 0.7 + 0.6 * mix_float(capture.seed, client.client_id, bucket_ts)
    return base * noise


def _address_flows(
    capture: IspCapture,
    client: ClientNetwork,
    sa: ServiceAddress,
    bucket_ts: Timestamp,
    flows: float,
) -> float:
    """The share of a client's bucket traffic hitting one address."""
    weight = capture.letter_weights[sa.letter]
    for dip in capture.dips:
        weight *= dip.scale(sa.letter, bucket_ts)
    # Unfilterable non-DNS noise rides along on every subnet.
    weight *= 1.0 + capture.noise_fraction
    # Family split.
    if sa.family == 6:
        if client.prefix_v6 is None:
            return 0.0
        family_share = V6_TRAFFIC_SHARE
    else:
        family_share = (
            1.0 - V6_TRAFFIC_SHARE if client.prefix_v6 is not None else 1.0
        )
    amount = flows * weight * family_share
    if sa.generation == "current":
        return amount

    # b.root old/new logic.
    adopted = client.has_adopted(bucket_ts, sa.family)
    behavior = client.behavior(sa.family)
    is_tester = mix_float(capture.seed, client.client_id, 4242) < TESTER_FRACTION
    if sa.generation == "new":
        if adopted:
            return amount
        if is_tester:
            return amount * TESTER_TRAFFIC_SHARE
        return 0.0
    # generation == "old"
    if not adopted:
        if is_tester:
            return amount * (1.0 - TESTER_TRAFFIC_SHARE)
        return amount
    if behavior is ClientBehavior.PRIMER:
        # RFC 8109 priming: ~one query per day against the old
        # address — a sliver of a sampled flow, not the client's full
        # b.root volume.
        return min(amount * 0.05, 0.5)
    return 0.0


def _client_prefix(client: ClientNetwork, family: int) -> Optional[str]:
    return client.prefix_v4 if family == 4 else client.prefix_v6


def scalar_capture(
    capture: IspCapture,
    start: Timestamp,
    end: Timestamp,
    bucket_seconds: int = DAY,
) -> FlowAggregate:
    """Capture the window [start, end) of *capture* cell by cell."""
    aggregate = FlowAggregate(bucket_seconds=bucket_seconds)
    bucket = start - start % bucket_seconds
    while bucket < end:
        for client in capture.clients:
            flows = _client_bucket_flows(capture, client, bucket, bucket_seconds)
            for sa in capture.addresses:
                amount = _address_flows(capture, client, sa, bucket, flows)
                if amount <= 0:
                    continue
                sampled = amount * capture.sampling_rate
                prefix = _client_prefix(client, sa.family)
                if prefix is None:
                    continue
                # Sampling may drop a client's trickle entirely.
                if sampled < 1.0 and mix_float(
                    capture.seed, client.client_id, bucket, sa.family, mix_str(sa.address) & 0xFFFF
                ) > sampled:
                    continue
                aggregate.add_flows(bucket, sa.address, max(sampled, 1.0), prefix)
        bucket += bucket_seconds
    return aggregate
