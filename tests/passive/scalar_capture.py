"""The scalar capture oracle: the passive flow model as a triple loop.

:meth:`repro.passive.isp.IspCapture.capture` evaluates the model as
numpy kernels (:mod:`repro.passive.flow_engine`) straight into the
aggregate's column tables.  This module states the same model one
``(bucket, client, address)`` cell at a time into its own dict write
side (:class:`ScalarAggregate`), folds exchanges the same dict way, and
expands a columnar :class:`~repro.passive.traces.FlowAggregate` into
those dicts, so the equivalence tests in ``test_flow_engine.py`` compare
the two byte for byte.  It is test-only: no runtime code calls it, and
it needs the population as a list of
:class:`~repro.passive.clients.ClientNetwork` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np

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


@dataclass(frozen=True)
class ClientMembership:
    """The kept (bucket, address, client prefix) cells of one capture.

    Only the regional merge reference (``regional_merge.py``) needs
    them: the distinct clients of a merged (bucket, address) are the
    union of the exchanges' prefix strings, which the per-row counts
    alone cannot give.  ``prefix`` indexes the capture's prefix table,
    ``addr`` its address table.
    """

    bucket: np.ndarray  # int64
    addr: np.ndarray  # int16
    prefix: np.ndarray  # int32


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


class ScalarAggregate:
    """The dict form of one capture: what the columnar tables encode."""

    def __init__(self, bucket_seconds: int) -> None:
        self.bucket_seconds = bucket_seconds
        #: (bucket, address) -> flow total
        self.flows: Dict[Tuple[Timestamp, str], float] = {}
        #: (bucket, address) -> distinct client prefixes
        self.clients: Dict[Tuple[Timestamp, str], Set[str]] = {}
        #: (address, prefix) -> flow total / buckets with >= 1 flow
        self.per_client_flows: Dict[Tuple[str, str], float] = {}
        self.per_client_days: Dict[Tuple[str, str], int] = {}

    def add_flows(
        self, bucket: Timestamp, address: str, count: float, prefix: str
    ) -> None:
        """Record *count* sampled flows from one client in one bucket."""
        if count <= 0:
            return
        key = (bucket, address)
        self.flows[key] = self.flows.get(key, 0.0) + count
        self.clients.setdefault(key, set()).add(prefix)
        ckey = (address, prefix)
        self.per_client_flows[ckey] = self.per_client_flows.get(ckey, 0.0) + count
        self.per_client_days[ckey] = self.per_client_days.get(ckey, 0) + 1

    def merge_from(self, other: "ScalarAggregate") -> None:
        """The regional fold: flows add in exchange order, prefix sets
        union, per-client flows add and active days take the maximum."""
        for key, flows in other.flows.items():
            self.flows[key] = self.flows.get(key, 0.0) + flows
        for key, prefixes in other.clients.items():
            self.clients.setdefault(key, set()).update(prefixes)
        for ckey, flows in other.per_client_flows.items():
            self.per_client_flows[ckey] = self.per_client_flows.get(ckey, 0.0) + flows
        for ckey, days in other.per_client_days.items():
            self.per_client_days[ckey] = max(self.per_client_days.get(ckey, 0), days)


def scalar_capture(
    capture: IspCapture,
    start: Timestamp,
    end: Timestamp,
    bucket_seconds: int = DAY,
) -> ScalarAggregate:
    """Capture the window [start, end) of *capture* cell by cell."""
    aggregate = ScalarAggregate(bucket_seconds)
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


def expand(aggregate: FlowAggregate) -> Dict[str, dict]:
    """A columnar aggregate as dicts: ``flows`` and ``counts`` keyed by
    (bucket, address), ``per_client_flows`` / ``per_client_days`` keyed
    by (address, prefix), in table row order."""
    flows, clients = aggregate.flow_table, aggregate.client_table
    addresses, prefixes = aggregate.addresses, aggregate.prefixes.tolist()
    flow_keys = [
        (bucket, addresses[addr])
        for bucket, addr in zip(flows["bucket"].tolist(), flows["addr"].tolist())
    ]
    client_keys = [
        (addresses[addr], prefixes[prefix])
        for addr, prefix in zip(clients["addr"].tolist(), clients["prefix"].tolist())
    ]
    return {
        "flows": dict(zip(flow_keys, flows["flows"].tolist())),
        "counts": dict(zip(flow_keys, flows["clients"].tolist())),
        "per_client_flows": dict(zip(client_keys, clients["flows"].tolist())),
        "per_client_days": dict(zip(client_keys, clients["days"].tolist())),
    }


def membership_sets(
    aggregate: FlowAggregate, membership: ClientMembership
) -> Dict[Tuple[Timestamp, str], Set[str]]:
    """The kept cells of a live capture as (bucket, address) -> prefixes."""
    sets: Dict[Tuple[Timestamp, str], Set[str]] = {}
    for bucket, addr, prefix in zip(
        membership.bucket.tolist(),
        membership.addr.tolist(),
        membership.prefix.tolist(),
    ):
        sets.setdefault((bucket, aggregate.addresses[addr]), set()).add(
            str(aggregate.prefixes[prefix])
        )
    return sets


def to_columns(
    scalar: ScalarAggregate, addresses
) -> Tuple[FlowAggregate, ClientMembership]:
    """The columnar form of a dict aggregate over *addresses* (service
    address strings), with its prefix sets as membership cells."""
    a_idx = {address: i for i, address in enumerate(addresses)}
    prefixes = sorted({prefix for _address, prefix in scalar.per_client_flows})
    code = {prefix: i for i, prefix in enumerate(prefixes)}
    flow_keys = sorted(scalar.flows, key=lambda key: (key[0], a_idx[key[1]]))
    client_keys = sorted(
        scalar.per_client_flows, key=lambda key: (a_idx[key[0]], key[1])
    )
    cells = sorted(
        (bucket, a_idx[address], code[prefix])
        for (bucket, address), members in scalar.clients.items()
        for prefix in members
    )
    aggregate = FlowAggregate.from_columns(
        scalar.bucket_seconds,
        addresses=addresses,
        prefixes=prefixes,
        flow_table={
            "bucket": [bucket for bucket, _a in flow_keys],
            "addr": [a_idx[address] for _b, address in flow_keys],
            "flows": [scalar.flows[key] for key in flow_keys],
            "clients": [len(scalar.clients[key]) for key in flow_keys],
        },
        client_table={
            "addr": [a_idx[address] for address, _p in client_keys],
            "prefix": [code[prefix] for _a, prefix in client_keys],
            "flows": [scalar.per_client_flows[key] for key in client_keys],
            "days": [scalar.per_client_days[key] for key in client_keys],
        },
    )
    membership = ClientMembership(
        bucket=np.array([cell[0] for cell in cells], dtype=np.int64),
        addr=np.array([cell[1] for cell in cells], dtype=np.int16),
        prefix=np.array([cell[2] for cell in cells], dtype=np.int32),
    )
    return aggregate, membership
