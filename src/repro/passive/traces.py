"""Flow aggregation for passive captures.

Captures record *sampled, anonymised* flows: per time bucket, per root
service address, a flow count plus the set of client prefixes seen.  The
paper can only report *relative* traffic (privacy aggregation), so the
read-side API normalises to shares.

The write side stays dict-keyed (the scalar test oracle,
``tests/passive/scalar_capture.py``, appends one ``add_flows`` call at a
time), but every read view is memoized into columnar form on first use:
the sorted bucket list, one flow array per address aligned to those
buckets, per-address client counts and the Figure 8 per-client means.  The caches invalidate on any write, so
``series``/``unique_clients``/``normalized_shares``/``window_share`` are
O(1) dictionary-free lookups on the hot read path instead of per-call
scans over every ``(bucket, address)`` item.

The capture kernel (:mod:`repro.passive.flow_engine`) builds
aggregates through :meth:`FlowAggregate.from_parts` without ever going
through ``add_flows``; the distinct-client *sets* then live in a compact
:class:`ClientMembership` payload and materialise lazily — the common
consumers (``unique_clients``, the analyses) only need the counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.rss.operators import ServiceAddress
from repro.util.timeutil import Timestamp


@dataclass
class ClientMembership:
    """Columnar (bucket x client) keep-masks of one vectorized capture.

    A compact stand-in for the per-``(bucket, address)`` prefix sets:
    ``kept[address][b, c]`` says client *c* contributed flows to
    *address* in bucket *b*.  :meth:`materialize` expands to the exact
    sets the scalar oracle would have built.
    """

    buckets: List[Timestamp]
    #: family -> per-client prefix strings (None = client lacks the family)
    prefixes: Dict[int, Tuple[Optional[str], ...]]
    #: address -> address family
    families: Dict[str, int]
    #: address -> (n_buckets, n_clients) bool keep-mask
    kept: Dict[str, np.ndarray]

    def materialize(self) -> Dict[Tuple[Timestamp, str], Set[str]]:
        sets: Dict[Tuple[Timestamp, str], Set[str]] = {}
        for address, mask in self.kept.items():
            prefixes = self.prefixes[self.families[address]]
            for b_idx, bucket in enumerate(self.buckets):
                row = np.flatnonzero(mask[b_idx])
                if row.size:
                    sets[(bucket, address)] = {
                        prefixes[c] for c in row.tolist()  # type: ignore[misc]
                    }
        return sets


@dataclass
class PerClientLedger:
    """Columnar (address, client) flow totals of one vectorized capture.

    At 10⁵–10⁶ clients the dict forms of ``per_client_flows`` /
    ``per_client_days`` mean tens of millions of ``(address, prefix)``
    tuple keys and prefix strings; this ledger carries the same facts as
    four parallel arrays plus the population's prefix tables.  The dicts
    materialise lazily on direct access; the hot consumer
    (:meth:`FlowAggregate.mean_daily_flows_per_client`, Figure 8) reads
    the arrays and never builds a string.
    """

    addresses: List[str]  # entry addr_idx -> service address
    #: address -> family, family -> per-client prefixes (population order)
    families: Dict[str, int]
    prefixes: Dict[int, Tuple[Optional[str], ...]]
    addr_idx: np.ndarray  # int32 per entry
    client_idx: np.ndarray  # int64 per entry, index into prefixes[family]
    flows: np.ndarray  # float64 total flows of (address, client)
    days: np.ndarray  # int64 buckets with >= 1 flow

    def __len__(self) -> int:
        return len(self.addr_idx)

    def materialize(
        self,
    ) -> Tuple[Dict[Tuple[str, str], float], Dict[Tuple[str, str], int]]:
        """Expand to the exact dicts the scalar oracle builds (entry order
        is its fill order: address-major, client-minor)."""
        flows_dict: Dict[Tuple[str, str], float] = {}
        days_dict: Dict[Tuple[str, str], int] = {}
        addr_idx = self.addr_idx.tolist()
        client_idx = self.client_idx.tolist()
        flows = self.flows.tolist()
        days = self.days.tolist()
        for e in range(len(addr_idx)):
            address = self.addresses[addr_idx[e]]
            prefix = self.prefixes[self.families[address]][client_idx[e]]
            key = (address, prefix)
            flows_dict[key] = flows[e]  # type: ignore[index]
            days_dict[key] = days[e]  # type: ignore[index]
        return flows_dict, days_dict

    def mean_daily_flows(self) -> Dict[str, List[float]]:
        """address -> per-client mean flows per active bucket, straight
        off the arrays (bit-identical to ``total / max(1, days)``)."""
        ratios = self.flows / np.maximum(1, self.days)
        out: Dict[str, List[float]] = {}
        for a_idx, address in enumerate(self.addresses):
            out[address] = ratios[self.addr_idx == a_idx].tolist()
        return out


class FlowAggregate:
    """Sampled flow counts per (time bucket, service address)."""

    def __init__(self, bucket_seconds: int) -> None:
        self.bucket_seconds = bucket_seconds
        #: (bucket_ts, address) -> flow count
        self.flows: Dict[Tuple[Timestamp, str], float] = {}
        #: Dict forms of the per-client totals; None while they still
        #: live in ``_per_client_ledger`` (vectorized captures at scale).
        self._per_client_flows: Optional[Dict[Tuple[str, str], float]] = {}
        self._per_client_days: Optional[Dict[Tuple[str, str], int]] = {}
        self._per_client_ledger: Optional[PerClientLedger] = None
        #: (bucket_ts, address) -> distinct client prefixes; None when the
        #: sets live in ``_membership`` (vectorized) or were never
        #: persisted (counts-only reload).
        self._client_sets: Optional[Dict[Tuple[Timestamp, str], Set[str]]] = {}
        #: (bucket_ts, address) -> distinct-client count (always present).
        self._client_counts: Dict[Tuple[Timestamp, str], int] = {}
        self._membership: Optional[ClientMembership] = None
        # Memoized read views (see module docstring).
        self._bucket_cache: Optional[List[Timestamp]] = None
        self._bucket_array: Optional[np.ndarray] = None
        self._flow_index: Optional[Dict[str, Dict[Timestamp, float]]] = None
        self._flow_arrays: Dict[str, np.ndarray] = {}
        self._count_index: Optional[Dict[str, Dict[Timestamp, int]]] = None
        self._pc_cache: Optional[Dict[str, List[float]]] = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        bucket_seconds: int,
        *,
        flows: Dict[Tuple[Timestamp, str], float],
        client_counts: Dict[Tuple[Timestamp, str], int],
        per_client_flows: Optional[Dict[Tuple[str, str], float]] = None,
        per_client_days: Optional[Dict[Tuple[str, str], int]] = None,
        per_client: Optional[PerClientLedger] = None,
        membership: Optional[ClientMembership] = None,
    ) -> "FlowAggregate":
        """Assemble an aggregate from pre-computed columns.

        Used by the capture kernel and the dataset reload path; with
        ``membership=None`` the aggregate is *counts-only* — every read
        works except the :attr:`clients` prefix sets themselves.  The
        per-client totals arrive either as the two dicts or as one
        columnar :class:`PerClientLedger` (the dicts then materialise
        lazily on first direct access).
        """
        if (per_client is None) == (per_client_flows is None):
            raise ValueError(
                "pass either per_client_flows/per_client_days or a "
                "per_client ledger, not both"
            )
        if per_client is None and per_client_days is None:
            raise ValueError("per_client_flows requires per_client_days")
        aggregate = cls(bucket_seconds)
        aggregate.flows = flows
        aggregate._per_client_flows = per_client_flows
        aggregate._per_client_days = per_client_days
        aggregate._per_client_ledger = per_client
        aggregate._client_counts = client_counts
        aggregate._client_sets = None
        aggregate._membership = membership
        return aggregate

    # -- per-client totals ---------------------------------------------------------

    def _materialize_per_client(self) -> None:
        assert self._per_client_ledger is not None
        self._per_client_flows, self._per_client_days = (
            self._per_client_ledger.materialize()
        )
        self._per_client_ledger = None

    @property
    def per_client_flows(self) -> Dict[Tuple[str, str], float]:
        """(address, client prefix) -> total flows (Figure 8 input)."""
        if self._per_client_flows is None:
            self._materialize_per_client()
        assert self._per_client_flows is not None
        return self._per_client_flows

    @property
    def per_client_days(self) -> Dict[Tuple[str, str], int]:
        """(address, client prefix) -> buckets with >= 1 flow."""
        if self._per_client_days is None:
            self._materialize_per_client()
        assert self._per_client_days is not None
        return self._per_client_days

    # -- write side --------------------------------------------------------------

    def bucket_of(self, ts: Timestamp) -> Timestamp:
        return ts - ts % self.bucket_seconds

    def add_flows(
        self, ts: Timestamp, address: str, count: float, client_prefix: str
    ) -> None:
        """Record *count* sampled flows from one client in one bucket."""
        if count <= 0:
            return
        bucket = self.bucket_of(ts)
        key = (bucket, address)
        self.flows[key] = self.flows.get(key, 0.0) + count
        prefixes = self.clients.setdefault(key, set())
        prefixes.add(client_prefix)
        self._client_counts[key] = len(prefixes)
        ckey = (address, client_prefix)
        self.per_client_flows[ckey] = self.per_client_flows.get(ckey, 0.0) + count
        self.per_client_days[ckey] = self.per_client_days.get(ckey, 0) + 1
        self._invalidate()

    def merge_from(self, other: "FlowAggregate") -> None:
        """Fold *other* into this aggregate (regional IXP merges).

        Flow counts add; client prefix sets union (the same anonymised
        prefix seen at two exchanges is one client); per-client flows
        add and active-day counts take the maximum, matching how the
        paper combines per-exchange views of one client.
        """
        if other.bucket_seconds != self.bucket_seconds:
            raise ValueError(
                f"cannot merge bucket_seconds={other.bucket_seconds} into "
                f"bucket_seconds={self.bucket_seconds}"
            )
        own_sets = self.clients
        for key, flows in other.flows.items():
            self.flows[key] = self.flows.get(key, 0.0) + flows
        for key, prefixes in other.clients.items():
            mine = own_sets.setdefault(key, set())
            mine.update(prefixes)
            self._client_counts[key] = len(mine)
        for ckey, flows in other.per_client_flows.items():
            self.per_client_flows[ckey] = (
                self.per_client_flows.get(ckey, 0.0) + flows
            )
        for ckey, days in other.per_client_days.items():
            self.per_client_days[ckey] = max(
                self.per_client_days.get(ckey, 0), days
            )
        self._invalidate()

    # -- clients -----------------------------------------------------------------

    @property
    def clients(self) -> Dict[Tuple[Timestamp, str], Set[str]]:
        """(bucket_ts, address) -> distinct client prefixes.

        Vectorized captures materialise this lazily from their
        membership masks; aggregates reloaded from disk carry only the
        counts and raise here — use :meth:`unique_clients` /
        :meth:`client_count` instead.
        """
        if self._client_sets is None:
            if self._membership is None:
                raise RuntimeError(
                    "this aggregate carries only distinct-client counts "
                    "(reloaded from a dataset); the prefix sets were not "
                    "persisted — use unique_clients()/client_count()"
                )
            self._client_sets = self._membership.materialize()
            self._membership = None
        return self._client_sets

    def client_count(self, bucket: Timestamp, address: str) -> int:
        """Distinct clients of *address* in *bucket* (0 if none)."""
        return self._client_counts.get((bucket, address), 0)

    # -- read side ---------------------------------------------------------------

    def _invalidate(self) -> None:
        self._bucket_cache = None
        self._bucket_array = None
        self._flow_index = None
        self._flow_arrays = {}
        self._count_index = None
        self._pc_cache = None

    def buckets(self) -> List[Timestamp]:
        """All time buckets with any traffic, ascending (cached)."""
        if self._bucket_cache is None:
            self._bucket_cache = sorted({bucket for bucket, _addr in self.flows})
        return self._bucket_cache

    def buckets_array(self) -> np.ndarray:
        """The bucket timestamps as an int64 array (cached)."""
        if self._bucket_array is None:
            self._bucket_array = np.array(self.buckets(), dtype=np.int64)
        return self._bucket_array

    def _ensure_indices(self) -> None:
        """One pass over the flow dicts builds every per-address index."""
        if self._flow_index is None:
            flow_index: Dict[str, Dict[Timestamp, float]] = {}
            for (bucket, address), value in self.flows.items():
                flow_index.setdefault(address, {})[bucket] = value
            self._flow_index = flow_index
        if self._count_index is None:
            count_index: Dict[str, Dict[Timestamp, int]] = {}
            for (bucket, address), count in self._client_counts.items():
                count_index.setdefault(address, {})[bucket] = count
            self._count_index = count_index

    def flows_by_bucket(self, address: str) -> np.ndarray:
        """Flow counts of *address* aligned to :meth:`buckets` (cached)."""
        cached = self._flow_arrays.get(address)
        if cached is None:
            self._ensure_indices()
            assert self._flow_index is not None
            per_bucket = self._flow_index.get(address, {})
            cached = np.array(
                [per_bucket.get(bucket, 0.0) for bucket in self.buckets()],
                dtype=np.float64,
            )
            self._flow_arrays[address] = cached
        return cached

    def series(self, address: str) -> List[Tuple[Timestamp, float]]:
        """(bucket, flows) series for one address."""
        return list(zip(self.buckets(), self.flows_by_bucket(address).tolist()))

    def unique_clients(self, address: str) -> List[Tuple[Timestamp, int]]:
        """(bucket, distinct clients) series for one address."""
        self._ensure_indices()
        assert self._count_index is not None
        per_bucket = self._count_index.get(address, {})
        return [(bucket, per_bucket.get(bucket, 0)) for bucket in self.buckets()]

    def mean_daily_flows_per_client(self, address: str) -> List[float]:
        """Per client of *address*: mean flows per active bucket —
        the Figure 8 x-axis values."""
        if self._pc_cache is None:
            if self._per_client_ledger is not None:
                # Array fast path: no dict materialisation, no strings.
                self._pc_cache = self._per_client_ledger.mean_daily_flows()
            else:
                cache: Dict[str, List[float]] = {}
                days = self.per_client_days
                for (addr, client), total in self.per_client_flows.items():
                    cache.setdefault(addr, []).append(
                        total / max(1, days[(addr, client)])
                    )
                self._pc_cache = cache
        return list(self._pc_cache.get(address, []))


class TrafficTimeSeries:
    """Normalised traffic-share views over a :class:`FlowAggregate`."""

    def __init__(self, aggregate: FlowAggregate, addresses: Iterable[ServiceAddress]) -> None:
        self.aggregate = aggregate
        self.addresses: List[ServiceAddress] = list(addresses)

    def _subset(self, subset: Optional[Sequence[str]]) -> List[str]:
        if subset is not None:
            return list(subset)
        return [sa.address for sa in self.addresses]

    def normalized_shares(
        self, subset: Optional[List[str]] = None
    ) -> Dict[str, List[Tuple[Timestamp, float]]]:
        """Per address: (bucket, share-of-bucket-total) series.

        *subset* restricts normalisation to the listed addresses (e.g.
        just b.root's four subnets for Figure 7, or only IPv6 for
        Figure 9).
        """
        addresses = self._subset(subset)
        buckets = self.aggregate.buckets()
        totals = np.zeros(len(buckets), dtype=np.float64)
        for address in addresses:
            totals = totals + self.aggregate.flows_by_bucket(address)
        out: Dict[str, List[Tuple[Timestamp, float]]] = {}
        for address in addresses:
            values = self.aggregate.flows_by_bucket(address)
            shares = np.divide(
                values, totals, out=np.zeros_like(values), where=totals > 0
            )
            out[address] = list(zip(buckets, shares.tolist()))
        return out

    def window_share(
        self, address: str, start: Timestamp, end: Timestamp, subset: Optional[List[str]] = None
    ) -> float:
        """Share of *address* within [start, end) against the subset."""
        addresses = self._subset(subset)
        buckets = self.aggregate.buckets_array()
        if buckets.size == 0:
            return 0.0
        mask = (buckets >= start) & (buckets < end)
        total = 0.0
        mine = 0.0
        for addr in addresses:
            window_sum = float(self.aggregate.flows_by_bucket(addr)[mask].sum())
            total += window_sum
            if addr == address:
                mine = window_sum
        return mine / total if total > 0 else 0.0
