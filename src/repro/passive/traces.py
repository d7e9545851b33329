"""Flow aggregation for passive captures.

Captures record *sampled, anonymised* flows: per time bucket, per root
service address, a flow count plus the number of distinct client
prefixes seen.  The paper can only report *relative* traffic (privacy
aggregation), so the read-side API normalises to shares.

A :class:`FlowAggregate` is one capture in one form from the capture
kernel to disk: two sorted column tables plus the address and prefix
string tables their codes index.

* the **flow table** ``(bucket int64, addr int16, flows float64,
  clients int32)``, sorted by (bucket, address index);
* the **client table** ``(addr int16, prefix int32, flows float64,
  days int32)``, sorted by (address index, prefix string).

Those are exactly the capture's rows of the dataset's ``passive_flows``
/ ``passive_clients`` tables, so the kernel
(:mod:`repro.passive.flow_engine`) emits them, a region's exchanges
already merged, and :class:`repro.data.passive.PassiveStore` writes them
by concatenation and reloads them by slicing.  Every read
view (``series``, ``unique_clients``, the Figure 8 per-client means) is
computed from the columns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.rss.operators import ServiceAddress
from repro.util.timeutil import Timestamp

#: Column dtypes of the flow table, in table order.
FLOW_DTYPES: Dict[str, str] = {
    "bucket": "int64",
    "addr": "int16",
    "flows": "float64",
    "clients": "int32",
}

#: Column dtypes of the client table, in table order.
CLIENT_DTYPES: Dict[str, str] = {
    "addr": "int16",
    "prefix": "int32",
    "flows": "float64",
    "days": "int32",
}


def _typed(columns: Dict[str, np.ndarray], dtypes: Dict[str, str]) -> Dict[str, np.ndarray]:
    return {
        name: np.asarray(columns.get(name, ()), dtype=dtype)
        for name, dtype in dtypes.items()
    }


class FlowAggregate:
    """Sampled flow counts per (time bucket, service address)."""

    def __init__(self, bucket_seconds: int) -> None:
        """An aggregate with no rows (see :meth:`from_columns`)."""
        self.bucket_seconds = bucket_seconds
        #: address code -> service address
        self.addresses: List[str] = []
        #: prefix code -> anonymised client prefix
        self.prefixes: np.ndarray = np.empty(0, dtype=str)
        self.flow_table = _typed({}, FLOW_DTYPES)
        self.client_table = _typed({}, CLIENT_DTYPES)

    @classmethod
    def from_columns(
        cls,
        bucket_seconds: int,
        *,
        addresses: Sequence[str],
        prefixes: Sequence[str],
        flow_table: Dict[str, np.ndarray],
        client_table: Dict[str, np.ndarray],
    ) -> "FlowAggregate":
        """An aggregate over its two sorted column tables and the string
        tables their codes index."""
        aggregate = cls(bucket_seconds)
        aggregate.addresses = list(addresses)
        aggregate.prefixes = np.asarray(prefixes, dtype=str)
        aggregate.flow_table = _typed(flow_table, FLOW_DTYPES)
        aggregate.client_table = _typed(client_table, CLIENT_DTYPES)
        return aggregate

    # -- read side ---------------------------------------------------------------

    def _code(self, address: str) -> int:
        """The address code of *address* (-1 if the capture lacks it)."""
        return self.addresses.index(address) if address in self.addresses else -1

    def buckets_array(self) -> np.ndarray:
        """All time buckets with any traffic, ascending, as int64."""
        return np.unique(self.flow_table["bucket"])

    def buckets(self) -> List[Timestamp]:
        """All time buckets with any traffic, ascending."""
        return self.buckets_array().tolist()

    def _by_bucket(self, column: str, address: str) -> np.ndarray:
        """One flow-table column of *address* aligned to :meth:`buckets`."""
        buckets = self.buckets_array()
        rows = self.flow_table["addr"] == self._code(address)
        values = self.flow_table[column]
        out = np.zeros(len(buckets), dtype=values.dtype)
        out[np.searchsorted(buckets, self.flow_table["bucket"][rows])] = values[rows]
        return out

    def flows_by_bucket(self, address: str) -> np.ndarray:
        """Flow counts of *address* aligned to :meth:`buckets`."""
        return self._by_bucket("flows", address)

    def series(self, address: str) -> List[Tuple[Timestamp, float]]:
        """(bucket, flows) series for one address."""
        return list(zip(self.buckets(), self.flows_by_bucket(address).tolist()))

    def unique_clients(self, address: str) -> List[Tuple[Timestamp, int]]:
        """(bucket, distinct clients) series for one address."""
        return list(zip(self.buckets(), self._by_bucket("clients", address).tolist()))

    def client_count(self, bucket: Timestamp, address: str) -> int:
        """Distinct clients of *address* in *bucket* (0 if none)."""
        rows = (self.flow_table["addr"] == self._code(address)) & (
            self.flow_table["bucket"] == bucket
        )
        return int(self.flow_table["clients"][rows].sum())

    def mean_daily_flows_per_client(self, address: str) -> np.ndarray:
        """Per client of *address*: mean flows per active bucket —
        the Figure 8 x-axis values, in prefix order."""
        code = self._code(address)
        # Client rows are grouped by address code: one slice per address.
        lo, hi = np.searchsorted(self.client_table["addr"], [code, code + 1])
        flows = self.client_table["flows"][lo:hi]
        return flows / np.maximum(1, self.client_table["days"][lo:hi])


def union_keys(parts: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The sorted union of several key arrays, and for each part the
    position of each of its keys in the union (for prefix tables: the
    lookup from a table's codes to union codes, which rank the strings)."""
    if not parts:
        return np.empty(0), []
    union, inverse = np.unique(np.concatenate(parts), return_inverse=True)
    return union, np.split(inverse, np.cumsum([len(part) for part in parts])[:-1])


class TrafficTimeSeries:
    """Normalised traffic-share views over a :class:`FlowAggregate`."""

    def __init__(self, aggregate: FlowAggregate, addresses: Iterable[ServiceAddress]) -> None:
        self.aggregate = aggregate
        self.addresses: List[ServiceAddress] = list(addresses)
        #: address -> flows aligned to the buckets; the aggregate never
        #: changes, so each is computed once per view.
        self._flows: Dict[str, np.ndarray] = {}

    def _flows_of(self, address: str) -> np.ndarray:
        if address not in self._flows:
            self._flows[address] = self.aggregate.flows_by_bucket(address)
        return self._flows[address]

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
            totals = totals + self._flows_of(address)
        out: Dict[str, List[Tuple[Timestamp, float]]] = {}
        for address in addresses:
            values = self._flows_of(address)
            shares = np.divide(
                values, totals, out=np.zeros_like(values), where=totals > 0
            )
            out[address] = list(zip(buckets, shares.tolist()))
        return out

    def window_shares(
        self, start: Timestamp, end: Timestamp, subset: Optional[List[str]] = None
    ) -> Dict[str, float]:
        """Share of every subset address within [start, end) against the
        subset, summing each address's window once.  The total adds the
        window sums in subset order with plain float ``+=``
        (``sum()`` may compensate and change the last bits)."""
        addresses = self._subset(subset)
        buckets = self.aggregate.buckets_array()
        if buckets.size == 0:
            return dict.fromkeys(addresses, 0.0)
        mask = (buckets >= start) & (buckets < end)
        sums = [float(self._flows_of(addr)[mask].sum()) for addr in addresses]
        total = 0.0
        for window_sum in sums:
            total += window_sum
        return {
            addr: window_sum / total if total > 0 else 0.0
            for addr, window_sum in zip(addresses, sums)
        }

    def window_share(
        self, address: str, start: Timestamp, end: Timestamp, subset: Optional[List[str]] = None
    ) -> float:
        """Share of *address* within [start, end) against the subset."""
        return self.window_shares(start, end, subset).get(address, 0.0)
