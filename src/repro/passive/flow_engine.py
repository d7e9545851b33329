"""The passive-capture kernel behind :meth:`repro.passive.isp.IspCapture.capture`.

The capture model is stated most plainly as a ``clients x buckets x
addresses`` triple loop; at paper scale that is millions of pure-Python
iterations, each paying a :func:`~repro.netsim.mix.mix_float` call.
This module evaluates the identical model as numpy kernels, one
``(bucket x member x client)`` grid per client block, over a capture
group: the ISP alone, or one region's exchanges stacked on the client
axis (:func:`capture_group`, each with its own seed prefix):

* each population compiles once into :class:`ClientColumns`,
* the splitmix64 noise/tester/sampling draws use the array mixer forms
  (:func:`~repro.netsim.mix.mix64_array`), which are bit-identical to
  the scalar chain element-wise; only cells with ``0 < sampled < 1``
  draw the sampling hash,
* diurnal scaling, :class:`~repro.passive.isp.TrafficDip` windows, the
  b.root renumbering cutover and per-behaviour letter weights are
  multiplies and ``np.where`` selections over the grid,
* every sum — flows over clients, over buckets, over a region's
  exchanges — runs left to right as ``np.add.reduce`` along the *outer*
  axis of a C-contiguous grid (:func:`_fold`), never along the
  contiguous axis, where numpy sums pairwise and drifts in the last bits.

The kernel emits the aggregate's two sorted column tables directly
(:class:`~repro.passive.traces.FlowAggregate`), with a region's merge
folded in.  The result is **byte-identical** to the triple loop: same
rows, same float bit patterns, same distinct-client counts.  The loop
itself is test-only (``tests/passive/scalar_capture.py``);
``tests/passive/test_flow_engine.py`` pins the equivalence for the ISP
and all 14 IXP captures, with and without dips, across the renumbering
boundary, ``tests/passive/test_stacked_capture.py`` the stacked regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.columnar import stitch_columns
from repro.netsim.mix import mix64_array, mix64_prefix, mix_str
from repro.passive.clients import ClientBehavior, ClientNetwork
from repro.passive.traces import CLIENT_DTYPES, ClientMembership, FlowAggregate
from repro.util.timeutil import DAY, HOUR, Timestamp

_TWO64 = float(1 << 64)

#: Cells per default block of the (bucket x member x client) grid: every
#: intermediate stays in cache, and memory is O(block) in the population.
#: Any block width gives the same bytes (per-bucket totals chain exactly).
FLOW_BLOCK_CELLS = 1 << 15

#: Every capture parameter but the seed and the population.
_PARAMS = attrgetter(
    "addresses", "letter_weights", "dips", "noise_fraction", "sampling_rate"
)


@dataclass(frozen=True)
class ClientColumns:
    """One client population compiled into numpy columns."""

    client_ids: np.ndarray  # uint64
    volumes: np.ndarray  # float64 daily flows
    has_v6: np.ndarray  # bool
    adoption_ts: np.ndarray  # int64
    #: family -> bool mask: client would ever adopt the new address
    #: (has the family, and is not reluctant)
    switchish: Dict[int, np.ndarray]
    #: family -> bool mask: client re-primes daily after switching
    primer: Dict[int, np.ndarray]
    #: family -> per-client prefix strings (None = no such family)
    prefixes: Dict[int, Tuple[Optional[str], ...]]

    def __len__(self) -> int:
        return len(self.client_ids)

    @classmethod
    def from_clients(cls, clients: List[ClientNetwork]) -> "ClientColumns":
        n = len(clients)
        client_ids = np.empty(n, dtype=np.uint64)
        volumes = np.empty(n, dtype=np.float64)
        has_v6 = np.empty(n, dtype=bool)
        adoption_ts = np.empty(n, dtype=np.int64)
        switchish = {4: np.empty(n, dtype=bool), 6: np.empty(n, dtype=bool)}
        primer = {4: np.empty(n, dtype=bool), 6: np.empty(n, dtype=bool)}
        prefixes: Dict[int, List[Optional[str]]] = {4: [], 6: []}
        for i, client in enumerate(clients):
            client_ids[i] = client.client_id
            volumes[i] = client.daily_flows
            has_v6[i] = client.prefix_v6 is not None
            adoption_ts[i] = client.adoption_ts
            for family in (4, 6):
                behavior = client.behavior(family)
                switchish[family][i] = behavior is not None and (
                    behavior is not ClientBehavior.RELUCTANT
                )
                primer[family][i] = behavior is ClientBehavior.PRIMER
            prefixes[4].append(client.prefix_v4)
            prefixes[6].append(client.prefix_v6)
        return cls(
            client_ids=client_ids,
            volumes=volumes,
            has_v6=has_v6,
            adoption_ts=adoption_ts,
            switchish=switchish,
            primer=primer,
            prefixes={4: tuple(prefixes[4]), 6: tuple(prefixes[6])},
        )


def capture_vectorized(
    capture,
    start: Timestamp,
    end: Timestamp,
    bucket_seconds: int,
    client_block: Optional[int] = None,
) -> FlowAggregate:
    """Evaluate one :class:`~repro.passive.isp.IspCapture` window as
    array kernels; byte-identical to the scalar triple loop.

    The grid is evaluated ``client_block`` clients at a time (by default
    about :data:`FLOW_BLOCK_CELLS` cells per block), so peak memory
    stays O(block) rather than O(population).  Any block width produces
    the same bytes — ``tests/passive/test_flow_engine.py`` pins a tiny
    width against the default and the scalar oracle.
    """
    return capture_group([capture], start, end, bucket_seconds, client_block)


def capture_with_membership(
    capture,
    start: Timestamp,
    end: Timestamp,
    bucket_seconds: int,
    client_block: Optional[int] = None,
) -> Tuple[FlowAggregate, ClientMembership]:
    """:func:`capture_vectorized` plus the capture's kept cells, which a
    regional merge (:func:`~repro.passive.traces.merge_captures`) needs
    to count distinct clients across exchanges."""
    return _capture([capture], start, end, bucket_seconds, client_block, True)


def capture_group(
    captures: Sequence,
    start: Timestamp,
    end: Timestamp,
    bucket_seconds: int,
    client_block: Optional[int] = None,
) -> FlowAggregate:
    """One aggregate over a capture group (one region's exchanges),
    byte-identical to :func:`~repro.passive.traces.merge_captures` over
    the members' single captures.  Members share every capture
    parameter but seed and population, and their prefixes line up by
    client index, so a row's distinct clients are the indices kept at
    any member."""
    if not captures:
        return FlowAggregate(bucket_seconds)
    return _capture(captures, start, end, bucket_seconds, client_block, False)[0]


def _prefix_codes(
    columns: Sequence[ClientColumns], n: int
) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
    """The group's sorted prefix table (one sort of every member's
    prefix strings) and per family the code at each client index (-1:
    no prefix at any member).  Members must agree on each index's
    prefix, and hold each prefix at one index only."""
    parts = [
        np.array([p or "" for p in member.prefixes[f]], dtype=str)
        for f in (4, 6)
        for member in columns
    ]
    table, codes = np.unique(np.concatenate(parts), return_inverse=True)
    if len(table) and table[0] == "":
        table, codes = table[1:], codes - 1
    split = np.split(codes.astype(np.int32), np.cumsum([len(p) for p in parts])[:-1])
    out = {}
    for family, rows in ((4, split[: len(columns)]), (6, split[len(columns) :])):
        stacked = _stacked(rows, 0, n, -1)
        out[family] = column = stacked.max(axis=0)
        if len(rows) > 1 and (
            np.any((stacked != column) & (stacked >= 0))
            or np.bincount(column[column >= 0]).max(initial=0) > 1
        ):
            raise ValueError("a capture group's prefixes must line up by client index")
    return table, out


def _stacked(arrays: Sequence[np.ndarray], lo: int, hi: int, fill) -> np.ndarray:
    """Rows ``lo:hi`` of each member's column, one member per row,
    padded with *fill* past a member's last client."""
    out = np.full((len(arrays), hi - lo), fill, dtype=arrays[0].dtype)
    for row, column in zip(out, arrays):
        row[: max(0, min(hi, len(column)) - lo)] = column[lo:hi]
    return out


def _fold(grid: np.ndarray) -> np.ndarray:
    """Left-to-right sum over axis 0.  ``np.add.reduce`` along the outer
    axis of a C-contiguous grid adds whole rows in order; along the
    contiguous axis — where a single column puts it — numpy sums
    pairwise, so that case takes a ``cumsum``."""
    grid = np.ascontiguousarray(grid)
    if grid[0].size > 1:
        return np.add.reduce(grid, axis=0)
    return np.cumsum(grid, axis=0)[-1]


def _capture(
    captures: Sequence,
    start: Timestamp,
    end: Timestamp,
    bucket_seconds: int,
    client_block: Optional[int],
    keep_cells: bool,
) -> Tuple[FlowAggregate, Optional[ClientMembership]]:
    from repro.passive.isp import (
        TESTER_FRACTION,
        TESTER_TRAFFIC_SHARE,
        V6_TRAFFIC_SHARE,
    )

    if client_block is not None and client_block <= 0:
        raise ValueError(f"client_block must be positive, got {client_block}")
    point = captures[0]
    if any(_PARAMS(capture) != _PARAMS(point) for capture in captures):
        raise ValueError("a capture group shares every parameter but seed and clients")
    columns: List[ClientColumns] = [capture.client_columns() for capture in captures]
    n = max(len(member) for member in columns)
    prefix_table, client_codes = _prefix_codes(columns, n)

    buckets: List[Timestamp] = list(
        range(start - start % bucket_seconds, end, bucket_seconds)
    )
    n_buckets = len(buckets)
    cells_per_client = max(1, n_buckets * len(captures))
    block = client_block or max(1, FLOW_BLOCK_CELLS // cells_per_client)
    bucket_u64 = np.array(buckets, dtype=np.uint64).reshape(-1, 1, 1)
    bucket_i64 = np.array(buckets, dtype=np.int64).reshape(-1, 1, 1)
    if bucket_seconds < DAY:
        # Diurnal factor is a pure function of the bucket timestamp;
        # computed in Python floats exactly as the scalar oracle does.
        factors = np.array(
            [
                0.6
                + 0.8
                * max(0.0, 1.0 - abs((bucket % DAY) / HOUR - 19.0) / 12.0)
                for bucket in buckets
            ],
            dtype=np.float64,
        ).reshape(-1, 1, 1)
    else:
        factors = None

    addresses = point.addresses
    # Letter weight with dips and capture noise, per (letter, bucket) —
    # pure Python floats, matching the scalar multiply order.
    weights: Dict[str, np.ndarray] = {}
    for letter in dict.fromkeys(sa.letter for sa in addresses):
        per_bucket_weight = []
        for bucket in buckets:
            weight = point.letter_weights[letter]
            for dip in point.dips:
                weight *= dip.scale(letter, bucket)
            weight *= 1.0 + point.noise_fraction
            per_bucket_weight.append(weight)
        weights[letter] = np.array(per_bucket_weight).reshape(-1, 1, 1)
    seeds = np.array(
        [mix64_prefix(capture.seed) for capture in captures], dtype=np.uint64
    ).reshape(-1, 1)

    # Cross-block accumulators: per (address, bucket, member) the running
    # flow total, per (bucket, address) the distinct kept clients, per
    # address the client rows of every block, and the kept cells if asked.
    totals = np.zeros((len(addresses), n_buckets, len(captures)), dtype=np.float64)
    counts = np.zeros((n_buckets, len(addresses)), dtype=np.int64)
    client_rows: List[List[Dict[str, np.ndarray]]] = [[] for _ in addresses]
    cell_parts: List[Dict[str, np.ndarray]] = []

    for c_lo in range(0, n, block):
        c_hi = min(c_lo + block, n)

        def stacked(column, fill):
            return _stacked([column(member) for member in columns], c_lo, c_hi, fill)

        # The grid is (bucket x member x client); padding clients have
        # zero volume, so they never keep a cell.
        volumes = stacked(lambda m: m.volumes, 0.0)
        has_v6 = stacked(lambda m: m.has_v6, False)
        adoption_ts = stacked(lambda m: m.adoption_ts, 0)
        # Per-client mixer state after absorbing (seed, client_id);
        # every scalar mix_float(seed, client_id, ...) continues here.
        state_client = mix64_array(seeds, stacked(lambda m: m.client_ids, 0))
        tester = (mix64_array(state_client, np.uint64(4242)) / _TWO64) < TESTER_FRACTION

        # (bucket x member x client) mixer states and bucket noise.
        state_cb = mix64_array(state_client, bucket_u64)
        noise = 0.7 + 0.6 * (state_cb / _TWO64)

        base = volumes * bucket_seconds / DAY
        flows = (base * factors) * noise if factors is not None else base * noise

        adopted = {
            family: stacked(lambda m: m.switchish[family], False)
            & (bucket_i64 >= adoption_ts)
            for family in (4, 6)
        }
        family_share = {
            4: np.where(has_v6, 1.0 - V6_TRAFFIC_SHARE, 1.0),
            6: np.where(has_v6, V6_TRAFFIC_SHARE, 0.0),
        }
        state_cbf = {
            family: mix64_array(state_cb, np.uint64(family)) for family in (4, 6)
        }
        # Client-major copy of one address's cells, row 0 the running
        # bucket totals, so one fold continues each member's chain.
        chained = np.empty((c_hi - c_lo + 1, n_buckets, len(captures)))

        for a, sa in enumerate(addresses):
            family = sa.family
            amount = flows * weights[sa.letter]
            amount *= family_share[family]
            if sa.generation == "new":
                amount = np.where(
                    adopted[family],
                    amount,
                    np.where(tester, amount * TESTER_TRAFFIC_SHARE, 0.0),
                )
            elif sa.generation == "old":
                amount = np.where(
                    adopted[family],
                    np.where(
                        stacked(lambda m: m.primer[family], False),
                        np.minimum(amount * 0.05, 0.5),
                        0.0,
                    ),
                    np.where(tester, amount * (1.0 - TESTER_TRAFFIC_SHARE), amount),
                )

            # Only a trickle (0 < sampled < 1) draws the drop hash.
            sampled = amount * point.sampling_rate
            kept = sampled >= 1.0
            trickle = np.flatnonzero((sampled < 1.0) & (amount > 0.0))
            address_hash = np.uint64(mix_str(sa.address) & 0xFFFF)
            drop = mix64_array(state_cbf[family].reshape(-1)[trickle], address_hash)
            kept.reshape(-1)[trickle] = drop / _TWO64 <= sampled.reshape(-1)[trickle]
            contributions = np.maximum(sampled, 1.0)
            contributions *= kept

            chained[0] = totals[a]
            chained[1:] = contributions.transpose(2, 0, 1)
            totals[a] = _fold(chained)
            seen = kept.any(axis=1)
            counts[:, a] += np.count_nonzero(seen, axis=1)

            # Per client: flows over buckets, then over members in order;
            # active days take the maximum over members.
            client_flows = _fold(_fold(contributions))
            client_days = np.count_nonzero(kept, axis=0).max(axis=0)
            nz = np.flatnonzero(client_days)
            client_rows[a].append(
                {
                    "prefix": client_codes[family][nz + c_lo],
                    "flows": client_flows[nz],
                    "days": client_days[nz].astype(np.int32),
                }
            )
            if keep_cells:
                b_idx, c_idx = np.nonzero(seen)
                cell_parts.append(
                    {
                        "bucket": bucket_i64[b_idx, 0, 0],
                        "addr": np.full(len(b_idx), a, dtype=np.int16),
                        "prefix": client_codes[family][c_idx + c_lo],
                    }
                )

    # Flow table: members fold in order; row-major over (bucket,
    # address), so already sorted.
    bucket_flows = _fold(np.ascontiguousarray(totals.transpose(2, 1, 0)))
    b_idx, a_idx = np.nonzero(counts)
    flow_table = {
        "bucket": bucket_i64[b_idx, 0, 0],
        "addr": a_idx,
        "flows": bucket_flows[b_idx, a_idx],
        "clients": counts[b_idx, a_idx],
    }

    # Client table: address-major, then prefix rank (the table is sorted).
    client_parts: List[Dict[str, np.ndarray]] = []
    for a, rows in enumerate(client_rows):
        part = stitch_columns(("prefix", "flows", "days"), rows)
        rows.clear()  # at 10**6 clients the client table sets peak memory
        order = np.argsort(part["prefix"])
        client_parts.append(
            {"addr": np.full(len(order), a, dtype=np.int16)}
            | {name: column[order] for name, column in part.items()}
        )
    aggregate = FlowAggregate.from_columns(
        bucket_seconds,
        addresses=[sa.address for sa in addresses],
        prefixes=prefix_table,
        flow_table=flow_table,
        client_table=stitch_columns(CLIENT_DTYPES, client_parts),
    )
    if not keep_cells:
        return aggregate, None
    return aggregate, ClientMembership(
        **stitch_columns(
            ("bucket", "addr", "prefix"), cell_parts,
            empty_dtypes={"bucket": "int64", "addr": "int16", "prefix": "int32"},
        )
    )
