"""The passive-capture kernel behind :meth:`repro.passive.isp.IspCapture.capture`.

The capture model is stated most plainly as a ``clients x buckets x
addresses`` triple loop; at paper scale that is millions of pure-Python
iterations, each paying a :func:`~repro.netsim.mix.mix_float` call.
This module evaluates the identical model as numpy kernels over a
``(bucket x client)`` grid, one service address at a time:

* the client population compiles once into :class:`ClientColumns`
  (volumes, family availability, behaviour codes, adoption timestamps,
  prefix ids),
* the splitmix64 noise/tester/sampling draws use the array mixer forms
  (:func:`~repro.netsim.mix.mix64_array`), which are bit-identical to
  the scalar chain element-wise,
* diurnal scaling, :class:`~repro.passive.isp.TrafficDip` windows, the
  b.root renumbering cutover and per-behaviour letter weights are
  ``np.where`` selections over the grid,
* per-``(bucket, address)`` flow totals and per-client totals reduce
  with ``np.cumsum`` (strictly left-to-right, exactly the accumulation
  order of the triple loop; ``np.sum`` would pairwise-group and drift
  in the last bits).

The kernel emits the aggregate's two sorted column tables directly
(:class:`~repro.passive.traces.FlowAggregate`): flow rows by (bucket,
address), client rows by (address, prefix rank), with ranks from one
sort of the population's prefix strings.  The result is
**byte-identical** to the triple loop: same rows, same float bit
patterns, same distinct-client counts.  The loop itself is test-only
(``tests/passive/scalar_capture.py``); ``tests/passive/test_flow_engine.py``
pins the equivalence for the ISP and all 14 IXP captures, with and
without dips, across the renumbering boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.columnar import stitch_columns
from repro.netsim.mix import mix64_array, mix64_prefix, mix_str
from repro.passive.clients import ClientBehavior, ClientNetwork
from repro.passive.traces import CLIENT_DTYPES, ClientMembership, FlowAggregate
from repro.util.timeutil import DAY, HOUR, Timestamp

_TWO64 = float(1 << 64)

#: Client-axis block width of the capture grid.  Every (bucket x client)
#: intermediate is bounded by ``n_buckets x FLOW_CLIENT_BLOCK`` cells, so
#: peak memory is O(block) in the population size; the per-bucket flow
#: totals chain across blocks through an exact carry-in cumsum, keeping
#: the output byte-identical for every block width.
FLOW_CLIENT_BLOCK = 1 << 16


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

    The grid is evaluated ``client_block`` clients at a time (default
    :data:`FLOW_CLIENT_BLOCK`), so peak memory stays O(block) rather
    than O(population): per-bucket totals continue across blocks through
    an exact carry-in cumsum, counts add exactly, and the per-client
    reductions never cross a block.  Any block width produces the same
    bytes — ``tests/passive/test_flow_engine.py`` pins a tiny width
    against the default and the scalar oracle.
    """
    return _capture(capture, start, end, bucket_seconds, client_block, False)[0]


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
    return _capture(capture, start, end, bucket_seconds, client_block, True)


def _prefix_codes(
    prefixes: Dict[int, Tuple[Optional[str], ...]],
) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
    """The population's sorted prefix table (one sort of every prefix
    string) and per family each client's code in it (-1: no prefix)."""
    n = len(prefixes[4])
    values = np.concatenate(
        [np.array([p or "" for p in prefixes[f]], dtype=str) for f in (4, 6)]
    )
    table, codes = np.unique(values, return_inverse=True)
    if len(table) and table[0] == "":
        table, codes = table[1:], codes - 1
    v4, v6 = np.split(codes.astype(np.int32), [n])
    return table, {4: v4, 6: v6}


def _capture(
    capture,
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

    columns: ClientColumns = capture.client_columns()
    n = len(columns)
    block = FLOW_CLIENT_BLOCK if client_block is None else client_block
    if block <= 0:
        raise ValueError(f"client_block must be positive, got {block}")
    buckets: List[Timestamp] = list(
        range(start - start % bucket_seconds, end, bucket_seconds)
    )
    n_buckets = len(buckets)

    bucket_u64 = np.array(buckets, dtype=np.uint64).reshape(-1, 1)
    bucket_i64 = np.array(buckets, dtype=np.int64).reshape(-1, 1)
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
        ).reshape(-1, 1)
    else:
        factors = None

    addresses = capture.addresses
    # Letter weight with dips and capture noise, per (address, bucket) —
    # pure Python floats, matching the scalar multiply order.
    weight_cols: Dict[str, np.ndarray] = {}
    for sa in addresses:
        per_bucket_weight = []
        for bucket in buckets:
            weight = capture.letter_weights[sa.letter]
            for dip in capture.dips:
                weight *= dip.scale(sa.letter, bucket)
            weight *= 1.0 + capture.noise_fraction
            per_bucket_weight.append(weight)
        weight_cols[sa.address] = np.array(
            per_bucket_weight, dtype=np.float64
        ).reshape(-1, 1)

    prefix_table, client_codes = _prefix_codes(columns.prefixes)

    # Cross-block accumulators, per address: the running left-to-right
    # flow total and kept-client count per bucket, the per-client rows
    # of every block, and the kept cells if asked.
    bucket_totals = np.zeros((n_buckets, len(addresses)), dtype=np.float64)
    bucket_counts = np.zeros((n_buckets, len(addresses)), dtype=np.int64)
    client_rows: List[List[Dict[str, np.ndarray]]] = [[] for _ in addresses]
    cell_parts: List[Dict[str, np.ndarray]] = []

    for c_lo in range(0, n, block):
        c_hi = min(c_lo + block, n)
        # Per-client mixer state after absorbing (seed, client_id);
        # every scalar mix_float(seed, client_id, ...) continues here.
        state_client = mix64_array(
            mix64_prefix(capture.seed), columns.client_ids[c_lo:c_hi]
        )
        tester_row = (
            (mix64_array(state_client, np.uint64(4242)) / _TWO64) < TESTER_FRACTION
        ).reshape(1, -1)

        # (bucket x client-block) mixer states and bucket noise.
        state_cb = mix64_array(state_client.reshape(1, -1), bucket_u64)
        noise = 0.7 + 0.6 * (state_cb / _TWO64)

        base = columns.volumes[c_lo:c_hi] * bucket_seconds / DAY
        if factors is not None:
            flows = (base.reshape(1, -1) * factors) * noise
        else:
            flows = base.reshape(1, -1) * noise

        adopted = {
            family: columns.switchish[family][c_lo:c_hi].reshape(1, -1)
            & (bucket_i64 >= columns.adoption_ts[c_lo:c_hi].reshape(1, -1))
            for family in (4, 6)
        }
        has_v6 = columns.has_v6[c_lo:c_hi]
        family_share = {
            4: np.where(has_v6, 1.0 - V6_TRAFFIC_SHARE, 1.0),
            6: np.where(has_v6, V6_TRAFFIC_SHARE, 0.0),
        }
        state_cbf = {
            family: mix64_array(state_cb, np.uint64(family)) for family in (4, 6)
        }

        for a, sa in enumerate(addresses):
            family = sa.family
            amount = (flows * weight_cols[sa.address]) * family_share[
                family
            ].reshape(1, -1)
            if sa.generation == "new":
                amount = np.where(
                    adopted[family],
                    amount,
                    np.where(tester_row, amount * TESTER_TRAFFIC_SHARE, 0.0),
                )
            elif sa.generation == "old":
                amount = np.where(
                    adopted[family],
                    np.where(
                        columns.primer[family][c_lo:c_hi].reshape(1, -1),
                        np.minimum(amount * 0.05, 0.5),
                        0.0,
                    ),
                    np.where(
                        tester_row, amount * (1.0 - TESTER_TRAFFIC_SHARE), amount
                    ),
                )

            sampled = amount * capture.sampling_rate
            address_hash = mix_str(sa.address) & 0xFFFF
            drop = mix64_array(state_cbf[family], np.uint64(address_hash)) / _TWO64
            kept = (amount > 0.0) & ((sampled >= 1.0) | (drop <= sampled))
            contributions = np.where(kept, np.maximum(sampled, 1.0), 0.0)

            # cumsum reduces strictly left-to-right; seeding it with the
            # previous blocks' running total continues that exact chain,
            # so the final bits match the unblocked grid (and the oracle).
            bucket_totals[:, a] = np.cumsum(
                np.concatenate([bucket_totals[:, a : a + 1], contributions], axis=1),
                axis=1,
            )[:, -1]
            bucket_counts[:, a] += np.count_nonzero(kept, axis=1)

            client_totals = np.cumsum(contributions, axis=0)[-1, :]
            client_days = np.count_nonzero(kept, axis=0)
            nz = np.flatnonzero(client_days)
            client_rows[a].append(
                {
                    "prefix": client_codes[family][nz + c_lo],
                    "flows": client_totals[nz],
                    "days": client_days[nz],
                }
            )
            if keep_cells:
                b_idx, c_idx = np.nonzero(kept)
                cell_parts.append(
                    {
                        "bucket": bucket_i64[b_idx, 0],
                        "addr": np.full(len(b_idx), a, dtype=np.int16),
                        "prefix": client_codes[family][c_idx + c_lo],
                    }
                )

    # Flow table: row-major over (bucket, address), so already sorted.
    b_idx, a_idx = np.nonzero(bucket_counts)
    flow_table = {
        "bucket": bucket_i64[b_idx, 0],
        "addr": a_idx,
        "flows": bucket_totals[b_idx, a_idx],
        "clients": bucket_counts[b_idx, a_idx],
    }

    # Client table: address-major, then prefix rank (the table is sorted).
    client_parts: List[Dict[str, np.ndarray]] = []
    for a, rows in enumerate(client_rows):
        part = stitch_columns(("prefix", "flows", "days"), rows)
        order = np.argsort(part["prefix"])
        client_parts.append(
            {"addr": np.full(len(order), a)}
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
