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
  with ``np.cumsum`` (strictly left-to-right, exactly the dict
  accumulation order of the triple loop; ``np.sum`` would pairwise-
  group and drift in the last bits).

The result is **byte-identical** to the triple loop: same dict keys,
same float bit patterns, same distinct-client sets (materialised lazily
from the boolean keep-masks).  The loop itself is test-only
(``tests/passive/scalar_capture.py``); ``tests/passive/test_flow_engine.py``
pins the equivalence for the ISP and all 14 IXP captures, with and
without dips, across the renumbering boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netsim.mix import mix64_array, mix64_prefix, mix_str
from repro.passive.clients import ClientBehavior, ClientNetwork
from repro.passive.traces import ClientMembership, FlowAggregate, PerClientLedger
from repro.util.timeutil import DAY, HOUR, Timestamp

_TWO64 = float(1 << 64)

#: Above this many (address, bucket, client) cells the keep-masks are
#: not retained (the client *sets* would be impractical anyway); the
#: aggregate still carries exact distinct-client counts.
MAX_MEMBERSHIP_CELLS = 1 << 27

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

    keep_membership = len(addresses) * n_buckets * n <= MAX_MEMBERSHIP_CELLS
    families = {sa.address: sa.family for sa in addresses}

    # Cross-block accumulators, per address: the running left-to-right
    # flow total and kept-client count per bucket, the per-client totals
    # of every block (client-ascending), and the membership mask blocks.
    addr_bucket_totals = {
        sa.address: np.zeros(n_buckets, dtype=np.float64) for sa in addresses
    }
    addr_bucket_counts = {
        sa.address: np.zeros(n_buckets, dtype=np.int64) for sa in addresses
    }
    addr_client_entries: Dict[str, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {
        sa.address: [] for sa in addresses
    }
    kept_blocks: Dict[str, List[np.ndarray]] = {sa.address: [] for sa in addresses}

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

        for sa in addresses:
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
            carried = np.cumsum(
                np.concatenate(
                    [addr_bucket_totals[sa.address].reshape(-1, 1), contributions],
                    axis=1,
                ),
                axis=1,
            )[:, -1]
            addr_bucket_totals[sa.address] = carried
            addr_bucket_counts[sa.address] += np.count_nonzero(kept, axis=1)

            client_totals = np.cumsum(contributions, axis=0)[-1, :]
            client_days = np.count_nonzero(kept, axis=0)
            nz = np.flatnonzero(client_days)
            if nz.size:
                addr_client_entries[sa.address].append(
                    (nz + c_lo, client_totals[nz], client_days[nz])
                )
            if keep_membership:
                kept_blocks[sa.address].append(kept)

    flows_out: Dict[Tuple[Timestamp, str], float] = {}
    client_counts: Dict[Tuple[Timestamp, str], int] = {}
    for sa in addresses:
        totals = addr_bucket_totals[sa.address]
        counts = addr_bucket_counts[sa.address]
        for b_idx, bucket in enumerate(buckets):
            if counts[b_idx]:
                key = (bucket, sa.address)
                flows_out[key] = float(totals[b_idx])
                client_counts[key] = int(counts[b_idx])

    # Per-client totals stay columnar: address-major, client-minor.
    addr_idx_parts: List[np.ndarray] = []
    client_idx_parts: List[np.ndarray] = []
    flow_parts: List[np.ndarray] = []
    day_parts: List[np.ndarray] = []
    for a_idx, sa in enumerate(addresses):
        for clients_part, totals_part, days_part in addr_client_entries[sa.address]:
            addr_idx_parts.append(
                np.full(len(clients_part), a_idx, dtype=np.int32)
            )
            client_idx_parts.append(clients_part.astype(np.int64))
            flow_parts.append(totals_part)
            day_parts.append(days_part.astype(np.int64))

    def _cat(parts: List[np.ndarray], dtype) -> np.ndarray:
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    ledger = PerClientLedger(
        addresses=[sa.address for sa in addresses],
        families=families,
        prefixes=columns.prefixes,
        addr_idx=_cat(addr_idx_parts, np.int32),
        client_idx=_cat(client_idx_parts, np.int64),
        flows=_cat(flow_parts, np.float64),
        days=_cat(day_parts, np.int64),
    )

    membership = (
        ClientMembership(
            buckets=buckets,
            prefixes=columns.prefixes,
            families={
                address: family
                for address, family in families.items()
                if kept_blocks[address]
            },
            kept={
                address: np.concatenate(blocks, axis=1)
                for address, blocks in kept_blocks.items()
                if blocks
            },
        )
        if keep_membership
        else None
    )
    return FlowAggregate.from_parts(
        bucket_seconds,
        flows=flows_out,
        client_counts=client_counts,
        per_client=ledger,
        membership=membership,
    )
