"""The regional merge, stated over single captures: the reference for
:func:`repro.passive.flow_engine.capture_group`.

The kernel captures a region's exchanges as one stacked grid with the
merge folded in.  :func:`merge_captures` states that merge the long
way: it folds per-exchange column tables, counting a row's distinct
clients as the union of the exchanges' prefix strings, which needs each
exchange's kept (bucket, address, prefix) cells.  Those cells come from
the scalar oracle (:func:`oracle_part`, through
:func:`~tests.passive.scalar_capture.to_columns`), never from the
kernel, so the stacked kernel is never its own reference.  Test-only:
no runtime code calls it.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.passive.isp import IspCapture
from repro.passive.traces import FlowAggregate, union_keys
from repro.util.timeutil import DAY, Timestamp

from tests.passive.scalar_capture import ClientMembership, scalar_capture, to_columns


def oracle_part(
    capture: IspCapture,
    start: Timestamp,
    end: Timestamp,
    bucket_seconds: int = DAY,
) -> Tuple[FlowAggregate, ClientMembership]:
    """One exchange's capture and kept cells, from the scalar oracle."""
    return to_columns(
        scalar_capture(capture, start, end, bucket_seconds),
        [sa.address for sa in capture.addresses],
    )


def merge_captures(
    bucket_seconds: int,
    parts: Sequence[Tuple[FlowAggregate, ClientMembership]],
) -> FlowAggregate:
    """Fold per-exchange captures into one aggregate (regional IXP view).

    Flow counts add; a prefix seen at two exchanges is one client, so a
    row's distinct clients are the union of the exchanges' prefix
    strings; per-client flows add and active-day counts take the
    maximum.  Sums run in exchange order from 0.0, one aligned vector
    add per exchange over the union of keys — never a pairwise
    segment reduction — so the float bits match a left-to-right fold.
    """
    if not parts:
        return FlowAggregate(bucket_seconds)
    addresses = parts[0][0].addresses
    for aggregate, _membership in parts:
        if aggregate.bucket_seconds != bucket_seconds:
            raise ValueError(
                f"cannot merge bucket_seconds={aggregate.bucket_seconds} "
                f"into bucket_seconds={bucket_seconds}"
            )
        if aggregate.addresses != addresses:
            raise ValueError("cannot merge captures over different address tables")
    n_addr = len(addresses)
    prefixes, remaps = union_keys([aggregate.prefixes for aggregate, _m in parts])
    n_prefix = max(1, len(prefixes))

    # Flow rows keyed by (bucket, addr), which sorts like the table.
    flow_keys, flow_slots = union_keys(
        [agg.flow_table["bucket"] * n_addr + agg.flow_table["addr"] for agg, _m in parts]
    )
    flows = np.zeros(len(flow_keys), dtype=np.float64)
    for (aggregate, _m), slots in zip(parts, flow_slots):
        flows[slots] += aggregate.flow_table["flows"]
    # Distinct (row, prefix) cells: sort plus a boundary mask — numpy's
    # np.unique takes a slower hash path on int64 arrays.
    cells = np.sort(
        np.concatenate(
            [
                np.searchsorted(flow_keys, m.bucket * n_addr + m.addr) * n_prefix
                + remap[m.prefix]
                for (_agg, m), remap in zip(parts, remaps)
            ]
        )
    )
    distinct = np.ones(len(cells), dtype=bool)
    distinct[1:] = cells[1:] != cells[:-1]
    clients = np.bincount(cells[distinct] // n_prefix, minlength=len(flow_keys))

    # Client rows keyed by (addr, prefix rank), which sorts like the table.
    client_keys, client_slots = union_keys(
        [
            agg.client_table["addr"].astype(np.int64) * n_prefix
            + remap[agg.client_table["prefix"]]
            for (agg, _m), remap in zip(parts, remaps)
        ]
    )
    client_flows = np.zeros(len(client_keys), dtype=np.float64)
    days = np.zeros(len(client_keys), dtype=np.int32)
    for (aggregate, _m), slots in zip(parts, client_slots):
        client_flows[slots] += aggregate.client_table["flows"]
        days[slots] = np.maximum(days[slots], aggregate.client_table["days"])

    return FlowAggregate.from_columns(
        bucket_seconds,
        addresses=addresses,
        prefixes=prefixes,
        flow_table={
            "bucket": flow_keys // n_addr,
            "addr": flow_keys % n_addr,
            "flows": flows,
            "clients": clients,
        },
        client_table={
            "addr": client_keys // n_prefix,
            "prefix": client_keys % n_prefix,
            "flows": client_flows,
            "days": days,
        },
    )
