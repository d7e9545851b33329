"""Passive-capture persistence: aggregates <-> columnar tables.

A :class:`PassiveStore` holds the named passive aggregates of one
dataset ("isp", "ixp-eu", "ixp-na" — see
:mod:`repro.passive.recipes`), in one of two states:

* **live** — built from :class:`~repro.passive.traces.FlowAggregate`
  objects (at export time, or by ``rootsim-report`` workers), ready to
  write as the ``passive_flows`` / ``passive_clients`` tables;
* **reloaded** — backed by the memory-mapped tables of a saved dataset,
  each aggregate a zero-copy slice of them, with no re-simulation.

An aggregate's two column tables already are its rows of the dataset
tables, so writing is concatenation (captures by name) plus one code
remap, of prefixes into the dataset's "prefixes" interner
(first-occurrence order), and reloading is slicing.  The same
aggregates always serialise to byte-identical column files.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.columnar import stitch_columns
from repro.data.dataset import Table
from repro.data.schema import PASSIVE_TABLES, DatasetError
from repro.passive.traces import (
    CLIENT_DTYPES,
    FLOW_DTYPES,
    FlowAggregate,
    union_keys,
)


class PassiveStore:
    """Named passive aggregates of one dataset (live or reloaded)."""

    def __init__(self) -> None:
        self._aggregates: Dict[str, FlowAggregate] = {}
        self._bucket_seconds: Dict[str, int] = {}
        # Reloaded state (None for live stores).
        self._tables: Optional[Dict[str, Table]] = None
        self._captures: List[str] = []
        self._prefixes: np.ndarray = np.empty(0, dtype=str)
        self._addresses: List[str] = []

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_aggregates(
        cls, aggregates: Dict[str, FlowAggregate]
    ) -> "PassiveStore":
        """A live store over already-built aggregates."""
        store = cls()
        store._aggregates = dict(aggregates)
        store._bucket_seconds = {
            name: aggregate.bucket_seconds
            for name, aggregate in aggregates.items()
        }
        return store

    @classmethod
    def from_tables(
        cls,
        tables: Dict[str, Table],
        captures: Sequence[str],
        prefixes: Sequence[str],
        addresses: Sequence[str],
        bucket_seconds: Dict[str, int],
    ) -> "PassiveStore":
        """A lazy store over a reloaded dataset's passive tables
        (*addresses* is the dataset's service-address list)."""
        missing = [name for name in PASSIVE_TABLES if name not in tables]
        if missing:
            raise DatasetError(
                f"passive store needs table(s) {', '.join(missing)}"
            )
        store = cls()
        store._tables = {name: tables[name] for name in PASSIVE_TABLES}
        store._captures = list(captures)
        store._prefixes = np.asarray(prefixes, dtype=str)
        store._addresses = list(addresses)
        store._bucket_seconds = dict(bucket_seconds)
        unknown = [name for name in captures if name not in bucket_seconds]
        if unknown:
            raise DatasetError(
                f"manifest lacks bucket_seconds for capture(s) "
                f"{', '.join(unknown)}"
            )
        return store

    # -- read side ---------------------------------------------------------------

    def names(self) -> List[str]:
        """Every capture name, sorted."""
        if self._tables is not None:
            return sorted(self._captures)
        return sorted(self._aggregates)

    def bucket_seconds(self, name: str) -> int:
        self._check_name(name)
        return self._bucket_seconds[name]

    def aggregate(self, name: str) -> FlowAggregate:
        """The named aggregate (sliced from the tables on first use)."""
        if name not in self._aggregates:
            self._check_name(name)
            self._aggregates[name] = self._decode(name)
        return self._aggregates[name]

    def _check_name(self, name: str) -> None:
        if name not in self._bucket_seconds:
            raise DatasetError(
                f"dataset has no passive capture {name!r}; available: "
                f"{', '.join(self.names())}"
            )

    def _decode(self, name: str) -> FlowAggregate:
        """One capture's rows: a contiguous slice of each table (rows are
        grouped by capture index)."""
        assert self._tables is not None
        capture_idx = self._captures.index(name)

        def rows(table: str, columns: Sequence[str]) -> Dict[str, np.ndarray]:
            source = self._tables[table]
            lo, hi = np.searchsorted(
                source.column("capture"), [capture_idx, capture_idx + 1]
            )
            return {column: source.column(column)[lo:hi] for column in columns}

        return FlowAggregate.from_columns(
            self._bucket_seconds[name],
            addresses=self._addresses,
            prefixes=self._prefixes,
            flow_table=rows("passive_flows", FLOW_DTYPES),
            client_table=rows("passive_clients", CLIENT_DTYPES),
        )

    # -- write side --------------------------------------------------------------

    def manifest_entry(self) -> Dict[str, object]:
        """The manifest's "passive" value."""
        return {
            "captures": [
                {"name": name, "bucket_seconds": self._bucket_seconds[name]}
                for name in self.names()
            ]
        }

    def to_tables(
        self, addr_index: Dict[str, int]
    ) -> Tuple[Dict[str, Table], List[str], List[str]]:
        """Concatenate every aggregate into the two passive tables.

        Returns ``(tables, captures_interner, prefixes_interner)``.  Rows
        are captures by name, then each aggregate's own (sorted) rows;
        the prefixes interner lists prefixes in first-occurrence order
        over the client rows.  Every aggregate must code addresses as
        *addr_index* does (both come from the service-address catalog).
        """
        names = self.names()
        aggregates = [self.aggregate(name) for name in names]
        union, remaps = union_keys([agg.prefixes for agg in aggregates])
        flow_parts: List[Dict[str, np.ndarray]] = []
        client_parts: List[Dict[str, np.ndarray]] = []
        for capture_idx, (name, aggregate) in enumerate(zip(names, aggregates)):
            if aggregate.addresses != list(addr_index):
                raise DatasetError(
                    f"passive capture {name!r} codes service addresses "
                    f"differently from the dataset"
                )
            flows, clients = aggregate.flow_table, aggregate.client_table
            flow_parts.append(
                {"capture": np.full(len(flows["bucket"]), capture_idx, np.int16)}
                | flows
            )
            client_parts.append(
                {"capture": np.full(len(clients["addr"]), capture_idx, np.int16)}
                | clients
                | {"prefix": remaps[capture_idx][clients["prefix"]]}
            )

        tables: Dict[str, Table] = {}
        for name, parts in (
            ("passive_flows", flow_parts),
            ("passive_clients", client_parts),
        ):
            schema = PASSIVE_TABLES[name]
            tables[name] = Table(
                schema,
                stitch_columns(
                    schema.column_names(),
                    parts,
                    empty_dtypes={spec.name: spec.np_dtype for spec in schema.columns},
                ),
            )

        # Interner codes in first-occurrence order over the client rows.
        clients = tables["passive_clients"].columns()
        seen, first = np.unique(clients["prefix"], return_index=True)
        interned = seen[np.argsort(first)]
        lookup = np.zeros(len(union), dtype=np.int32)
        lookup[interned] = np.arange(len(interned), dtype=np.int32)
        clients["prefix"] = lookup[clients["prefix"]]
        tables["passive_clients"] = Table(PASSIVE_TABLES["passive_clients"], clients)
        return tables, names, union[interned].tolist()
