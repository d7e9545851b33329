"""The typed dataset facade.

A :class:`Dataset` is the durable form of one campaign's measurement
output: the probe / traceroute / stability tables as numpy columns, the
interner string tables that decode them, the identity counts, and the
full-fidelity transfer records — behind one typed surface that every
analysis consumes.  It is deliberately read-side compatible with
:class:`~repro.vantage.collector.CampaignCollector` (``addresses``,
``addr_index``, ``probe_columns()``, ``traceroute_columns()``,
``change_counts()``, ``identities``, ``summary()``), which is what lets
the analyses run unchanged against a live campaign or a directory
reloaded years later.

Datasets come from two places:

* :meth:`Dataset.from_collector` seals a finished collector's columnar
  buffers into tables (zero-copy — the arrays are shared, not copied),
* :class:`repro.data.io.DatasetReader` reloads a directory written by
  :class:`~repro.data.io.DatasetWriter`, memory-mapping every column.

The manifest's study fingerprint (the full
:class:`~repro.core.config.StudyConfig`) makes a saved dataset
self-describing: :meth:`study_inputs` re-derives the seed-deterministic
VP ring and site catalog — the two non-table inputs some analyses take —
without touching the world-building or campaign stages.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.cells import ProbeCellIndex
from repro.data.schema import (
    BINARY_TABLES,
    SCHEMA_VERSION,
    DatasetError,
    TableSchema,
)
from repro.data.transfers import TransferRecord, seal_transfers
from repro.rss.operators import ServiceAddress


class Table:
    """One sealed binary table: schema plus equal-length numpy columns."""

    def __init__(self, schema: TableSchema, columns: Dict[str, np.ndarray]) -> None:
        if set(columns) != set(schema.column_names()):
            raise DatasetError(
                f"table {schema.name!r} column mismatch: got {sorted(columns)}, "
                f"want {sorted(schema.column_names())}"
            )
        lengths = {len(array) for array in columns.values()}
        if len(lengths) > 1:
            raise DatasetError(
                f"table {schema.name!r} has ragged columns: lengths {sorted(lengths)}"
            )
        self.schema = schema
        self._columns = dict(columns)
        self._rows = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self._rows

    def column(self, name: str) -> np.ndarray:
        self.schema.column(name)  # raises DatasetError on unknown names
        return self._columns[name]

    def columns(self) -> Dict[str, np.ndarray]:
        """All columns by name (shared arrays; do not mutate)."""
        return dict(self._columns)


class Dataset:
    """One campaign's measurement data behind a typed facade."""

    def __init__(
        self,
        *,
        addresses: Sequence[ServiceAddress],
        sites: Sequence[str],
        hops: Sequence[str],
        identities: Dict[str, Dict[str, int]],
        tables: Dict[str, Table],
        transfers: Optional[Sequence] = None,
        summary: Optional[Dict[str, int]] = None,
        meta: Optional[Dict[str, Any]] = None,
        version: int = SCHEMA_VERSION,
    ) -> None:
        self.version = version
        self.addresses: List[ServiceAddress] = list(addresses)
        self.addr_index: Dict[str, int] = {
            sa.address: i for i, sa in enumerate(self.addresses)
        }
        self.sites: List[str] = list(sites)
        self.hops: List[str] = list(hops)
        self.identities: Dict[str, Dict[str, int]] = identities
        self.meta: Dict[str, Any] = dict(meta or {})
        self._tables = dict(tables)
        #: Raw transfer source: live observations (sealed lazily) or
        #: already-sealed records from a reload.
        self._transfer_source = list(transfers) if transfers is not None else None
        self._transfers: Optional[List[TransferRecord]] = None
        self._summary = dict(summary or {})
        self._change_counts: Optional[Dict[Tuple[int, int], Tuple[int, int]]] = None
        self._probe_cells: Optional[Tuple[Optional[bytes], ProbeCellIndex]] = None
        self._probe_cells_lock = threading.Lock()
        self._study_inputs: Optional[Dict[str, Any]] = None
        self._passive: Optional[Any] = None

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_collector(cls, collector, config: Optional[Any] = None) -> "Dataset":
        """Seal a finished collector into a dataset.

        The probe/traceroute columns are shared with the collector's
        sealed buffers (no copy); transfer observations keep their zone
        references and are turned into full-fidelity
        :class:`~repro.data.transfers.TransferRecord` objects on first
        access (the crypto is shared with the audit's validation cache,
        so nothing is ever validated twice).  *config* — when given, the
        :class:`~repro.core.config.StudyConfig` — becomes the manifest's
        study fingerprint.
        """
        if hasattr(collector, "seal"):
            collector.seal()
        tables = {
            "probes": Table(BINARY_TABLES["probes"], collector.probe_columns()),
            "traceroutes": Table(
                BINARY_TABLES["traceroutes"], collector.traceroute_columns()
            ),
            "stability": Table(
                BINARY_TABLES["stability"], collector.stability_columns()
            ),
        }
        meta: Dict[str, Any] = {}
        if config is not None:
            from dataclasses import asdict

            meta["study"] = asdict(config)
        return cls(
            addresses=collector.addresses,
            sites=list(collector.sites.values),
            hops=list(collector.hops.values),
            identities=collector.identities,
            tables=tables,
            transfers=collector.transfers,
            summary=collector.summary(),
            meta=meta,
        )

    # -- table access -----------------------------------------------------------------

    def table_names(self) -> List[str]:
        """Every logical table this dataset provides."""
        names = sorted(self._tables)
        for logical in ("identities", "transfers"):
            if self.has_table(logical):
                names.append(logical)
        return names

    def has_table(self, name: str) -> bool:
        if name == "identities":
            return self.identities is not None
        if name == "transfers":
            return self._transfer_source is not None
        return name in self._tables

    def table(self, name: str) -> Table:
        """One binary table, or a :class:`DatasetError` naming what exists."""
        try:
            return self._tables[name]
        except KeyError:
            raise DatasetError(
                f"dataset has no table {name!r}; available: "
                f"{', '.join(self.table_names())}"
            ) from None

    def require_tables(self, names: Iterable[str], consumer: str = "analysis") -> None:
        """Explicitly check table availability for *consumer*."""
        missing = [name for name in names if not self.has_table(name)]
        if missing:
            raise DatasetError(
                f"{consumer} needs table(s) {', '.join(missing)} which this "
                f"dataset does not provide; available: "
                f"{', '.join(self.table_names())}"
            )

    # -- collector-compatible read surface ---------------------------------------------

    def probe_columns(self) -> Dict[str, np.ndarray]:
        """The sampled probe table as numpy columns."""
        return self.table("probes").columns()

    def traceroute_columns(self) -> Dict[str, np.ndarray]:
        """The sampled traceroute table as numpy columns."""
        return self.table("traceroutes").columns()

    def change_counts(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """(vp_id, addr_idx) -> (changes, rounds observed)."""
        if self._change_counts is None:
            table = self.table("stability")
            vp = table.column("vp")
            addr = table.column("addr")
            changes = table.column("changes")
            rounds = table.column("rounds")
            self._change_counts = {
                (int(vp[i]), int(addr[i])): (int(changes[i]), int(rounds[i]))
                for i in range(len(table))
            }
        return dict(self._change_counts)

    def probe_cells(
        self, vp_slot: Optional[np.ndarray] = None, n_slots: int = 1
    ) -> ProbeCellIndex:
        """The probe table grouped by (address, ``vp_slot[vp]``), built on
        first use and kept for the life of this object.

        One index is kept: asking with another *vp_slot* replaces it.
        Without *vp_slot* any kept index is returned, since an address's
        rows are the union of its slots however VPs are slotted.
        """
        key = None if vp_slot is None else bytes([n_slots]) + vp_slot.tobytes()
        with self._probe_cells_lock:
            kept = self._probe_cells
            if kept is None or (key is not None and kept[0] != key):
                kept = (key, ProbeCellIndex(
                    self.probe_columns(), len(self.addresses), vp_slot, n_slots
                ))
                self._probe_cells = kept
            return kept[1]

    @property
    def transfers(self) -> List[TransferRecord]:
        """Full-fidelity transfer records (sealed on first access)."""
        if self._transfers is None:
            if self._transfer_source is None:
                raise DatasetError(
                    "dataset has no transfer table; available: "
                    f"{', '.join(self.table_names())}"
                )
            self._transfers = seal_transfers(self._transfer_source)
        return self._transfers

    def summary(self) -> Dict[str, int]:
        """Dataset-size fingerprint (the paper's §4.1 counts analogue)."""
        return dict(self._summary)

    # -- passive captures --------------------------------------------------------------

    @property
    def passive(self):
        """The attached :class:`~repro.data.passive.PassiveStore`, or
        ``None`` when this dataset carries no passive captures."""
        return self._passive

    def attach_passive(self, store) -> None:
        """Attach the passive-capture store this dataset travels with."""
        self._passive = store

    def with_passive(self, store) -> "Dataset":
        """A view of this dataset carrying *store* as its passive
        captures; every table is shared and this dataset's own passive
        store is unchanged.  Transfers are sealed first, so the view and
        this dataset share one sealed list instead of sealing twice."""
        if self.has_table("transfers"):
            self.transfers
        view = copy.copy(self)
        view._passive = store
        return view

    # -- study-derived inputs ----------------------------------------------------------

    @property
    def study(self) -> Optional[Dict[str, Any]]:
        """The recorded study fingerprint (config dict), if any."""
        return self.meta.get("study")

    def study_config(self):
        """The :class:`~repro.core.config.StudyConfig` this dataset was
        collected under, rebuilt from the manifest fingerprint.

        Strict: a manifest written by a different config schema raises
        a :class:`DatasetError` instead of silently dropping knobs.
        """
        from repro.core.config import StudyConfig

        study = self.study
        if study is None:
            raise DatasetError(
                "dataset carries no study fingerprint; it was sealed without "
                "a config, so seed-derived inputs (vps, catalog) cannot be "
                "reconstructed — pass them explicitly"
            )
        try:
            return StudyConfig.from_dict(study)
        except (TypeError, ValueError) as exc:
            raise DatasetError(
                f"dataset's study fingerprint does not reload under this "
                f"config schema: {exc}"
            ) from None

    def study_inputs(self) -> Dict[str, Any]:
        """The seed-deterministic non-table analysis inputs.

        Rebuilds the VP ring and the site catalog from the recorded
        study config — pure functions of the seed, so the result is
        exactly what the original run used.  No world-building or
        campaign stage runs (no fabric, zones, deployments, probing).
        """
        if self._study_inputs is None:
            from repro.rss.sites import build_site_catalog
            from repro.util.rng import RngFactory
            from repro.vantage.ring import build_ring

            config = self.study_config()
            self._study_inputs = {
                "config": config,
                "vps": build_ring(RngFactory(config.seed), config.ring_config),
                "catalog": build_site_catalog(
                    RngFactory(config.seed), config.world_spec().site_plan()
                ),
            }
        return dict(self._study_inputs)
