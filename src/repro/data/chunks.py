"""Streaming chunk store: append-only dataset growth with crash-safe resume.

A streamed campaign (DESIGN.md §11) writes its measurement output into a
**checkpoint directory** instead of holding the whole campaign in memory::

    <ckpt>/
      CHECKPOINT.json          # atomically replaced after every sealed chunk
      chunks/000000/           # one sealed chunk per round range [lo, hi)
        MANIFEST.json          #   a complete mini dataset: same schema,
        tables/<t>/<col>.bin   #   same column files, loadable with
        identities.json        #   DatasetReader — stability/identities
        transfers.jsonl        #   hold per-chunk *deltas*
        state/                 #   the cumulative collector state after
          STATE.json           #   round hi (repro.data.state), and with
          tables/<t>/<col>.bin #   shards > 1 one per shard under
          shards/000/ ...      #   state/shards/<k>/
      chunks/000001/
      passive/<capture>/       # finalize-phase per-capture cache:
        MANIFEST.json          #   bucket_seconds, address and prefix
        tables/<t>/<col>.bin   #   tables; the capture's passive_flows /
                               #   passive_clients rows

``CHECKPOINT.json`` carries only the campaign cursor: the study
fingerprint, the sealed chunk list with row counts, the cumulative
totals and the finalize-phase ``passive_done`` list — a few kilobytes
whatever the campaign's length.  The aggregate collector state
(interners with first-occurrence order keys, identity counts, stability
counters, totals) lives beside each chunk as ``state/``, fsynced before
the commit; restoring reads the last listed chunk's.  The checkpoint is
only ever updated by writing ``CHECKPOINT.json.tmp`` and
``os.replace``-ing it over the old file **after** the chunk directory
is on disk, so a crash at any instant leaves either the previous
consistent checkpoint or the new one — never a torn state.  A chunk
directory that exists on disk but is not listed in the checkpoint is an
unsealed tail from a crash; resume discards it and re-runs those rounds.
Listed chunks are never rewritten, so a reader that found a chunk in the
checkpoint can always read its state.

Resume invariants (why a resumed run is byte-identical to an
uninterrupted one):

* every per-round random draw is a counter-based mix keyed by
  (vp, addr, round/ts) — there is no sequential RNG state to restore;
* interner order keys are (round, vp, addr) positions, so values
  interned before the crash keep their indices and values first seen
  after it sort strictly later;
* fault schedules and route epochs are pure functions of the seed and
  config, recompiled identically on resume;
* chunk boundaries fall on round boundaries, and row/transfer order
  within a chunk is the serial campaign scan order, so concatenating
  sealed chunk files *is* the batch table.

:class:`CheckpointReader` serves the sealed prefix of a mid-campaign (or
killed) run as a :class:`~repro.data.dataset.Dataset` — each chunk is
memory-mapped zero-copy; stitching n > 1 chunks concatenates the mapped
columns lazily per table access.  Chunk directories and the finalized
dataset are both written by :func:`~repro.data.io.write_dataset`, the
batch ``--save``'s writer: :meth:`ChunkedDatasetWriter.finalize` hands
it the chunks' mapped columns one chunk at a time, so the full tables
are never materialised.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.data.dataset import Dataset, Table
from repro.data.io import (
    DatasetReader,
    MANIFEST_NAME,
    read_binary_table,
    transfer_lines,
    write_binary_table,
    write_dataset,
)
from repro.data.schema import (
    BINARY_TABLES,
    PASSIVE_TABLES,
    SCHEMA_VERSION,
    CheckpointError,
    DatasetError,
)
from repro.data.state import fsync_path, read_state, write_state
from repro.data.transfers import seal_transfers
from repro.vantage.collector import CampaignCollector, CollectorState

CHECKPOINT_NAME = "CHECKPOINT.json"

#: Version of the checkpoint layout; bump on every incompatible change.
#: v2 moved the collector state out of CHECKPOINT.json into each chunk's
#: ``state/`` directory.
CHECKPOINT_VERSION = 2

#: The per-chunk collector-state directory.
STATE_DIR = "state"


# --- chunk payload ------------------------------------------------------------------


@dataclass
class ChunkData:
    """Everything one sealed chunk stores, in serial campaign-scan order.

    ``probes`` / ``traceroutes`` carry the chunk's rows; ``stability``
    carries per-(vp, addr) *deltas* (changes/rounds accrued in this
    round range); ``identities`` is the per-(letter, identity) count
    delta; ``transfers`` the chunk's observations, already in the batch
    transfer order.
    """

    round_lo: int
    round_hi: int
    probes: Dict[str, np.ndarray]
    traceroutes: Dict[str, np.ndarray]
    stability: Dict[str, np.ndarray]
    identities: Dict[str, Dict[str, int]]
    transfers: Sequence[Any]  # TransferObservation (sealed on write)
    queries: int = 0
    transfer_total: int = 0
    transfer_clean: int = 0

    def summary(self) -> Dict[str, int]:
        """The chunk's delta summary (same keys as a full dataset's)."""
        return {
            "rounds": self.round_hi - self.round_lo,
            "queries": int(self.queries),
            "probe_samples": int(len(self.probes["vp"])),
            "traceroute_samples": int(len(self.traceroutes["vp"])),
            "transfers": int(self.transfer_total),
            "transfer_observations": len(self.transfers),
            "stability_pairs": int(len(self.stability["vp"])),
        }


def _campaign_summary(
    state, totals: Dict[str, int], stability_pairs: int
) -> Dict[str, int]:
    """A dataset summary for the sealed rounds: counters from the
    aggregate *state* collector, row totals from the checkpoint."""
    return {
        "rounds": state.rounds_processed,
        "queries": state.queries_simulated,
        "probe_samples": totals["probes"],
        "traceroute_samples": totals["traceroutes"],
        "transfers": state.transfer_total,
        "transfer_observations": totals["transfer_observations"],
        "stability_pairs": stability_pairs,
    }


# --- writer -------------------------------------------------------------------------


class ChunkedDatasetWriter:
    """Seals campaign chunks to disk and keeps ``CHECKPOINT.json`` true.

    Protocol: :meth:`start` (fresh) or :meth:`resume` (after a crash),
    then one :meth:`seal_chunk` per completed round range, then
    :meth:`finalize` into a normal dataset directory once every round is
    sealed.  The checkpoint file is replaced atomically after each
    chunk, so the directory is always either resumable or complete.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.path = Path(directory)
        self._checkpoint: Optional[dict] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(
        self,
        *,
        study: Optional[dict],
        addresses: List[str],
        shards: int,
        n_rounds: int,
    ) -> None:
        """Begin a fresh streamed campaign in this directory."""
        if (self.path / CHECKPOINT_NAME).exists():
            raise CheckpointError(
                f"checkpoint already exists at {self.path}; resume it or "
                f"point --checkpoint at a fresh directory"
            )
        if (self.path / MANIFEST_NAME).exists():
            raise CheckpointError(
                f"{self.path} already holds a finalized dataset"
            )
        (self.path / "chunks").mkdir(parents=True, exist_ok=True)
        self._checkpoint = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "schema_version": SCHEMA_VERSION,
            "study": study,
            "addresses": list(addresses),
            "shards": shards,
            "n_rounds": n_rounds,
            "rounds_done": 0,
            "totals": {"probes": 0, "traceroutes": 0, "transfer_observations": 0},
            "chunks": [],
            "passive_done": [],
        }
        self._write_checkpoint()

    def resume(self) -> dict:
        """Load the checkpoint, discard any unsealed tail chunk, and
        return the checkpoint dict."""
        self._checkpoint = CheckpointReader(self.path).checkpoint()
        sealed = {entry["name"] for entry in self._checkpoint["chunks"]}
        chunks_dir = self.path / "chunks"
        if chunks_dir.is_dir():
            for child in sorted(chunks_dir.iterdir()):
                if child.is_dir() and child.name not in sealed:
                    shutil.rmtree(child)
        return self._checkpoint

    @property
    def checkpoint(self) -> dict:
        if self._checkpoint is None:
            raise CheckpointError("writer not started; call start() or resume()")
        return self._checkpoint

    @property
    def rounds_done(self) -> int:
        return int(self.checkpoint["rounds_done"])

    # -- sealing -----------------------------------------------------------------

    def seal_chunk(
        self,
        chunk: ChunkData,
        *,
        state: CollectorState,
        shard_states: Sequence[CollectorState] = (),
    ) -> Path:
        """Write one chunk directory, then commit the checkpoint.

        *state* (the merged view) and, when the campaign has more than
        one shard, *shard_states* are
        :meth:`~repro.vantage.collector.CampaignCollector.state`
        snapshots taken **after** the chunk's rounds were absorbed.  They
        are written durably as the chunk's ``state/`` before the commit
        and become the restore point if the process dies after this seal.
        """
        ckpt = self.checkpoint
        shards = int(ckpt["shards"])
        if shards > 1 and len(shard_states) != shards:
            raise CheckpointError(
                f"{shards}-shard checkpoint sealed with "
                f"{len(shard_states)} shard states"
            )
        if chunk.round_lo != ckpt["rounds_done"]:
            raise CheckpointError(
                f"chunk starts at round {chunk.round_lo}; checkpoint has "
                f"{ckpt['rounds_done']} rounds sealed"
            )
        name = f"{len(ckpt['chunks']):06d}"
        chunk_dir = self.path / "chunks" / name
        if chunk_dir.exists():  # unsealed debris from a crash at this boundary
            shutil.rmtree(chunk_dir)
        records = seal_transfers(list(chunk.transfers))
        write_dataset(
            chunk_dir,
            study=ckpt["study"],
            summary=chunk.summary(),
            addresses=ckpt["addresses"],
            sites=state.sites,
            hops=state.hops,
            identities=chunk.identities,
            tables={name: [getattr(chunk, name)] for name in BINARY_TABLES},
            transfers=transfer_lines(records),
            chunk={
                "index": len(ckpt["chunks"]),
                "round_lo": chunk.round_lo,
                "round_hi": chunk.round_hi,
            },
        )

        state_dir = write_state(chunk_dir / STATE_DIR, state, durable=True)
        if shards > 1:
            for index, shard_state in enumerate(shard_states):
                write_state(
                    state_dir / "shards" / f"{index:03d}", shard_state, durable=True
                )
            fsync_path(state_dir / "shards")
            fsync_path(state_dir)
        fsync_path(chunk_dir)
        fsync_path(chunk_dir.parent)

        entry = {
            "name": name,
            "round_lo": chunk.round_lo,
            "round_hi": chunk.round_hi,
            "rows": {
                "probes": int(len(chunk.probes["vp"])),
                "traceroutes": int(len(chunk.traceroutes["vp"])),
                "transfer_observations": len(records),
            },
        }
        ckpt["chunks"].append(entry)
        ckpt["rounds_done"] = chunk.round_hi
        totals = ckpt["totals"]
        totals["probes"] += entry["rows"]["probes"]
        totals["traceroutes"] += entry["rows"]["traceroutes"]
        totals["transfer_observations"] += entry["rows"]["transfer_observations"]
        self._write_checkpoint()
        return chunk_dir

    def cache_passive(self, name: str, aggregate) -> None:
        """Cache one finalize-phase passive capture, then record it done.

        The capture's two tables are written in the dataset's own column
        format under ``passive/<name>.tmp/`` and committed by an atomic
        directory rename to ``passive/<name>/`` before the checkpoint
        marks the capture done, so a crash at any point leaves either a
        complete cache or none (and resume recomputes just that one).
        """
        from repro.data.passive import PassiveStore

        root = self.path / "passive"
        staging, target = root / f"{name}.tmp", root / name
        for stale in (staging, target):
            if stale.exists():  # debris of a crash before note_passive_done
                shutil.rmtree(stale)
        staging.mkdir(parents=True)
        addresses = list(aggregate.addresses)
        tables, _captures, prefixes = PassiveStore.from_aggregates(
            {name: aggregate}
        ).to_tables({address: i for i, address in enumerate(addresses)})
        manifest = {
            "bucket_seconds": aggregate.bucket_seconds,
            "addresses": addresses,
            "prefixes": prefixes,
            "tables": {
                table_name: write_binary_table(
                    staging, table_name, table.schema, [table.columns()]
                )
                for table_name, table in tables.items()
            },
        }
        (staging / MANIFEST_NAME).write_text(json.dumps(manifest))
        os.rename(staging, target)
        self.note_passive_done(name)

    def cached_passive(self, name: str):
        """Reload a capture committed by :meth:`cache_passive` (zero-copy);
        :class:`CheckpointError` when it is missing or damaged."""
        from repro.data.passive import PassiveStore

        directory = self.path / "passive" / name
        try:
            manifest = json.loads((directory / MANIFEST_NAME).read_text())
            tables = {
                table_name: read_binary_table(
                    directory, PASSIVE_TABLES[table_name], entry
                )
                for table_name, entry in manifest["tables"].items()
            }
            store = PassiveStore.from_tables(
                tables,
                captures=[name],
                prefixes=manifest["prefixes"],
                addresses=manifest["addresses"],
                bucket_seconds={name: int(manifest["bucket_seconds"])},
            )
        except FileNotFoundError as exc:
            raise CheckpointError(
                f"checkpoint marks passive capture {name!r} done but its "
                f"cache at {directory} is missing"
            ) from exc
        except (DatasetError, KeyError, ValueError) as exc:
            raise CheckpointError(
                f"passive cache at {directory} is damaged: {exc}"
            ) from exc
        return store.aggregate(name)

    def note_passive_done(self, capture: str) -> None:
        """Record one finalize-phase passive capture as cached."""
        ckpt = self.checkpoint
        if capture not in ckpt["passive_done"]:
            ckpt["passive_done"].append(capture)
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        tmp = self.path / (CHECKPOINT_NAME + ".tmp")
        with open(tmp, "w") as handle:
            # Compact: the C encoder only serves the no-indent form, and
            # every reader goes through json.loads.
            handle.write(json.dumps(self._checkpoint, separators=(",", ":")))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path / CHECKPOINT_NAME)

    # -- finalize ----------------------------------------------------------------

    def finalize(
        self,
        out_dir: Union[str, Path],
        *,
        state_collector,
        passive_store=None,
    ) -> Path:
        """Stream the sealed chunks into a normal dataset directory.

        The probe and traceroute tables are the chunks' memory-mapped
        columns, written one chunk at a time (never materialised whole),
        ``transfers.jsonl`` is the chunks' lines in order, and the rest
        comes from the aggregate *state_collector*.
        """
        ckpt = self.checkpoint
        if ckpt["rounds_done"] != ckpt["n_rounds"]:
            raise CheckpointError(
                f"cannot finalize: {ckpt['rounds_done']} of "
                f"{ckpt['n_rounds']} rounds sealed"
            )
        chunk_dirs = [self.path / "chunks" / e["name"] for e in ckpt["chunks"]]

        def chunk_tables(name: str):
            for chunk_dir in chunk_dirs:
                try:
                    entry = DatasetReader(chunk_dir).manifest()["tables"][name]
                    table = read_binary_table(chunk_dir, BINARY_TABLES[name], entry)
                except (DatasetError, KeyError) as exc:
                    raise CheckpointError(
                        f"chunk {chunk_dir.name} is damaged: {exc}"
                    ) from exc
                yield table.columns()

        def chunk_transfers():
            for chunk_dir in chunk_dirs:
                with open(chunk_dir / "transfers.jsonl") as source:
                    yield from source

        stability = state_collector.stability_columns()
        return write_dataset(
            Path(out_dir),
            study=ckpt["study"],
            summary=_campaign_summary(
                state_collector, ckpt["totals"], len(stability["vp"])
            ),
            addresses=ckpt["addresses"],
            sites=state_collector.sites.values,
            hops=state_collector.hops.values,
            identities=state_collector.identities,
            tables={
                "probes": chunk_tables("probes"),
                "traceroutes": chunk_tables("traceroutes"),
                "stability": [stability],
            },
            transfers=chunk_transfers(),
            passive=passive_store,
        )


# --- reader -------------------------------------------------------------------------


class CheckpointReader:
    """Serves the sealed chunks of a streaming checkpoint directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.path = Path(directory)

    def checkpoint(self) -> dict:
        """The validated checkpoint dict (:class:`CheckpointError` on
        anything missing, torn, or inconsistent)."""
        ckpt_path = self.path / CHECKPOINT_NAME
        if not ckpt_path.exists():
            raise CheckpointError(
                f"no streaming checkpoint at {self.path} "
                f"(missing {CHECKPOINT_NAME})"
            )
        try:
            ckpt = json.loads(ckpt_path.read_text())
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"corrupt checkpoint at {ckpt_path}: {exc}"
            ) from exc
        if not isinstance(ckpt, dict):
            raise CheckpointError(f"corrupt checkpoint at {ckpt_path}: not an object")
        version = ckpt.get("checkpoint_version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint at {self.path} has version {version!r}; this "
                f"reader supports version {CHECKPOINT_VERSION}"
            )
        if ckpt.get("schema_version") != SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint at {self.path} carries dataset schema version "
                f"{ckpt.get('schema_version')!r}; this reader supports "
                f"version {SCHEMA_VERSION}"
            )
        for key in (
            "addresses",
            "shards",
            "n_rounds",
            "rounds_done",
            "totals",
            "chunks",
        ):
            if key not in ckpt:
                raise CheckpointError(
                    f"checkpoint at {self.path} lacks required key {key!r}"
                )
        expected_lo = 0
        totals = {"probes": 0, "traceroutes": 0, "transfer_observations": 0}
        for entry in ckpt["chunks"]:
            if entry.get("round_lo") != expected_lo:
                raise CheckpointError(
                    f"checkpoint at {self.path} has a round gap: chunk "
                    f"{entry.get('name')!r} starts at {entry.get('round_lo')}, "
                    f"expected {expected_lo}"
                )
            expected_lo = entry["round_hi"]
            for key in totals:
                totals[key] += int(entry.get("rows", {}).get(key, 0))
        if expected_lo != ckpt["rounds_done"]:
            raise CheckpointError(
                f"checkpoint at {self.path} is inconsistent: chunks cover "
                f"{expected_lo} rounds, rounds_done says {ckpt['rounds_done']}"
            )
        if totals != ckpt["totals"]:
            raise CheckpointError(
                f"checkpoint at {self.path} is inconsistent: chunk row "
                f"counts {totals} do not match recorded totals "
                f"{ckpt['totals']}"
            )
        return ckpt

    # -- chunk access ------------------------------------------------------------

    def chunk_entries(self) -> List[dict]:
        return list(self.checkpoint()["chunks"])

    def chunk_path(self, entry: dict) -> Path:
        return self.path / "chunks" / entry["name"]

    def chunk_dataset(self, entry: dict) -> Dataset:
        """Load one sealed chunk as a (delta) dataset, zero-copy."""
        chunk_dir = self.chunk_path(entry)
        if not chunk_dir.is_dir():
            raise CheckpointError(
                f"checkpoint promises chunk {entry['name']!r} but "
                f"{chunk_dir} is missing"
            )
        try:
            dataset = DatasetReader(chunk_dir).read()
        except CheckpointError:
            raise
        except DatasetError as exc:
            raise CheckpointError(
                f"chunk {entry['name']!r} at {chunk_dir} is damaged: {exc}"
            ) from exc
        rows = {
            "probes": len(dataset.table("probes")),
            "traceroutes": len(dataset.table("traceroutes")),
        }
        for name, count in rows.items():
            if count != entry["rows"][name]:
                raise CheckpointError(
                    f"chunk {entry['name']!r} holds {count} {name} rows; "
                    f"checkpoint promises {entry['rows'][name]}"
                )
        return dataset

    def chunk_datasets(self) -> List[Dataset]:
        """Every sealed chunk, in round order."""
        return [self.chunk_dataset(entry) for entry in self.chunk_entries()]

    # -- collector state ---------------------------------------------------------

    def _read_state(self, directory: Path) -> CollectorState:
        try:
            return read_state(directory)
        except DatasetError as exc:
            raise CheckpointError(
                f"collector state at {directory} is missing or damaged: {exc}"
            ) from exc

    def state(self, ckpt: Optional[dict] = None) -> CollectorState:
        """The merged collector state after the last sealed chunk (an
        empty collector's before the first)."""
        if ckpt is None:
            ckpt = self.checkpoint()
        if not ckpt["chunks"]:
            return CampaignCollector().state()
        return self._read_state(self.chunk_path(ckpt["chunks"][-1]) / STATE_DIR)

    def shard_states(self, ckpt: Optional[dict] = None) -> List[CollectorState]:
        """One collector state per shard after the last sealed chunk.

        A one-shard campaign stores no separate shard state: its shard
        *is* the merged view."""
        if ckpt is None:
            ckpt = self.checkpoint()
        shards = int(ckpt["shards"])
        if shards == 1 or not ckpt["chunks"]:
            return [self.state(ckpt) for _ in range(shards)]
        root = self.chunk_path(ckpt["chunks"][-1]) / STATE_DIR / "shards"
        return [self._read_state(root / f"{index:03d}") for index in range(shards)]

    # -- stitched view -----------------------------------------------------------

    def dataset(self) -> Dataset:
        """The sealed prefix of the campaign as one dataset.

        Single-chunk checkpoints pass the memory-mapped columns through
        untouched; stitching n > 1 chunks concatenates the mapped
        columns (touched tables materialise, untouched ones stay on
        disk).  Stability, identities, interners and the summary come
        from the last sealed chunk's aggregate state, so they reflect
        *all* sealed rounds.
        """
        from repro.rss.operators import all_service_addresses

        ckpt = self.checkpoint()
        state = CampaignCollector.from_state(self.state(ckpt))

        catalog = {sa.address: sa for sa in all_service_addresses()}
        try:
            addresses = [catalog[a] for a in ckpt["addresses"]]
        except KeyError as exc:
            raise CheckpointError(
                f"checkpoint names unknown service address {exc}"
            ) from exc

        from repro.data.columnar import stitch_columns

        chunk_sets = self.chunk_datasets()
        tables: Dict[str, Table] = {}
        for name in ("probes", "traceroutes"):
            schema = BINARY_TABLES[name]
            parts = [d.table(name) for d in chunk_sets]
            names = [spec.name for spec in schema.columns]
            dtypes = {spec.name: spec.disk_dtype for spec in schema.columns}
            if len(parts) == 1:
                tables[name] = parts[0]
            else:
                stitched = stitch_columns(
                    names,
                    [{n: p.column(n) for n in names} for p in parts],
                    empty_dtypes=dtypes,
                )
                tables[name] = Table(schema, stitched)

        stability = state.stability_columns()
        tables["stability"] = Table(BINARY_TABLES["stability"], stability)

        transfers: List[Any] = []
        for chunk in chunk_sets:
            transfers.extend(chunk._transfer_source or [])

        meta: Dict[str, Any] = {
            "checkpoint": {
                "rounds_done": ckpt["rounds_done"],
                "n_rounds": ckpt["n_rounds"],
                "chunks": len(chunk_sets),
            }
        }
        if ckpt.get("study") is not None:
            meta["study"] = ckpt["study"]
        return Dataset(
            addresses=addresses,
            sites=list(state.sites.values),
            hops=list(state.hops.values),
            identities=state.identities,
            tables=tables,
            transfers=transfers,
            summary=_campaign_summary(state, ckpt["totals"], len(stability["vp"])),
            meta=meta,
        )
