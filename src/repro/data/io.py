"""Dataset persistence: the one directory writer and mmap-backed reader.

On-disk layout (DESIGN.md §9)::

    <dir>/
      MANIFEST.json            # schema version, study fingerprint, row
                               # counts, column specs, interner tables
      tables/<table>/<col>.bin # raw little-endian column data, one file
                               # per column, no header or padding
      identities.json          # letter -> identity -> count (ragged)
      transfers.jsonl          # one sealed TransferRecord per line

Only :func:`write_dataset` writes this layout: a batch ``--save``
(:class:`DatasetWriter`), every streaming chunk and the finalized
streamed dataset (:mod:`repro.data.chunks`) differ only in what they
pass it, never in how it lands on disk.

The column files are plain ``array.tofile`` dumps of the schema dtype
forced little-endian, which is what makes the reload zero-copy: the
reader memory-maps each file and hands the analyses the same
dtypes a live collector would.  Nothing is decompressed, parsed, or
copied until an analysis actually touches a page.

The manifest is the format's contract.  ``schema_version`` gates the
reader (:class:`~repro.data.schema.DatasetVersionError` on mismatch),
the per-column specs are cross-checked against the compiled-in schemas,
and the study fingerprint lets :meth:`Dataset.study_inputs` re-derive
seed-deterministic inputs without re-simulation.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.data.dataset import Dataset, Table
from repro.data.schema import (
    BINARY_TABLES,
    SCHEMA_VERSION,
    DatasetError,
    DatasetVersionError,
    TableSchema,
)
from repro.data.transfers import TransferRecord, record_to_row, row_to_record
from repro.rss.operators import all_service_addresses

MANIFEST_NAME = "MANIFEST.json"


def write_binary_table(
    root: Path,
    name: str,
    schema: TableSchema,
    parts: Iterable[Mapping[str, np.ndarray]],
) -> dict:
    """Write one binary table under *root*; returns its manifest entry.

    The table is the concatenation of *parts* (dicts of equal-length
    columns), appended one at a time, so a generator of mapped chunks is
    never held whole.  All of this package's column files go through it.
    """
    (root / "tables" / name).mkdir(parents=True, exist_ok=True)
    relpaths = [f"tables/{name}/{spec.name}.bin" for spec in schema.columns]
    rows = 0
    with ExitStack() as stack:
        sinks = [stack.enter_context(open(root / rel, "wb")) for rel in relpaths]
        for part in parts:
            for spec, sink in zip(schema.columns, sinks):
                array = np.ascontiguousarray(part[spec.name], dtype=spec.disk_dtype)
                array.tofile(sink)
            rows += len(array)
    columns = [
        {"name": spec.name, "dtype": spec.dtype, "interner": spec.interner, "file": rel}
        for spec, rel in zip(schema.columns, relpaths)
    ]
    return {"rows": rows, "columns": columns}


def read_binary_table(
    root: Union[str, Path], schema: TableSchema, entry: dict
) -> Table:
    """Memory-map one binary table written by :func:`write_binary_table`.

    *entry* is the manifest entry the writer returned (row count plus
    per-column file paths); columns come back as read-only ``np.memmap``
    views in the schema's disk dtypes — the zero-copy reload primitive
    shared by full datasets, streaming chunks and shard spills.
    """
    return DatasetReader(root)._read_table(schema, entry)


def transfer_lines(records: Iterable[TransferRecord]) -> Iterator[str]:
    """Sealed transfer records as ``transfers.jsonl`` lines."""
    return (json.dumps(record_to_row(record)) + "\n" for record in records)


def write_dataset(
    root: Path,
    *,
    study: Optional[dict],
    summary: Dict[str, int],
    addresses: Sequence[str],
    sites: Sequence[str],
    hops: Sequence[str],
    identities: Dict[str, Dict[str, int]],
    tables: Mapping[str, Iterable[Mapping[str, np.ndarray]]],
    transfers: Iterable[str],
    passive=None,
    chunk: Optional[dict] = None,
) -> Path:
    """Write one dataset directory (the layout above); returns *root*.

    *tables* gives each binary table as column parts, *transfers* the
    sealed ``transfers.jsonl`` lines; a *passive* store adds the passive
    tables and interners.  *chunk* marks a streaming chunk: it rides in
    the manifest, written compact (it lists every interned site and hop;
    only readers parse it).  Manifest key order is part of the format.
    """
    root.mkdir(parents=True, exist_ok=True)
    interners = {"sites": list(sites), "hops": list(hops)}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "study": study,
        "summary": summary,
        "addresses": list(addresses),
        "interners": interners,
        "tables": {
            name: write_binary_table(root, name, schema, tables[name])
            for name, schema in BINARY_TABLES.items()
        },
        "sidecars": {"identities": "identities.json", "transfers": "transfers.jsonl"},
    }
    if passive is not None:
        passive_tables, interners["captures"], interners["prefixes"] = (
            passive.to_tables({address: i for i, address in enumerate(addresses)})
        )
        for name, table in passive_tables.items():
            manifest["tables"][name] = write_binary_table(
                root, name, table.schema, [table.columns()]
            )
        manifest["passive"] = passive.manifest_entry()
    if chunk is not None:
        manifest["chunk"] = chunk

    (root / "identities.json").write_text(json.dumps(identities))
    with open(root / "transfers.jsonl", "w") as handle:
        handle.writelines(transfers)
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2)
        if chunk is None
        else json.dumps(manifest, separators=(",", ":"))
    )
    return root


class DatasetWriter:
    """Persists a :class:`Dataset` to a directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.path = Path(directory)

    def write(self, dataset: Dataset) -> Path:
        """Write *dataset*; returns the dataset directory path.

        Sealing the transfer table (content fingerprints, validation
        verdicts) happens here if it has not happened yet — the one
        place the export pays for cryptography, shared with any audit
        that already ran via the process-wide digest cache.
        """
        return write_dataset(
            self.path,
            study=dataset.study,
            summary=dataset.summary(),
            addresses=[sa.address for sa in dataset.addresses],
            sites=dataset.sites,
            hops=dataset.hops,
            identities=dataset.identities,
            tables={name: [dataset.table(name).columns()] for name in BINARY_TABLES},
            transfers=transfer_lines(
                dataset.transfers if dataset.has_table("transfers") else []
            ),
            passive=dataset.passive,
        )


class DatasetReader:
    """Reloads a dataset directory, memory-mapping every column."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.path = Path(directory)

    def manifest(self) -> dict:
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.exists():
            raise DatasetError(f"no dataset at {self.path} (missing {MANIFEST_NAME})")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise DatasetError(f"corrupt manifest at {manifest_path}: {exc}") from exc
        version = manifest.get("schema_version")
        if version != SCHEMA_VERSION:
            raise DatasetVersionError(
                f"dataset at {self.path} has schema version {version!r}; this "
                f"reader supports version {SCHEMA_VERSION}. Regenerate the "
                f"dataset (rootsim-study --save) or use a matching release."
            )
        return manifest

    def read(self) -> Dataset:
        manifest = self.manifest()

        catalog = {sa.address: sa for sa in all_service_addresses()}
        try:
            addresses = [catalog[a] for a in manifest["addresses"]]
        except KeyError as exc:
            raise DatasetError(f"manifest names unknown service address {exc}") from exc

        tables: Dict[str, Table] = {}
        for name, schema in BINARY_TABLES.items():
            entry = manifest.get("tables", {}).get(name)
            if entry is None:
                raise DatasetError(f"manifest at {self.path} lacks table {name!r}")
            tables[name] = self._read_table(schema, entry)

        passive_store = None
        passive_entry = manifest.get("passive")
        if passive_entry is not None:
            from repro.data.passive import PassiveStore
            from repro.data.schema import PASSIVE_TABLES

            for name, schema in PASSIVE_TABLES.items():
                entry = manifest.get("tables", {}).get(name)
                if entry is None:
                    raise DatasetError(
                        f"manifest at {self.path} declares passive captures "
                        f"but lacks table {name!r}"
                    )
                tables[name] = self._read_table(schema, entry)
            passive_store = PassiveStore.from_tables(
                tables,
                captures=manifest["interners"].get("captures", []),
                prefixes=manifest["interners"].get("prefixes", []),
                addresses=[sa.address for sa in addresses],
                bucket_seconds={
                    capture["name"]: int(capture["bucket_seconds"])
                    for capture in passive_entry.get("captures", [])
                },
            )

        identities = json.loads((self.path / "identities.json").read_text())

        address_map = {sa.address: sa for sa in addresses}
        transfers: List = []
        transfers_file = self.path / manifest.get("sidecars", {}).get(
            "transfers", "transfers.jsonl"
        )
        if transfers_file.exists():
            for line in transfers_file.read_text().splitlines():
                if line.strip():
                    transfers.append(row_to_record(json.loads(line), address_map))

        meta = {}
        if manifest.get("study") is not None:
            meta["study"] = manifest["study"]
        if manifest.get("chunk") is not None:
            # a streaming chunk (repro.data.chunks): its round range rides
            # along so a reader knows which rounds' delta it holds
            meta["chunk"] = manifest["chunk"]
        dataset = Dataset(
            addresses=addresses,
            sites=list(manifest["interners"]["sites"]),
            hops=list(manifest["interners"]["hops"]),
            identities=identities,
            tables=tables,
            transfers=transfers,
            summary=manifest["summary"],
            meta=meta,
        )
        if passive_store is not None:
            dataset.attach_passive(passive_store)
        return dataset

    def _read_table(self, schema: TableSchema, entry: dict) -> Table:
        rows = int(entry["rows"])
        manifest_cols = {col["name"]: col for col in entry["columns"]}
        columns: Dict[str, np.ndarray] = {}
        for spec in schema.columns:
            col = manifest_cols.get(spec.name)
            if col is None:
                raise DatasetError(
                    f"table {schema.name!r} manifest lacks column {spec.name!r}"
                )
            if col.get("dtype") != spec.dtype:
                raise DatasetError(
                    f"table {schema.name!r} column {spec.name!r} has dtype "
                    f"{col.get('dtype')!r} on disk; schema expects {spec.dtype!r}"
                )
            file_path = self.path / col["file"]
            if not file_path.exists():
                raise DatasetError(f"missing column file {file_path}")
            expected = rows * spec.disk_dtype.itemsize
            actual = file_path.stat().st_size
            if actual != expected:
                raise DatasetError(
                    f"column file {file_path} is {actual} bytes; manifest "
                    f"promises {rows} rows of {spec.dtype} ({expected} bytes)"
                )
            if rows == 0:
                # np.memmap refuses zero-length files; an empty column is
                # equivalent.
                columns[spec.name] = np.empty(0, dtype=spec.disk_dtype)
            else:
                columns[spec.name] = np.memmap(
                    file_path, dtype=spec.disk_dtype, mode="r", shape=(rows,)
                )
        return Table(schema, columns)


def save_dataset(dataset: Dataset, directory: Union[str, Path]) -> Path:
    """Write *dataset* to *directory* (convenience wrapper)."""
    return DatasetWriter(directory).write(dataset)


def load_dataset(directory: Union[str, Path]) -> Dataset:
    """Reload a dataset directory written by :func:`save_dataset`.

    A streaming checkpoint directory (``CHECKPOINT.json`` present, no
    finalized ``MANIFEST.json``) loads as the stitched partial dataset
    of its sealed chunks — mid-campaign results are servable with the
    same call.
    """
    directory = Path(directory)
    if (
        not (directory / MANIFEST_NAME).exists()
        and (directory / "CHECKPOINT.json").exists()
    ):
        from repro.data.chunks import CheckpointReader

        return CheckpointReader(directory).dataset()
    return DatasetReader(directory).read()
