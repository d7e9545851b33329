"""Collector-state snapshots on disk, in the dataset's column format.

A :class:`~repro.vantage.collector.CollectorState` — interners with
their first-occurrence order keys, identity counts with theirs, the
stability columns and the counters — is written as ordinary binary
tables (:func:`~repro.data.io.write_binary_table`) plus a small JSON
manifest.  Streaming chunks carry one as ``state/`` (DESIGN.md §11) and
shard spills one as ``state/`` (§12)::

    <dir>/
      STATE.json                 # state version, counters, value counts,
                                 # table manifest entries
      tables/keys/<col>.bin      # (round, vp, addr) per site, hop and
                                 #   identity, in that order; round -1 is
                                 #   "no campaign position"
      tables/strings/end.bin     # UTF-8 end offsets of the site, hop,
                                 #   then (letter, identity) strings
      tables/text/byte.bin       # the concatenated UTF-8 text
      tables/identity_counts/count.bin
      tables/stability/<col>.bin # vp, addr, site, changes, rounds

Reads memory-map the columns and cross-check every row count against
the manifest; anything missing, truncated or inconsistent raises
:class:`~repro.data.schema.DatasetError`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.data.io import read_binary_table, write_binary_table
from repro.data.schema import ColumnSpec, DatasetError, TableSchema
from repro.vantage.collector import CollectorState

STATE_NAME = "STATE.json"

#: Version of the state layout; bump on every incompatible change.
STATE_VERSION = 1

STATE_TABLES: Dict[str, TableSchema] = {
    schema.name: schema
    for schema in (
        TableSchema(
            "keys",
            (
                ColumnSpec("round", "int64"),
                ColumnSpec("vp", "int32"),
                ColumnSpec("addr", "int16"),
            ),
        ),
        TableSchema("strings", (ColumnSpec("end", "int64"),)),
        TableSchema("text", (ColumnSpec("byte", "uint8"),)),
        TableSchema("identity_counts", (ColumnSpec("count", "int64"),)),
        TableSchema(
            "stability",
            (
                ColumnSpec("vp", "int32"),
                ColumnSpec("addr", "int16"),
                ColumnSpec("site", "int32", interner="sites"),
                ColumnSpec("changes", "int32"),
                ColumnSpec("rounds", "int32"),
            ),
        ),
    )
}


def fsync_path(path: Path) -> None:
    """fsync one file or directory."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_state(
    directory: Union[str, Path], state: CollectorState, *, durable: bool = False
) -> Path:
    """Write *state* under *directory*; returns the directory.

    With *durable* every file and directory written is fsynced before
    the call returns, so a commit that follows can reference it."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    strings = state.sites + state.hops + [
        text for pair in state.identities for text in pair
    ]
    encoded = [text.encode("utf-8") for text in strings]
    text = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    columns = {
        "keys": state.keys,
        "strings": {
            "end": np.cumsum([len(b) for b in encoded], dtype=np.int64)
        },
        "text": {"byte": text},
        "identity_counts": {"count": state.identity_counts},
        "stability": state.stability,
    }
    manifest = {
        "state_version": STATE_VERSION,
        "counters": {name: int(value) for name, value in state.counters.items()},
        "counts": {
            "sites": len(state.sites),
            "hops": len(state.hops),
            "identities": len(state.identities),
        },
        "tables": {
            name: write_binary_table(root, name, schema, [columns[name]])
            for name, schema in STATE_TABLES.items()
        },
    }
    with open(root / STATE_NAME, "w") as handle:
        handle.write(json.dumps(manifest))
        if durable:
            handle.flush()
            os.fsync(handle.fileno())
    if durable:
        for name, entry in manifest["tables"].items():
            for column in entry["columns"]:
                fsync_path(root / column["file"])
            fsync_path(root / "tables" / name)
        fsync_path(root / "tables")
        fsync_path(root)
    return root


def read_state(directory: Union[str, Path]) -> CollectorState:
    """Reload a state written by :func:`write_state`."""
    root = Path(directory)
    path = root / STATE_NAME
    if not path.exists():
        raise DatasetError(f"no collector state at {root} (missing {STATE_NAME})")
    try:
        manifest = json.loads(path.read_text())
        if manifest.get("state_version") != STATE_VERSION:
            raise DatasetError(
                f"collector state at {root} has version "
                f"{manifest.get('state_version')!r}; this reader supports "
                f"version {STATE_VERSION}"
            )
        tables = {
            name: read_binary_table(root, schema, manifest["tables"][name])
            for name, schema in STATE_TABLES.items()
        }
        counts = manifest["counts"]
        n_sites, n_hops = int(counts["sites"]), int(counts["hops"])
        n_identities = int(counts["identities"])
        ends = np.asarray(tables["strings"].column("end"))
        blob = np.asarray(tables["text"].column("byte")).tobytes()
        text_end = int(ends[-1]) if len(ends) else 0
        if (
            len(ends) != n_sites + n_hops + 2 * n_identities
            or text_end != len(blob)
            or np.any(np.diff(ends) < 0)
            or (len(ends) and ends[0] < 0)
        ):
            raise DatasetError(
                f"collector state at {root} has {len(ends)} strings over "
                f"{len(blob)} text bytes for {n_sites} sites, {n_hops} hops "
                f"and {n_identities} identities"
            )
        starts = [0] + ends[:-1].tolist()
        strings: List[str] = [
            blob[lo:hi].decode("utf-8") for lo, hi in zip(starts, ends.tolist())
        ]
        pairs = strings[n_sites + n_hops :]
        state = CollectorState(
            sites=strings[:n_sites],
            hops=strings[n_sites : n_sites + n_hops],
            identities=list(zip(pairs[0::2], pairs[1::2])),
            keys=_load(tables["keys"]),
            identity_counts=np.array(tables["identity_counts"].column("count")),
            stability=_load(tables["stability"]),
            counters={
                name: int(value) for name, value in manifest["counters"].items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"collector state at {root} is damaged: {exc}") from exc
    if len(state.keys["round"]) != n_sites + n_hops + n_identities or len(
        state.identity_counts
    ) != n_identities:
        raise DatasetError(
            f"collector state at {root} is damaged: key and count rows do "
            f"not match {n_sites} sites, {n_hops} hops and {n_identities} "
            f"identities"
        )
    return state


def _load(table) -> Dict[str, np.ndarray]:
    """A state table's columns as in-memory arrays (the restored
    collector updates its stability counters in place)."""
    return {name: np.array(table.column(name)) for name in table.schema.column_names()}
