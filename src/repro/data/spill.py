"""Per-shard spill datasets: the zero-copy multiprocess handoff format.

Shard workers used to hand their results back by pickling the whole
:class:`~repro.vantage.collector.CampaignCollector` through the process
pool — tens of megabytes of numpy buffers and zone object graphs
serialised, piped, and deserialised per shard.  A spill replaces that
with the mmap dataset substrate (DESIGN.md §12): the worker writes its
columnar row buffers as ordinary binary tables, its aggregate state in
the same column format (:mod:`repro.data.state`), and its transfer
observations as metadata rows plus a deduplicated zone pack; only the
spill *path* (plus a summary) crosses the pipe.  The parent memory-maps the tables back — zero copies,
zero row-level python — and merges.

Layout::

    <dir>/
      SPILL.json               # spill/schema versions, summary, table
                               # manifest entries
      tables/probes/<col>.bin  # write_binary_table output — byte-for-byte
      tables/traceroutes/...   # the dataset column-file format
      state/                   # the collector's aggregate state
                               # (repro.data.state.write_state)
      transfers.jsonl          # per-observation metadata (zone by index)
      zones.pkl                # distinct Zone objects, first-seen order

Row tables are spilled at the *disk* dtypes (float32 rtt/distances).
That round-trip is byte-invisible to every consumer: analyses read
float32 via ``probe_columns()`` regardless, and
float64→float32→float64→float32 equals float64→float32, so a merged
spill-reloaded campaign stays byte-identical to the serial run.

Transfers keep full fidelity — the zone pack carries each *distinct*
zone copy exactly once (the same dedup pickling a collector performed
implicitly, minus the 40 MB of row buffers around it), so reloaded
observations still power the Figure 10 bitflip diff and seal normally at
dataset-save time.  The reload unpickles the pack once and rebuilds the
observations as a plain list: every consumer (the merge's ordering,
dataset assembly, chunk sealing) reads them right away, so deferring the
unpickle would only move it a few lines.  No cryptography runs in
workers: sealing 200+ distinct zone contents costs ~45 s of RSA
verification at the bench config, which stays where it always was
(dataset save / chunk seal).
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
from pathlib import Path
from dataclasses import replace
from typing import Dict, List, Optional, Union

from repro.data.io import read_binary_table, write_binary_table
from repro.data.schema import BINARY_TABLES, SCHEMA_VERSION, DatasetError
from repro.data.state import read_state, write_state
from repro.data.transfers import TransferRecord, record_to_row, row_to_record
from repro.vantage.collector import CampaignCollector, TransferObservation

SPILL_NAME = "SPILL.json"

#: Version of the spill layout; bump on every incompatible change.
#: v2 moved the collector state from SPILL.json into ``state/``.
SPILL_VERSION = 2

#: Minimum free bytes before /dev/shm is trusted as the spill root.
_SHM_MIN_FREE = 2 << 30


def spill_tempdir(prefix: str) -> Path:
    """A scratch root for shard spills, named ``<prefix><pid>-*``.

    Prefers ``/dev/shm`` (tmpfs) when it exists, is writable, and has
    comfortable headroom: the handoff then never touches a disk — the
    worker's table write is a memcpy into shared memory and the parent's
    ``np.memmap`` reads the same pages back.  Falls back to the standard
    temp dir otherwise.  ``ROOTSIM_SPILL_DIR`` overrides both.

    The owner pid in the name lets a later run clean up after a killed
    one: sibling roots of the same prefix whose pid no longer exists are
    removed first (see :func:`_sweep_orphan_roots`).
    """
    override = os.environ.get("ROOTSIM_SPILL_DIR")
    parent: Optional[str] = None
    if override:
        parent = override
    else:
        shm = Path("/dev/shm")
        try:
            if shm.is_dir() and os.access(shm, os.W_OK):
                stats = os.statvfs(shm)
                if stats.f_bavail * stats.f_frsize >= _SHM_MIN_FREE:
                    parent = str(shm)
        except OSError:
            pass
    if parent is None:
        parent = tempfile.gettempdir()
    _sweep_orphan_roots(Path(parent), prefix)
    return Path(tempfile.mkdtemp(prefix=f"{prefix}{os.getpid()}-", dir=parent))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def _sweep_orphan_roots(parent: Path, prefix: str) -> None:
    """Remove ``<prefix><pid>-*`` directories under *parent* whose owner
    pid is gone — roots a SIGKILLed run could not delete itself.  Live
    pids and every other name are left alone."""
    try:
        children = list(parent.iterdir())
    except OSError:
        return
    for child in children:
        name = child.name
        if not name.startswith(prefix):
            continue
        pid_text, sep, _rest = name[len(prefix):].partition("-")
        if not sep or not pid_text.isdigit():
            continue
        pid = int(pid_text)
        if pid <= 0 or pid == os.getpid() or _pid_alive(pid):
            continue
        if child.is_dir() and not child.is_symlink():
            shutil.rmtree(child, ignore_errors=True)


def write_shard_spill(
    directory: Union[str, Path], collector: CampaignCollector
) -> Path:
    """Spill one shard collector's contents to *directory*.

    Row tables go down as standard binary tables, aggregates as the
    collector's :meth:`~repro.vantage.collector.CampaignCollector.state`
    under ``state/``, transfers as metadata rows referencing a
    deduplicated zone pack.
    The collector itself is untouched (the streaming path drains it
    afterwards; the batch path discards it with the worker process).
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)

    tables = {
        "probes": write_binary_table(
            root, "probes", BINARY_TABLES["probes"], [collector.probe_columns()]
        ),
        "traceroutes": write_binary_table(
            root,
            "traceroutes",
            BINARY_TABLES["traceroutes"],
            [collector.traceroute_columns()],
        ),
    }

    zones: List[object] = []
    zone_index: Dict[int, int] = {}

    def zone_ref(zone) -> int:
        key = id(zone)
        if key not in zone_index:
            zone_index[key] = len(zones)
            zones.append(zone)
        return zone_index[key]

    with open(root / "transfers.jsonl", "w") as handle:
        for obs in collector.transfers:
            if isinstance(obs, TransferRecord):
                row = {
                    "kind": "record",
                    "zone": None if obs.zone is None else zone_ref(obs.zone),
                    "row": record_to_row(obs),
                }
            else:
                row = {
                    "kind": "obs",
                    "vp_id": obs.vp_id,
                    "true_ts": obs.true_ts,
                    "observed_ts": obs.observed_ts,
                    "address": obs.address.address,
                    "serial": obs.serial,
                    "fault": obs.fault,
                    "fault_detail": obs.fault_detail,
                    "zone": zone_ref(obs.zone),
                }
            handle.write(json.dumps(row) + "\n")

    if zones:
        with open(root / "zones.pkl", "wb") as handle:
            pickle.dump(zones, handle, protocol=pickle.HIGHEST_PROTOCOL)

    write_state(root / "state", collector.state())
    meta = {
        "spill_version": SPILL_VERSION,
        "schema_version": SCHEMA_VERSION,
        "summary": collector.summary(),
        "tables": tables,
        "transfers": {"rows": len(collector.transfers), "zones": len(zones)},
    }
    (root / SPILL_NAME).write_text(json.dumps(meta))
    return root


def read_shard_spill(directory: Union[str, Path]) -> CampaignCollector:
    """Reload a shard spill as a merge-ready collector, zero-copy.

    Aggregate state restores through the state codec; row tables
    come back as read-only ``np.memmap`` views adopted via
    :meth:`~repro.vantage.collector.CampaignCollector.attach_rows`;
    transfer observations are rebuilt here, as a plain list, with their
    real zone objects from the pack (unpickled once).  A pack or row
    file that disagrees with the manifest's counts raises
    :class:`DatasetError` here, not at some later transfer access.  The
    result merges byte-identically to the in-process shard collector it
    was spilled from.
    """
    root = Path(directory)
    meta_path = root / SPILL_NAME
    if not meta_path.exists():
        raise DatasetError(f"no shard spill at {root} (missing {SPILL_NAME})")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"corrupt spill manifest at {meta_path}: {exc}") from exc
    if meta.get("spill_version") != SPILL_VERSION:
        raise DatasetError(
            f"shard spill at {root} has version {meta.get('spill_version')!r}; "
            f"this reader supports version {SPILL_VERSION}"
        )
    if meta.get("schema_version") != SCHEMA_VERSION:
        raise DatasetError(
            f"shard spill at {root} carries dataset schema version "
            f"{meta.get('schema_version')!r}; this reader supports "
            f"version {SCHEMA_VERSION}"
        )

    collector = CampaignCollector.from_state(read_state(root / "state"))

    probes = read_binary_table(root, BINARY_TABLES["probes"], meta["tables"]["probes"])
    traceroutes = read_binary_table(
        root, BINARY_TABLES["traceroutes"], meta["tables"]["traceroutes"]
    )

    rows = [
        json.loads(line)
        for line in (root / "transfers.jsonl").read_text().splitlines()
        if line.strip()
    ]
    if len(rows) != int(meta["transfers"]["rows"]):
        raise DatasetError(
            f"shard spill at {root} promises {meta['transfers']['rows']} "
            f"transfer rows; found {len(rows)}"
        )
    zones_path = root / "zones.pkl"
    try:
        zones: List[object] = (
            pickle.loads(zones_path.read_bytes()) if zones_path.exists() else []
        )
    except (pickle.UnpicklingError, EOFError) as exc:
        raise DatasetError(f"corrupt zone pack at {zones_path}: {exc}") from exc
    if len(zones) != int(meta["transfers"]["zones"]):
        raise DatasetError(
            f"shard spill at {root} promises {meta['transfers']['zones']} "
            f"zones; the pack holds {len(zones)}"
        )
    address_map = {sa.address: sa for sa in collector.addresses}
    transfers: List[object] = []
    for row in rows:
        if row.get("kind") == "record":
            record = row_to_record(row["row"], address_map)
            if row.get("zone") is not None:
                record = replace(record, zone=zones[int(row["zone"])])
            transfers.append(record)
        else:
            transfers.append(
                TransferObservation(
                    vp_id=int(row["vp_id"]),
                    true_ts=int(row["true_ts"]),
                    observed_ts=int(row["observed_ts"]),
                    address=address_map[row["address"]],
                    serial=int(row["serial"]),
                    zone=zones[int(row["zone"])],
                    fault=str(row["fault"]),
                    fault_detail=str(row["fault_detail"]),
                )
            )

    collector.attach_rows(
        {name: probes.column(name) for name in probes.schema.column_names()},
        {
            name: traceroutes.column(name)
            for name in traceroutes.schema.column_names()
        },
        transfers,
    )
    return collector


def spill_nbytes(directory: Union[str, Path]) -> int:
    """Total on-disk size of one spill (the new handoff volume)."""
    return sum(
        p.stat().st_size for p in Path(directory).rglob("*") if p.is_file()
    )
