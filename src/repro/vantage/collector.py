"""Streaming campaign data collection.

A paper-scale campaign produces ~158 M probe events; storing each as an
object would not fit in memory.  The collector therefore keeps:

* **stability counters** — per (VP, service address): consecutive-round
  site-change counts (all the Figure 3 analysis needs),
* **sampled probe rows** — columnar vp/ts/address/site/RTT/distance data
  (Figures 5, 6, 14, 15 are statistical, sampling is sufficient),
* **sampled traceroute rows** — second-to-last hop observations (RQ1),
* **observed identities** — per letter, the CHAOS identity strings seen
  (coverage, Tables 1/4),
* **transfer observations** — aggregate counts for clean AXFRs plus full
  zone references for the interesting ones (faulted, stale, skewed-clock
  VPs) that the ZONEMD audit (Table 2) validates.

Row storage is columnar from the start: preallocated, doubling numpy
buffers (:class:`_ColumnTable`) filled only in column blocks
(:meth:`CampaignCollector.add_probe_block`,
:meth:`CampaignCollector.add_traceroute_block`).  The epoch-compiled
campaign engine is the one runtime writer; it interns site and hop
strings up front with their first-occurrence keys and passes interned
codes.  There is no row-at-a-time ingest: the scalar test oracle
buffers its rows and writes them through the same block API.
``probe_columns()`` / ``traceroute_columns()`` are memoised per buffer
version instead of re-materialising the full arrays on every analysis.

The stability counters are columnar too (:class:`_StabilityTable`, one
row per (VP, address) pair in first-observation order): the epoch
engine updates a whole block of pairs with array operations, and
:meth:`CampaignCollector.state` snapshots every aggregate as columns
(:class:`CollectorState`) — the one codec the streaming checkpoint,
the shard spills and the worker-pool hand-off share.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rss.operators import ServiceAddress, all_service_addresses
from repro.zone.zone import Zone

#: Order key used when an ingest call carries no campaign position (direct
#: use in tests/tools); sorts after every real (round, vp, addr) key.
_NO_ORDER_KEY: Tuple[float, ...] = (float("inf"),)


class CollectorSealedError(RuntimeError):
    """An ingest call arrived after the collector's buffers were sealed.

    :meth:`repro.data.Dataset.from_collector` shares the collector's
    column buffers with the dataset (zero-copy).  An append after that
    point could silently reallocate or mutate arrays the dataset now
    owns, so it raises instead of losing data."""


@dataclass(frozen=True)
class TransferObservation:
    """One recorded AXFR with enough context to re-validate it."""

    vp_id: int
    true_ts: int
    observed_ts: int  # VP clock view (skew applies here)
    address: ServiceAddress
    serial: int
    zone: Zone
    fault: str = ""  # "", "bitflip", "stale"
    fault_detail: str = ""


class _Interner:
    """String -> small int interning for columnar storage.

    Alongside each value the interner remembers the *order key* of its
    first occurrence — the (round, vp, addr) position in the campaign
    scan.  Shard interners diverge (each shard sees sites in its own
    order); the first-occurrence keys are what lets :meth:`merge`
    rebuild the exact interner a serial run would have produced.
    """

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self.values: List[str] = []
        self.first_keys: List[Tuple] = []

    def intern(self, value: str, order_key: Optional[Tuple] = None) -> int:
        idx = self._index.get(value)
        if idx is None:
            idx = len(self.values)
            self._index[value] = idx
            self.values.append(value)
            self.first_keys.append(_NO_ORDER_KEY if order_key is None else order_key)
        return idx

    def __getitem__(self, idx: int) -> str:
        return self.values[idx]

    def __len__(self) -> int:
        return len(self.values)


class _ColumnTable:
    """Growable columnar row storage over preallocated numpy buffers.

    Buffers double on exhaustion; ``version`` increments on every
    ``extend`` so readers can memoise materialised views.
    """

    _INITIAL = 1024

    def __init__(self, spec: Sequence[Tuple[str, "np.dtype"]]) -> None:
        self._spec = list(spec)
        self._buffers: Dict[str, np.ndarray] = {
            name: np.empty(self._INITIAL, dtype=dtype) for name, dtype in self._spec
        }
        self._n = 0
        self.version = 0

    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        """Allocated rows per column (live rows occupy ``[0, len)``)."""
        return len(next(iter(self._buffers.values())))

    def _grow_to(self, needed: int) -> None:
        # Geometric doubling: total copy work over any extend sequence
        # is O(rows), and one extend pays at most one reallocation.
        capacity = self.capacity
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in self._buffers:
            buf = np.empty(capacity, dtype=self._buffers[name].dtype)
            buf[: self._n] = self._buffers[name][: self._n]
            self._buffers[name] = buf

    def extend(self, **arrays) -> None:
        """Batch-append equal-length column arrays."""
        if not arrays:
            return
        lengths = {len(a) for a in arrays.values()}
        if len(lengths) != 1:
            raise ValueError(f"ragged column block: lengths {sorted(lengths)}")
        count = lengths.pop()
        if count == 0:
            return
        if set(arrays) != {name for name, _ in self._spec}:
            raise ValueError(
                f"column block mismatch: got {sorted(arrays)}, "
                f"want {sorted(n for n, _ in self._spec)}"
            )
        self._grow_to(self._n + count)
        for name, values in arrays.items():
            self._buffers[name][self._n : self._n + count] = values
        self._n += count
        self.version += 1

    def column(self, name: str) -> np.ndarray:
        """Snapshot view of one column (length-stable; do not mutate)."""
        return self._buffers[name][: self._n]


class _FrozenColumnTable:
    """Read-only columnar rows over externally-owned (mmap-backed) arrays.

    A shard spill reload (:mod:`repro.data.spill`) adopts the on-disk
    column files zero-copy instead of re-appending rows into fresh
    buffers.  Columns may carry the *disk* dtypes (float32 for the RTT
    and distance columns) rather than the in-memory float64 — every read
    surface is unaffected: ``probe_columns`` downcasts to float32 anyway
    and :meth:`CampaignCollector.merge` upcasts on append, and
    float64→float32→float64→float32 equals float64→float32, so the
    round-trip is byte-invisible.  ``extend`` raises: a spill-backed
    collector is a merge *input*, never an ingest target.
    """

    def __init__(
        self,
        spec: Sequence[Tuple[str, "np.dtype"]],
        columns: Dict[str, np.ndarray],
    ) -> None:
        self._spec = list(spec)
        names = {name for name, _ in self._spec}
        if set(columns) != names:
            raise ValueError(
                f"column set mismatch: got {sorted(columns)}, "
                f"want {sorted(names)}"
            )
        lengths = {len(array) for array in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self._columns = dict(columns)
        self._n = lengths.pop() if lengths else 0
        self.version = 0

    def __len__(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def extend(self, **arrays) -> None:
        raise CollectorSealedError(
            "spill-backed row tables are read-only merge inputs"
        )


#: Probe table schema (storage dtypes; ``probe_columns`` downcasts the
#: float columns to float32 exactly like the historical list storage).
_PROBE_SPEC = (
    ("vp", np.dtype(np.int32)),
    ("ts", np.dtype(np.int64)),
    ("addr", np.dtype(np.int16)),
    ("site", np.dtype(np.int32)),
    ("rtt", np.dtype(np.float64)),
    ("direct_km", np.dtype(np.float64)),
    ("closest_km", np.dtype(np.float64)),
    ("peer", np.dtype(bool)),
    ("transit", np.dtype(np.int32)),
)

_TRACEROUTE_SPEC = (
    ("vp", np.dtype(np.int32)),
    ("ts", np.dtype(np.int64)),
    ("addr", np.dtype(np.int16)),
    ("hop", np.dtype(np.int32)),
)

#: Stability counters: one row per (vp, addr) pair — the last observed
#: site (interned), the consecutive-round site changes and the rounds
#: observed.
_STABILITY_SPEC = (
    ("vp", np.dtype(np.int32)),
    ("addr", np.dtype(np.int16)),
    ("site", np.dtype(np.int32)),
    ("changes", np.dtype(np.int32)),
    ("rounds", np.dtype(np.int32)),
)


class _StabilityTable(_ColumnTable):
    """Per-(vp, addr) stability counters as pair-ordered columns.

    Rows are appended the first time a pair is observed and updated in
    place afterwards, so row order is first-observation order and a
    snapshot's rows are always a prefix of any later snapshot's.  The
    epoch engine updates all of its pairs at once (:meth:`align`, then
    array arithmetic on the column views).
    """

    def __init__(self) -> None:
        super().__init__(_STABILITY_SPEC)

    def align(self, vp: np.ndarray, addr: np.ndarray) -> None:
        """Make the rows exactly the given pairs, in order: an empty
        table takes them with zero counters, a filled one must already
        hold them (a plan's pairs are all observed in its first range)."""
        if not len(self):
            zeros = np.zeros(len(vp), dtype=np.int32)
            self.extend(vp=vp, addr=addr, site=zeros, changes=zeros, rounds=zeros)
        elif not (
            np.array_equal(self.column("vp"), vp)
            and np.array_equal(self.column("addr"), addr)
        ):
            raise ValueError(
                "stability rows do not match the plan's (vp, addr) pairs"
            )


#: Counter fields carried by a :class:`CollectorState`.
_STATE_COUNTERS = (
    "rounds_processed",
    "queries_simulated",
    "transfer_total",
    "transfer_clean",
)


@dataclass(eq=False)
class CollectorState:
    """A collector's aggregate state as columns.

    Everything except the row tables and transfer observations: the
    site and hop interners with their first-occurrence order keys, the
    identity counts with theirs, the stability columns and the counters.
    ``keys`` holds one (round, vp, addr) row per interned value — sites,
    then hops, then identities — with round -1 standing for
    ``_NO_ORDER_KEY``.  :mod:`repro.data.state` writes this as binary
    column files (checkpoint chunks, shard spills); the worker pool
    ships it pickled, which for numpy columns is the same bytes.
    """

    sites: List[str]
    hops: List[str]
    identities: List[Tuple[str, str]]
    keys: Dict[str, np.ndarray]
    identity_counts: np.ndarray
    stability: Dict[str, np.ndarray]
    counters: Dict[str, int]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CollectorState):
            return NotImplemented
        return (
            self.sites == other.sites
            and self.hops == other.hops
            and self.identities == other.identities
            and self.counters == other.counters
            and np.array_equal(self.identity_counts, other.identity_counts)
            and all(
                np.array_equal(ours[name], theirs[name])
                for ours, theirs in (
                    (self.keys, other.keys),
                    (self.stability, other.stability),
                )
                for name in ours
            )
        )


def _encode_keys(keys: Sequence[Tuple]) -> np.ndarray:
    """(round, vp, addr) order keys as an (n, 3) int64 array."""
    rows = []
    for key in keys:
        if key == _NO_ORDER_KEY:
            rows.append((-1, 0, 0))
        elif len(key) != 3 or key[0] < 0:
            raise ValueError(f"order key {key!r} is not a (round, vp, addr) position")
        else:
            rows.append(key)
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def _decode_keys(round_: np.ndarray, vp: np.ndarray, addr: np.ndarray) -> List[Tuple]:
    return [
        _NO_ORDER_KEY if r < 0 else (r, v, a)
        for r, v, a in zip(round_.tolist(), vp.tolist(), addr.tolist())
    ]


def _restore_interner(interner: _Interner, values: List[str], keys: List[Tuple]) -> None:
    interner.values = list(values)
    interner.first_keys = list(keys)
    interner._index = {value: i for i, value in enumerate(interner.values)}
    if len(interner._index) != len(interner.values):
        raise ValueError("collector state repeats an interned value")


class CampaignCollector:
    """Accumulates a campaign's measurement output."""

    def __init__(self) -> None:
        self.addresses: List[ServiceAddress] = all_service_addresses()
        self.addr_index: Dict[str, int] = {
            sa.address: i for i, sa in enumerate(self.addresses)
        }
        self.sites = _Interner()
        self.hops = _Interner()

        # stability: one row per (vp_id, addr_idx) — last site, changes, rounds
        self._stability = _StabilityTable()

        # sampled probe / traceroute rows (columnar; hop -1 = no reply)
        self._probes = _ColumnTable(_PROBE_SPEC)
        self._traceroutes = _ColumnTable(_TRACEROUTE_SPEC)
        self._probe_cols_cache: Optional[Dict[str, np.ndarray]] = None
        self._probe_cols_version = -1
        self._trace_cols_cache: Optional[Dict[str, np.ndarray]] = None
        self._trace_cols_version = -1

        # coverage: letter -> identity -> observation count, plus the
        # first-occurrence order key per (letter, identity) for merging
        self.identities: Dict[str, Dict[str, int]] = {}
        self._identity_order: Dict[Tuple[str, str], Tuple] = {}

        # transfers
        self.transfer_total = 0
        self.transfer_clean = 0
        self.transfers: List[TransferObservation] = []

        self.rounds_processed = 0
        self.queries_simulated = 0
        self._sealed = False

    # -- ingest -------------------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> None:
        """Freeze the collector: further ingest calls raise.

        Called when a :class:`repro.data.Dataset` takes (zero-copy)
        ownership of the column buffers; idempotent."""
        self._sealed = True

    def assert_unsealed(self) -> None:
        """Raise :class:`CollectorSealedError` if the collector is sealed.

        Writers check this before their first write, so a refused call
        leaves every aggregate as it was."""
        if self._sealed:
            raise CollectorSealedError(
                "collector is sealed: its buffers back a Dataset; "
                "appending now would corrupt or silently drop data"
            )

    def add_probe_block(
        self,
        vp: np.ndarray,
        ts: np.ndarray,
        addr: np.ndarray,
        site: np.ndarray,
        rtt: np.ndarray,
        direct_km: np.ndarray,
        closest_km: np.ndarray,
        peer: np.ndarray,
        transit: np.ndarray,
    ) -> None:
        """Batch-append probe rows.

        ``site`` carries *already interned* site indices — block callers
        (the epoch engine, vectorised merges) intern up front with
        explicit first-occurrence keys.
        """
        self.assert_unsealed()
        self._probes.extend(
            vp=vp,
            ts=ts,
            addr=addr,
            site=site,
            rtt=rtt,
            direct_km=direct_km,
            closest_km=closest_km,
            peer=peer,
            transit=transit,
        )

    def add_traceroute_block(
        self, vp: np.ndarray, ts: np.ndarray, addr: np.ndarray, hop: np.ndarray
    ) -> None:
        """Batch-append traceroute rows (``hop`` pre-interned, -1 = no
        reply)."""
        self.assert_unsealed()
        self._traceroutes.extend(vp=vp, ts=ts, addr=addr, hop=hop)

    # -- read-side ------------------------------------------------------------------

    def change_counts(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """(vp_id, addr_idx) -> (changes, rounds observed)."""
        table = self._stability
        return dict(
            zip(
                zip(table.column("vp").tolist(), table.column("addr").tolist()),
                zip(
                    table.column("changes").tolist(),
                    table.column("rounds").tolist(),
                ),
            )
        )

    def stability_columns(self) -> Dict[str, np.ndarray]:
        """The ``stability`` table's columns (vp, addr, changes, rounds),
        one row per pair in first-observation order — copies, so later
        ingest cannot move them."""
        return {
            name: self._stability.column(name).copy()
            for name in ("vp", "addr", "changes", "rounds")
        }

    def probe_columns(self) -> Dict[str, np.ndarray]:
        """The sampled probe table as numpy columns.

        Memoised per buffer version: repeated analysis calls share one
        materialisation until the next append invalidates it.
        """
        if (
            self._probe_cols_cache is None
            or self._probe_cols_version != self._probes.version
        ):
            self._probe_cols_cache = {
                "vp": self._probes.column("vp"),
                "ts": self._probes.column("ts"),
                "addr": self._probes.column("addr"),
                "site": self._probes.column("site"),
                "rtt": self._probes.column("rtt").astype(np.float32),
                "direct_km": self._probes.column("direct_km").astype(np.float32),
                "closest_km": self._probes.column("closest_km").astype(np.float32),
                "peer": self._probes.column("peer"),
                "transit": self._probes.column("transit"),
            }
            self._probe_cols_version = self._probes.version
        return self._probe_cols_cache

    def traceroute_columns(self) -> Dict[str, np.ndarray]:
        """The sampled traceroute table as numpy columns (memoised)."""
        if (
            self._trace_cols_cache is None
            or self._trace_cols_version != self._traceroutes.version
        ):
            self._trace_cols_cache = {
                "vp": self._traceroutes.column("vp"),
                "ts": self._traceroutes.column("ts"),
                "addr": self._traceroutes.column("addr"),
                "hop": self._traceroutes.column("hop"),
            }
            self._trace_cols_version = self._traceroutes.version
        return self._trace_cols_cache

    def summary(self) -> Dict[str, int]:
        """Dataset-size fingerprint (the paper's §4.1 counts analogue)."""
        return {
            "rounds": self.rounds_processed,
            "queries": self.queries_simulated,
            "probe_samples": len(self._probes),
            "traceroute_samples": len(self._traceroutes),
            "transfers": self.transfer_total,
            "transfer_observations": len(self.transfers),
            "stability_pairs": len(self._stability),
        }

    # -- aggregate state codec --------------------------------------------------------

    def state(self) -> CollectorState:
        """Columnar snapshot of the collector's aggregate state.

        Covers everything *except* the row tables and transfer
        observations — those live in sealed chunks or spills on disk.
        A streamed campaign stores one per sealed chunk so a resumed run
        can rebuild the collector exactly (:meth:`from_state`).
        """
        identities = [
            (letter, identity)
            for letter, bucket in self.identities.items()
            for identity in bucket
        ]
        keys = _encode_keys(
            self.sites.first_keys
            + self.hops.first_keys
            + [self._identity_order.get(pair, _NO_ORDER_KEY) for pair in identities]
        )
        return CollectorState(
            sites=list(self.sites.values),
            hops=list(self.hops.values),
            identities=identities,
            keys={
                "round": np.ascontiguousarray(keys[:, 0]),
                "vp": keys[:, 1].astype(np.int32),
                "addr": keys[:, 2].astype(np.int16),
            },
            identity_counts=np.array(
                [self.identities[letter][identity] for letter, identity in identities],
                dtype=np.int64,
            ),
            stability={
                name: self._stability.column(name).copy()
                for name, _dtype in _STABILITY_SPEC
            },
            counters={name: int(getattr(self, name)) for name in _STATE_COUNTERS},
        )

    @classmethod
    def from_state(cls, state: CollectorState) -> "CampaignCollector":
        """A collector holding *state*'s aggregates and empty row tables."""
        n_sites, n_hops = len(state.sites), len(state.hops)
        keys = _decode_keys(state.keys["round"], state.keys["vp"], state.keys["addr"])
        collector = cls()
        _restore_interner(collector.sites, state.sites, keys[:n_sites])
        _restore_interner(
            collector.hops, state.hops, keys[n_sites : n_sites + n_hops]
        )
        for (letter, identity), count, key in zip(
            state.identities,
            state.identity_counts.tolist(),
            keys[n_sites + n_hops :],
        ):
            collector.identities.setdefault(letter, {})[identity] = count
            collector._identity_order[(letter, identity)] = key
        collector._stability.extend(**state.stability)
        for name in _STATE_COUNTERS:
            setattr(collector, name, int(state.counters[name]))
        return collector

    def attach_rows(
        self,
        probes: Dict[str, np.ndarray],
        traceroutes: Dict[str, np.ndarray],
        transfers: Sequence[TransferObservation],
    ) -> None:
        """Adopt externally-owned row columns zero-copy (spill reload).

        The inverse of :meth:`drain_rows` for a collector whose aggregate
        state came back through :meth:`from_state`: row tables
        become read-only views over the given arrays (typically
        ``np.memmap`` columns of a shard spill) without copying a byte.
        The result is a full-fidelity merge input for :meth:`merge`.
        """
        self.assert_unsealed()
        if len(self._probes) or len(self._traceroutes) or self.transfers:
            raise ValueError("attach_rows requires empty row tables")
        self._probes = _FrozenColumnTable(_PROBE_SPEC, probes)
        self._traceroutes = _FrozenColumnTable(_TRACEROUTE_SPEC, traceroutes)
        self.transfers = list(transfers)
        self._probe_cols_cache = None
        self._probe_cols_version = -1
        self._trace_cols_cache = None
        self._trace_cols_version = -1

    def drain_rows(
        self,
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], List[TransferObservation]]:
        """Detach the row tables and transfer list, leaving them empty.

        The streaming campaign calls this after sealing each chunk: the
        returned columns/observations are the chunk's rows (everything
        appended since the previous drain), and the collector keeps only
        its aggregate state — which is what bounds streamed memory by
        chunk size instead of campaign size.  Aggregates (interners,
        stability, identities, totals) are untouched.
        """
        self.assert_unsealed()
        probes = {name: self._probes.column(name) for name, _ in _PROBE_SPEC}
        traceroutes = {
            name: self._traceroutes.column(name) for name, _ in _TRACEROUTE_SPEC
        }
        transfers = self.transfers
        self._probes = _ColumnTable(_PROBE_SPEC)
        self._traceroutes = _ColumnTable(_TRACEROUTE_SPEC)
        self.transfers = []
        self._probe_cols_cache = None
        self._probe_cols_version = -1
        self._trace_cols_cache = None
        self._trace_cols_version = -1
        return probes, traceroutes, transfers

    # -- shard merging ----------------------------------------------------------------

    @classmethod
    def merge(cls, shards: Sequence["CampaignCollector"]) -> "CampaignCollector":
        """Recombine per-shard collectors into the serial-run collector.

        The campaign is shardable by VP: every shard probes a disjoint VP
        subset over the *full* schedule.  Given those shard collectors,
        this rebuilds — deterministically and independent of shard count
        or ordering — the exact collector a serial run over the union of
        VPs produces:

        * interners are rebuilt in global first-occurrence order (the
          minimum (round, vp, addr) key across shards per value), and
          every stored index is remapped,
        * columnar probe/traceroute tables are recombined with a stable
          lexicographic sort on (ts, vp) — a (ts, vp) pair belongs to
          exactly one shard and rows within a shard are already in
          campaign-scan order, so the sort *is* the k-way merge — and
          transfer observations are k-way merged the same way,
        * stability counters and identity counts are disjoint unions /
          sums, re-inserted in serial first-occurrence order.
        """
        if not shards:
            return cls()
        rounds = {s.rounds_processed for s in shards}
        if len(rounds) != 1:
            raise ValueError(
                f"shards processed different round counts: {sorted(rounds)}"
            )
        addresses = [sa.address for sa in shards[0].addresses]
        for shard in shards[1:]:
            if [sa.address for sa in shard.addresses] != addresses:
                raise ValueError("shards disagree on the service address set")

        merged = cls()
        merged.rounds_processed = rounds.pop()
        merged.queries_simulated = sum(s.queries_simulated for s in shards)
        merged.transfer_total = sum(s.transfer_total for s in shards)
        merged.transfer_clean = sum(s.transfer_clean for s in shards)

        site_maps = _merge_interners(merged.sites, [s.sites for s in shards])
        hop_maps = _merge_interners(merged.hops, [s.hops for s in shards])

        # Stability: VP partitioning makes the pair sets disjoint; every
        # pair is created in round 0, so serial row order is (vp, addr)
        # ascending.
        from repro.data.columnar import remap_lookup, stitch_columns

        parts = []
        for shard_no, shard in enumerate(shards):
            part = {name: shard._stability.column(name) for name, _ in _STABILITY_SPEC}
            if len(part["site"]):
                part["site"] = remap_lookup(site_maps[shard_no])[part["site"]]
            parts.append(part)
        stability = stitch_columns(
            [name for name, _ in _STABILITY_SPEC],
            parts,
            empty_dtypes=dict(_STABILITY_SPEC),
        )
        order = np.lexsort((stability["addr"], stability["vp"]))
        stability = {name: column[order] for name, column in stability.items()}
        vp, addr = stability["vp"], stability["addr"]
        overlap = np.nonzero((vp[1:] == vp[:-1]) & (addr[1:] == addr[:-1]))[0]
        if len(overlap):
            pair = (int(vp[overlap[0]]), int(addr[overlap[0]]))
            raise ValueError(f"shards overlap on (vp, addr) pair {pair}")
        merged._stability.extend(**stability)

        # Probe/traceroute rows: remap each shard's interned codes, then
        # recombine columnar-ly — concatenation plus a stable (ts, vp)
        # sort reproduces the serial row order (see docstring).  The
        # recombination primitive is shared with the streaming chunk
        # stitcher (repro.data.columnar).
        from repro.data.columnar import merge_shard_columns

        probe_parts: List[Dict[str, np.ndarray]] = []
        for shard_no, shard in enumerate(shards):
            part = {
                name: shard._probes.column(name) for name, _ in _PROBE_SPEC
            }
            if len(part["site"]):
                part["site"] = remap_lookup(site_maps[shard_no])[part["site"]]
            probe_parts.append(part)
        probe_all = merge_shard_columns(
            [name for name, _ in _PROBE_SPEC], probe_parts
        )
        if len(probe_all["ts"]):
            merged._probes.extend(**probe_all)

        trace_parts: List[Dict[str, np.ndarray]] = []
        for shard_no, shard in enumerate(shards):
            part = {
                name: shard._traceroutes.column(name)
                for name, _ in _TRACEROUTE_SPEC
            }
            hop = part["hop"]
            if len(hop):
                lookup = remap_lookup(hop_maps[shard_no])
                part["hop"] = np.where(hop < 0, -1, lookup[np.maximum(hop, 0)])
            trace_parts.append(part)
        trace_all = merge_shard_columns(
            [name for name, _ in _TRACEROUTE_SPEC], trace_parts
        )
        if len(trace_all["ts"]):
            merged._traceroutes.extend(**trace_all)

        # Identities: counts sum; dict creation order follows the global
        # first (round, vp, addr) occurrence per (letter, identity).
        first_seen: Dict[Tuple[str, str], Tuple] = {}
        counts: Dict[Tuple[str, str], int] = {}
        for shard in shards:
            for letter, bucket in shard.identities.items():
                for identity, count in bucket.items():
                    key = (letter, identity)
                    order = shard._identity_order.get(key, _NO_ORDER_KEY)
                    if key not in first_seen or order < first_seen[key]:
                        first_seen[key] = order
                    counts[key] = counts.get(key, 0) + count
        for letter, identity in sorted(first_seen, key=lambda k: (first_seen[k], k)):
            merged.identities.setdefault(letter, {})[identity] = counts[
                (letter, identity)
            ]
            merged._identity_order[(letter, identity)] = first_seen[(letter, identity)]

        order = heapq.merge(
            *(
                [
                    (obs.true_ts, obs.vp_id, shard_no, i)
                    for i, obs in enumerate(shard.transfers)
                ]
                for shard_no, shard in enumerate(shards)
            )
        )
        merged.transfers = [
            shards[shard_no].transfers[i] for _ts, _vp, shard_no, i in order
        ]

        return merged


def _merge_interners(
    target: _Interner, shard_interners: Sequence[_Interner]
) -> List[Dict[int, int]]:
    """Populate *target* in global first-occurrence order; return, per
    shard, the old-index -> merged-index remapping table."""
    best: Dict[str, Tuple] = {}
    for interner in shard_interners:
        for idx, value in enumerate(interner.values):
            key = interner.first_keys[idx]
            if value not in best or key < best[value]:
                best[value] = key
    for value in sorted(best, key=lambda v: (best[v], v)):
        target.intern(value, best[value])
    return [
        {idx: target._index[value] for idx, value in enumerate(interner.values)}
        for interner in shard_interners
    ]
