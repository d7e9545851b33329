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
buffers (:class:`_ColumnTable`) with batch-append APIs
(:meth:`CampaignCollector.add_probe_block`,
:meth:`CampaignCollector.add_traceroute_block`) fed by the
epoch-compiled campaign engine, while the single-row
``add_probe_sample`` / ``add_traceroute`` calls remain as thin wrappers
over the same buffers (the scalar test oracle records through them).
``probe_columns()`` / ``traceroute_columns()`` are memoised per buffer
version instead of re-materialising the full arrays on every analysis.
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

    Buffers double on exhaustion; ``version`` increments on every write
    so readers can memoise materialised views.  Scalar ``append`` and
    batch ``extend`` produce identical contents — appends write the same
    dtypes the batch path stores.
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
        # Geometric doubling: total copy work over any append sequence
        # is O(rows), and a batch extend pays at most one reallocation.
        capacity = self.capacity
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in self._buffers:
            buf = np.empty(capacity, dtype=self._buffers[name].dtype)
            buf[: self._n] = self._buffers[name][: self._n]
            self._buffers[name] = buf

    def reserve(self, rows: int) -> None:
        """Pre-size for *rows* total rows (no-op when already allocated).

        Callers that know a chunk's row count up front (the epoch
        engine's block appends, spill reloads) skip the doubling ramp's
        intermediate copies."""
        self._grow_to(rows)

    def append(self, *values) -> None:
        """Append one row (values in column-spec order)."""
        self._grow_to(self._n + 1)
        for (name, _dtype), value in zip(self._spec, values):
            self._buffers[name][self._n] = value
        self._n += 1
        self.version += 1

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
    round-trip is byte-invisible.  Appends raise: a spill-backed
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

    def append(self, *values) -> None:
        raise CollectorSealedError(
            "spill-backed row tables are read-only merge inputs"
        )

    def extend(self, **arrays) -> None:
        raise CollectorSealedError(
            "spill-backed row tables are read-only merge inputs"
        )


class _MergedTransfers(Sequence):
    """K-way-merged transfer observations, materialized on first access.

    When :meth:`CampaignCollector.merge` combines spill-reloaded shards,
    their transfer sequences defer zone-pack unpickling until someone
    looks (``repro.data.spill.SpillTransfers``).  The merge must not be
    that someone: it stores only the interleaving — ``(shard, index)``
    in serial campaign order — and resolves real observation objects on
    the first element access, so a campaign whose consumers never read
    transfer content (the statistical analyses) never rehydrates zones.
    """

    def __init__(
        self, sources: List[Sequence], order: List[Tuple[int, int]]
    ) -> None:
        self._sources: Optional[List[Sequence]] = sources
        self._order: Optional[List[Tuple[int, int]]] = order
        self._items: Optional[List] = None

    def _materialize(self) -> List:
        if self._items is None:
            sources, order = self._sources, self._order
            self._items = [sources[shard][i] for shard, i in order]
            self._sources = self._order = None
        return self._items

    def __len__(self) -> int:
        if self._items is not None:
            return len(self._items)
        return len(self._order)

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self):
        return iter(self._materialize())


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


class CampaignCollector:
    """Accumulates a campaign's measurement output."""

    def __init__(self) -> None:
        self.addresses: List[ServiceAddress] = all_service_addresses()
        self.addr_index: Dict[str, int] = {
            sa.address: i for i, sa in enumerate(self.addresses)
        }
        self.sites = _Interner()
        self.hops = _Interner()

        # stability: (vp_id, addr_idx) -> [last_site_idx, changes, rounds]
        self._stability: Dict[Tuple[int, int], List[int]] = {}

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

    def _assert_unsealed(self) -> None:
        if self._sealed:
            raise CollectorSealedError(
                "collector is sealed: its buffers back a Dataset; "
                "appending now would corrupt or silently drop data"
            )

    def _order_key(self, vp_id: int, addr_idx: int) -> Tuple[int, int, int]:
        """Position of the current ingest call in the campaign scan.

        The prober increments :attr:`rounds_processed` after each round,
        so during round *r* it equals *r*; (round, vp, addr) is then the
        lexicographic position of the call in a serial rounds-outer,
        VPs-inner, addresses-innermost campaign scan.
        """
        return (self.rounds_processed, vp_id, addr_idx)

    def note_site(self, vp_id: int, addr_idx: int, site_key: str) -> None:
        """Per-round catchment observation; drives Figure 3."""
        self._assert_unsealed()
        site_idx = self.sites.intern(site_key, self._order_key(vp_id, addr_idx))
        state = self._stability.get((vp_id, addr_idx))
        if state is None:
            self._stability[(vp_id, addr_idx)] = [site_idx, 0, 1]
            return
        if state[0] != site_idx:
            state[1] += 1
            state[0] = site_idx
        state[2] += 1

    def note_identity(
        self,
        letter: str,
        identity: str,
        vp_id: Optional[int] = None,
        addr_idx: Optional[int] = None,
    ) -> None:
        """A CHAOS identity answer (coverage input)."""
        self._assert_unsealed()
        bucket = self.identities.setdefault(letter, {})
        if identity not in bucket:
            self._identity_order[(letter, identity)] = (
                _NO_ORDER_KEY
                if vp_id is None or addr_idx is None
                else self._order_key(vp_id, addr_idx)
            )
        bucket[identity] = bucket.get(identity, 0) + 1

    def add_probe_sample(
        self,
        vp_id: int,
        ts: int,
        addr_idx: int,
        site_key: str,
        rtt_ms: float,
        direct_km: float,
        closest_global_km: float,
        via_peer: bool,
        transit_asn: int = 0,
    ) -> None:
        self._assert_unsealed()
        self._probes.append(
            vp_id,
            ts,
            addr_idx,
            self.sites.intern(site_key, self._order_key(vp_id, addr_idx)),
            rtt_ms,
            direct_km,
            closest_global_km,
            via_peer,
            transit_asn,
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
        self._assert_unsealed()
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

    def add_traceroute(
        self, vp_id: int, ts: int, addr_idx: int, second_to_last_hop: Optional[str]
    ) -> None:
        self._assert_unsealed()
        self._traceroutes.append(
            vp_id,
            ts,
            addr_idx,
            -1
            if second_to_last_hop is None
            else self.hops.intern(second_to_last_hop, self._order_key(vp_id, addr_idx)),
        )

    def add_traceroute_block(
        self, vp: np.ndarray, ts: np.ndarray, addr: np.ndarray, hop: np.ndarray
    ) -> None:
        """Batch-append traceroute rows (``hop`` pre-interned, -1 = no
        reply)."""
        self._assert_unsealed()
        self._traceroutes.extend(vp=vp, ts=ts, addr=addr, hop=hop)

    def count_transfer(self, clean: bool) -> None:
        self._assert_unsealed()
        self.transfer_total += 1
        if clean:
            self.transfer_clean += 1

    def add_transfer_observation(self, obs: TransferObservation) -> None:
        self._assert_unsealed()
        self.transfers.append(obs)

    # -- read-side ------------------------------------------------------------------

    def change_counts(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """(vp_id, addr_idx) -> (changes, rounds observed)."""
        return {
            key: (state[1], state[2]) for key, state in self._stability.items()
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

    # -- checkpoint state codec -------------------------------------------------------

    @staticmethod
    def _encode_key(key: Tuple) -> Optional[List[int]]:
        return None if key == _NO_ORDER_KEY else [int(k) for k in key]

    @staticmethod
    def _decode_key(key: Optional[List[int]]) -> Tuple:
        return _NO_ORDER_KEY if key is None else tuple(int(k) for k in key)

    def state_dict(self) -> Dict:
        """JSON-serialisable snapshot of the collector's aggregate state.

        Covers everything *except* the columnar row tables and transfer
        observations — those live in sealed chunks on disk; the streaming
        checkpoint stores this dict plus per-table row counts so a
        resumed run can rebuild the collector exactly.
        """
        return {
            "sites": [
                [value, self._encode_key(key)]
                for value, key in zip(self.sites.values, self.sites.first_keys)
            ],
            "hops": [
                [value, self._encode_key(key)]
                for value, key in zip(self.hops.values, self.hops.first_keys)
            ],
            "identities": [
                [
                    letter,
                    identity,
                    int(count),
                    self._encode_key(
                        self._identity_order.get((letter, identity), _NO_ORDER_KEY)
                    ),
                ]
                for letter, bucket in self.identities.items()
                for identity, count in bucket.items()
            ],
            "stability": [
                [int(vp), int(addr), self.sites[state[0]], int(state[1]), int(state[2])]
                for (vp, addr), state in self._stability.items()
            ],
            "rounds_processed": int(self.rounds_processed),
            "queries_simulated": int(self.queries_simulated),
            "transfer_total": int(self.transfer_total),
            "transfer_clean": int(self.transfer_clean),
            "rows": {
                "probes": len(self._probes),
                "traceroutes": len(self._traceroutes),
                "transfer_observations": len(self.transfers),
            },
        }

    def restore_state_dict(self, state: Dict) -> None:
        """Restore :meth:`state_dict` output into this (empty) collector.

        Row tables are *not* restored — they stay on disk in sealed
        chunks; only the aggregate state (interners, identity counts,
        stability counters, totals) comes back.
        """
        if len(self.sites) or len(self._probes) or self._stability:
            raise ValueError("restore_state_dict requires an empty collector")
        for value, key in state["sites"]:
            self.sites.intern(value, self._decode_key(key))
        for value, key in state["hops"]:
            self.hops.intern(value, self._decode_key(key))
        for letter, identity, count, key in state["identities"]:
            self.identities.setdefault(letter, {})[identity] = int(count)
            self._identity_order[(letter, identity)] = self._decode_key(key)
        for vp, addr, site_value, changes, rounds in state["stability"]:
            site_idx = self.sites._index[site_value]
            self._stability[(int(vp), int(addr))] = [site_idx, int(changes), int(rounds)]
        self.rounds_processed = int(state["rounds_processed"])
        self.queries_simulated = int(state["queries_simulated"])
        self.transfer_total = int(state["transfer_total"])
        self.transfer_clean = int(state["transfer_clean"])

    def attach_rows(
        self,
        probes: Dict[str, np.ndarray],
        traceroutes: Dict[str, np.ndarray],
        transfers: Sequence,
    ) -> None:
        """Adopt externally-owned row columns zero-copy (spill reload).

        The inverse of :meth:`drain_rows` for a collector whose aggregate
        state came back through :meth:`restore_state_dict`: row tables
        become read-only views over the given arrays (typically
        ``np.memmap`` columns of a shard spill) without copying a byte.
        The result is a full-fidelity merge input for :meth:`merge`.
        """
        self._assert_unsealed()
        if len(self._probes) or len(self._traceroutes) or self.transfers:
            raise ValueError("attach_rows requires empty row tables")
        self._probes = _FrozenColumnTable(_PROBE_SPEC, probes)
        self._traceroutes = _FrozenColumnTable(_TRACEROUTE_SPEC, traceroutes)
        # A lazily-materializing sequence (spill reload) is adopted
        # as-is — copying it into a list would force rehydration now.
        self.transfers = (
            transfers
            if hasattr(transfers, "order_keys")
            else list(transfers)
        )
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
        self._assert_unsealed()
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

        # Stability: VP partitioning makes the pair dicts disjoint; every
        # pair is created in round 0, so serial insertion order is
        # (vp, addr) ascending.
        states: List[Tuple[Tuple[int, int], int, List[int]]] = []
        for shard_no, shard in enumerate(shards):
            for pair, state in shard._stability.items():
                states.append((pair, shard_no, state))
        states.sort(key=lambda item: item[0])
        for pair, shard_no, state in states:
            if pair in merged._stability:
                raise ValueError(f"shards overlap on (vp, addr) pair {pair}")
            merged._stability[pair] = [site_maps[shard_no][state[0]], state[1], state[2]]

        # Probe/traceroute rows: remap each shard's interned codes, then
        # recombine columnar-ly — concatenation plus a stable (ts, vp)
        # sort reproduces the serial row order (see docstring).  The
        # recombination primitive is shared with the streaming chunk
        # stitcher (repro.data.columnar).
        from repro.data.columnar import merge_shard_columns, remap_lookup

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

        def transfer_rows(shard_no: int, shard: "CampaignCollector"):
            keys = getattr(shard.transfers, "order_keys", None)
            if keys is not None:
                # Spill-reloaded shards expose ordering keys without
                # materializing observation objects (zone unpickling
                # stays deferred until a consumer actually looks).
                for i, (true_ts, vp_id) in enumerate(keys()):
                    yield (true_ts, vp_id, shard_no, i)
            else:
                for i, obs in enumerate(shard.transfers):
                    yield (obs.true_ts, obs.vp_id, shard_no, i)

        order = [
            (shard_no, i)
            for _ts, _vp, shard_no, i in heapq.merge(
                *(transfer_rows(n, s) for n, s in enumerate(shards))
            )
        ]
        if any(hasattr(s.transfers, "order_keys") for s in shards):
            merged.transfers = _MergedTransfers(
                [s.transfers for s in shards], order
            )
        else:
            merged.transfers = [
                shards[shard_no].transfers[i] for shard_no, i in order
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
