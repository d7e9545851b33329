"""The epoch-compiled campaign engine — the only campaign engine.

Stated one cell at a time, a campaign walks every (round, VP, address)
cell: tens of millions of ``RouteSelector.select`` calls, interner
lookups and per-call hash mixes.  That scalar scan survives only as the
test oracle ``tests/vantage/scalar_campaign.py``.  This engine exploits
the structure of the workload instead, and lays every (VP, address) pair
out as one structure of arrays so that a round range costs a fixed
number of numpy passes, not a Python loop over pairs:

* **Routes are piecewise constant.**  Each pair's campaign is compiled
  into a handful of ``(round_start, round_end, candidate)`` epochs
  (:class:`repro.netsim.epochs.PairEpochs`, all pairs at once); site,
  identity and stability bookkeeping then costs one array element per
  *epoch*, reduced over all pairs together.
* **One candidate table.**  Every pair's candidate routes are one flat
  table (pair → candidate segment) of the columns rows need: site and
  hop codes, base RTT, the jitter hash prefix of the route's stable
  key, direct distance, peer flag and transit ASN.  It is gathered from
  :meth:`RouteSelector.table <repro.netsim.routing.RouteSelector.table>`,
  which compiles the candidates of every distinct (attachment, letter,
  family) key in one columnar pass — no ``Route`` object is built —
  with distances from the scalar ``haversine_km`` (a numpy haversine
  differs from it in the last bits and would change every distance
  column).  Site, hop and identity codes are numbered by first use with
  ``np.unique``; churn excursion probabilities come from
  ``ChurnModel.excursion_probs``.
* **Sampling is arithmetic.**  The ``(round + vp) % every == 0`` masks
  select the sampled cells of all pairs directly in serial scan order
  (round, VP, address); epoch-constant columns are one gather through
  the cell → epoch → candidate index, and jitter/loss uniforms are one
  :func:`~repro.netsim.mix.mix64_array` pass over all cells with
  per-cell pair prefixes, bit-identical to the scalar mixer.
* **First occurrences are reductions.**  Interner order keys are the
  (round, VP, address) position of a value's first use; with cells (and
  epoch keys) in scan order that is the first index of each code, so
  only values not yet interned reach Python.
* **Almost no transfer is recorded.**  The scalar scan runs a full AXFR
  for every sampled transfer and then throws nearly all of them away
  (``clean_transfer_keep_one_in``).  Faults and clock skew are pure
  functions of (VP, site, timestamp), so clean/faulty *counts* are
  computed from window masks alone and zones are only served for the
  observations that are actually kept; only pairs touching a fault
  window take the per-pair path.

The engine is exposed as :class:`EpochCampaignPlan`: compilation happens
once, then :meth:`~EpochCampaignPlan.emit_range` executes any ascending
round range ``[lo, hi)`` — the streaming checkpoint path drives it one
chunk at a time, a batch run as the single range ``[0, n_rounds)`` —
internally split into sub-ranges of at most
:data:`~repro.netsim.epochs.CELL_BUDGET` pair×round cells, so no dense
pairs × rounds grid is ever built.  Every per-round draw is keyed by the
round number (counter-based mixing, no sequential RNG state), so the
concatenation of range emissions is byte-identical to one
whole-campaign emission — and a resumed run is byte-identical to an
uninterrupted one.

Output is **byte-identical** to the scalar oracle — same summary, same
interner contents in the same order, same identity dict insertion order,
same columns, same transfer observations — which
tests/vantage/test_epoch_engine.py asserts against the oracle and the
sharded merge path.

Like the scalar scan (and the sharded merge, which sorts rows by
``(ts, vp_id)``), row ordering assumes the VP list is ascending in
``vp_id`` — true for every ring the builder produces.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.faults.bitflip import flip_bit_in_zone
from repro.geo.coords import RTT_MS_PER_KM
from repro.netsim import epochs
from repro.netsim.epochs import PairEpochs, RangeEpochs
from repro.netsim.latency import JITTER, PER_HOP_MS
from repro.netsim.mix import mix64_array, mix64_prefix, mix_float_array
from repro.netsim.routing import TRANSIT
from repro.vantage.collector import CampaignCollector, TransferObservation
from repro.vantage.node import VantagePoint
from repro.vantage.probes import (
    Prober,
    QUERIES_PER_ADDRESS,
    STLH_MISSING_PROB,
)
from repro.vantage.scheduler import MeasurementSchedule
from repro.zone.distribution import ZoneDistributor


def _first_codes(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Codes of *values* numbered in order of first occurrence, and the
    distinct values in that order."""
    unique, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    code = np.empty(len(order), dtype=np.int64)
    code[order] = np.arange(len(order), dtype=np.int64)
    return code[inverse], unique[order]


def _coded(names: List, codes: np.ndarray) -> Tuple[np.ndarray, List]:
    """First-occurrence codes of ``names[c]`` over *codes*, and the
    distinct names in that order (several codes may share a name)."""
    ids: Dict = {}
    name_id = np.array([ids.setdefault(n, len(ids)) for n in names], dtype=np.int64)
    row_code, order = _first_codes(name_id[codes])
    distinct = list(ids)
    return row_code, [distinct[i] for i in order.tolist()]


class _PairRoutes:
    """``plan.pair_routes[p]``: pair *p*'s candidates as ``Route``
    objects, from ``RouteSelector.candidates`` on access.  The plan
    itself reads only the table; this view lets tests compare the two."""

    def __init__(self, plan: "EpochCampaignPlan") -> None:
        self._plan = plan

    def __len__(self) -> int:
        return self._plan.n_pairs

    def __getitem__(self, p: int):
        plan = self._plan
        sa = plan.collector.addresses[p % plan.n_addr]
        att = plan.vps[p // plan.n_addr].attachment
        return plan.prober.selector.candidates(att, sa.letter, sa.family)


def _interned(index: Dict[str, int], names: List[str]) -> np.ndarray:
    """Collector index of each plan-local code (-1: not interned yet)."""
    return np.array([index.get(name, -1) for name in names], dtype=np.int64)


def _first_new(codes: np.ndarray, known: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Codes with ``known[code]`` false, and the position of each one's
    first occurrence in *codes*, both in first-occurrence order."""
    unique, first = np.unique(codes, return_index=True)
    new = ~known[unique]
    unique, first = unique[new], first[new]
    order = np.argsort(first, kind="stable")
    return unique[order], first[order]


class EpochCampaignPlan:
    """A compiled campaign that is executed one round range at a time.

    Compilation is a pure function of the world and the schedule, so a
    resumed run recompiles the identical plan; :meth:`emit_range` then
    appends rounds ``[lo, hi)`` into *collector*.  Emitting
    ``[0, n)`` in one call or in any ascending, contiguous sequence of
    sub-ranges produces byte-identical collector contents — the
    invariant the checkpoint/resume path and
    ``tests/core/test_streaming.py`` rely on.

    Pair ``p`` is ``(vps[p // n_addr], addresses[p % n_addr])``.  The
    held state is per pair (candidate segment, hash prefix, closest
    global site) plus the flat candidate table and the trigger walk of
    :class:`~repro.netsim.epochs.PairEpochs`; a range's epochs are
    materialised as arrays only while it is emitted.  Ranges must be
    emitted in ascending order.  ``pair_routes[p]`` gives pair *p*'s
    candidates as ``Route`` objects on demand, for comparison in tests.
    """

    def __init__(
        self,
        prober: Prober,
        vps: List[VantagePoint],
        schedule: MeasurementSchedule,
        collector: CampaignCollector,
    ) -> None:
        self.prober = prober
        self.collector = collector
        self.sampling = prober.sampling
        ts_list = schedule.rounds()
        self.n_rounds = len(ts_list)
        self.ts_arr = np.asarray(ts_list, dtype=np.int64)
        self.vps = list(vps)
        addresses = self.collector.addresses
        n_addr = len(addresses)
        self.n_addr = n_addr
        self.n_pairs = len(self.vps) * n_addr

        vp_ids = np.array([vp.vp_id for vp in self.vps], dtype=np.int64)
        self.pair_vp = np.repeat(vp_ids, n_addr)
        self.pair_addr = np.tile(np.arange(n_addr, dtype=np.int64), len(self.vps))
        self.vp_ids = vp_ids
        #: ``mix64_prefix(vp_id, addr_idx)`` per pair.
        self.pair_prefix = mix64_array(
            mix64_array(mix64_prefix(), self.pair_vp), self.pair_addr
        )

        # -- candidate routes: one table row per (pair, candidate) -------------------
        # Pairs sharing a candidate set (same attachment, letter and
        # family) share its rows of the selector's table; keys are in
        # first-pair order, so the table is the candidate lists laid out
        # in pair order.
        selector = prober.selector
        stale_keys = {e.site_key for e in prober.fault_plan.stale_sites}
        key_of: Dict[Tuple[int, str, str, int], int] = {}
        keys = []
        pair_key = np.empty(self.n_pairs, dtype=np.int64)
        churn_pairs = []
        p = 0
        for vp in self.vps:
            att = vp.attachment
            for sa in addresses:
                cache_key = (att.asn, att.city.iata, sa.letter, sa.family)
                k = key_of.get(cache_key)
                if k is None:
                    k = key_of[cache_key] = len(keys)
                    keys.append((att, sa.letter, sa.family))
                pair_key[p] = k
                churn_pairs.append((vp.vp_id, sa.address, sa.letter, sa.family))
                p += 1
        table = selector.table(keys)
        self.pair_routes = _PairRoutes(self)
        n_cand = np.diff(table.ptr)[pair_key]
        self.pair_closest = selector.closest_global_km(
            [att.city for att, _letter, _family in keys],
            [letter for _att, letter, _family in keys],
        )[pair_key]

        #: Plan-local value tables; codes index these lists and are
        #: numbered in order of first use in the table.
        r_site, site_codes = _first_codes(table.site)
        sites = [selector.sites[code] for code in site_codes.tolist()]
        self.site_keys: List[str] = [site.key for site in sites]
        r_hop, self.hop_names = _coded(
            [selector.fabric.facility_of(site).edge_router for site in sites], r_site
        )
        r_ident, self.identity_keys = _coded(
            [(site.letter, site.identity()) for site in sites], r_site
        )
        self.site_stale = np.array(
            [key in stale_keys for key in self.site_keys], dtype=bool
        )

        #: Pair p's candidates are table rows ``cand_ptr[p]:cand_ptr[p + 1]``.
        self.cand_ptr = np.zeros(self.n_pairs + 1, dtype=np.int64)
        np.cumsum(n_cand, out=self.cand_ptr[1:])
        cand_pair = np.repeat(np.arange(self.n_pairs, dtype=np.int64), n_cand)
        route = table.ptr[:-1][pair_key][cand_pair] + (
            np.arange(self.cand_ptr[-1], dtype=np.int64) - self.cand_ptr[:-1][cand_pair]
        )
        last_mile = np.array([vp.last_mile_ms for vp in self.vps], dtype=np.float64)
        self.c_site = r_site[route]
        self.c_hop = r_hop[route]
        self.c_ident = r_ident[route]
        # identical op order to netsim.latency.route_rtt_ms
        self.c_base = table.path_km[route] * RTT_MS_PER_KM + (
            PER_HOP_MS * table.hop_count[route]
            + last_mile[cand_pair // n_addr]
            + table.extra_ms[route]
        )
        self.c_skpfx = mix64_array(mix64_prefix(), table.stable_key[route])
        self.c_direct = table.direct_km[route]
        self.c_peer = table.via[route] != TRANSIT
        self.c_transit = table.transit[route]

        # -- faults: pairs whose transfers can never take the fast path ---------------
        plan = prober.fault_plan
        vp_events: Dict[int, List] = {}
        for i, e in enumerate(plan.bitflips):
            vp_events.setdefault(e.vp_id, []).append((i, e))
        self.pair_events: Dict[int, List] = {}
        for v, vp in enumerate(self.vps):
            if vp.vp_id not in vp_events:
                continue
            for a, sa in enumerate(addresses):
                events = [
                    (i, e)
                    for i, e in vp_events[vp.vp_id]
                    if e.address in (None, sa.address)
                ]
                if events:
                    self.pair_events[v * n_addr + a] = events
        self.pair_faulty = np.repeat(
            np.array([vp.vp_id in plan.clocks.episodes for vp in self.vps], dtype=bool),
            n_addr,
        )
        self.pair_faulty[list(self.pair_events)] = True

        self.epochs = PairEpochs(selector.churn, churn_pairs, self.n_rounds, n_cand)

    # -- range execution ---------------------------------------------------------------

    def emit_range(self, lo: int, hi: int) -> None:
        """Execute rounds ``[lo, hi)``, appending into the collector.

        A sealed collector is refused before the first write, so the
        dataset that shares its aggregates never sees a partial range."""
        self.collector.assert_unsealed()
        if not 0 <= lo <= hi <= self.n_rounds:
            raise ValueError(
                f"round range [{lo}, {hi}) outside campaign [0, {self.n_rounds})"
            )
        step = max(1, epochs.CELL_BUDGET // max(1, self.n_pairs))
        for a in range(lo, hi, step):
            self._emit_block(a, min(a + step, hi))

    def _emit_block(self, lo: int, hi: int) -> None:
        ep = self.epochs.take(lo, hi)
        cand = self.cand_ptr[:-1][ep.pair] + ep.index
        self._update_aggregates(ep, cand, lo, hi)
        lookup = self._cell_lookup(ep, cand)
        hop_rows = self._intern_hops(lookup, lo, hi)
        self._emit_rows(lookup, lo, hi, hop_rows)
        self._run_transfers(ep, cand, lo, hi)

    def _cells(self, every: int, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """(round, pair) of every cell in ``[lo, hi)`` sampled at
        ``(round + vp_id) % every == 0``, in serial scan order (round,
        VP, address)."""
        rounds = np.arange(lo, hi, dtype=np.int64)
        r_idx, v_idx = np.nonzero((rounds[:, None] + self.vp_ids[None, :]) % every == 0)
        n_addr = self.n_addr
        r = np.repeat(rounds[r_idx], n_addr)
        pair = (v_idx[:, None] * n_addr + np.arange(n_addr)[None, :]).reshape(-1)
        return r, pair

    def _cell_lookup(self, ep: RangeEpochs, cand: np.ndarray):
        """``(round, pair) -> candidate table row`` for cells of the range."""
        span = self.n_rounds + 1
        key = ep.pair * span + ep.start

        def lookup(r: np.ndarray, pair: np.ndarray) -> np.ndarray:
            return cand[np.searchsorted(key, pair * span + r, side="right") - 1]

        return lookup

    def _order_key(self, round_no: int, pair: int) -> Tuple[int, int, int]:
        return (round_no, int(self.pair_vp[pair]), int(self.pair_addr[pair]))

    def _update_aggregates(
        self, ep: RangeEpochs, cand: np.ndarray, lo: int, hi: int
    ) -> None:
        """Sites, identities, stability and counters for ``[lo, hi)``.

        First-occurrence keys are clipped to ``max(epoch_start, lo)``;
        for a value first *live* in this range every clip is a no-op
        (an epoch starting earlier would have made it live earlier), so
        interned order keys equal the whole-campaign scan's keys.
        """
        collector = self.collector
        n_pairs = self.n_pairs
        clip = np.maximum(ep.start, lo)
        # (clipped round, pair) in scan order; pair order is (vp, addr)
        order = np.argsort(clip * n_pairs + ep.pair, kind="stable")

        site_code = self.c_site[cand][order]
        site_map = _interned(collector.sites._index, self.site_keys)
        new, first = _first_new(site_code, site_map >= 0)
        for code, pos in zip(new.tolist(), order[first].tolist()):
            collector.sites.intern(
                self.site_keys[code], self._order_key(int(clip[pos]), int(ep.pair[pos]))
            )

        ident = self.c_ident[cand]
        identities = collector.identities
        delta = np.bincount(
            ident,
            weights=np.minimum(ep.end, hi) - clip,
            minlength=len(self.identity_keys),
        )
        present = np.nonzero(delta)[0].tolist()
        known = np.ones(len(self.identity_keys), dtype=bool)
        for code in present:
            letter, identity = self.identity_keys[code]
            known[code] = identity in identities.get(letter, ())
        new, first = _first_new(ident[order], known)
        for code, pos in zip(new.tolist(), order[first].tolist()):
            letter, identity = self.identity_keys[code]
            identities.setdefault(letter, {})[identity] = 0
            collector._identity_order[(letter, identity)] = self._order_key(
                int(clip[pos]), int(ep.pair[pos])
            )
        for code in present:
            letter, identity = self.identity_keys[code]
            identities[letter][identity] += int(delta[code])

        # Stability: pairs enter the table in pair order during the first
        # range (round 0), matching the scalar serial insertion order; an
        # epoch start *at* lo belongs to this range's changes.
        site_map = _interned(collector.sites._index, self.site_keys)
        first_e, last_e = ep.ptr[:-1], ep.ptr[1:] - 1
        changes = last_e - first_e
        if lo >= 1:
            changes = changes + (ep.start[first_e] == lo)
        stability = collector._stability
        stability.align(self.pair_vp, self.pair_addr)
        stability.column("site")[:] = site_map[self.c_site[cand[last_e]]]
        stability.column("changes")[:] += changes.astype(np.int32)
        rounds = hi - lo
        stability.column("rounds")[:] += rounds

        collector.queries_simulated += rounds * n_pairs * QUERIES_PER_ADDRESS
        collector.rounds_processed += rounds

    def _intern_hops(self, lookup, lo: int, hi: int):
        """Traceroute sampling for ``[lo, hi)``; fixes hop interner order.

        Returns the traceroute cells and their hop codes (-1: the
        second-to-last hop went unanswered)."""
        collector = self.collector
        r, pair = self._cells(self.sampling.traceroute_every, lo, hi)
        missing = mix_float_array(self.pair_prefix[pair], r, 13) < STLH_MISSING_PROB
        hop = self.c_hop[lookup(r, pair)]
        answered = np.nonzero(~missing)[0]
        hop_map = _interned(collector.hops._index, self.hop_names)
        new, first = _first_new(hop[answered], hop_map >= 0)
        for code, pos in zip(new.tolist(), answered[first].tolist()):
            collector.hops.intern(
                self.hop_names[code], self._order_key(int(r[pos]), int(pair[pos]))
            )
        hop[missing] = -1
        return r, pair, hop

    def _emit_rows(self, lookup, lo: int, hi: int, hop_rows) -> None:
        """Columnar probe/traceroute row production for ``[lo, hi)``.

        Cells come out in serial scan order (round, VP, address), and
        ranges ascend, so appending each block reproduces the
        whole-campaign tables."""
        collector = self.collector
        ts_arr = self.ts_arr

        r, pair = self._cells(self.sampling.rtt_every, lo, hi)
        if len(r):
            c = lookup(r, pair)
            site_map = _interned(collector.sites._index, self.site_keys)
            u = mix_float_array(self.c_skpfx[c], mix64_array(self.pair_prefix[pair], r))
            collector.add_probe_block(
                vp=self.pair_vp[pair],
                ts=ts_arr[r],
                addr=self.pair_addr[pair],
                site=site_map[self.c_site[c]],
                rtt=self.c_base[c] * (1.0 - JITTER + u * 4.0 * JITTER),
                direct_km=self.c_direct[c],
                closest_km=self.pair_closest[pair],
                peer=self.c_peer[c],
                transit=self.c_transit[c],
            )

        r, pair, hop = hop_rows
        if len(r):
            hop_map = _interned(collector.hops._index, self.hop_names)
            collector.add_traceroute_block(
                vp=self.pair_vp[pair],
                ts=ts_arr[r],
                addr=self.pair_addr[pair],
                hop=np.where(hop < 0, -1, hop_map[hop]),
            )

    # -- transfers ---------------------------------------------------------------------

    def _run_transfers(
        self, ep: RangeEpochs, cand: np.ndarray, lo: int, hi: int
    ) -> None:
        """Count every sampled/faulted transfer in ``[lo, hi)``; serve
        only the kept ones.

        Clean/faulty status is a pure function of (VP, route site,
        timestamp) — bitflip windows, stale-site windows and clock-skew
        episodes — so totals come from window masks and the expensive
        AXFR machinery only runs for observations that survive the keep
        filter (all faulted ones plus the 1-in-N clean sample).  Pairs
        with a bitflip event, a skewed clock, or a route through a stale
        site in this range take the per-pair path; every other pair's
        transfers are clean.
        """
        collector = self.collector
        ts_arr = self.ts_arr
        keep_threshold = 1.0 / self.sampling.clean_transfer_keep_one_in

        slow = self.pair_faulty
        if self.site_stale.any():
            stale_epoch = self.site_stale[self.c_site[cand]]
            touched = np.bincount(ep.pair[stale_epoch], minlength=self.n_pairs)
            slow = slow | (touched > 0)

        kept: List[Tuple[Tuple[int, int, int], TransferObservation]] = []
        r, pair = self._cells(self.sampling.axfr_every, lo, hi)
        fast = ~slow[pair]
        r, pair = r[fast], pair[fast]
        collector.transfer_total += len(r)
        collector.transfer_clean += len(r)
        ts = ts_arr[r]
        keep = np.nonzero(
            mix_float_array(self.pair_prefix[pair], ts, 29) < keep_threshold
        )[0]
        for row in keep.tolist():
            p = int(pair[row])
            kept.append(
                (
                    self._order_key(int(r[row]), p),
                    self._build_observation(p, int(ts[row]), "", None, None, 0),
                )
            )

        for p in np.nonzero(slow)[0].tolist():
            segment = slice(ep.ptr[p], ep.ptr[p + 1])
            self._faulted_pair_transfers(
                p, ep.start[segment], ep.end[segment], ep.index[segment], lo, hi, kept
            )

        kept.sort(key=lambda item: item[0])
        for _key, obs in kept:
            collector.transfers.append(obs)

    def _faulted_pair_transfers(
        self,
        p: int,
        starts: np.ndarray,
        ends: np.ndarray,
        indices: np.ndarray,
        lo: int,
        hi: int,
        kept: List,
    ) -> None:
        """One fault-touching pair's transfers in ``[lo, hi)``, given its
        epochs overlapping the range."""
        prober = self.prober
        collector = self.collector
        plan = prober.fault_plan
        ts_arr = self.ts_arr
        n_rounds = self.n_rounds
        every = self.sampling.axfr_every
        vp_id = int(self.pair_vp[p])
        pair_sites = self.c_site[self.cand_ptr[p]:self.cand_ptr[p + 1]]
        events = self.pair_events.get(p, ())
        episode = plan.clocks.episodes.get(vp_id)

        mask = np.zeros(n_rounds, dtype=bool)
        mask[(-vp_id) % every::every] = True
        # bitflip_for returns the *first* matching event; overwrite in
        # reverse plan order so earlier events win.
        event_of = np.full(n_rounds, -1, dtype=np.int64)
        for i, event in reversed(events):
            w_lo, w_hi = np.searchsorted(ts_arr, (event.start_ts, event.end_ts))
            mask[w_lo:w_hi] = True
            event_of[w_lo:w_hi] = i
        mask[:lo] = False
        mask[hi:] = False
        r_tf = np.nonzero(mask)[0]
        if not len(r_tf):
            return
        ts_tf = ts_arr[r_tf]
        collector.transfer_total += len(r_tf)

        evt_tf = event_of[r_tf]
        stale_tf = np.zeros(len(r_tf), dtype=bool)
        frozen_of: Dict[int, object] = {}  # row -> StaleZoneEvent
        for start, end, index in zip(starts.tolist(), ends.tolist(), indices.tolist()):
            site_key = self.site_keys[pair_sites[index]]
            for stale in plan.stale_sites:
                if stale.site_key != site_key:
                    continue
                w_lo, w_hi = np.searchsorted(r_tf, (start, end))
                window = (ts_tf[w_lo:w_hi] >= stale.freeze_from) & (
                    ts_tf[w_lo:w_hi] < stale.detected_until
                )
                stale_tf[w_lo:w_hi] |= window
                for row in np.nonzero(window)[0] + w_lo:
                    frozen_of[int(row)] = stale
        if episode is None:
            offset_tf = np.zeros(len(r_tf), dtype=np.int64)
        else:
            offset_tf = np.where(
                (ts_tf >= episode.start_ts) & (ts_tf < episode.end_ts),
                np.int64(episode.offset_s),
                np.int64(0),
            )

        clean_tf = (evt_tf < 0) & ~stale_tf & (offset_tf == 0)
        collector.transfer_clean += int(np.count_nonzero(clean_tf))

        keep_threshold = 1.0 / self.sampling.clean_transfer_keep_one_in
        keep_tf = mix_float_array(int(self.pair_prefix[p]), ts_tf, 29) < keep_threshold
        record_tf = ~clean_tf | keep_tf
        if not record_tf.any():
            return

        eidx_tf = np.searchsorted(starts, r_tf, side="right") - 1
        for row in np.nonzero(record_tf)[0].tolist():
            kept.append(
                (
                    self._order_key(int(r_tf[row]), p),
                    self._build_observation(
                        p,
                        int(ts_tf[row]),
                        self.site_keys[pair_sites[indices[eidx_tf[row]]]],
                        None if evt_tf[row] < 0 else plan.bitflips[int(evt_tf[row])],
                        frozen_of.get(row),
                        int(offset_tf[row]),
                    ),
                )
            )

    def _build_observation(
        self,
        p: int,
        ts: int,
        site_key: str,
        bitflip,
        frozen,
        clock_offset: int,
    ) -> TransferObservation:
        """Serve + record one kept transfer of pair *p*, mirroring the
        oracle's per-cell transfer (``tests/vantage/scalar_campaign.py``)."""
        sa = self.collector.addresses[p % self.n_addr]
        deployment = self.prober.deployments[sa.letter]
        distributor = deployment.distributor
        if frozen is not None:
            pub_ts, edition = ZoneDistributor.latest_publication(frozen.freeze_from)
        else:
            pub_ts, edition = ZoneDistributor.latest_publication(
                ts - distributor.propagation_lag_s
            )
        zone = distributor.zone_for_publication(pub_ts, edition)
        zone = deployment.axfr_of(zone).zone
        fault = ""
        fault_detail = ""
        if bitflip is not None:
            zone, report = flip_bit_in_zone(zone, bitflip, ts)
            fault = "bitflip"
            fault_detail = report.description
        elif frozen is not None:
            fault = "stale"
            fault_detail = f"site {site_key} frozen"
        return TransferObservation(
            vp_id=int(self.pair_vp[p]),
            true_ts=ts,
            observed_ts=ts + clock_offset,
            address=sa,
            serial=zone.serial,
            zone=zone,
            fault=fault,
            fault_detail=fault_detail,
        )
