"""The epoch-compiled campaign engine.

The scalar scan (:meth:`~repro.vantage.probes.Prober.run_round` once
per round and VP) walks every (round, VP, address) cell: tens of millions of ``RouteSelector.select``
calls, interner lookups and per-call hash mixes.  This engine exploits
the structure of the workload instead:

* **Routes are piecewise constant.**  Each (VP, address) pair's campaign
  is compiled into a handful of ``(round_start, round_end, route)``
  epochs (:mod:`repro.netsim.epochs`); site, identity and stability
  bookkeeping then costs one update per *epoch*, not per round.
* **Sampling is arithmetic.**  The ``(round + vp) % every == 0`` masks
  select arithmetic progressions of rounds, so probe and traceroute rows
  are produced as whole numpy blocks per pair — epoch-constant columns
  are gathers through the round→epoch index, and jitter/loss uniforms
  come from the array mixer (:func:`repro.netsim.mix.mix64_array`),
  which is bit-identical to the scalar mixer — and enter the collector
  through its batch-append APIs.
* **Almost no transfer is recorded.**  The scalar path runs a full AXFR
  for every sampled transfer and then throws nearly all of them away
  (``clean_transfer_keep_one_in``).  Faults and clock skew are pure
  functions of (VP, site, timestamp), so clean/faulty *counts* are
  computed from window masks alone and zones are only served for the
  observations that are actually kept.

The engine is exposed as :class:`EpochCampaignPlan`: compilation happens
once, then :meth:`~EpochCampaignPlan.emit_range` executes any ascending
round range ``[lo, hi)`` — the streaming checkpoint path drives it one
chunk at a time, a batch run as the single range ``[0, n_rounds)``.
Every per-round draw is keyed by the round number (counter-based
mixing, no sequential RNG state), so the concatenation of range
emissions is byte-identical to one whole-campaign emission — and a
resumed run is byte-identical to an uninterrupted one.

Output is **byte-identical** to the scalar prober — same summary, same
interner contents in the same order, same identity dict insertion order,
same columns, same transfer observations — which
tests/vantage/test_epoch_engine.py asserts against the scalar path and
the sharded merge path.

Like the scalar scan (and the sharded merge, which sorts rows by
``(ts, vp_id)``), row ordering assumes the VP list is ascending in
``vp_id`` — true for every ring the builder produces.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.faults.bitflip import flip_bit_in_zone
from repro.geo.coords import RTT_MS_PER_KM
from repro.netsim.epochs import PairEpochStream
from repro.netsim.latency import JITTER, PER_HOP_MS
from repro.netsim.mix import mix64_array, mix64_prefix, mix_float_array
from repro.vantage.collector import TransferObservation
from repro.vantage.node import VantagePoint
from repro.vantage.probes import (
    Prober,
    QUERIES_PER_ADDRESS,
    STLH_MISSING_PROB,
)
from repro.vantage.scheduler import MeasurementSchedule
from repro.zone.distribution import ZoneDistributor


def _sampled_rounds_range(vp_id: int, every: int, lo: int, hi: int) -> np.ndarray:
    """Rounds in ``[lo, hi)`` where ``(round + vp_id) % every == 0``,
    ascending."""
    first = lo + ((-vp_id - lo) % every)
    return np.arange(first, hi, every, dtype=np.int64)


class _PairPlan:
    """One (VP, address) pair's epochs overlapping the emitted range."""

    __slots__ = ("vp", "addr_idx", "sa", "epochs", "routes", "starts")

    def __init__(self, vp: VantagePoint, addr_idx: int, sa, epochs, routes) -> None:
        self.vp = vp
        self.addr_idx = addr_idx
        self.sa = sa
        self.epochs = epochs  # [(start, end, candidate_index)]
        self.routes = routes  # candidate Route list
        self.starts = np.fromiter(
            (e[0] for e in epochs), dtype=np.int64, count=len(epochs)
        )

    def epoch_of(self, rounds: np.ndarray) -> np.ndarray:
        """Epoch index covering each (ascending) round number."""
        return np.searchsorted(self.starts, rounds, side="right") - 1

    def epoch_span(self, lo: int, hi: int) -> Tuple[int, int]:
        """Indices of the first and last epoch overlapping ``[lo, hi)``."""
        e_lo = int(np.searchsorted(self.starts, lo, side="right")) - 1
        e_hi = int(np.searchsorted(self.starts, hi - 1, side="right")) - 1
        return e_lo, e_hi


class _PairStream:
    """One (VP, address) pair's campaign as a lazy epoch stream."""

    __slots__ = ("vp", "addr_idx", "sa", "routes", "stream")

    def __init__(self, vp: VantagePoint, addr_idx: int, sa, routes, stream) -> None:
        self.vp = vp
        self.addr_idx = addr_idx
        self.sa = sa
        self.routes = routes
        self.stream = stream


class EpochCampaignPlan:
    """A compiled campaign that is executed one round range at a time.

    Compilation is a pure function of the world and the schedule, so a
    resumed run recompiles the identical plan; :meth:`emit_range` then
    appends rounds ``[lo, hi)`` into the prober's collector.  Emitting
    ``[0, n)`` in one call or in any ascending, contiguous sequence of
    sub-ranges produces byte-identical collector contents — the
    invariant the checkpoint/resume path and
    ``tests/core/test_streaming.py`` rely on.

    The whole-campaign epoch lists are never held: each pair keeps a
    :class:`~repro.netsim.epochs.PairEpochStream` (the sparse trigger
    rounds plus a cursor), and :meth:`emit_range` materialises only the
    epochs overlapping the requested range, discarding them afterwards —
    epoch-plan memory is O(chunk) + O(pairs), not O(campaign).  Ranges
    must therefore be emitted in ascending order.
    """

    def __init__(
        self,
        prober: Prober,
        vps: List[VantagePoint],
        schedule: MeasurementSchedule,
    ) -> None:
        self.prober = prober
        self.collector = prober.collector
        self.sampling = prober.sampling
        ts_list = schedule.rounds()
        self.n_rounds = len(ts_list)
        self.ts_arr = np.asarray(ts_list, dtype=np.int64)

        selector = prober.selector
        self._pair_streams: List[_PairStream] = []
        for vp in vps:
            for addr_idx, sa in enumerate(self.collector.addresses):
                routes = selector.candidates(vp.attachment, sa.letter, sa.family)
                stream = PairEpochStream(
                    selector.churn,
                    vp.vp_id,
                    sa.address,
                    sa.letter,
                    sa.family,
                    self.n_rounds,
                    len(routes),
                )
                self._pair_streams.append(
                    _PairStream(vp, addr_idx, sa, routes, stream)
                )

    # -- range execution ---------------------------------------------------------------

    def emit_range(self, lo: int, hi: int) -> None:
        """Execute rounds ``[lo, hi)``, appending into the collector."""
        if not 0 <= lo <= hi <= self.n_rounds:
            raise ValueError(
                f"round range [{lo}, {hi}) outside campaign [0, {self.n_rounds})"
            )
        if lo == hi:
            return
        # Epoch tuples keep their true (unclipped) bounds, so every
        # helper below sees exactly the epochs a whole-campaign list
        # would have selected for this range.
        pairs = [
            _PairPlan(p.vp, p.addr_idx, p.sa, p.stream.take(lo, hi), p.routes)
            for p in self._pair_streams
        ]
        self._update_aggregates(pairs, lo, hi)
        tr_state = self._intern_hops(pairs, lo, hi)
        self._emit_rows(pairs, lo, hi, tr_state)
        self._run_transfers(pairs, lo, hi)

    def _update_aggregates(self, pairs: List[_PairPlan], lo: int, hi: int) -> None:
        """Sites, identities, stability and counters for ``[lo, hi)``.

        First-occurrence keys are clipped to ``max(epoch_start, lo)``;
        for a value first *live* in this range every clip is a no-op
        (an epoch starting earlier would have made it live earlier), so
        interned order keys equal the whole-campaign scan's keys.
        """
        collector = self.collector
        site_index = collector.sites._index
        site_first: Dict[str, Tuple[int, int, int]] = {}
        ident_first: Dict[Tuple[str, str], Tuple[int, int, int]] = {}
        ident_delta: Dict[Tuple[str, str], int] = {}

        for pair in pairs:
            vp_id = pair.vp.vp_id
            addr_idx = pair.addr_idx
            e_lo, e_hi = pair.epoch_span(lo, hi)
            for e in range(e_lo, e_hi + 1):
                start, end, index = pair.epochs[e]
                route = pair.routes[index]
                key = (max(start, lo), vp_id, addr_idx)
                site_key = route.site.key
                if site_key not in site_index and (
                    site_key not in site_first or key < site_first[site_key]
                ):
                    site_first[site_key] = key
                ident_key = (pair.sa.letter, route.site.identity())
                overlap = min(end, hi) - max(start, lo)
                ident_delta[ident_key] = ident_delta.get(ident_key, 0) + overlap
                known = (
                    ident_key[0] in collector.identities
                    and ident_key[1] in collector.identities[ident_key[0]]
                )
                if not known and (
                    ident_key not in ident_first or key < ident_first[ident_key]
                ):
                    ident_first[ident_key] = key

        for site_key in sorted(site_first, key=site_first.__getitem__):
            collector.sites.intern(site_key, site_first[site_key])

        for letter, identity in sorted(ident_first, key=ident_first.__getitem__):
            collector.identities.setdefault(letter, {})[identity] = 0
            collector._identity_order[(letter, identity)] = ident_first[
                (letter, identity)
            ]
        for (letter, identity), delta in ident_delta.items():
            collector.identities[letter][identity] += delta

        # Stability: pairs enter the dict in pass scan order during the
        # first range (round 0), matching the scalar serial insertion
        # order; an epoch start *at* lo belongs to this range's changes.
        stability = collector._stability
        for pair in pairs:
            e_lo, e_hi = pair.epoch_span(lo, hi)
            last_site = site_index[pair.routes[pair.epochs[e_hi][2]].site.key]
            changes = e_hi - e_lo
            if lo >= 1 and pair.epochs[e_lo][0] == lo:
                changes += 1
            state = stability.get((pair.vp.vp_id, pair.addr_idx))
            if state is None:
                stability[(pair.vp.vp_id, pair.addr_idx)] = [
                    last_site,
                    changes,
                    hi - lo,
                ]
            else:
                state[0] = last_site
                state[1] += changes
                state[2] += hi - lo

        collector.queries_simulated += (
            (hi - lo) * len(pairs) * QUERIES_PER_ADDRESS
        )
        collector.rounds_processed += hi - lo

    def _intern_hops(
        self, pairs: List[_PairPlan], lo: int, hi: int
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Traceroute sampling for ``[lo, hi)``; fixes hop interner order."""
        collector = self.collector
        hop_known = collector.hops._index
        tr_state: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        hop_first: Dict[str, Tuple[int, int, int]] = {}
        for pair in pairs:
            r_tr = _sampled_rounds_range(
                pair.vp.vp_id, self.sampling.traceroute_every, lo, hi
            )
            if not len(r_tr):
                tr_state.append((r_tr, r_tr, r_tr))
                continue
            pf = mix64_prefix(pair.vp.vp_id, pair.addr_idx)
            missing = mix_float_array(pf, r_tr, 13) < STLH_MISSING_PROB
            eidx = pair.epoch_of(r_tr)
            tr_state.append((r_tr, missing, eidx))
            answered = ~missing
            # first answered sampled round of each epoch that has one
            first_rows = np.unique(eidx[answered], return_index=True)[1]
            answered_rounds = r_tr[answered]
            answered_eidx = eidx[answered]
            for row in first_rows:
                hop = pair.routes[
                    pair.epochs[int(answered_eidx[row])][2]
                ].second_to_last_hop
                if hop in hop_known:
                    continue
                key = (int(answered_rounds[row]), pair.vp.vp_id, pair.addr_idx)
                if hop not in hop_first or key < hop_first[hop]:
                    hop_first[hop] = key
        for hop in sorted(hop_first, key=hop_first.__getitem__):
            collector.hops.intern(hop, hop_first[hop])
        return tr_state

    def _emit_rows(
        self,
        pairs: List[_PairPlan],
        lo: int,
        hi: int,
        tr_state: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        """Columnar probe/traceroute row production for ``[lo, hi)``."""
        collector = self.collector
        prober = self.prober
        sampling = self.sampling
        site_index = collector.sites._index
        hop_index = collector.hops._index
        ts_arr = self.ts_arr

        p_cols: Dict[str, List[np.ndarray]] = {
            name: [] for name in ("round", "vp", "addr", "site", "rtt",
                                  "direct_km", "closest_km", "peer", "transit")
        }
        t_cols: Dict[str, List[np.ndarray]] = {
            name: [] for name in ("round", "vp", "addr", "hop")
        }

        for pair, (r_tr, missing, eidx_tr) in zip(pairs, tr_state):
            vp = pair.vp
            pf = mix64_prefix(vp.vp_id, pair.addr_idx)
            n_epochs = len(pair.epochs)

            # per-epoch route constants
            site_e = np.empty(n_epochs, dtype=np.int64)
            hop_e = np.empty(n_epochs, dtype=np.int64)
            base_e = np.empty(n_epochs, dtype=np.float64)
            skpfx_e = np.empty(n_epochs, dtype=np.uint64)
            direct_e = np.empty(n_epochs, dtype=np.float64)
            peer_e = np.empty(n_epochs, dtype=bool)
            transit_e = np.empty(n_epochs, dtype=np.int64)
            for i, (_start, _end, index) in enumerate(pair.epochs):
                route = pair.routes[index]
                # epochs entirely outside [lo, hi) may reference sites
                # not yet live/interned; rows never gather them
                site_e[i] = site_index.get(route.site.key, -1)
                # a hop whose every sampled round (so far) was lost is
                # absent from the interner; those rows are forced to -1
                # below anyway
                hop_e[i] = hop_index.get(route.second_to_last_hop, -1)
                # identical op order to netsim.latency.route_rtt_ms
                base_e[i] = route.path_km * RTT_MS_PER_KM + (
                    PER_HOP_MS * route.hop_count + vp.last_mile_ms + route.extra_ms
                )
                skpfx_e[i] = mix64_prefix(route.stable_key)
                direct_e[i] = route.direct_km
                peer_e[i] = route.via != "transit"
                transit_e[i] = 0 if route.transit is None else route.transit.asn

            # probe rows
            r_rtt = _sampled_rounds_range(vp.vp_id, sampling.rtt_every, lo, hi)
            if len(r_rtt):
                closest = prober._closest_global_km(
                    vp.attachment.city.iata, pair.sa.letter
                )
                eidx = pair.epoch_of(r_rtt)
                u = mix_float_array(skpfx_e[eidx], mix64_array(pf, r_rtt))
                n = len(r_rtt)
                p_cols["round"].append(r_rtt)
                p_cols["vp"].append(np.full(n, vp.vp_id, dtype=np.int64))
                p_cols["addr"].append(np.full(n, pair.addr_idx, dtype=np.int64))
                p_cols["site"].append(site_e[eidx])
                p_cols["rtt"].append(base_e[eidx] * (1.0 - JITTER + u * 4.0 * JITTER))
                p_cols["direct_km"].append(direct_e[eidx])
                p_cols["closest_km"].append(np.full(n, closest, dtype=np.float64))
                p_cols["peer"].append(peer_e[eidx])
                p_cols["transit"].append(transit_e[eidx])

            # traceroute rows
            if len(r_tr):
                hop_col = hop_e[eidx_tr]
                hop_col[missing] = -1
                t_cols["round"].append(r_tr)
                t_cols["vp"].append(np.full(len(r_tr), vp.vp_id, dtype=np.int64))
                t_cols["addr"].append(
                    np.full(len(r_tr), pair.addr_idx, dtype=np.int64)
                )
                t_cols["hop"].append(hop_col)

        # Serial scan order is (round, vp, addr); per-pair blocks are
        # already round-ascending, so a stable lexsort restores the exact
        # row order.  Ranges are emitted in ascending round order, so
        # concatenating per-range blocks reproduces the whole-campaign
        # table.
        if p_cols["round"]:
            cat = {name: np.concatenate(blocks) for name, blocks in p_cols.items()}
            order = np.lexsort((cat["addr"], cat["vp"], cat["round"]))
            collector.add_probe_block(
                vp=cat["vp"][order],
                ts=ts_arr[cat["round"][order]],
                addr=cat["addr"][order],
                site=cat["site"][order],
                rtt=cat["rtt"][order],
                direct_km=cat["direct_km"][order],
                closest_km=cat["closest_km"][order],
                peer=cat["peer"][order],
                transit=cat["transit"][order],
            )
        if t_cols["round"]:
            cat = {name: np.concatenate(blocks) for name, blocks in t_cols.items()}
            order = np.lexsort((cat["addr"], cat["vp"], cat["round"]))
            collector.add_traceroute_block(
                vp=cat["vp"][order],
                ts=ts_arr[cat["round"][order]],
                addr=cat["addr"][order],
                hop=cat["hop"][order],
            )

    # -- transfers ---------------------------------------------------------------------

    def _run_transfers(self, pairs: List[_PairPlan], lo: int, hi: int) -> None:
        """Count every sampled/faulted transfer in ``[lo, hi)``; serve
        only the kept ones.

        Clean/faulty status is a pure function of (VP, route site,
        timestamp) — bitflip windows, stale-site windows and clock-skew
        episodes — so totals come from window masks and the expensive
        AXFR machinery only runs for observations that survive the keep
        filter (all faulted ones plus the 1-in-N clean sample).
        """
        prober = self.prober
        collector = self.collector
        plan = prober.fault_plan
        sampling = self.sampling
        ts_arr = self.ts_arr
        n_rounds = self.n_rounds
        every = sampling.axfr_every
        keep_threshold = 1.0 / sampling.clean_transfer_keep_one_in
        stale_keys = {e.site_key for e in plan.stale_sites}

        kept: List[Tuple[Tuple[int, int, int], TransferObservation]] = []
        total = 0
        clean_total = 0

        for pair in pairs:
            vp = pair.vp
            events = [
                (i, e)
                for i, e in enumerate(plan.bitflips)
                if e.vp_id == vp.vp_id and e.address in (None, pair.sa.address)
            ]
            episode = plan.clocks.episodes.get(vp.vp_id)
            touches_stale = stale_keys and any(
                pair.routes[index].site.key in stale_keys
                for _s, _e, index in pair.epochs
            )
            pf = mix64_prefix(vp.vp_id, pair.addr_idx)

            if not events and episode is None and not touches_stale:
                # Fast path: every transfer of this pair is clean.
                r_tf = _sampled_rounds_range(vp.vp_id, every, lo, hi)
                if not len(r_tf):
                    continue
                total += len(r_tf)
                clean_total += len(r_tf)
                ts_tf = ts_arr[r_tf]
                keep_tf = mix_float_array(pf, ts_tf, 29) < keep_threshold
                for row in np.nonzero(keep_tf)[0]:
                    row = int(row)
                    kept.append(
                        (
                            (int(r_tf[row]), vp.vp_id, pair.addr_idx),
                            self._build_observation(
                                vp, pair, int(ts_tf[row]), "", None, None, 0
                            ),
                        )
                    )
                continue

            mask = np.zeros(n_rounds, dtype=bool)
            mask[(-vp.vp_id) % every::every] = True
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
                continue
            ts_tf = ts_arr[r_tf]
            total += len(r_tf)

            evt_tf = event_of[r_tf]
            stale_tf = np.zeros(len(r_tf), dtype=bool)
            frozen_of: Dict[int, object] = {}  # row -> StaleZoneEvent
            if touches_stale:
                for start, end, index in pair.epochs:
                    site_key = pair.routes[index].site.key
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
            clean_total += int(np.count_nonzero(clean_tf))

            keep_tf = mix_float_array(pf, ts_tf, 29) < keep_threshold
            record_tf = ~clean_tf | keep_tf
            if not record_tf.any():
                continue

            eidx_tf = pair.epoch_of(r_tf)
            for row in np.nonzero(record_tf)[0]:
                row = int(row)
                ts = int(ts_tf[row])
                route = pair.routes[pair.epochs[int(eidx_tf[row])][2]]
                kept.append(
                    (
                        (int(r_tf[row]), vp.vp_id, pair.addr_idx),
                        self._build_observation(
                            vp,
                            pair,
                            ts,
                            route.site.key,
                            None if evt_tf[row] < 0 else plan.bitflips[int(evt_tf[row])],
                            frozen_of.get(row),
                            int(offset_tf[row]),
                        ),
                    )
                )

        collector.transfer_total += total
        collector.transfer_clean += clean_total
        kept.sort(key=lambda item: item[0])
        for _key, obs in kept:
            collector.transfers.append(obs)

    def _build_observation(
        self,
        vp: VantagePoint,
        pair: _PairPlan,
        ts: int,
        site_key: str,
        bitflip,
        frozen,
        clock_offset: int,
    ) -> TransferObservation:
        """Serve + record one kept transfer, mirroring
        ``Prober._do_transfer``."""
        prober = self.prober
        deployment = prober.deployments[pair.sa.letter]
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
            vp_id=vp.vp_id,
            true_ts=ts,
            observed_ts=ts + clock_offset,
            address=pair.sa,
            serial=zone.serial,
            zone=zone,
            fault=fault,
            fault_detail=fault_detail,
        )

