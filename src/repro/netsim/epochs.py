"""Route epochs: every pair's campaign compiled into constant-route runs.

Between churn flips a (VP, service address) pair's route is static, so
a pair's campaign is a handful of ``(round_start, round_end,
candidate_index)`` *epochs*.  The churn process (parameters in
:class:`~repro.netsim.churn.ChurnModel`) only ever leaves the preferred
route on an excursion trigger, and triggers are sparse, so a pair's
epochs are its *excursions* (``(t, t + duration, depth)``, one per
accepted trigger) with implicit index-0 gap epochs between them: one
epoch when the pair never flips, ``2k (+1)`` epochs for ``k``
excursions.  This module is the churn process's only implementation:
the campaign engine and the Atlas platform take whole ranges of rounds,
and :func:`index_at` answers one pair at one round (the per-request
``RouteSelector.select``), so route choice is a pure function of
(client, address, round).

:class:`PairEpochs` compiles the whole campaign of every pair at once,
as flat arrays:

* **Trigger scan.**  The per-round trigger uniform of the state machine
  is evaluated for blocks of pairs × all rounds in one
  :func:`~repro.netsim.mix.mix_float_array` pass, each block bounded by
  :data:`CELL_BUDGET` cells.
* **Acceptance.**  A trigger is acted on only when the pair is back on
  its preferred route for a round: at least ``duration + 1`` rounds
  after the last accepted one.  A trigger more than
  :data:`MAX_EXCURSION` rounds after its predecessor is therefore always
  accepted; only the rare closer ones take a short sequential walk.
* **Range views.**  :meth:`PairEpochs.take` walks the triggers up to
  ``hi`` and returns the epochs of every pair overlapping ``[lo, hi)``,
  with true (unclipped) bounds, as arrays sorted by (pair, start) — a
  fixed number of numpy passes however many pairs there are.

Between ranges the walk holds the raw trigger rounds (one int64 key
each, all pairs in one array) and, per pair, a cursor, a resume round
and the last excursion entered — never an epoch list; gap epochs are
implicit and range views are not retained.  The index sequence is
*identical* to stepping the per-pair churn state machine round by round
— the test oracle in tests/netsim/epoch_oracle.py, checked by
tests/netsim/test_epochs.py over the full candidate count / probability
space — which is what keeps the epoch-compiled campaign engine's
collector byte-identical to the scalar campaign oracle.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.netsim.churn import ChurnModel
from repro.netsim.mix import mix64_array, mix64_prefix, mix_float_array

#: One epoch: the pair uses candidate ``index`` for rounds
#: ``[start, end)``.
Epoch = Tuple[int, int, int]

#: Pair×round cells one array pass may cover: the trigger scan's block
#: of pairs × rounds here, and the epoch engine's sub-range of rounds ×
#: pairs.  Bounds transient memory (a few arrays of this many 8-byte
#: elements); any value yields identical output.
CELL_BUDGET = 1 << 16

#: Longest excursion in rounds: ``duration = 1 + int(u * 3.0)``, u < 1.
MAX_EXCURSION = 3


class RangeEpochs(NamedTuple):
    """Every pair's epochs overlapping one round range.

    Rows are sorted by (pair, start); ``ptr[p]:ptr[p + 1]`` is pair
    *p*'s segment, never empty (epochs partition the campaign).
    """

    pair: np.ndarray
    start: np.ndarray
    end: np.ndarray
    index: np.ndarray
    ptr: np.ndarray


class PairEpochs:
    """All pairs' campaign epochs, emitted one round range at a time.

    *pairs* lists ``(client_id, address, letter, family)`` per pair and
    *n_candidates* each pair's candidate count.  Compilation scans the
    triggers with each pair's excursion probability (``ChurnModel.
    excursion_probs``) and never creates or advances churn state.

    Between ranges the walk keeps, per pair, the first unresolved
    trigger, the round its trigger check is live again, and the last
    excursion it entered (the only one a range boundary can split);
    epochs are materialised for the requested range only.  Ranges must
    therefore ascend: :meth:`take` refuses to rewind below a previously
    consumed ``hi``.
    """

    def __init__(
        self,
        churn: ChurnModel,
        pairs: Sequence[Tuple[int, str, str, int]],
        n_rounds: int,
        n_candidates: Sequence[int],
    ) -> None:
        self.n_rounds = n_rounds
        self.n_pairs = len(pairs)
        n_pairs = self.n_pairs
        self._seed = churn.seed
        self._client = np.array([p[0] for p in pairs], dtype=np.int64)
        self._n_cand = np.asarray(n_candidates, dtype=np.int64).reshape(-1)
        #: Band keys ``pair * (n_rounds + 1) + round``: one searchsorted
        #: over all pairs finds each pair's entries at or past a round.
        self._base = np.arange(n_pairs, dtype=np.int64) * np.int64(n_rounds + 1)

        self._trig_key = self._scan(churn, pairs, n_rounds, self._n_cand)
        ptr = np.searchsorted(
            self._trig_key, np.arange(n_pairs + 1, dtype=np.int64) * (n_rounds + 1)
        )
        self._trig_end = ptr[1:]

        # walk state
        self._consumed_to = 0
        self._next = ptr[:-1].copy()  # first unresolved trigger
        self._resume = np.zeros(n_pairs, dtype=np.int64)
        self._last_start = np.full(n_pairs, -1, dtype=np.int64)  # -1: none yet
        self._last_end = np.zeros(n_pairs, dtype=np.int64)
        self._last_index = np.zeros(n_pairs, dtype=np.int64)

    @staticmethod
    def _scan(
        churn: ChurnModel,
        pairs: Sequence[Tuple[int, str, str, int]],
        n_rounds: int,
        n_cand: np.ndarray,
    ) -> np.ndarray:
        """Band key of every round whose trigger uniform clears its
        pair's excursion probability, ascending (pair-major)."""
        empty = np.empty(0, dtype=np.int64)
        live = np.nonzero(n_cand > 1)[0] if n_rounds > 0 else empty
        if not len(live):
            return empty
        live_pairs = [pairs[p] for p in live.tolist()]
        prob = churn.excursion_probs(live_pairs)
        client = np.array([p[0] for p in live_pairs], dtype=np.int64)
        hashes = np.array(
            [churn.address_hash(p[1]) for p in live_pairs], dtype=np.uint64
        )
        prefix = mix64_array(mix64_array(mix64_prefix(churn.seed), client), hashes)

        rounds = np.arange(n_rounds, dtype=np.int64)
        block = max(1, CELL_BUDGET // n_rounds)
        keys: List[np.ndarray] = []
        for b in range(0, len(live), block):
            u = mix_float_array(prefix[b:b + block, None], rounds[None, :])
            hits = np.flatnonzero(u < prob[b:b + block, None])
            rows, cols = np.divmod(hits, n_rounds)
            keys.append(live[b:b + block][rows] * (n_rounds + 1) + cols)
        return np.concatenate(keys)

    def _resolve(self, hi: int) -> Tuple[np.ndarray, ...]:
        """Walk every pair's unresolved triggers before round *hi*.

        Returns the excursions entered, as (pair, start, end, index)
        arrays sorted by (pair, start), and advances the walk state."""
        n_pairs = self.n_pairs
        stop = np.searchsorted(self._trig_key, self._base + hi, side="left")
        count = stop - self._next
        pair = np.repeat(np.arange(n_pairs, dtype=np.int64), count)
        seg = np.zeros(n_pairs + 1, dtype=np.int64)
        np.cumsum(count, out=seg[1:])
        idx = self._next[pair] + (np.arange(seg[-1], dtype=np.int64) - seg[:-1][pair])
        t = self._trig_key[idx] - self._base[pair]

        state = mix64_array(mix64_prefix(self._seed), self._client[pair])
        depth_u = mix_float_array(state, t, 7)
        n_cand = self._n_cand[pair]
        depth = 1 + (depth_u * depth_u * (n_cand - 1)).astype(np.int64)
        depth = np.minimum(depth, n_cand - 1)
        duration = 1 + (mix_float_array(state, t, 11) * 3.0).astype(np.int64)

        first = np.zeros(len(t), dtype=bool)
        first[seg[:-1][count > 0]] = True
        accepted, resume = _accept(first, t, duration, self._resume[pair])

        done = count > 0
        self._resume[done] = resume[seg[1:][done] - 1]
        self._next = stop
        pair, t = pair[accepted], t[accepted]
        end = np.minimum(t + duration[accepted], self.n_rounds)
        return pair, t, end, depth[accepted]

    def take(self, lo: int, hi: int) -> RangeEpochs:
        """Every pair's epochs overlapping ``[lo, hi)``, true bounds
        preserved.

        Ranges must ascend: ``lo`` may not precede a previously consumed
        ``hi``.  The first call may start anywhere (a resumed campaign
        walks the triggers before ``lo`` once).
        """
        n = self.n_rounds
        n_pairs = self.n_pairs
        if not 0 <= lo < hi <= n:
            raise ValueError(
                f"round range [{lo}, {hi}) outside campaign [0, {n})"
            )
        if lo < self._consumed_to:
            raise ValueError(
                f"epoch stream already consumed through round "
                f"{self._consumed_to}; cannot rewind to {lo}"
            )
        self._consumed_to = hi

        # Each pair's excursions: the carried last one, then the new ones.
        carried = np.nonzero(self._last_start >= 0)[0]
        new_pair, new_start, new_end, new_index = self._resolve(hi)
        x_pair = np.concatenate([carried, new_pair])
        order = np.argsort(x_pair, kind="stable")
        x_pair = x_pair[order]
        x_start = np.concatenate([self._last_start[carried], new_start])[order]
        x_end = np.concatenate([self._last_end[carried], new_end])[order]
        x_index = np.concatenate([self._last_index[carried], new_index])[order]
        x_ptr = np.searchsorted(x_pair, np.arange(n_pairs + 1))
        has_x = x_ptr[1:] > x_ptr[:-1]
        last = x_ptr[1:][has_x] - 1
        self._last_start[has_x] = x_start[last]
        self._last_end[has_x] = x_end[last]
        self._last_index[has_x] = x_index[last]

        # The trailing gap runs to the next trigger the walk will accept:
        # the first at or after both hi and the pair's resume round.
        after = np.minimum(np.maximum(self._resume, hi), n)
        q = np.searchsorted(self._trig_key, self._base + after, side="left")
        next_start = np.full(n_pairs, n, dtype=np.int64)
        found = q < self._trig_end
        next_start[found] = self._trig_key[q[found]] - self._base[found]

        # Slots: gap, excursion, gap, ..., excursion, gap per pair.
        slots = 2 * (x_ptr[1:] - x_ptr[:-1]) + 1
        offsets = np.zeros(n_pairs + 1, dtype=np.int64)
        np.cumsum(slots, out=offsets[1:])
        pair = np.repeat(np.arange(n_pairs, dtype=np.int64), slots)
        local = np.arange(offsets[-1], dtype=np.int64) - offsets[:-1][pair]
        j = x_ptr[:-1][pair] + local // 2  # excursion at / after the slot
        is_x = (local & 1).astype(bool)
        has_prev = j > x_ptr[:-1][pair]
        has_next = j < x_ptr[1:][pair]
        if len(x_pair):
            at = np.minimum(j, len(x_pair) - 1)
            before = np.maximum(j - 1, 0)
            cur_start, cur_end = x_start[at], x_end[at]
            prev_end, cur_index = x_end[before], x_index[at]
        else:
            cur_start = cur_end = prev_end = cur_index = np.zeros_like(j)
        start = np.where(is_x, cur_start, np.where(has_prev, prev_end, 0))
        end = np.where(
            is_x, cur_end, np.where(has_next, cur_start, next_start[pair])
        )
        index = np.where(is_x, cur_index, 0)
        # Drop what lies outside the range (the gap before a carried
        # excursion, a carried excursion that ended at lo) or is empty
        # (an excursion at round 0, or one running to the end).
        keep = (end > start) & (end > lo) & (start < hi)
        pair, start, end, index = pair[keep], start[keep], end[keep], index[keep]
        ptr = np.searchsorted(pair, np.arange(n_pairs + 1))
        return RangeEpochs(pair, start, end, index, ptr)


def index_at(
    churn: ChurnModel,
    pair: Tuple[int, str, str, int],
    round_no: int,
    n_candidates: int,
) -> int:
    """The candidate index *pair* (``(client_id, address, letter,
    family)``) uses in round *round_no*: the pair's walk through that
    round, read at it.  Costs one pair's trigger scan over
    ``round_no + 1`` rounds."""
    walk = PairEpochs(churn, [pair], round_no + 1, [n_candidates])
    return int(walk.take(round_no, round_no + 1).index[0])


def _accept(
    first: np.ndarray,
    t: np.ndarray,
    duration: np.ndarray,
    resume_before: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Which triggers the churn state machine acts on, and the resume
    round in force after each.

    Triggers come in per-pair runs (``first`` marks each run's start,
    ``resume_before`` the resume round in force before it).  A trigger
    at round ``t`` is live iff ``t >= resume``, where ``resume = t' +
    duration' + 1`` for the last accepted trigger ``t'`` of the pair
    (the return round takes the countdown branch, so the check is live
    one round later still).  A trigger more than :data:`MAX_EXCURSION`
    rounds past its predecessor is live whatever came before; only the
    rest are walked one by one.
    """
    accepted = first & (t >= resume_before)
    later = ~first
    later[1:] &= (t[1:] - t[:-1]) > MAX_EXCURSION
    accepted |= later
    resume = np.where(accepted, t + duration + 1, resume_before)
    ambiguous = np.nonzero(~first & ~later)[0].tolist()
    if ambiguous:
        rounds = t.tolist()
        ends = (t + duration + 1).tolist()
        after = resume.tolist()
        for i in ambiguous:
            if rounds[i] >= after[i - 1]:
                accepted[i] = True
                after[i] = ends[i]
            else:
                after[i] = after[i - 1]
        resume = np.array(after, dtype=np.int64)
    return accepted, resume

