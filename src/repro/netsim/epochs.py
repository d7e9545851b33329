"""Route epochs: the per-pair campaign compiled into constant-route runs.

Between churn flips a (VP, service address) pair's route is static, so
the per-round call chain ``RouteSelector.select`` → ``ChurnModel.
select_index`` — tens of millions of dict lookups and hash mixes over a
campaign — collapses into a handful of ``(round_start, round_end,
candidate_index)`` *epochs* per pair.  The flap process in
:class:`~repro.netsim.churn.ChurnModel` only ever leaves the preferred
route on an excursion trigger, and triggers are sparse, so the epoch
list is short: one epoch when the pair never flips, ``2k (+1)`` epochs
for ``k`` excursions.

:class:`PairEpochStream` replays the exact
:meth:`ChurnModel.select_index` state machine, but evaluates the
per-round trigger uniform for every round at once
(:func:`repro.netsim.mix.mix_float_array`) and then walks only the
rounds whose uniform clears the excursion probability.  The resulting
index sequence is *identical* to calling ``select_index`` round by
round — asserted by tests/netsim/test_epochs.py over the full candidate
count / probability space — which is what lets the epoch-compiled
campaign engine keep collector output byte-identical to the scalar
prober.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.netsim.churn import ChurnModel
from repro.netsim.mix import mix_float, mix64_prefix, mix_float_array, mix_str

#: One epoch: the pair uses candidate ``index`` for rounds
#: ``[start, end)``.
Epoch = Tuple[int, int, int]


class PairEpochStream:
    """One pair's campaign epochs, emitted one round range at a time.

    A full campaign's epoch lists would dominate the epoch engine's
    memory at paper scale (~1.1M tuples across ~19k pairs); the engine
    only ever needs the epochs overlapping the range it is executing.
    This class keeps the per-pair *trigger rounds* (the sparse output of
    the bulk uniform scan — a few dozen int32s) plus the walk cursor,
    and :meth:`take` materialises exactly the epochs overlapping a
    requested range, with their **true** (unclipped) bounds.

    The concatenation of ``take(lo, hi)`` results over any ascending
    sequence of ranges covering ``[0, n_rounds)`` — deduplicating the
    boundary epochs shared by adjacent ranges — equals ``[churn.
    select_index(...) for every round]`` run-length encoded, without
    advancing any churn state (tests/netsim/test_epochs.py pins the
    equivalence against a whole-campaign oracle compiler).
    """

    __slots__ = (
        "n_rounds",
        "n_candidates",
        "_seed",
        "_client_id",
        "_triggers",
        "_ti",
        "_cursor",
        "_resume",
        "_done",
        "_buffer",
        "_consumed_to",
    )

    def __init__(
        self,
        churn: ChurnModel,
        client_id: int,
        address: str,
        letter: str,
        family: int,
        n_rounds: int,
        n_candidates: int,
    ) -> None:
        self.n_rounds = n_rounds
        self.n_candidates = n_candidates
        self._seed = churn.seed
        self._client_id = client_id
        if n_rounds > 0 and n_candidates > 1:
            state = churn.state_for(client_id, address, letter, family)
            prob = state.excursion_prob
            rounds = np.arange(n_rounds, dtype=np.int64)
            u = mix_float_array(
                mix64_prefix(churn.seed, client_id, mix_str(address)), rounds
            )
            self._triggers = np.nonzero(u < prob)[0].astype(np.int32)
        else:
            self._triggers = np.empty(0, dtype=np.int32)
        self._ti = 0  # next unconsumed trigger
        self._cursor = 0  # rounds [0, cursor) are covered by emitted epochs
        self._resume = 0  # first round at which the trigger check is live
        self._done = n_rounds <= 0
        self._buffer: List[Epoch] = []  # emitted epochs not yet fully consumed
        self._consumed_to = 0

    def _fill(self, hi: int) -> None:
        """Extend the buffer until emitted epochs cover ``[0, hi)``."""
        if self.n_candidates <= 1:
            if not self._buffer and not self._done:
                self._buffer.append((0, self.n_rounds, 0))
                self._cursor = self.n_rounds
                self._done = True
            return
        seed = self._seed
        client_id = self._client_id
        n_rounds = self.n_rounds
        triggers = self._triggers
        while not self._done and self._cursor < hi:
            if self._ti >= len(triggers):
                self._buffer.append((self._cursor, n_rounds, 0))
                self._cursor = n_rounds
                self._done = True
                break
            t = int(triggers[self._ti])
            self._ti += 1
            if t < self._resume:
                continue  # inside an excursion, or the untriggered return round
            depth_u = mix_float(seed, client_id, t, 7)
            depth = 1 + int(depth_u * depth_u * (self.n_candidates - 1))
            depth = min(depth, self.n_candidates - 1)
            duration_u = mix_float(seed, client_id, t, 11)
            duration = 1 + int(duration_u * 3.0)
            if t > self._cursor:
                self._buffer.append((self._cursor, t, 0))
            end = min(t + duration, n_rounds)
            self._buffer.append((t, end, depth))
            self._cursor = end
            self._resume = t + duration + 1
            if self._cursor >= n_rounds:
                self._done = True

    def take(self, lo: int, hi: int) -> List[Epoch]:
        """Epochs overlapping ``[lo, hi)``, true bounds preserved.

        Ranges must ascend: ``lo`` may not precede a previously consumed
        ``hi`` (epochs wholly before it have been discarded).  The first
        call may start anywhere — a resumed campaign walks the cached
        triggers up to ``lo`` once, in O(#triggers)."""
        if not 0 <= lo < hi <= self.n_rounds:
            raise ValueError(
                f"round range [{lo}, {hi}) outside campaign [0, {self.n_rounds})"
            )
        if lo < self._consumed_to:
            raise ValueError(
                f"epoch stream already consumed through round "
                f"{self._consumed_to}; cannot rewind to {lo}"
            )
        self._fill(hi)
        out = [e for e in self._buffer if e[1] > lo and e[0] < hi]
        self._buffer = [e for e in self._buffer if e[1] > hi]
        self._consumed_to = hi
        return out

