"""The churn process's test oracles.

:class:`repro.netsim.epochs.PairEpochs` is the runtime's only churn
process: it emits every pair's route epochs one round range at a time.
This module states the same process twice more, one round at a time:

* :class:`ChurnOracle` is the per-(client, address) flap state machine,
  advanced by one call per round — the reference that
  ``test_epochs.py``, ``tests/property/test_invariants.py`` and the
  scalar campaign oracle (``tests/vantage/scalar_campaign.py``) compare
  against;
* :func:`compile_pair_epochs` runs that machine's triggers over a whole
  campaign and returns one pair's complete epoch list at once;
  ``test_epochs.py`` checks the stream's concatenated ranges against it.

It is test-only: no runtime code calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.netsim.churn import ChurnModel
from repro.netsim.epochs import Epoch
from repro.netsim.mix import mix64, mix_float, mix64_prefix, mix_float_array, mix_str


@dataclass
class ChurnState:
    """Mutable per-(client, address) flap state.

    Routing excursions are short-lived: the preferred route disappears
    for a couple of measurement intervals and comes back (away + back =
    two observed changes).  ``excursion_left`` counts the remaining
    displaced rounds.
    """

    excursion_prob: float
    current_index: int = 0
    excursion_left: int = 0


class ChurnOracle:
    """Creates and advances per-pair churn state of *churn*'s process."""

    def __init__(self, churn: ChurnModel) -> None:
        self.churn = churn
        self.seed = churn.seed
        self._states: Dict[Tuple[int, str], ChurnState] = {}

    def state_for(
        self, client_id: int, address: str, letter: str, family: int
    ) -> ChurnState:
        """The (lazily created) churn state for one pair."""
        key = (client_id, address)
        if key not in self._states:
            pair_hash = mix64(client_id, self.churn.address_hash(address))
            prob = self.churn._excursion_prob(
                letter,
                family,
                mix_float(self.seed, pair_hash, 1),
                mix_float(self.seed, pair_hash, 2),
            )
            self._states[key] = ChurnState(excursion_prob=prob)
        return self._states[key]

    def select_index(
        self,
        client_id: int,
        address: str,
        letter: str,
        family: int,
        round_no: int,
        n_candidates: int,
    ) -> int:
        """The candidate index the pair uses in measurement *round_no*.

        Must be called with non-decreasing ``round_no`` per pair; each
        call advances the flap process by one interval.  It equals the
        runtime process only when called with every round in order.
        """
        state = self.state_for(client_id, address, letter, family)
        if n_candidates <= 1:
            state.current_index = 0
            return 0
        if state.excursion_left > 0:
            state.excursion_left -= 1
            if state.excursion_left == 0:
                state.current_index = 0
        elif state.current_index == 0:
            address_hash = self.churn.address_hash(address)
            u = mix_float(self.seed, client_id, address_hash, round_no)
            if u < state.excursion_prob:
                # Excursion depth: mostly the runner-up; duration: short
                # (1-3 rounds), so displaced time stays a sliver of the
                # campaign even for flappy pairs.
                depth_u = mix_float(self.seed, client_id, round_no, 7)
                depth = 1 + int(depth_u * depth_u * (n_candidates - 1))
                state.current_index = min(depth, n_candidates - 1)
                duration_u = mix_float(self.seed, client_id, round_no, 11)
                state.excursion_left = 1 + int(duration_u * 3.0)
        return min(state.current_index, n_candidates - 1)


def compile_pair_epochs(
    churn: ChurnModel,
    client_id: int,
    address: str,
    letter: str,
    family: int,
    n_rounds: int,
    n_candidates: int,
) -> List[Epoch]:
    """The pair's campaign as ``(round_start, round_end, index)`` epochs.

    Equivalent to ``[ChurnOracle(churn).select_index(client_id, address,
    letter, family, r, n_candidates) for r in range(n_rounds)]``
    run-length encoded.
    """
    if n_rounds <= 0:
        return []
    if n_candidates <= 1:
        return [(0, n_rounds, 0)]

    state = ChurnOracle(churn).state_for(client_id, address, letter, family)
    prob = state.excursion_prob
    seed = churn.seed

    # Per-round trigger uniforms, evaluated in bulk.  Only the rounds
    # where the state machine actually *checks* the trigger (at the
    # preferred route, not inside or immediately after an excursion) are
    # consumed below.
    rounds = np.arange(n_rounds, dtype=np.int64)
    u = mix_float_array(mix64_prefix(seed, client_id, mix_str(address)), rounds)
    triggers = np.nonzero(u < prob)[0]

    epochs: List[Epoch] = []
    cursor = 0  # first round not yet assigned to an epoch
    resume = 0  # first round at which the trigger check is live again
    for t in triggers:
        t = int(t)
        if t < resume:
            continue  # inside an excursion, or the untriggered return round
        depth_u = mix_float(seed, client_id, t, 7)
        depth = 1 + int(depth_u * depth_u * (n_candidates - 1))
        depth = min(depth, n_candidates - 1)
        duration_u = mix_float(seed, client_id, t, 11)
        duration = 1 + int(duration_u * 3.0)
        if t > cursor:
            epochs.append((cursor, t, 0))
        end = min(t + duration, n_rounds)
        epochs.append((t, end, depth))
        cursor = end
        # The round the pair returns to the preferred route takes the
        # excursion-countdown branch, so the next trigger check is one
        # round later still.
        resume = t + duration + 1
        if cursor >= n_rounds:
            break
    if cursor < n_rounds:
        epochs.append((cursor, n_rounds, 0))
    return epochs


def epoch_change_count(epochs: List[Epoch]) -> int:
    """Consecutive-round route changes implied by an epoch list.

    Adjacent epochs always carry different candidate indices (an
    excursion departs from and returns to index 0), and candidate lists
    are site-deduplicated, so each boundary is exactly one observed
    catchment change.
    """
    return max(0, len(epochs) - 1)
