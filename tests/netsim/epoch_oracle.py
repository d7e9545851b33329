"""The whole-campaign epoch compiler: the oracle for the epoch stream.

:class:`repro.netsim.epochs.PairEpochs` emits every pair's route epochs
one round range at a time.  This module states the same churn state
machine as one pass over the whole campaign, returning the complete
epoch list at once; ``test_epochs.py`` checks it against scalar
``ChurnModel.select_index`` and checks the stream's concatenated ranges
against it.  It is test-only: no runtime code calls it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.netsim.churn import ChurnModel
from repro.netsim.epochs import Epoch
from repro.netsim.mix import mix_float, mix64_prefix, mix_float_array, mix_str


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

    Equivalent to ``[churn.select_index(client_id, address, letter,
    family, r, n_candidates) for r in range(n_rounds)]`` run-length
    encoded — but without advancing any churn state, so compilation can
    interleave freely with (or replace) scalar selection.
    """
    if n_rounds <= 0:
        return []
    if n_candidates <= 1:
        return [(0, n_rounds, 0)]

    state = churn.state_for(client_id, address, letter, family)
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
