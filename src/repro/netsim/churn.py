"""Routing churn: how often a client's anycast catchment flips.

The paper's Figure 3 shows strongly heterogeneous per-VP change counts —
a heavy-tailed distribution whose median differs per letter and address
family (b.root: median 8 changes for both families over 174 days; g.root:
36 on IPv4 but 64 on IPv6).  We model each (client, service address) pair
as a flap process:

* the pair draws a per-campaign expected change count from a lognormal
  around the letter/family target median (heavy tail: a few VPs see
  hundreds of changes, reproducing the Figure 3 long tail),
* each measurement interval then flips the active route with the
  corresponding per-interval probability; flips mostly bounce between the
  best and second-best route, occasionally reaching deeper alternates.

Targets for {b, g} × {v4, v6} are the paper's reported medians; the other
letters interpolate by deployment size and the paper's observation that
{c, h} also churn more on IPv6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.netsim.mix import (
    mix64,
    mix64_array,
    mix64_prefix,
    mix_float,
    mix_float_array,
    mix_str,
)

#: Target *median* total catchment changes per (letter, family) over the
#: full 174-day / 30-minute-interval campaign (paper §4.2 for b and g;
#: remaining letters scaled by deployment size, v6 > v4 for c and h).
TARGET_MEDIAN_CHANGES: Dict[Tuple[str, int], float] = {
    ("a", 4): 12, ("a", 6): 13,
    ("b", 4): 8, ("b", 6): 8,
    ("c", 4): 16, ("c", 6): 30,
    ("d", 4): 22, ("d", 6): 24,
    ("e", 4): 26, ("e", 6): 28,
    ("f", 4): 32, ("f", 6): 34,
    ("g", 4): 36, ("g", 6): 64,
    ("h", 4): 14, ("h", 6): 26,
    ("i", 4): 20, ("i", 6): 22,
    ("j", 4): 24, ("j", 6): 26,
    ("k", 4): 18, ("k", 6): 20,
    ("l", 4): 16, ("l", 6): 18,
    ("m", 4): 9, ("m", 6): 10,
}

#: The campaign the targets refer to: 174 days at 30-minute intervals.
REFERENCE_ROUNDS = 174 * 48

#: Lognormal sigma of the per-pair multiplier (tail heaviness).
PAIR_SIGMA = 1.5


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


class ChurnModel:
    """Creates and advances per-pair churn state deterministically."""

    def __init__(self, seed: int, expected_rounds: int = REFERENCE_ROUNDS) -> None:
        if expected_rounds <= 0:
            raise ValueError(f"expected_rounds must be positive: {expected_rounds}")
        self.seed = seed
        self.expected_rounds = expected_rounds
        self._states: Dict[Tuple[int, str], ChurnState] = {}
        self._address_hashes: Dict[str, int] = {}

    def address_hash(self, address: str) -> int:
        """``mix_str(address)``, memoised: a campaign asks it for every
        (client, address) pair, over a few dozen addresses."""
        h = self._address_hashes.get(address)
        if h is None:
            h = self._address_hashes[address] = mix_str(address)
        return h

    def _excursion_prob(self, letter: str, family: int, u1: float, u2: float) -> float:
        """A pair's per-round excursion probability from its two mixed
        uniforms: the letter/family target median times a heavy-tailed
        per-pair multiplier (lognormal via Box-Muller)."""
        target = TARGET_MEDIAN_CHANGES.get((letter, family), 16.0)
        u1 = max(u1, 1e-12)
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        expected_changes = target * math.exp(PAIR_SIGMA * z)
        # Each excursion contributes two observed changes (away, back).
        return min(0.4, expected_changes / (2.0 * self.expected_rounds))

    def state_for(
        self, client_id: int, address: str, letter: str, family: int
    ) -> ChurnState:
        """The (lazily created) churn state for one pair."""
        key = (client_id, address)
        if key not in self._states:
            pair_hash = mix64(client_id, self.address_hash(address))
            prob = self._excursion_prob(
                letter,
                family,
                mix_float(self.seed, pair_hash, 1),
                mix_float(self.seed, pair_hash, 2),
            )
            self._states[key] = ChurnState(excursion_prob=prob)
        return self._states[key]

    def excursion_probs(
        self, pairs: Sequence[Tuple[int, str, str, int]]
    ) -> np.ndarray:
        """``state_for(*pair).excursion_prob`` of every ``(client_id,
        address, letter, family)`` pair, creating no state.  The uniforms
        are hashed as arrays; the transform stays scalar ``math`` (numpy's
        log/cos/exp differ from it in the last bits)."""
        client = np.array([p[0] for p in pairs], dtype=np.int64)
        hashes = np.array([self.address_hash(p[1]) for p in pairs], dtype=np.uint64)
        pair_hash = mix64_array(mix64_array(mix64_prefix(), client), hashes)
        seed = mix64_prefix(self.seed)
        u1 = mix_float_array(seed, pair_hash, 1).tolist()
        u2 = mix_float_array(seed, pair_hash, 2).tolist()
        return np.array(
            [
                self._excursion_prob(letter, family, a, b)
                for (_client, _address, letter, family), a, b in zip(pairs, u1, u2)
            ],
            dtype=np.float64,
        )

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
        call advances the flap process by one interval.
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
            u = mix_float(self.seed, client_id, self.address_hash(address), round_no)
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
