"""Routing churn: how often a client's anycast catchment flips.

The paper's Figure 3 shows strongly heterogeneous per-VP change counts —
a heavy-tailed distribution whose median differs per letter and address
family (b.root: median 8 changes for both families over 174 days; g.root:
36 on IPv4 but 64 on IPv6).  We model each (client, service address) pair
as a flap process:

* the pair draws a per-campaign expected change count from a lognormal
  around the letter/family target median (heavy tail: a few VPs see
  hundreds of changes, reproducing the Figure 3 long tail),
* each measurement interval then starts an *excursion* with the
  corresponding per-interval probability: the route leaves the preferred
  one for one to three rounds, mostly to the runner-up, occasionally to a
  deeper alternate, and comes back.

The route a pair uses in a round is a pure function of (client, address,
round): :class:`~repro.netsim.epochs.PairEpochs` compiles the process,
and :class:`ChurnModel` holds only its parameters.

Targets for {b, g} × {v4, v6} are the paper's reported medians; the other
letters interpolate by deployment size and the paper's observation that
{c, h} also churn more on IPv6.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.netsim.mix import mix64_array, mix64_prefix, mix_float_array, mix_str

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


class ChurnModel:
    """The churn process's parameters: the seed, the campaign length the
    change targets are spread over, and each pair's excursion
    probability.  It holds no per-pair state; :class:`~repro.netsim.
    epochs.PairEpochs` compiles the process itself."""

    def __init__(self, seed: int, expected_rounds: int = REFERENCE_ROUNDS) -> None:
        if expected_rounds <= 0:
            raise ValueError(f"expected_rounds must be positive: {expected_rounds}")
        self.seed = seed
        self.expected_rounds = expected_rounds
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

    def excursion_probs(
        self, pairs: Sequence[Tuple[int, str, str, int]]
    ) -> np.ndarray:
        """The per-round excursion probability of every ``(client_id,
        address, letter, family)`` pair.  The uniforms are hashed as
        arrays; the transform stays scalar ``math`` (numpy's log/cos/exp
        differ from it in the last bits)."""
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
