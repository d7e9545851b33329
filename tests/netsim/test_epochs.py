"""Epoch compilation must replay the churn state machine exactly."""

import numpy as np
import pytest

from repro.netsim.churn import ChurnModel, TARGET_MEDIAN_CHANGES
from repro.netsim.epochs import CELL_BUDGET, PairEpochs, index_at

from tests.netsim.epoch_oracle import (
    ChurnOracle,
    compile_pair_epochs,
    epoch_change_count,
)


def scalar_indices(seed, client_id, address, letter, family, n_rounds, n_candidates):
    oracle = ChurnOracle(ChurnModel(seed, expected_rounds=max(1, n_rounds)))
    return [
        oracle.select_index(client_id, address, letter, family, r, n_candidates)
        for r in range(n_rounds)
    ]


def epochs_to_indices(epochs, n_rounds):
    out = [None] * n_rounds
    for start, end, index in epochs:
        for r in range(start, end):
            assert out[r] is None, "overlapping epochs"
            out[r] = index
    assert None not in out, "epoch gap"
    return out


def single_pair(churn, client_id, address, letter, family, n_rounds, n_candidates):
    """A one-pair :class:`PairEpochs` walk."""
    return PairEpochs(
        churn, [(client_id, address, letter, family)], n_rounds, [n_candidates]
    )


def take_epochs(walk, lo, hi):
    """``walk.take(lo, hi)`` of a one-pair walk as epoch tuples."""
    got = walk.take(lo, hi)
    return list(zip(got.start.tolist(), got.end.tolist(), got.index.tolist()))


def compiled_indices(seed, client_id, address, letter, family, n_rounds, n_candidates):
    churn = ChurnModel(seed, expected_rounds=max(1, n_rounds))
    epochs = compile_pair_epochs(
        churn, client_id, address, letter, family, n_rounds, n_candidates
    )
    return epochs_to_indices(epochs, n_rounds), epochs


class TestEpochEquivalence:
    @pytest.mark.parametrize("letter,family", sorted(TARGET_MEDIAN_CHANGES))
    def test_every_letter_family(self, letter, family):
        n_rounds, n_candidates = 400, 5
        address = f"192.0.2.{ord(letter)}" if family == 4 else f"2001:db8::{letter}"
        for client_id in (0, 7, 123):
            want = scalar_indices(11, client_id, address, letter, family, n_rounds, n_candidates)
            got, _ = compiled_indices(11, client_id, address, letter, family, n_rounds, n_candidates)
            assert got == want

    @pytest.mark.parametrize("n_candidates", [1, 2, 3, 9, 40])
    def test_candidate_counts(self, n_candidates):
        for seed in (1, 2024):
            for client_id in range(6):
                want = scalar_indices(seed, client_id, "198.41.0.4", "g", 6, 600, n_candidates)
                got, _ = compiled_indices(seed, client_id, "198.41.0.4", "g", 6, 600, n_candidates)
                assert got == want

    def test_flappy_pair_stress(self):
        """Hunt for a heavy-tailed pair (high excursion probability) and
        check the dense trigger regime too."""
        checked_flappy = 0
        for client_id in range(200):
            churn = ChurnModel(3, expected_rounds=100)
            state = ChurnOracle(churn).state_for(client_id, "199.7.91.13", "g", 6)
            if state.excursion_prob > 0.2:
                checked_flappy += 1
                want = scalar_indices(3, client_id, "199.7.91.13", "g", 6, 300, 7)
                got, _ = compiled_indices(3, client_id, "199.7.91.13", "g", 6, 300, 7)
                assert got == want
        assert checked_flappy > 0, "no flappy pair found; loosen the search"

    def test_change_count_matches_transitions(self):
        indices, epochs = compiled_indices(5, 42, "192.33.4.12", "c", 4, 500, 6)
        transitions = sum(
            1 for a, b in zip(indices, indices[1:]) if a != b
        )
        assert epoch_change_count(epochs) == transitions

    def test_single_candidate_single_epoch(self):
        _, epochs = compiled_indices(5, 1, "192.0.2.1", "a", 4, 50, 1)
        assert epochs == [(0, 50, 0)]

    def test_no_rounds(self):
        churn = ChurnModel(5, expected_rounds=10)
        assert compile_pair_epochs(churn, 1, "192.0.2.1", "a", 4, 0, 4) == []

    def test_streamed_equals_compiled_across_chunkings(self):
        """Concatenated take() ranges reproduce compile_pair_epochs for
        every chunk size, with boundary epochs deduplicated."""
        for n_candidates in (1, 2, 5, 40):
            for seed, client_id in ((1, 0), (2024, 3), (3, 77)):
                n_rounds = 400
                want = compile_pair_epochs(
                    ChurnModel(seed, expected_rounds=n_rounds),
                    client_id, "198.41.0.4", "g", 6, n_rounds, n_candidates,
                )
                for chunk in (1, 3, 7, 50, 160, n_rounds):
                    got = self._streamed(
                        seed, client_id, n_rounds, n_candidates, chunk
                    )
                    assert got == want, (n_candidates, seed, client_id, chunk)

    @staticmethod
    def _streamed(seed, client_id, n_rounds, n_candidates, chunk):
        walk = single_pair(
            ChurnModel(seed, expected_rounds=n_rounds),
            client_id, "198.41.0.4", "g", 6, n_rounds, n_candidates,
        )
        out = []
        for lo in range(0, n_rounds, chunk):
            hi = min(lo + chunk, n_rounds)
            for epoch in take_epochs(walk, lo, hi):
                # An epoch spanning a chunk boundary is returned by both
                # adjacent takes (true bounds preserved); dedupe it.
                if not out or out[-1] != epoch:
                    out.append(epoch)
        return out

    def test_streamed_flappy_pair(self):
        """The dense-trigger regime streams exactly too."""
        checked = 0
        for client_id in range(200):
            churn = ChurnModel(3, expected_rounds=100)
            state = ChurnOracle(churn).state_for(client_id, "199.7.91.13", "g", 6)
            if state.excursion_prob > 0.2:
                checked += 1
                want = compile_pair_epochs(
                    ChurnModel(3, expected_rounds=300),
                    client_id, "199.7.91.13", "g", 6, 300, 7,
                )
                walk = single_pair(
                    ChurnModel(3, expected_rounds=300),
                    client_id, "199.7.91.13", "g", 6, 300, 7,
                )
                got = []
                for lo in range(0, 300, 11):
                    for epoch in take_epochs(walk, lo, min(lo + 11, 300)):
                        if not got or got[-1] != epoch:
                            got.append(epoch)
                assert got == want
        assert checked > 0, "no flappy pair found; loosen the search"

    def test_streamed_take_returns_exact_overlap(self):
        """take(lo, hi) is exactly the compiled epochs overlapping
        [lo, hi), including a mid-campaign first call (resume)."""
        n_rounds = 500
        compiled = compile_pair_epochs(
            ChurnModel(5, expected_rounds=n_rounds), 42, "192.33.4.12", "c", 4,
            n_rounds, 6,
        )
        for lo, hi in ((0, 120), (130, 400), (411, 500)):
            walk = single_pair(
                ChurnModel(5, expected_rounds=n_rounds), 42, "192.33.4.12",
                "c", 4, n_rounds, 6,
            )
            want = [e for e in compiled if e[1] > lo and e[0] < hi]
            assert take_epochs(walk, lo, hi) == want

    def test_streamed_rejects_rewind(self):
        walk = single_pair(
            ChurnModel(5, expected_rounds=100), 1, "192.0.2.1", "a", 4, 100, 4
        )
        walk.take(0, 50)
        with pytest.raises(ValueError, match="cannot rewind"):
            walk.take(20, 60)
        with pytest.raises(ValueError, match="outside campaign"):
            walk.take(50, 101)

    def test_compilation_does_not_advance_state(self):
        """Compiling then selecting must equal selecting alone."""
        churn = ChurnModel(9, expected_rounds=200)
        pair = (3, "192.58.128.30", "j", 4)
        compile_pair_epochs(churn, *pair, 200, 5)
        single_pair(churn, *pair, 200, 5).take(0, 200)
        via_shared = [index_at(churn, pair, r, 5) for r in range(200)]
        assert via_shared == scalar_indices(9, *pair, 200, 5)

    def test_index_at_ignores_what_was_asked_before(self):
        """One-round lookups in any order equal the state machine
        stepped through every round."""
        churn = ChurnModel(3, expected_rounds=60)
        displaced = 0
        for client_id in range(40):
            pair = (client_id, "199.7.91.13", "g", 6)
            want = scalar_indices(3, *pair, 60, 7)
            for r in (59, 0, 31, 30, 7, 58):
                assert index_at(churn, pair, r, 7) == want[r], (client_id, r)
                displaced += want[r] != 0
        assert displaced > 0, "no lookup landed in an excursion"


class TestPairBatch:
    """All pairs walked together equal each pair walked alone."""

    @staticmethod
    def _pairs():
        # a flappy-heavy mix: short expected campaign, many candidates
        pairs, n_candidates = [], []
        for client_id in range(40):
            for address, letter, family in (
                ("198.41.0.4", "a", 4),
                ("199.7.91.13", "g", 6),
                ("192.33.4.12", "c", 4),
            ):
                pairs.append((client_id, address, letter, family))
                n_candidates.append(1 + (client_id * 7 + ord(letter)) % 6)
        return pairs, n_candidates

    @pytest.mark.parametrize("budget", [1, 7, CELL_BUDGET])
    def test_batch_equals_per_pair_across_chunkings(self, monkeypatch, budget):
        import repro.netsim.epochs as epochs_module

        monkeypatch.setattr(epochs_module, "CELL_BUDGET", budget)
        pairs, n_candidates = self._pairs()
        n_rounds = 120
        want = [
            compile_pair_epochs(
                ChurnModel(4, expected_rounds=30), *pair, n_rounds, n_cand
            )
            for pair, n_cand in zip(pairs, n_candidates)
        ]
        assert sum(len(epochs) for epochs in want) > 4 * len(pairs)
        for chunk in (1, 5, 33, n_rounds):
            batch = PairEpochs(
                ChurnModel(4, expected_rounds=30), pairs, n_rounds, n_candidates
            )
            got = [[] for _ in pairs]
            for lo in range(0, n_rounds, chunk):
                hi = min(lo + chunk, n_rounds)
                view = batch.take(lo, hi)
                assert np.all(np.diff(view.ptr) >= 1)
                for row in range(len(view.pair)):
                    epoch = (
                        int(view.start[row]), int(view.end[row]), int(view.index[row])
                    )
                    out = got[int(view.pair[row])]
                    if not out or out[-1] != epoch:
                        out.append(epoch)
                assert np.count_nonzero(batch._last_start >= 0) <= len(pairs)
            assert got == want, chunk

    def test_mid_campaign_first_take(self):
        pairs, n_candidates = self._pairs()
        want = PairEpochs(ChurnModel(4, expected_rounds=30), pairs, 90, n_candidates)
        want.take(0, 40)
        got = PairEpochs(ChurnModel(4, expected_rounds=30), pairs, 90, n_candidates)
        for a, b in zip(want.take(40, 90), got.take(40, 90)):
            assert np.array_equal(a, b)
