"""Tests for the random-draw war engine."""

import math

import pytest

from warlab.core import GameState, RngStream, build_deck, deal_uniform
from warlab.exact import srw_oracle
from warlab.pwar import PwarConfig, pwar_run, pwar_step
from warlab.rules import (
    rule_coin,
    rule_greater_tiecoin,
    rule_max_holder,
    rule_powered,
)
from warlab.stats import fairness_test, run_trials


def _state(deck, a_ranks):
    """Unordered state with the first player holding the given ranks
    (distinct-rank decks only)."""
    ids_by_rank = {c.rank: c.id for c in deck.cards}
    a = frozenset(ids_by_rank[r] for r in a_ranks)
    b = frozenset(range(deck.size)) - a
    return GameState(hand_a=a, hand_b=b)


class TestPwarStep:
    def test_dominant_hand_always_gains(self):
        """Hand {3,4} of a 4-card deck beats {1,2} every round."""
        deck = build_deck((4, 1))
        rule = rule_greater_tiecoin()
        for i in range(200):
            state = _state(deck, {3, 4})
            nxt = pwar_step(state, rule, deck, RngStream(1, i))
            assert len(nxt.hand_a) == 3
            assert nxt.round == 1

    def test_two_card_deck_absorbs(self):
        """Holding the high card of a 2-card deck wins in one step."""
        deck = build_deck((2, 1))
        state = _state(deck, {2})
        nxt = pwar_step(state, rule_greater_tiecoin(), deck, RngStream(0, 0))
        assert nxt.is_absorbing
        assert nxt.hand_a == frozenset({0, 1})

    def test_coin_rule_moves_one_card_fairly(self):
        deck = build_deck((6, 1))
        state = _state(deck, {1, 2, 3})
        gains = 0
        n = 4000
        for i in range(n):
            nxt = pwar_step(state, rule_coin(), deck, RngStream(2, i))
            assert abs(len(nxt.hand_a) - 3) == 1
            gains += len(nxt.hand_a) == 4
        assert abs(gains / n - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_rejects_absorbing_state(self):
        deck = build_deck((2, 1))
        with pytest.raises(ValueError):
            pwar_step(
                GameState(frozenset(), frozenset({0, 1})),
                rule_coin(),
                deck,
                RngStream(0),
            )

    def test_rejects_ordered_hands(self):
        deck = build_deck((2, 1))
        with pytest.raises(ValueError):
            pwar_step(GameState((0,), (1,)), rule_coin(), deck, RngStream(0))


class TestPwarRun:
    def test_two_card_trivial_game(self):
        deck = build_deck((2, 1))
        rec = pwar_run(
            _state(deck, {2}), rule_greater_tiecoin(), deck, RngStream(0, 0)
        )
        assert rec.tau == 1
        assert rec.winner == "A"

    def test_run_equals_iterated_steps(self):
        """pwar_run consumes the stream exactly like repeated pwar_step."""
        deck = build_deck((8, 1))
        rule = rule_powered()
        for trial in range(20):
            init = deal_uniform(deck, 4, RngStream(11, trial))
            rec = pwar_run(init, rule, deck, RngStream(99, trial),
                           record_trace=True)
            state = init
            rng = RngStream(99, trial)
            sizes = [len(state.hand_a)]
            while not state.is_absorbing:
                state = pwar_step(state, rule, deck, rng)
                sizes.append(len(state.hand_a))
            assert rec.tau == state.round
            assert rec.trace == tuple(sizes)
            assert rec.winner == ("A" if state.hand_a else "B")

    def test_trajectory_and_metadata(self):
        deck = build_deck((4, 1))
        rec = pwar_run(
            _state(deck, {1, 2}), rule_coin(), deck, RngStream(5, 3),
            record_trace=True,
        )
        assert rec.trace[0] == 2
        assert rec.trace[-1] in (0, 4)
        assert len(rec.trace) == rec.tau + 1
        # consecutive sizes differ by exactly one card
        assert all(
            abs(x - y) == 1
            for x, y in zip(rec.trace, rec.trace[1:])
        )
        assert rec.stream_id == 3
        # the record is a pure function of (seed 5, stream 3)
        assert rec == pwar_run(
            _state(deck, {1, 2}), rule_coin(), deck, RngStream(5, 3),
            record_trace=True,
        )

    def test_truncation(self):
        deck = build_deck((8, 1))
        rec = pwar_run(
            _state(deck, {1, 2, 3, 4}), rule_coin(), deck, RngStream(0, 0),
            max_rounds=3,
        )
        assert rec.winner == "Truncated"
        assert rec.tau == 3

    def test_coin_mean_matches_walk_oracle(self):
        """Mean absorption time under the coin rule matches a0(2n-a0)
        within 3 standard errors (8-card deck, uniform half split)."""
        n_trials = 20000
        records = run_trials(
            PwarConfig(deck=(8, 1), rule="coin"), n_trials, seed=21
        )
        taus = [r.tau for r in records]
        mean = sum(taus) / n_trials
        expect, win = srw_oracle(8, 4)
        sem = (
            math.sqrt(sum((t - mean) ** 2 for t in taus) / (n_trials - 1))
            / math.sqrt(n_trials)
        )
        assert abs(mean - expect) <= 3 * sem, f"mean={mean}, oracle={expect}"
        freq = sum(r.winner == "A" for r in records) / n_trials
        assert abs(freq - win) <= 3 * math.sqrt(0.25 / n_trials)

    def test_max_holder_every_trial(self):
        """Whoever holds the max card wins every game within 2n rounds."""
        deck = build_deck((12, 1))
        rule = rule_max_holder()
        max_id = deck.size - 1
        for i in range(400):
            init = deal_uniform(deck, 6, RngStream(31, i))
            rec = pwar_run(init, rule, deck, RngStream(77, i))
            holder = "A" if max_id in init.hand_a else "B"
            assert rec.winner == holder
            assert rec.tau <= deck.size


class TestIncrementFairness:
    """Pooled and size-conditioned +-1 increments for symmetric rules."""

    def _increments(self, rule_name, seed, n_trials=2500):
        cfg = PwarConfig(deck=(8, 1), rule=rule_name, record_trace=True)
        increments, sizes = [], []
        for r in run_trials(cfg, n_trials, seed):
            traj = r.trace
            for t in range(len(traj) - 1):
                increments.append(traj[t + 1] - traj[t])
                sizes.append(traj[t])
        return increments, sizes

    def test_coin_rule_fair(self):
        increments, sizes = self._increments("coin", seed=41)
        chi2, p = fairness_test(increments, grouped_by_size=sizes)
        assert p >= 0.001, f"chi2={chi2}, p={p}"

    def test_powered_rule_fair(self):
        """Symmetric rules keep the walk fair at every hand size."""
        increments, sizes = self._increments("powered", seed=43)
        chi2, p = fairness_test(increments, grouped_by_size=sizes)
        assert p >= 0.001, f"chi2={chi2}, p={p}"

    def test_max_holder_rejected(self):
        increments, sizes = self._increments("max-holder", seed=47)
        chi2, p = fairness_test(increments, grouped_by_size=sizes)
        assert p < 0.001, f"chi2={chi2}, p={p}"


class TestPwarConfig:
    def test_bradley_terry_strength_forwarding(self):
        cfg = PwarConfig(deck=(6, 1), rule="bradley-terry",
                         strength="identity")
        rec = cfg.run_trial(seed=1, stream_id=0)
        assert rec.winner in ("A", "B")
        _, rule = cfg.build()
        assert rule.name == "bradley-terry(identity)"

    def test_identical_records_for_identical_streams(self):
        cfg = PwarConfig(deck=(13, 4), rule="greater-tiecoin")
        assert cfg.run_trial(9, 4) == cfg.run_trial(9, 4)

    def test_counterexample_streams_differ(self):
        cfg = PwarConfig(deck=(13, 4), rule="greater-tiecoin")
        assert cfg.run_trial(9, 4) != cfg.run_trial(9, 5)
