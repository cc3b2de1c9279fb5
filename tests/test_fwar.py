"""Tests for the Bradley-Terry top-card (martingale) war engine."""

import itertools
import math
import pickle

import pytest

from warlab.core import GameState, RngStream, StrengthFunction, build_deck
from warlab.fwar import (
    FwarConfig,
    deal_iid,
    deal_strongest,
    fwar_run,
    fwar_step,
    shifted_iid_moments,
    strongest_deal_win_prob,
)
from warlab.rules import strength_builtin
from warlab.stats import run_trials


class TestFwarStep:
    def test_constant_strength_round_is_fair(self):
        deck = build_deck((4, 1))
        f = strength_builtin("constant")
        state = GameState((0, 1), (2, 3))
        wins = 0
        n = 4000
        for i in range(n):
            nxt, product = fwar_step(state, f, deck, RngStream(1, i))
            assert product == 1.0
            wins += len(nxt.hand_a) == 3
        assert abs(wins / n - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_identity_one_vs_three(self):
        """Rank 1 against rank 3 wins the round with probability 1/4."""
        deck = build_deck((4, 1))
        f = strength_builtin("identity")
        state = GameState((0, 3), (2, 1))  # fronts: rank 1 vs rank 3
        wins = 0
        n = 8000
        for i in range(n):
            nxt, _ = fwar_step(state, f, deck, RngStream(2, i))
            wins += len(nxt.hand_a) == 3
        assert abs(wins / n - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / n)

    def test_single_round_absorption_probability(self):
        """n=2, hands (2) vs (1), identity strengths: the game ends this
        round with the first player winning with probability 2/3."""
        deck = build_deck((2, 1))
        f = strength_builtin("identity")
        wins = 0
        n = 9000
        for i in range(n):
            nxt, _ = fwar_step(
                GameState((1,), (0,)), f, deck, RngStream(3, i)
            )
            assert nxt.is_absorbing
            wins += len(nxt.hand_b) == 0
        assert abs(wins / n - 2 / 3) <= 3 * math.sqrt((2 / 9) / n)

    def test_return_orders(self):
        deck = build_deck((3, 1))
        f = strength_builtin("constant")
        state = GameState((0, 2), (1,))
        seen = set()
        for i in range(60):
            nxt, _ = fwar_step(state, f, deck, RngStream(4, i))
            if len(nxt.hand_a) == 3:
                seen.add(nxt.hand_a)
        assert seen == {(2, 0, 1), (2, 1, 0)}

    def test_fixed_return_order_consumes_no_order_draw(self):
        deck = build_deck((4, 1))
        f = strength_builtin("constant")
        state = GameState((0, 1), (2, 3))
        nxt, _ = fwar_step(state, f, deck, RngStream(5, 0),
                           return_order="own_first")
        if len(nxt.hand_a) == 3:
            assert nxt.hand_a == (1, 0, 2)
        else:
            assert nxt.hand_b == (3, 2, 0)

    def test_rejects_unordered_hands(self):
        deck = build_deck((2, 1))
        with pytest.raises(ValueError):
            fwar_step(
                GameState(frozenset({0}), frozenset({1})),
                strength_builtin("constant"),
                deck,
                RngStream(0),
            )


class TestFwarRun:
    @pytest.mark.parametrize("return_order",
                             ["random", "own_first", "captured_first"])
    def test_run_equals_iterated_steps(self, return_order):
        deck = build_deck((6, 1))
        f = strength_builtin("identity")
        for trial in range(25):
            init = deal_iid(6, RngStream(7, trial))
            trace = fwar_run(init, f, deck, RngStream(70, trial),
                             record_trace=True, return_order=return_order)
            state, q = init, 0.0
            rng = RngStream(70, trial)
            q_traj = [0.0]
            while not state.is_absorbing:
                state, product = fwar_step(state, f, deck, rng,
                                           return_order=return_order)
                q += product
                q_traj.append(q)
            assert trace.tau == state.round
            assert trace.q_trajectory == pytest.approx(tuple(q_traj))
            assert trace.winner == ("A" if state.hand_a else "B")

    def test_empty_initial_hand_is_absorbed_at_zero(self):
        deck = build_deck((3, 1))
        trace = fwar_run(
            GameState((), (0, 1, 2)),
            strength_builtin("identity"),
            deck,
            RngStream(0),
        )
        assert trace.tau == 0
        assert trace.winner == "B"
        assert trace.q_final == 0.0

    def test_q_trajectory_nondecreasing_from_zero(self):
        deck = build_deck((5, 1))
        trace = fwar_run(
            deal_iid(5, RngStream(8, 1)),
            strength_builtin("identity"),
            deck,
            RngStream(9, 1),
            record_trace=True,
        )
        assert trace.q_trajectory[0] == 0.0
        assert all(
            x <= y
            for x, y in zip(trace.q_trajectory, trace.q_trajectory[1:])
        )

    def test_m_matches_recomputed_hand_strength(self):
        deck = build_deck((6, 1))
        f = strength_builtin("exponential", lam=0.7)
        trace = fwar_run(
            deal_strongest(6, RngStream(10, 0)), f, deck, RngStream(11, 0),
            record_trace=True,
        )
        # winner's final hand strength == tracked m within 1e-9 relative
        total = math.fsum(f.f(r) for r in range(1, 7))
        expected = total if trace.winner == "A" else 0.0
        assert trace.m_final == pytest.approx(expected, rel=1e-9)
        assert len(trace.m_trajectory) == trace.tau + 1

    def test_shifted_round_products_within_bounds(self):
        """With f(a) = a + n every round product lies in
        [(n+1)^2, (2n)^2]."""
        n = 6
        deck = build_deck((n, 1))
        f = strength_builtin("shifted", shift=n)
        for i in range(50):
            trace = fwar_run(
                deal_iid(n, RngStream(12, i)), f, deck, RngStream(13, i),
                record_trace=True,
            )
            products = [
                y - x
                for x, y in zip(trace.q_trajectory, trace.q_trajectory[1:])
            ]
            assert all(
                (n + 1) ** 2 - 1e-9 <= p <= (2 * n) ** 2 + 1e-9
                for p in products
            )

    def test_truncation(self):
        # from 3v3 hands no game can absorb within two rounds
        deck = build_deck((6, 1))
        trace = fwar_run(
            GameState((0, 1, 2), (3, 4, 5)),
            strength_builtin("constant"),
            deck,
            RngStream(1, 1),
            max_rounds=2,
        )
        assert trace.winner == "Truncated"
        assert trace.tau == 2


class TestDriftCheck:
    @pytest.mark.parametrize("lam", [2.0, 3.0, 5.0])
    def test_steep_exponential_strengths_pass_the_check(self, lam):
        """The closing check scales its tolerance by the deck's total
        strength: with M_tau = 0 (A loses) these games used to fail it
        on a rounding residue (``simulate --game fwar --n 8 --strength
        exponential --lam 2 --trials 200``)."""
        assert __debug__, "the check runs only under assertions"
        records = run_trials(
            FwarConfig(n=8, strength="exponential", strength_param=lam),
            200, 0, workers=1)
        assert len(records) == 200


class TestDeals:
    def test_strongest_always_with_first_player(self):
        for i in range(100):
            state = deal_strongest(5, RngStream(14, i))
            assert 4 in state.hand_a

    def test_iid_membership_frequency(self):
        n, trials = 6, 8000
        counts = [0] * n
        for i in range(trials):
            for card in deal_iid(n, RngStream(15, i)).hand_a:
                counts[card] += 1
        sigma = math.sqrt(0.25 / trials)
        for card in range(n):
            assert abs(counts[card] / trials - 0.5) <= 4 * sigma

    @pytest.mark.parametrize("deal", [deal_iid, deal_strongest])
    @pytest.mark.parametrize("n", [0, -2])
    def test_no_cards_rejected(self, deal, n):
        with pytest.raises(ValueError, match="at least one card"):
            deal(n, RngStream(0))

    def test_hands_are_permuted(self):
        """Both orders of a 2-card hand occur under the iid deal."""
        seen = set()
        for i in range(200):
            state = deal_iid(3, RngStream(16, i))
            if len(state.hand_a) == 2:
                seen.add(state.hand_a)
        assert len(seen) > 3


class TestStrengthTable:
    def test_one_table_per_strength_and_deck(self):
        deck = build_deck([3, 1, 3, 2])
        shifted = strength_builtin("shifted", shift=4)
        table = deck.strength_table(shifted)
        assert table == (7.0, 5.0, 7.0, 6.0)
        assert deck.strength_table(shifted) is table
        assert deck.strength_table(strength_builtin("identity")) == (
            3.0, 1.0, 3.0, 2.0)
        assert build_deck([3, 1, 3, 2]).strength_table(shifted) is not table

    def test_non_positive_strength_rejected_on_every_call(self):
        deck = build_deck((3, 1))
        bad = StrengthFunction(name="bad", f=lambda r: r - 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="non-positive"):
                deck.strength_table(bad)

    def test_deck_pickles_after_play(self):
        """The tables are keyed by strength closures; a deck pickles
        without them."""
        deck = build_deck((6, 1))
        fwar_run(deal_iid(6, RngStream(3, 0)), strength_builtin("identity"),
                 deck, RngStream(3, 1))
        assert vars(deck)["_tables"]
        copy = pickle.loads(pickle.dumps(deck))
        assert copy == deck
        assert "_tables" not in vars(copy)


class TestClosedForms:
    def test_identity_strongest_win_prob(self):
        """identity strengths: 1/2 + 1/(n+1); 0.75 at n=3."""
        f = strength_builtin("identity")
        assert strongest_deal_win_prob(f, 3) == pytest.approx(0.75)
        for n in range(1, 9):
            assert strongest_deal_win_prob(f, n) == pytest.approx(
                0.5 + 1 / (n + 1)
            )

    def test_constant_strongest_win_prob(self):
        """constant strengths: 1/2 + 1/(2n); 0.625 at n=4."""
        f = strength_builtin("constant")
        assert strongest_deal_win_prob(f, 4) == pytest.approx(0.625)

    def test_exponential_monotone_to_one(self):
        """As lam grows the strongest card dominates and the win
        probability increases toward 1."""
        n = 6
        values = [
            strongest_deal_win_prob(
                strength_builtin("exponential", lam=lam), n
            )
            for lam in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        ]
        assert all(x < y for x, y in itertools.pairwise(values))
        assert values[-1] > 0.999

    def test_empirical_matches_formula_identity_n3(self):
        """Strongest-card deal at n=3, identity strengths, 50000 trials:
        win frequency 0.75 within 3 sigma."""
        n_trials = 50000
        cfg = FwarConfig(n=3, strength="identity", deal="strongest")
        records = run_trials(cfg, n_trials, seed=17)
        freq = sum(r.winner == "A" for r in records) / n_trials
        sigma = math.sqrt(0.75 * 0.25 / n_trials)
        assert abs(freq - 0.75) <= 3 * sigma, f"freq={freq}"


class TestShiftedIidMoments:
    def test_small_values(self):
        e1, _ = shifted_iid_moments(1)
        assert e1 == 1.0  # one card of strength 2 held with probability 1/2
        e2, m2 = shifted_iid_moments(2)
        assert e2 == 3.5
        assert m2 == 18.5  # enumerating deals of {3,4}: (0+9+16+49)/4

    def test_matches_exhaustive_enumeration(self):
        """Brute force over all 2^n iid deals at n=10 agrees within 1e-9."""
        n = 10
        strengths = [i + n for i in range(1, n + 1)]
        total = total_sq = 0.0
        for mask in range(1 << n):
            m0 = sum(
                strengths[i] for i in range(n) if mask >> i & 1
            )
            total += m0
            total_sq += m0 * m0
        e_m0, e_m0_sq = shifted_iid_moments(n)
        assert e_m0 == pytest.approx(total / 2**n, abs=1e-9)
        assert e_m0_sq == pytest.approx(total_sq / 2**n, abs=1e-9)

    def test_leading_order(self):
        n = 200
        _, m2 = shifted_iid_moments(n)
        assert m2 == pytest.approx(9 * n**4 / 16, rel=0.02)


class TestFwarConfig:
    def test_deal_dispatch(self):
        for deal in ("uniform", "iid", "strongest"):
            cfg = FwarConfig(n=4, strength="identity", deal=deal)
            rec = cfg.run_trial(1, 0)
            assert rec.winner in ("A", "B")

    def test_unknown_deal_rejected(self):
        with pytest.raises(ValueError):
            FwarConfig(n=4, deal="mystery").run_trial(0, 0)

    def test_shifted_defaults_to_n(self):
        cfg = FwarConfig(n=5, strength="shifted", deal="iid")
        _, strength = cfg.build()
        assert strength.f(1) == 6.0
