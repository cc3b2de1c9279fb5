"""Tests for the classic war engine: war rounds, ties, runouts, tables."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warlab.classic import (
    ClassicConfig,
    TiePolicy,
    aces_win_table,
    classic_run,
    classic_step,
    deal_top_rank_conditioned,
)
from warlab.core import (
    WINNER_B,
    GameState,
    RngStream,
    TrialRecord,
    build_deck,
    deal_uniform,
)
from warlab.stats import run_metadata, run_trials

WAR = TiePolicy(kind="war_round")
COIN = TiePolicy(kind="coin_flip")


class TestTiePolicy:
    def test_defaults(self):
        assert WAR.face_down == 1

    @pytest.mark.parametrize("kw", [
        {"kind": "sudden_death"},
        {"face_down": -1},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TiePolicy(**kw)

    def test_unknown_kind_names_the_valid_ones(self):
        with pytest.raises(ValueError) as exc:
            TiePolicy(kind="sudden_death")
        assert str(exc.value) == ("tie policy must be 'war_round' or "
                                  "'coin_flip', got 'sudden_death'")


class TestClassicStep:
    def test_high_card_takes_pile(self):
        """Two-card deck with distinct ranks: tau=1, holder of the high
        card wins."""
        deck = build_deck([2, 1])
        state = GameState((0,), (1,))
        nxt, outcome = classic_step(state, WAR, deck, RngStream(0))
        assert outcome == "A"
        assert nxt.hand_b == ()
        assert sorted(nxt.hand_a) == [0, 1]
        assert nxt.round == 1

    def test_coin_flip_tie_is_fair(self):
        """Equal top ranks under coin_flip: each side takes the two cards
        with probability 1/2."""
        deck = build_deck((1, 2))
        wins = 0
        n = 6000
        for i in range(n):
            state = GameState((0,), (1,))
            nxt, outcome = classic_step(state, COIN, deck, RngStream(1, i))
            assert outcome in ("A", "B")
            wins += outcome == "A"
        assert abs(wins / n - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_war_runout_loses_immediately(self):
        """A player left with one card when a war starts cannot stake
        face-down plus face-up and loses."""
        deck = build_deck([5, 5, 3, 2])
        # fronts tie (rank 5 vs rank 5); A has nothing left to stake
        state = GameState((0,), (1, 2, 3))
        nxt, outcome = classic_step(state, WAR, deck, RngStream(2))
        assert outcome == "B"
        assert nxt.hand_a == ()
        assert sorted(nxt.hand_b) == [0, 1, 2, 3]

    def test_simultaneous_runout_is_draw(self):
        """Both players tie on their last cards: Draw, stakes returned."""
        deck = build_deck((1, 2))
        state = GameState((0,), (1,))
        nxt, outcome = classic_step(state, WAR, deck, RngStream(3))
        assert outcome == "Draw"
        assert sorted(list(nxt.hand_a) + list(nxt.hand_b)) == [0, 1]

    def test_war_resolves_by_second_face_up(self):
        """rank pattern A=(5,9,1) B=(5,2,1): fronts tie, face-down burns
        9 vs 2, face-ups 1 vs 1 tie again -> second war impossible (no
        cards left on either side) -> Draw."""
        deck = build_deck([5, 9, 1, 5, 2, 1])
        state = GameState((0, 1, 2), (3, 4, 5))
        nxt, outcome = classic_step(state, WAR, deck, RngStream(4))
        assert outcome == "Draw"

    def test_war_winner_takes_whole_pile(self):
        """A=(5,9,8) B=(5,2,1): war; face-ups 8 vs 1, A takes all six."""
        deck = build_deck([5, 9, 8, 5, 2, 1])
        state = GameState((0, 1, 2), (3, 4, 5))
        nxt, outcome = classic_step(state, WAR, deck, RngStream(5))
        assert outcome == "A"
        assert len(nxt.hand_a) == 6

    def test_min_hand_forfeit_without_randomness(self):
        deck = build_deck((4, 1))
        state = GameState((2,), (0, 1, 3))
        nxt, outcome = classic_step(state, WAR, deck, RngStream(6),
                                    min_hand=2)
        assert outcome == "B"
        assert nxt == state

    def test_rejects_absorbing_and_unordered(self):
        deck = build_deck((2, 1))
        with pytest.raises(ValueError):
            classic_step(GameState((), (0, 1)), WAR, deck, RngStream(0))
        with pytest.raises(ValueError):
            classic_step(
                GameState(frozenset({0}), frozenset({1})), WAR, deck,
                RngStream(0),
            )


class TestClassicRun:
    @pytest.mark.parametrize("min_hand", [1, 2])
    @pytest.mark.parametrize("tie", [WAR, COIN], ids=["war", "coin"])
    def test_run_equals_iterated_steps(self, tie, min_hand):
        deck = build_deck((5, 2))
        for trial in range(30):
            init = deal_uniform(deck, 5, RngStream(7, trial), ordered=True)
            rec = classic_run(init, tie, deck, RngStream(70, trial),
                              min_hand=min_hand)
            state, rng = init, RngStream(70, trial)
            outcome = None
            while outcome is None:
                state, outcome = classic_step(state, tie, deck, rng,
                                              min_hand=min_hand)
            assert rec.tau == state.round
            assert rec.winner == outcome

    @settings(max_examples=200, deadline=None)
    @given(
        ranks=st.lists(st.integers(1, 4), min_size=2, max_size=14),
        data=st.data(),
        kind=st.sampled_from(["war_round", "coin_flip"]),
        face_down=st.integers(0, 2),
        min_hand=st.integers(1, 2),
        seed=st.integers(0, 2**32),
    )
    def test_steps_equal_run_and_conserve(self, ranks, data, kind,
                                          face_down, min_hand, seed):
        """On any deck shape and tie policy, iterating classic_step gives
        the run's tau and winner, draws the same words from the stream,
        and every intermediate state holds exactly the deck."""
        deck = build_deck(ranks)
        tie = TiePolicy(kind=kind, face_down=face_down)
        size_a = data.draw(st.integers(1, deck.size - 1))
        init = deal_uniform(deck, size_a, RngStream(seed, 0), ordered=True)
        cap = 500
        run_rng, step_rng = RngStream(seed, 1), RngStream(seed, 1)
        rec = classic_run(init, tie, deck, run_rng, max_rounds=cap,
                          min_hand=min_hand, record_trace=True)
        state, outcome = init, None
        while outcome is None and state.round < cap:
            state, outcome = classic_step(state, tie, deck, step_rng,
                                          min_hand=min_hand)
            assert sorted(state.hand_a + state.hand_b) == list(
                range(deck.size))
        assert rec.tau == state.round == len(rec.trace)
        assert rec.winner == (outcome or "Truncated")
        assert run_rng.random() == step_rng.random()

    def test_min_hand_below_one_rejected(self):
        """With min_hand 0 an emptied hand would play on from an empty
        deque; the engine refuses the setting instead."""
        with pytest.raises(ValueError, match="min_hand"):
            ClassicConfig(deck=(4, 1), min_hand=0).run_trial(0, 0)

    def test_card_conservation_through_nested_wars(self):
        """Final hands always hold exactly the deck, runouts included."""
        deck = build_deck((3, 4))  # many ties, frequent wars
        for i in range(300):
            init = deal_uniform(deck, 6, RngStream(8, i), ordered=True)
            rec = classic_run(init, WAR, deck, RngStream(80, i))
            assert rec.winner in ("A", "B", "Draw")

    def test_face_down_variants(self):
        """Two or three face-down cards per war escalation still conserve
        and terminate."""
        deck = build_deck((3, 4))
        for fd in (0, 2, 3):
            tie = TiePolicy(kind="war_round", face_down=fd)
            for i in range(100):
                init = deal_uniform(deck, 6, RngStream(9, i), ordered=True)
                rec = classic_run(init, tie, deck, RngStream(90 + fd, i))
                assert rec.winner in ("A", "B", "Draw")

    def test_unconditioned_win_prob_is_half(self):
        """Player exchangeability: P(A wins) = 1/2 within 3 sigma."""
        n = 6000
        records = run_trials(
            ClassicConfig(deck=(13, 4), tie="coin_flip", min_hand=2),
            n, seed=12, workers=2,
        )
        wins = sum(r.winner == "A" for r in records)
        decided = sum(r.winner in ("A", "B") for r in records)
        assert abs(wins / decided - 0.5) <= 3 * math.sqrt(0.25 / decided)

    def test_truncation(self):
        deck = build_deck((13, 4))
        init = deal_uniform(deck, 26, RngStream(10, 0), ordered=True)
        rec = classic_run(init, COIN, deck, RngStream(11, 0), max_rounds=5)
        assert rec.winner == "Truncated"
        assert rec.tau == 5

    def test_pile_sizes_recorded(self):
        deck = build_deck((4, 1))
        init = deal_uniform(deck, 2, RngStream(13, 0), ordered=True)
        rec = classic_run(init, WAR, deck, RngStream(14, 0),
                          record_trace=True)
        assert len(rec.trace) == rec.tau
        assert all(abs(x) >= 2 or x == 0 for x in rec.trace)


class TestConditionedDeal:
    def test_exact_top_rank_count(self):
        deck = build_deck((13, 4))
        top_ids = {c.id for c in deck.cards if c.rank == 13}
        for k in range(5):
            state = deal_top_rank_conditioned(deck, k, RngStream(15, k))
            assert len(state.hand_a) == 26
            assert len(top_ids & set(state.hand_a)) == k

    def test_rejects_bad_k(self):
        deck = build_deck((13, 4))
        with pytest.raises(ValueError):
            deal_top_rank_conditioned(deck, 5, RngStream(0))


class TestAcesTable:
    def test_structural_rows_under_coin_flip(self):
        """No strongest cards -> never wins; all of them -> never loses.
        Holds on every simulated game, so the estimates are exactly 0/1."""
        deck = build_deck((13, 4))
        rows = aces_win_table(deck, COIN, trials_per_cell=300, seed=3,
                              min_hand=2)
        assert rows[0]["p_win"] == 0.0
        assert rows[0]["wins"] == 0
        assert rows[4]["p_win"] == 1.0
        assert rows[4]["wins"] == rows[4]["decided"]

    def test_middle_row_symmetric(self):
        deck = build_deck((13, 4))
        rows = aces_win_table(deck, COIN, trials_per_cell=3000, seed=5,
                              min_hand=2, workers=2)
        row = rows[2]
        assert abs(row["p_win"] - 0.5) <= 3 * math.sqrt(
            0.25 / row["decided"]
        )
        assert row["ci_lo"] <= row["p_win"] <= row["ci_hi"]

    def test_rows_pinned(self):
        """The counts and estimates of a small table with draws, as the
        per-winner sums before ``stats.tally`` gave them."""
        rows = aces_win_table(build_deck((3, 4)), TiePolicy(),
                              trials_per_cell=60, seed=8)
        counts = [(r["k"], r["trials"], r["decided"], r["wins"], r["draws"],
                   r["truncated"], r["p_win"]) for r in rows]
        assert counts == [
            (0, 60, 60, 0, 0, 0, 0.0),
            (1, 60, 60, 8, 0, 0, 0.13333333333333333),
            (2, 60, 57, 32, 3, 0, 0.5614035087719298),
            (3, 60, 59, 47, 1, 0, 0.7966101694915254),
            (4, 60, 60, 59, 0, 0, 0.9833333333333333),
        ]
        # The interval bounds come from scipy, so allow its rounding.
        bounds = [b for r in rows for b in (r["ci_lo"], r["ci_hi"])]
        assert bounds == pytest.approx([
            0.0, 0.05962949228616691,
            0.05936442270535719, 0.24592222113041984,
            0.423621418746576, 0.6925845665595812,
            0.6716697640662905, 0.8902463338684871,
            0.910600949942513, 0.999578125547658,
        ], rel=1e-9)

    def test_ci_bounds_ordered(self):
        deck = build_deck((13, 4))
        rows = aces_win_table(deck, WAR, trials_per_cell=200, seed=6,
                              min_hand=2)
        for row in rows:
            assert 0.0 <= row["ci_lo"] <= row["ci_hi"] <= 1.0

    def test_rejects_zero_trials(self):
        deck = build_deck((13, 4))
        with pytest.raises(ValueError):
            aces_win_table(deck, COIN, trials_per_cell=0, seed=0)

    def test_rank_list_deck_same_rows(self):
        """A deck built from its rank list gives the table of the same
        deck built from (n_ranks, copies)."""
        pair = build_deck((3, 4))
        listed = build_deck(list(pair.ranks))
        rows = [aces_win_table(deck, WAR, trials_per_cell=60, seed=8)
                for deck in (pair, listed)]
        assert len(rows[0]) == 5
        assert rows[0] == rows[1]

    def test_rejects_two_card_deck(self):
        """A config would read the rank pair as (n_ranks, copies)."""
        with pytest.raises(ValueError, match="at least three cards"):
            aces_win_table(build_deck([1, 2]), COIN, trials_per_cell=5,
                           seed=0)

    def test_monotonicity_failure_names_stream_and_k(self, monkeypatch):
        """A game lost by the holder of every top-rank card under coin
        ties is an engine bug; the error names its stream id and k."""
        monkeypatch.setattr(
            "warlab.classic.classic_run",
            lambda state, tie, deck, rng, **kw: TrialRecord(
                3, WINNER_B, rng.stream_id),
        )
        cfg = ClassicConfig(deck=(3, 2), tie="coin_flip", top_rank_count=2)
        with pytest.raises(RuntimeError, match=r"stream 17\b.*k=2"):
            cfg.run_trial(4, 17)


class TestWinnerBookkeeping:
    def test_winner_classes_partition(self):
        records = run_trials(
            ClassicConfig(deck=(2, 2), tie="war_round"), 400, seed=19
        )
        classes = Counter(r.winner for r in records)
        assert set(classes) <= {"A", "B", "Draw", "Truncated"}
        assert sum(classes.values()) == 400

    def test_metadata_round_trip(self):
        cfg = ClassicConfig(deck=(13, 4), tie="coin_flip", min_hand=2)
        rec = cfg.run_trial(21, 8)
        assert rec.stream_id == 8
        assert rec == cfg.run_trial(21, 8)
        meta = run_metadata(config=cfg, seed=21)
        assert meta["config"]["tie"] == "coin_flip"
        assert meta["config"]["min_hand"] == 2
