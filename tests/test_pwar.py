"""Tests for the random-draw war engine."""

import dataclasses
import math
import pickle
from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warlab import rules
from warlab.core import (
    GameState,
    PairTable,
    RngStream,
    TrialRecord,
    WinningRule,
    build_deck,
    deal_uniform,
)
from warlab.exact import _pair_table, srw_oracle
from warlab.pwar import PwarConfig, pwar_run, pwar_step
from warlab.rules import (
    RULE_NAMES,
    rule_by_name,
    rule_coin,
    rule_greater_tiecoin,
    rule_max_holder,
    rule_powered,
    strength_builtin,
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


def _reference_play(state, rule, deck, rng, max_rounds, record_trace):
    """Reference for the engine: the loop that calls ``rule.eval`` every
    round, on the real rest of A's hand (empty for a ``"cards"`` rule).
    Returns the final hands and the record, as the engine's loop does."""
    ha = sorted(state.hand_a)
    hb = sorted(state.hand_b)
    cards = deck.cards
    traj = [len(ha)]
    rounds = 0
    while ha and hb and rounds < max_rounds:
        ia = int(rng.random() * len(ha))
        ib = int(rng.random() * len(hb))
        a_id = ha[ia]
        b_id = hb[ib]
        if rule.reads == "cards":
            s = frozenset()
        else:
            s = frozenset(x for x in ha if x != a_id)
        p = rule.eval(cards[a_id], cards[b_id], s, deck)
        if rng.random() <= p:
            hb.pop(ib)
            insort(ha, b_id)
        else:
            ha.pop(ia)
            insort(hb, a_id)
        rounds += 1
        traj.append(len(ha))
    if ha and hb:
        winner = "Truncated"
    else:
        winner = "A" if ha else "B"
    record = TrialRecord(rounds, winner, rng.stream_id,
                         tuple(traj) if record_trace else None)
    return ha, hb, record


def _oscillator():
    """Valid, declared ``"size"``, never absorbing: the smaller hand
    always takes the pair."""

    def ev(a, b, s, deck):
        half = deck.size // 2
        if len(s) < half - 1:
            return 1.0
        if len(s) > half - 1:
            return 0.0
        return 0.5

    return WinningRule(name="oscillator", eval=ev, reads="size")


def _rule(name):
    return _oscillator() if name == "oscillator" else rule_by_name(name)


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the ``ValueError`` it raised:
    ``greater`` and ``max-holder`` raise on tied ranks, and both loops
    must."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err)


def _step_states(init, rule, deck, rng, n):
    """Up to ``n`` states reached by iterating ``step(state)``."""
    out = []
    state = init
    while len(out) < n and not state.is_absorbing:
        state = pwar_step(state, rule, deck, rng)
        out.append(state)
    return out


def _reference_step_states(init, rule, deck, rng, n):
    out = []
    state = init
    while len(out) < n and not state.is_absorbing:
        ha, hb, _ = _reference_play(state, rule, deck, rng, 1, False)
        state = GameState(frozenset(ha), frozenset(hb), state.round + 1)
        out.append(state)
    return out


class TestTableEngineMatchesReference:
    """The engine reads p from the deck's pair table; its records must
    equal the per-round-eval loop's field for field."""

    @given(
        ranks=st.lists(st.integers(1, 6), min_size=2, max_size=12),
        name=st.sampled_from(RULE_NAMES + ("oscillator",)),
        seed=st.integers(0, 2**32),
        stream=st.integers(0, 10**6),
        record_trace=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_records_identical(self, ranks, name, seed, stream,
                               record_trace):
        """Three games on one deck, so later games read a table the
        earlier ones filled; capped rounds cover truncation."""
        deck = build_deck(ranks)
        rule = _rule(name)
        for sid in range(stream, stream + 3):
            init = deal_uniform(deck, None, RngStream(seed, sid))
            got = _outcome(pwar_run, init, rule, deck, RngStream(seed, sid),
                           300, record_trace)
            want = _outcome(
                lambda *a: _reference_play(*a)[2],
                init, rule, deck, RngStream(seed, sid), 300, record_trace)
            assert got == want

    @given(
        ranks=st.lists(st.integers(1, 6), min_size=2, max_size=10),
        name=st.sampled_from(RULE_NAMES + ("oscillator",)),
        stream=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_iterated_steps_identical(self, ranks, name, stream):
        deck = build_deck(ranks)
        rule = _rule(name)
        init = deal_uniform(deck, None, RngStream(3, stream))
        got = _outcome(_step_states, init, rule, deck, RngStream(5, stream),
                       60)
        want = _outcome(_reference_step_states, init, rule, deck,
                        RngStream(5, stream), 60)
        assert got == want

    @pytest.mark.parametrize("name", ["powered", "greater-tiecoin",
                                      "max-holder", "oscillator"])
    def test_52_card_games_identical(self, name):
        """30 games on one 52-card deck, the benchmark's size."""
        deck = build_deck((52, 1))
        rule = _rule(name)
        for sid in range(30):
            init = deal_uniform(deck, None, RngStream(17, sid))
            assert pwar_run(init, rule, deck, RngStream(17, sid), 2000,
                            True) == _reference_play(
                init, rule, deck, RngStream(17, sid), 2000, True)[2]


def _constant_rule(p):
    """A custom ``"cards"`` rule that gives every pair ``p``."""
    return WinningRule(name=f"constant-{p}", eval=lambda a, b, s, deck: p,
                       reads="cards")


#: Rules with one p for every pair, which play the walk on |A|.
WALK_RULES = {
    "coin": (rule_coin, 0.5),
    "bradley-terry-constant": (
        lambda: rule_by_name("bradley-terry", strength_builtin("constant")),
        0.5),
    "constant-0.3": (lambda: _constant_rule(0.3), 0.3),
}


def _fields(record):
    """Each field of ``record`` by name, as ``repr`` (exact for floats)."""
    return [(f.name, repr(getattr(record, f.name)))
            for f in dataclasses.fields(record)]


def _both(init, rule, deck, seed, sid, max_rounds, record_trace):
    """The engine's and the reference loop's outcome from one state on
    two copies of one stream, each with the stream's next draw after it
    (None when the loop raised)."""
    out = []
    for fn in (pwar_run, lambda *a: _reference_play(*a)[2]):
        rng = RngStream(seed, sid)
        got = _outcome(fn, init, rule, deck, rng, max_rounds, record_trace)
        if isinstance(got, TrialRecord):
            out.append((_fields(got), rng.random()))
        else:
            out.append((got, None))
    return out


class TestWalkMatchesReference:
    """A rule with one p for every pair plays the walk on |A|, not the
    hands; its records, and the draws it leaves, must equal the reference
    loop's."""

    @given(
        ranks=st.lists(st.integers(1, 6), min_size=1, max_size=12),
        name=st.sampled_from(sorted(WALK_RULES)),
        data=st.data(),
        seed=st.integers(0, 2**32),
        stream=st.integers(0, 10**6),
        max_rounds=st.integers(0, 60),
        record_trace=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_records_identical(self, ranks, name, data, seed, stream,
                               max_rounds, record_trace):
        """Every start from an empty to a full first hand (absorbing
        ones included), one-card decks and caps from 0 rounds up."""
        deck = build_deck(ranks)
        make, p = WALK_RULES[name]
        rule = make()
        size_a = data.draw(st.integers(0, deck.size), label="size_a")
        assert deck.pair_table(rule).walk_p == (p if deck.size > 1 else None)
        for sid in range(stream, stream + 3):
            init = deal_uniform(deck, size_a, RngStream(seed, sid))
            got, want = _both(init, rule, deck, seed, sid, max_rounds,
                              record_trace)
            assert got == want

    @pytest.mark.parametrize("name", sorted(WALK_RULES))
    def test_52_card_games_identical(self, name):
        """30 games of criterion 5's model, on one 52-card deck."""
        deck = build_deck((52, 1))
        rule = WALK_RULES[name][0]()
        for sid in range(30):
            init = deal_uniform(deck, None, RngStream(17, sid))
            got, want = _both(init, rule, deck, 17, sid, 2000, True)
            assert got == want


    @pytest.mark.parametrize("max_rounds", [0, 2000])
    @pytest.mark.parametrize("name", sorted(WALK_RULES) + ["greater-tiecoin"])
    def test_hands_short_of_the_deck_fail_the_debug_check(self, name,
                                                          max_rounds):
        """Hands that do not hold the whole deck fail the card check
        under assertions, on the walk as on the play loop."""
        assert __debug__, "the check runs only under assertions"
        deck = build_deck((52, 1))
        rule = (WALK_RULES[name][0]() if name in WALK_RULES
                else rule_by_name(name))
        init = GameState(frozenset({0}), frozenset({1}))
        with pytest.raises(AssertionError, match="not conserved"):
            pwar_run(init, rule, deck, RngStream(3, 0), max_rounds)


class TestWalkNotTaken:
    def test_greater_on_tied_ranks_raises_as_reference(self):
        """Filling the table raises at the tied pair, so no p is decided
        and the play loop raises exactly when the reference does: only
        in games that draw the tied pair."""
        deck = build_deck([1, 1, 2, 3, 4, 5])
        rule = rule_by_name("greater")
        raised = 0
        for sid in range(200):
            init = deal_uniform(deck, None, RngStream(4, sid))
            got, want = _both(init, rule, deck, 4, sid, 300, True)
            assert got == want
            raised += got[0] is ValueError
        assert deck.pair_table(rule).walk_p is None
        assert 0 < raised < 200

    @pytest.mark.parametrize("ranks, rule", [
        ((13, 4), rule_greater_tiecoin()),
        ((8, 1), rule_powered()),
        ((8, 1), rule_by_name("greater")),
        ((8, 1), rule_by_name("bradley-terry", strength_builtin("identity"))),
        ([2, 2, 2, 3], rule_greater_tiecoin()),
    ])
    def test_card_dependent_rules_play_the_hands(self, ranks, rule):
        deck = build_deck(ranks)
        assert deck.pair_table(rule).walk_p is None
        for sid in range(40):
            init = deal_uniform(deck, None, RngStream(6, sid))
            got, want = _both(init, rule, deck, 6, sid, 2000, True)
            assert got == want

    def test_one_odd_pair_plays_the_hands(self):
        def ev(a, b, s, deck):
            return 0.9 if (a.id, b.id) == (0, 1) else 0.5

        rule = WinningRule(name="one-odd-pair", eval=ev, reads="cards")
        deck = build_deck((5, 1))
        assert deck.pair_table(rule).walk_p is None
        for sid in range(40):
            init = deal_uniform(deck, None, RngStream(8, sid))
            got, want = _both(init, rule, deck, 8, sid, 200, True)
            assert got == want


class TestPairTable:
    @pytest.mark.parametrize("name", ["powered", "greater-tiecoin", "coin"])
    def test_build_makes_no_eval_call(self, monkeypatch, name):
        """``PwarConfig.build`` (what ``setup_s`` times) leaves the table
        to the first game."""
        calls = []
        make = rules.rule_by_name

        def counting_rule_by_name(*args, **kwargs):
            rule = make(*args, **kwargs)
            inner = rule.eval

            def ev(a, b, s, deck):
                calls.append(1)
                return inner(a, b, s, deck)

            return WinningRule(name=rule.name, eval=ev, reads=rule.reads)

        monkeypatch.setattr(rules, "rule_by_name", counting_rule_by_name)
        cfg = PwarConfig(deck=(52, 1), rule=name, size_a=26)
        deck, rule = cfg.build()
        assert calls == []
        rng = RngStream(1, 0)
        pwar_run(deal_uniform(deck, 26, rng), rule, deck, rng)
        assert calls

    @pytest.mark.parametrize("spec", [(6, 1), (3, 2)])
    def test_powered_entries_equal_exact_table(self, spec):
        """Entries the games filled one at a time equal, with ==, the
        exact builder's table of a fresh deck; the exact builder then
        reads the games' table."""
        deck = build_deck(spec)
        rule = rule_powered()
        for sid in range(300):
            rng = RngStream(23, sid)
            pwar_run(deal_uniform(deck, None, rng), rule, deck, rng)
        fresh = build_deck(spec)
        d = deck.size
        for k in range(1, d):
            games = np.array(deck.pair_table(rule).by_size[k]).reshape(d, d)
            exact = _pair_table(fresh, rule, k)
            seen = ~np.isnan(games)
            assert seen.any(), k
            assert (games[seen] == exact[seen]).all(), k
            assert (_pair_table(deck, rule, k) == exact).all(), k

    def test_one_table_per_rule_and_deck(self):
        deck = build_deck((6, 1))
        rule = rule_powered()
        assert deck.pair_table(rule) is deck.pair_table(rule)
        assert deck.pair_table(rule) is not deck.pair_table(rule_powered())
        assert build_deck((6, 1)).pair_table(rule) is not \
            deck.pair_table(rule)
        coin = deck.pair_table(rule_coin())
        assert all(t is coin.by_size[1] for t in coin.by_size)

    def test_hand_rule_has_no_table(self):
        with pytest.raises(ValueError, match="reads the hand"):
            PairTable(rule_max_holder(), build_deck((4, 1)))

    def test_deck_pickles_after_play(self):
        """The tables hold rule closures; a deck pickles without them."""
        deck = build_deck((8, 1))
        rng = RngStream(2, 0)
        pwar_run(deal_uniform(deck, None, rng), rule_powered(), deck, rng)
        assert vars(deck)["_tables"]
        copy = pickle.loads(pickle.dumps(deck))
        assert copy == deck
        assert "_tables" not in vars(copy)
