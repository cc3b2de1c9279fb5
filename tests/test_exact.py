"""Tests for enumeration, the absorption solver, oracles and identities."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from warlab import exact
from warlab.cli import main
from warlab.core import WinningRule, build_deck
from warlab.exact import (
    AbsorptionError,
    _deal_win_prob,
    absorption_solve,
    average_uniform_hands,
    counting_identity,
    enumerate_fwar,
    enumerate_pwar,
    solve_rows,
    srw_oracle,
    strongest_deal_exact_win_prob,
    verify_martingales,
    verify_uniform_preservation,
)
from warlab.fwar import strongest_deal_win_prob
from warlab.rules import (
    rule_by_name,
    rule_coin,
    rule_greater_tiecoin,
    rule_max_holder,
    rule_powered,
    strength_builtin,
)
from warlab.stats import read_csv_with_metadata

EXACT_TOL = 1e-9


def _mask(deck, ranks):
    """Bitmask of the hand holding the given ranks (distinct-rank decks)."""
    by_rank = {c.rank: c.id for c in deck.cards}
    mask = 0
    for r in ranks:
        mask |= 1 << by_rank[r]
    return mask


class TestEnumeratePwar:
    def test_two_card_deck(self):
        """Deck of 2: 4 subsets as states, 2 of them absorbing."""
        space = enumerate_pwar(build_deck((2, 1)), rule_coin())
        assert space.n_states == 4
        assert int(space.absorbing.sum()) == 2
        assert space.absorbing_win[3] == 1.0
        assert space.absorbing_win[0] == 0.0

    def test_coin_rule_transition(self):
        """From hand {1,2} of a 4-card deck, P(next size 3) = 1/2."""
        deck = build_deck((4, 1))
        space = enumerate_pwar(deck, rule_coin())
        mask = _mask(deck, {1, 2})
        up = sum(
            p
            for i, j, p in zip(space.trans_rows, space.trans_cols,
                               space.trans_probs)
            if i == mask and bin(j).count("1") == 3
        )
        assert up == pytest.approx(0.5, abs=1e-15)

    def test_row_sums_all_rules(self):
        """Outgoing probabilities sum to 1 for every built-in on deck 6."""
        deck = build_deck((6, 1))
        for name in ("coin", "greater-tiecoin", "powered", "bradley-terry",
                     "max-holder"):
            space = enumerate_pwar(deck, rule_by_name(name))
            sums = np.zeros(space.n_states)
            np.add.at(sums, space.trans_rows, space.trans_probs)
            transient = ~space.absorbing
            assert np.max(np.abs(sums[transient] - 1.0)) <= 1e-12

    def test_rejects_large_deck(self):
        with pytest.raises(ValueError):
            enumerate_pwar(build_deck((15, 1)), rule_coin())

    def test_state_indices_must_fit_int32(self):
        assert exact._index_dtype(2**31) is np.int32
        with pytest.raises(ValueError, match=r"^2147483649 states exceed "
                           r"the int32 state indices"):
            exact._index_dtype(2**31 + 1)

    def test_rejects_probabilities_outside_unit_interval(self):
        """A rule returning 1.5 and -0.5 keeps every row summing to 1 but
        gives negative masses: enumeration names the state and value."""
        rule = WinningRule(
            name="overshoot", reads="cards",
            eval=lambda a, b, s, deck: 1.5 if a.rank > b.rank else -0.5,
        )
        with pytest.raises(ValueError, match=r"probability -0\.1666+ from "
                           r"state 1 lies outside \[0, 1\]"):
            enumerate_pwar(build_deck((4, 1)), rule)

    def test_rejects_nan_probabilities(self):
        """A NaN from the rule fails every comparison, so it is named at
        enumeration rather than left to the absorption pre-check."""
        rule = WinningRule(name="nan", reads="cards",
                           eval=lambda a, b, s, deck: math.nan)
        with pytest.raises(ValueError, match=r"probability nan from state "
                           r"1 lies outside \[0, 1\]"):
            enumerate_pwar(build_deck((4, 1)), rule)


def _reference_successors(mask, deck, rule):
    """Reference for the vectorised builder: the per-state loop.

    Next-state probabilities from the non-absorbing random-draw state
    ``mask``: each of the |A||B| card pairs is drawn with probability
    1/(|A||B|), then resolved by the rule with the rest of the hand as
    ``s`` (empty for a rule that reads only the cards). Keys are next
    masks, in the order the pairs first reach them."""
    d = deck.size
    cards = deck.cards
    a_ids = [i for i in range(d) if mask >> i & 1]
    b_ids = [i for i in range(d) if not mask >> i & 1]
    base = 1.0 / (len(a_ids) * len(b_ids))
    out = {}
    for a_id in a_ids:
        if rule.reads == "cards":
            s = frozenset()
        else:
            s = frozenset(x for x in a_ids if x != a_id)
        lose_mask = mask & ~(1 << a_id)
        for b_id in b_ids:
            p = rule.eval(cards[a_id], cards[b_id], s, deck)
            win_mask = mask | (1 << b_id)
            out[win_mask] = out.get(win_mask, 0.0) + base * p
            out[lose_mask] = out.get(lose_mask, 0.0) + base * (1.0 - p)
    return out


def _reference_triplets(deck, rule):
    rows, cols, probs = [], [], []
    for mask in range(1, (1 << deck.size) - 1):
        for nxt, pr in _reference_successors(mask, deck, rule).items():
            rows.append(mask)
            cols.append(nxt)
            probs.append(pr)
    return (np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(probs, dtype=np.float64))


def _reference_uniformity(rule, deck, k):
    masks = range(1 << deck.size)
    start = [m for m in masks if bin(m).count("1") == k]
    w = 1.0 / len(start)
    pi1 = np.zeros(1 << deck.size)
    for mask in start:
        for nxt, pr in _reference_successors(mask, deck, rule).items():
            pi1[nxt] += pr * w
    target = np.zeros(1 << deck.size)
    lo = [m for m in masks if bin(m).count("1") == k - 1]
    hi = [m for m in masks if bin(m).count("1") == k + 1]
    target[lo] = 0.5 / len(lo)
    target[hi] = 0.5 / len(hi)
    return float(np.max(np.abs(pi1 - target)))


def _assert_matches_reference(deck, rule):
    """Triplets equal array for array and uniformity deviations equal at
    every k, against the per-state loop."""
    space = enumerate_pwar(deck, rule)
    rows, cols, probs = _reference_triplets(deck, rule)
    assert space.trans_rows.dtype == space.trans_cols.dtype == np.int32
    assert np.array_equal(space.trans_rows, rows)
    assert np.array_equal(space.trans_cols, cols)
    assert np.array_equal(space.trans_probs, probs)
    for k in range(1, deck.size):
        assert verify_uniform_preservation(rule, deck, k) \
            == _reference_uniformity(rule, deck, k), k


def _reference_unreachable(space):
    """Reference for the graph pre-check: a depth-first walk back from
    the absorbing states along transitions of positive probability."""
    incoming = [[] for _ in range(space.n_states)]
    for r, c, p in zip(space.trans_rows.tolist(), space.trans_cols.tolist(),
                       space.trans_probs.tolist()):
        if p > 0.0:
            incoming[c].append(r)
    seen = space.absorbing.copy()
    stack = list(np.flatnonzero(space.absorbing))
    while stack:
        for i in incoming[stack.pop()]:
            if not seen[i]:
                seen[i] = True
                stack.append(i)
    return [int(i) for i in np.flatnonzero(~seen)]


def _oscillator(reads):
    """Valid, never absorbing: the smaller hand always takes the pair."""

    def ev(a, b, s, deck):
        half = deck.size // 2
        if len(s) < half - 1:
            return 1.0
        if len(s) > half - 1:
            return 0.0
        return 0.5

    return WinningRule(name="oscillator", eval=ev, reads=reads)


_REFERENCE_DECKS = ((1, 1), (2, 1), (6, 1), (3, 2), (4, 3), (10, 1), (12, 1))
_REFERENCE_CASES = [
    (rule, deck)
    for rule in ("coin", "greater", "greater-tiecoin", "powered",
                 "bradley-terry")
    for deck in _REFERENCE_DECKS
    if not (rule == "greater" and deck[1] > 1)
] + [("max-holder", (n, 1)) for n in (1, 2, 6, 8)]


class TestReferenceBuilder:
    """The vectorised random-draw builder against the per-state loop."""

    @pytest.mark.parametrize(
        "rule,deck", _REFERENCE_CASES,
        ids=[f"{r}-{d[0]}x{d[1]}" for r, d in _REFERENCE_CASES],
    )
    def test_builtins_bit_identical(self, rule, deck):
        _assert_matches_reference(build_deck(deck), rule_by_name(rule))

    @pytest.mark.parametrize("reads", ["size", "hand"])
    def test_oscillator_bit_identical(self, reads):
        _assert_matches_reference(build_deck((6, 1)), _oscillator(reads))

    @given(
        ranks=st.lists(st.integers(1, 6), min_size=2, max_size=10),
        name=st.sampled_from(["coin", "greater", "greater-tiecoin",
                              "powered", "bradley-terry", "max-holder"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_lists_bit_identical(self, ranks, name):
        deck = build_deck(ranks)
        assume(name not in ("greater", "max-holder")
               or not deck.has_repeated_ranks)
        _assert_matches_reference(deck, rule_by_name(name))

    @pytest.mark.parametrize("name", ["greater", "max-holder"])
    def test_tied_ranks_still_raise(self, name):
        deck = build_deck((3, 2))
        with pytest.raises(ValueError):
            enumerate_pwar(deck, rule_by_name(name))
        with pytest.raises(ValueError):
            verify_uniform_preservation(rule_by_name(name), deck, 3)


def _reference_fwar(n, strength):
    """Reference for the vectorised top-card builder: the per-state loop
    over the sorted ordered-hand states, with a dict index. Returns the
    states and the triplet and absorption arrays."""
    fs = strength.table(n)
    ids = list(range(n))
    states = []
    for k in range(n + 1):
        for a_set in itertools.combinations(ids, k):
            b_set = tuple(i for i in ids if i not in a_set)
            for a_perm in itertools.permutations(a_set):
                for b_perm in itertools.permutations(b_set):
                    states.append((a_perm, b_perm))
    states.sort()
    index = {s: i for i, s in enumerate(states)}
    absorbing = np.zeros(len(states), dtype=bool)
    win = np.zeros(len(states))
    rows, cols, probs = [], [], []
    for i, (a, b) in enumerate(states):
        if not a or not b:
            absorbing[i] = True
            if not b:
                win[i] = 1.0
            continue
        fa = fs[a[0]]
        fb = fs[b[0]]
        p = fa / (fa + fb)
        a_tail, b_tail = a[1:], b[1:]
        successors = (
            (index[(a_tail + (a[0], b[0]), b_tail)], p * 0.5),
            (index[(a_tail + (b[0], a[0]), b_tail)], p * 0.5),
            (index[(a_tail, b_tail + (b[0], a[0]))], (1 - p) * 0.5),
            (index[(a_tail, b_tail + (a[0], b[0]))], (1 - p) * 0.5),
        )
        for j, pr in successors:
            rows.append(i)
            cols.append(j)
            probs.append(pr)
    return (states, np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(probs, dtype=np.float64), absorbing, win)


def _hands(space):
    """Each top-card state as its ``(a, b)`` hand tuples: the state's row
    of card ids split at its ``hand_size``."""
    return [(tuple(row[:k]), tuple(row[k:]))
            for row, k in zip(space.states.tolist(),
                              space.hand_size.tolist())]


def _reference_drifts(space, strength):
    """Reference for the vectorised martingale check: the per-state
    loop."""
    fs = strength.table(space.n_cards)
    drift_m = 0.0
    drift_q = 0.0
    for i, (a, b) in enumerate(_hands(space)):
        if space.absorbing[i]:
            continue
        fa = fs[a[0]]
        fb = fs[b[0]]
        m = sum(fs[x] for x in a)
        p = fa / (fa + fb)
        e_dm = p * fb - (1.0 - p) * fa
        e_dm2 = p * (m + fb) ** 2 + (1.0 - p) * (m - fa) ** 2 - m * m
        drift_m = max(drift_m, abs(e_dm))
        drift_q = max(drift_q, abs(e_dm2 - fa * fb))
    return drift_m, drift_q


_FWAR_STRENGTHS = {
    "identity": lambda n: strength_builtin("identity"),
    "shifted": lambda n: strength_builtin("shifted", shift=n),
    "exponential": lambda n: strength_builtin("exponential", lam=1.0),
}


class TestEnumerateFwar:
    @pytest.mark.parametrize("kind", sorted(_FWAR_STRENGTHS))
    @pytest.mark.parametrize("n", range(1, exact.MAX_FWAR_N + 1))
    def test_bit_identical_to_reference(self, n, kind):
        f = _FWAR_STRENGTHS[kind](n)
        space = enumerate_fwar(n, f)
        states, rows, cols, probs, absorbing, win = _reference_fwar(n, f)
        assert space.states.dtype == np.int64
        assert space.trans_rows.dtype == space.trans_cols.dtype == np.int32
        assert np.array_equal(space.states,
                              np.array([a + b for a, b in states]))
        assert np.array_equal(space.trans_rows, rows)
        assert np.array_equal(space.trans_cols, cols)
        assert np.array_equal(space.trans_probs, probs)
        assert np.array_equal(space.absorbing, absorbing)
        assert np.array_equal(space.absorbing_win, win)
        assert space.hand_size.dtype == np.int64
        assert space.hand_size.tolist() == [len(a) for a, _ in states]

    def test_n1_both_states_absorbing(self):
        """n=1: the two one-card states are absorbing; the game is decided
        at the deal."""
        space = enumerate_fwar(1, strength_builtin("identity"))
        assert space.n_states == 2
        assert space.absorbing.all()

    def test_state_count_is_factorial(self):
        """(n+1)! ordered states; 120 at n=4."""
        for n in (2, 3, 4):
            space = enumerate_fwar(n, strength_builtin("identity"))
            assert space.n_states == math.factorial(n + 1)

    def test_single_pair_absorption_probability(self):
        """n=2, hands (2) vs (1), identity strengths: P(absorb to A) =
        2/3 on the next step."""
        space = enumerate_fwar(2, strength_builtin("identity"))
        hands = _hands(space)
        idx = hands.index(((1,), (0,)))
        win_mass = sum(
            p
            for i, j, p in zip(space.trans_rows, space.trans_cols,
                               space.trans_probs)
            if i == idx and not hands[j][1]
        )
        assert win_mass == pytest.approx(2 / 3, abs=1e-15)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            enumerate_fwar(8, strength_builtin("identity"))

    def test_row_sum_off_one_names_state(self):
        """Halving the first live row of the n=3 chain leaves every
        probability in [0, 1] but the row summing to 0.5: the check names
        that state by its hands, A = (0) and B = (1, 2), and the sum."""
        space = enumerate_fwar(3, strength_builtin("identity"))
        i = int(np.flatnonzero(~space.absorbing)[0])
        space.trans_probs[space.trans_rows == i] *= 0.5
        with pytest.raises(ValueError, match=r"^transition probabilities "
                           r"from state a:0;b:1,2 sum to 0\.5, not 1$"):
            exact._check_transitions(space)


class TestAbsorptionSolve:
    def test_uniform_hands_match_walk_values(self):
        """Uniform size-2 hands on deck 4 under the coin rule:
        E[tau] = 4, P(A wins) = 1/2."""
        deck = build_deck((4, 1))
        space = enumerate_pwar(deck, rule_coin())
        result = absorption_solve(space)
        mean_tau, mean_win = average_uniform_hands(space, result, 2)
        assert mean_tau == pytest.approx(4.0, abs=EXACT_TOL)
        assert mean_win == pytest.approx(0.5, abs=EXACT_TOL)

    def test_dominant_hand(self):
        """Hand {3,4} on deck 4 under higher-card-wins: the max card never
        leaves the hand, so P(A wins) = 1. The first capture adds a weak
        card that can lose later rounds, and the first-step recursion
        T = 1 + (1/2)(1 + T/3) + 1/2 gives E[tau] = 12/5."""
        deck = build_deck((4, 1))
        space = enumerate_pwar(deck, rule_greater_tiecoin())
        result = absorption_solve(space)
        mask = _mask(deck, {3, 4})
        assert result.expected_tau[mask] == pytest.approx(
            12 / 5, abs=EXACT_TOL
        )
        assert result.win_prob_a[mask] == pytest.approx(1.0, abs=EXACT_TOL)

    def test_absorbing_states_zero_consistent(self):
        """Boundary values are exact, also where the absorbing full hand
        has odd size and so sits in the half GMRES solves (5x1, fwar
        n=3); at fwar n=3 GMRES's own answer there is not exactly 1."""
        for space in (
            enumerate_pwar(build_deck((4, 1)), rule_coin()),
            enumerate_pwar(build_deck((5, 1)), rule_powered()),
            enumerate_fwar(3, strength_builtin("identity")),
        ):
            result = absorption_solve(space)
            assert result.method == "gmres"
            full = space.hand_size == space.n_cards
            empty = space.hand_size == 0
            assert np.array_equal(space.absorbing, full | empty)
            assert np.all(result.expected_tau[space.absorbing] == 0.0)
            assert np.all(result.win_prob_a[full] == 1.0)
            assert np.all(result.win_prob_a[empty] == 0.0)

    def test_results_in_range(self):
        deck = build_deck((6, 1))
        space = enumerate_pwar(deck, rule_powered())
        result = absorption_solve(space)
        assert np.all(result.win_prob_a >= -1e-12)
        assert np.all(result.win_prob_a <= 1 + 1e-12)
        assert np.all(result.expected_tau >= -1e-12)

    def test_recurrent_class_reported(self):
        """A valid but oscillating rule never absorbs: the solver refuses
        with a witness instead of returning garbage."""
        space = enumerate_pwar(build_deck((4, 1)), _oscillator("size"))
        with pytest.raises(AbsorptionError) as err:
            absorption_solve(space)
        assert len(err.value.witness) > 0
        assert err.value.witness == _reference_unreachable(space)

    @pytest.mark.parametrize("space", [
        lambda: enumerate_pwar(build_deck((6, 1)), _oscillator("size")),
        lambda: enumerate_pwar(build_deck((5, 1)), _oscillator("hand")),
        lambda: enumerate_pwar(build_deck((8, 1)), rule_by_name("greater")),
        lambda: enumerate_pwar(build_deck((3, 2)), rule_powered()),
        lambda: enumerate_fwar(4, strength_builtin("identity")),
    ], ids=["osc-6x1", "osc-5x1", "greater-8x1", "powered-3x2", "fwar-4"])
    def test_precheck_matches_reference(self, space):
        """The solve's witness is the reference's unreachable states, and
        a chain with none solves."""
        space = space()
        try:
            absorption_solve(space)
            witness = []
        except AbsorptionError as err:
            witness = err.witness
        assert witness == _reference_unreachable(space)

    def test_zero_probability_same_parity_triplet_accepted(self):
        """A p = 0 triplet between states of the same hand-size parity
        (here 1 -> 3) moves nothing: the chain solves as the fair walk on
        [0, 3]."""
        space = exact.StateSpace(
            flavor="pwar_subsets",
            states=[0, 1, 2, 3],
            trans_rows=np.array([1, 1, 1, 2, 2]),
            trans_cols=np.array([0, 2, 3, 1, 3]),
            trans_probs=np.array([0.5, 0.5, 0.0, 0.5, 0.5]),
            absorbing=np.array([True, False, False, True]),
            absorbing_win=np.array([0.0, 0.0, 0.0, 1.0]),
            n_cards=3,
            hand_size=np.array([0, 1, 2, 3], dtype=np.int64),
        )
        result = absorption_solve(space)
        assert result.method == "gmres"
        for k in range(4):
            oracle_tau, oracle_win = srw_oracle(3, k)
            assert result.expected_tau[k] == pytest.approx(oracle_tau,
                                                           abs=EXACT_TOL)
            assert result.win_prob_a[k] == pytest.approx(oracle_win,
                                                         abs=EXACT_TOL)

    def test_parity_checked_before_absorption(self):
        """A p > 0 same-parity step (1 -> 3) is named even though states
        2 and 3 are also trapped, swapping between each other forever."""
        space = exact.StateSpace(
            flavor="pwar_subsets",
            states=[0, 1, 2, 3, 4],
            trans_rows=np.array([1, 1, 2, 3]),
            trans_cols=np.array([0, 3, 3, 2]),
            trans_probs=np.array([0.5, 0.5, 1.0, 1.0]),
            absorbing=np.array([True, False, False, False, True]),
            absorbing_win=np.array([0.0, 0.0, 0.0, 0.0, 1.0]),
            n_cards=4,
            hand_size=np.array([0, 1, 2, 3, 4], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="state 1 moves to state 3 ") \
                as err:
            absorption_solve(space)
        assert not isinstance(err.value, AbsorptionError)

    def test_same_parity_transition_rejected(self):
        """A step that keeps the parity of |A| (here 1 -> 3) breaks the
        odd/even split the solver relies on, and is named."""
        space = exact.StateSpace(
            flavor="pwar_subsets",
            states=[0, 1, 2, 3],
            trans_rows=np.array([1, 1, 2, 2]),
            trans_cols=np.array([0, 3, 1, 3]),
            trans_probs=np.array([0.5, 0.5, 0.5, 0.5]),
            absorbing=np.array([True, False, False, True]),
            absorbing_win=np.array([0.0, 0.0, 0.0, 1.0]),
            n_cards=3,
            hand_size=np.array([0, 1, 2, 3], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="state 1 moves to state 3 "):
            absorption_solve(space)

    def test_solve_rows_export(self):
        deck = build_deck((2, 1))
        space = enumerate_pwar(deck, rule_coin())
        rows = list(solve_rows(space, absorption_solve(space)))
        assert len(rows) == 4
        assert rows[3]["win_prob_a"] == 1.0
        assert {r["state"] for r in rows} == {"0", "1", "2", "3"}

    def test_top_card_labels(self, tmp_path):
        """fwar n=3: each label lists hand a, then hand b, front to back,
        in state order, in ``solve_rows`` and in the CLI's CSV."""
        f = strength_builtin("identity")
        space = enumerate_fwar(3, f)
        expected = [
            "a:" + ",".join(map(str, a)) + ";b:" + ",".join(map(str, b))
            for a, b in _reference_fwar(3, f)[0]
        ]
        rows = list(solve_rows(space, absorption_solve(space)))
        assert [r["state"] for r in rows] == expected
        out = tmp_path / "f3.csv"
        assert main(["exact", "--game", "fwar", "--n", "3",
                     "--format", "csv", "--out", str(out)]) == 0
        _, (header, *body) = read_csv_with_metadata(str(out))
        assert [line[header.index("state")] for line in body] == expected


_GMRES = exact.gmres


def _no_convergence(a_mat, b, **kwargs):
    """Stands in for ``gmres``: its answer, flagged as not converged."""
    return _GMRES(a_mat, b, **kwargs)[0], 1


def _wrong_answer(a_mat, b, **kwargs):
    """Stands in for ``gmres``: a wrong answer flagged as converged."""
    return np.zeros_like(b), 0


def _solve_patched(space, monkeypatch, fake_gmres=_no_convergence):
    """The solve with ``gmres`` replaced by ``fake_gmres``; by default it
    never converges, so this is the LU path."""
    with monkeypatch.context() as m:
        m.setattr(exact, "gmres", fake_gmres)
        return absorption_solve(space)


_AGREEMENT_CHAINS = {
    f"{rule}-{deck[0]}x{deck[1]}": (
        lambda rule=rule, deck=deck: enumerate_pwar(
            build_deck(deck), rule_by_name(rule)
        )
    )
    for rule in ("coin", "powered", "greater-tiecoin")
    for deck in ((10, 1), (3, 4))
}
_AGREEMENT_CHAINS.update({
    "fwar-6-identity": lambda: enumerate_fwar(
        6, strength_builtin("identity")
    ),
    "fwar-6-exponential": lambda: enumerate_fwar(
        6, strength_builtin("exponential", lam=1.0)
    ),
})


class TestSolverPaths:
    @pytest.mark.parametrize("chain", sorted(_AGREEMENT_CHAINS))
    def test_gmres_agrees_with_splu(self, chain, monkeypatch):
        space = _AGREEMENT_CHAINS[chain]()
        assert space.trans_rows.dtype == space.trans_cols.dtype == np.int32
        fast = absorption_solve(space)
        ref = _solve_patched(space, monkeypatch)
        assert (fast.method, ref.method) == ("gmres", "splu")
        assert 0.0 < fast.residual <= exact.RESIDUAL_TOL
        assert 0.0 < ref.residual <= exact.RESIDUAL_TOL
        assert np.max(np.abs(fast.win_prob_a - ref.win_prob_a)) <= 1e-12
        assert np.max(np.abs(fast.expected_tau - ref.expected_tau)) <= 1e-12

    def test_fallback_when_gmres_does_not_converge(self, monkeypatch):
        """A non-converged GMRES answer is discarded for the LU one."""
        from scipy.sparse.linalg import splu

        factored = []

        def recording_splu(a_mat, **kwargs):
            factored.append(a_mat)
            return splu(a_mat, **kwargs)

        space = enumerate_pwar(build_deck((6, 1)), rule_powered())
        monkeypatch.setattr("scipy.sparse.linalg.splu", recording_splu)
        result = _solve_patched(space, monkeypatch)
        assert result.method == "splu"
        assert result.residual <= exact.RESIDUAL_TOL
        assert absorption_solve(space).method == "gmres"
        (a_mat,) = factored
        assert a_mat.shape == (space.n_states, space.n_states)
        lu = splu(a_mat, permc_spec="MMD_AT_PLUS_A")
        t = ~space.absorbing
        assert np.array_equal(result.win_prob_a[t],
                              lu.solve(space.absorbing_win)[t])
        assert np.array_equal(result.expected_tau[t],
                              lu.solve(t.astype(np.float64))[t])

    def test_fallback_when_gmres_residual_too_large(self, monkeypatch):
        """A GMRES answer that claims convergence but misses the residual
        gate is discarded too."""
        space = enumerate_pwar(build_deck((6, 1)), rule_coin())
        result = _solve_patched(space, monkeypatch, _wrong_answer)
        ref = _solve_patched(space, monkeypatch)
        assert result.method == "splu"
        assert np.array_equal(result.win_prob_a, ref.win_prob_a)
        assert np.array_equal(result.expected_tau, ref.expected_tau)

    def test_gmres_stopping_short_goes_straight_to_lu(self, monkeypatch):
        """A GMRES call that stops short is not called again: both
        systems go to LU at once."""
        calls = []

        def stops_short(apply, b, **kwargs):
            calls.append(b)
            return _no_convergence(apply, b, **kwargs)

        space = enumerate_pwar(build_deck((6, 1)), rule_powered())
        result = _solve_patched(space, monkeypatch, stops_short)
        assert result.method == "splu"
        assert result.residual <= exact.RESIDUAL_TOL
        assert len(calls) == 1

    def test_both_paths_over_tolerance_raise(self, monkeypatch):
        class _BadLU:
            def solve(self, b):
                return np.zeros_like(b)

        space = enumerate_pwar(build_deck((6, 1)), rule_coin())
        monkeypatch.setattr(exact, "gmres", _wrong_answer)
        monkeypatch.setattr("scipy.sparse.linalg.splu",
                            lambda a_mat, **kwargs: _BadLU())
        with pytest.raises(ValueError, match="residual"):
            absorption_solve(space)

    def test_coin_at_the_card_limit(self):
        """14 cards: every size-k hand wins w.p. k/14 after k(14-k)
        expected rounds."""
        d = exact.MAX_PWAR_CARDS
        space = enumerate_pwar(build_deck((d, 1)), rule_coin())
        result = absorption_solve(space)
        assert result.method == "gmres"
        sizes = np.array([bin(m).count("1") for m in space.states])
        for k in range(d + 1):
            oracle_tau, oracle_win = srw_oracle(d, k)
            at_k = sizes == k
            assert np.max(np.abs(result.expected_tau[at_k] - oracle_tau)) \
                <= EXACT_TOL
            assert np.max(np.abs(result.win_prob_a[at_k] - oracle_win)) \
                <= EXACT_TOL

    def test_strongest_deal_at_the_fwar_limit(self):
        n = exact.MAX_FWAR_N
        f = strength_builtin("identity")
        assert absorption_solve(enumerate_fwar(n, f)).method == "gmres"
        assert strongest_deal_exact_win_prob(n, f) == pytest.approx(
            strongest_deal_win_prob(f, n), abs=EXACT_TOL
        )


@st.composite
def _triplet_blocks(draw):
    """(rows, cols, probs, shape, v) of a random block and a vector.

    Half the draws are what the enumerators emit, ascending rows of one
    length with some rows empty; the rest are triplets in any row order,
    ragged, with repeated (row, col) pairs. p = 0 entries, rows of 8 or
    more entries, one-row blocks and vectors holding negatives and -0.0
    all come up."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    prob = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    col = st.integers(0, n_cols - 1)
    if draw(st.booleans()):
        width = draw(st.integers(1, 12))
        filled = [r for r in range(n_rows) if draw(st.booleans())]
        rows = [r for r in filled for _ in range(width)]
    else:
        rows = draw(st.lists(st.integers(0, n_rows - 1), max_size=40))
    cols = [draw(col) for _ in rows]
    probs = [draw(prob) for _ in rows]
    v = draw(st.lists(
        st.one_of(st.just(-0.0), st.floats(-1e6, 1e6),
                  st.floats(-1e-6, 1e-6)),
        min_size=n_cols, max_size=n_cols))
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(probs), (n_rows, n_cols), np.array(v))


def _row_sums(rows, cols, probs, n_rows, v):
    """Each row summed from 0.0 in triplet order, one float at a time."""
    sums = [0.0] * n_rows
    for r, c, p in zip(rows.tolist(), cols.tolist(), probs.tolist()):
        sums[r] += p * v[c]
    return np.array(sums)


def _interleaved(rows, data):
    """An order of the triplets that interleaves the rows at random while
    each row keeps its triplets in their given order."""
    keys = np.array(data.draw(st.permutations(range(rows.size))),
                    dtype=np.int64)
    for r in np.unique(rows):
        at = rows == r
        keys[at] = np.sort(keys[at])
    return np.argsort(keys)


class TestBlock:
    @settings(max_examples=300, deadline=None)
    @given(_triplet_blocks())
    def test_product_sums_rows_in_triplet_order(self, case):
        """Equal bit for bit, signs of zero included, to a row sum in
        triplet order."""
        rows, cols, probs, shape, v = case
        got = exact._Block(rows, cols, probs, shape) @ v
        assert got.tobytes() == _row_sums(rows, cols, probs, shape[0],
                                          v.tolist()).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_triplet_blocks(), st.data())
    def test_reaches_rows_with_a_positive_entry(self, case, data):
        rows, cols, probs, shape, _ = case
        v = np.array(data.draw(st.lists(st.booleans(), min_size=shape[1],
                                        max_size=shape[1])))
        want = np.zeros(shape[0], dtype=bool)
        for r, c, p in zip(rows, cols, probs):
            want[r] |= bool(v[c]) and p > 0.0
        got = exact._Block(rows, cols, probs, shape).reaches(v)
        assert np.array_equal(got, want)

    def test_one_long_row_adds_slot_by_slot(self):
        """numpy sums a one-row block's slots pairwise from 8 on; these
        terms round differently in that order."""
        v = np.array([1.0, 1e16, -1e16, 3.0])
        cols = np.array([1, 0, 2, 0, 3, 0, 0, 0, 0, 3])
        probs = np.ones(cols.size)
        rows = np.zeros(cols.size, dtype=np.int64)
        ref = _row_sums(rows, cols, probs, 1, v.tolist())
        got = exact._Block(rows, cols, probs, (1, 4)) @ v
        assert got.tobytes() == ref.tobytes()
        pairwise = np.add.reduce((probs * v[cols])[:, None], axis=0,
                                 initial=0.0)
        assert pairwise.tobytes() != ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(n_rows=st.integers(2, 6), n_cols=st.integers(1, 6),
           width=st.integers(1, 12), data=st.data())
    def test_fast_and_scatter_paths_agree(self, n_rows, n_cols, width, data):
        """Ascending rows of one length fill by their (rows, width) views;
        the same triplets with the rows interleaved take the sort and
        scatter. Both fill the same arrays, and their products are equal
        byte for byte."""
        filled = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=2,
                                    max_size=n_rows, unique=True))
        rows = np.repeat(np.sort(np.array(filled)), width)
        cols = np.array(data.draw(st.lists(
            st.integers(0, n_cols - 1), min_size=rows.size,
            max_size=rows.size)))
        probs = np.array(data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=rows.size, max_size=rows.size)))
        v = np.array(data.draw(st.lists(
            st.floats(-1e6, 1e6), min_size=n_cols, max_size=n_cols)))
        order = _interleaved(rows, data)
        assume((rows[order][1:] < rows[order][:-1]).any())
        shape = (n_rows, n_cols)
        fast = exact._Block(rows, cols, probs, shape)
        scatter = exact._Block(rows[order], cols[order], probs[order], shape)
        assert np.array_equal(fast.cols, scatter.cols)
        assert fast.probs.tobytes() == scatter.probs.tobytes()
        assert (fast @ v).tobytes() == (scatter @ v).tobytes()

    @pytest.mark.parametrize("rows, cols", [
        ([0, 1], [0, 3]), ([0, 1], [-1, 0]), ([0, 2], [0, 1]),
    ])
    def test_index_outside_the_block_raises(self, rows, cols):
        with pytest.raises(ValueError, match="outside"):
            exact._Block(np.array(rows), np.array(cols), np.ones(2), (2, 3))


@st.composite
def _bipartite_chains(draw):
    """A small chain on levels 0..top, the level being the hand size,
    absorbing at both ends. States are numbered in a drawn order. Each
    live state moves to one to four states one level up or down, at
    least one of them down with p > 0, so absorption is sure; p are
    drawn weights over their sum, and a target may repeat."""
    top = draw(st.integers(2, 6))
    levels = [lv for lv in range(top + 1)
              for _ in range(draw(st.integers(1, 3)))]
    hand_size = np.array(draw(st.permutations(levels)), dtype=np.int64)
    at_level = [np.flatnonzero(hand_size == lv).tolist()
                for lv in range(top + 1)]
    rows, cols, probs = [], [], []
    for i, lv in enumerate(hand_size.tolist()):
        if lv in (0, top):
            continue
        down = st.sampled_from(at_level[lv - 1])
        near = st.sampled_from(at_level[lv - 1] + at_level[lv + 1])
        targets = [draw(down)] + draw(st.lists(near, max_size=3))
        weights = [draw(st.floats(0.01, 1.0))] + [
            draw(st.floats(0.0, 1.0)) for _ in targets[1:]]
        order = draw(st.permutations(range(len(targets))))
        total = sum(weights)
        rows += [i] * len(targets)
        cols += [targets[t] for t in order]
        probs += [weights[t] / total for t in order]
    n = hand_size.size
    return exact.StateSpace(
        flavor="pwar_subsets",
        states=np.arange(n, dtype=np.int64),
        trans_rows=np.array(rows, dtype=np.int32),
        trans_cols=np.array(cols, dtype=np.int32),
        trans_probs=np.array(probs),
        absorbing=(hand_size == 0) | (hand_size == top),
        absorbing_win=(hand_size == top).astype(np.float64),
        n_cards=top,
        hand_size=hand_size,
    )


def _result_bytes(result):
    return (result.win_prob_a.tobytes(), result.expected_tau.tobytes(),
            result.method, result.residual, result.matvecs)


class TestInterleavedRows:
    @settings(max_examples=150, deadline=None)
    @given(_bipartite_chains(), st.data())
    def test_solve_is_byte_identical(self, space, data):
        """Each row's triplets stay in their order, so every row is summed
        as before, whatever the order of the rows and the index dtype."""
        order = _interleaved(space.trans_rows, data)
        dtype = data.draw(st.sampled_from([np.int32, np.int64]))
        shuffled = dataclasses.replace(
            space,
            trans_rows=space.trans_rows[order].astype(dtype),
            trans_cols=space.trans_cols[order].astype(dtype),
            trans_probs=space.trans_probs[order],
        )
        assert _result_bytes(absorption_solve(shuffled)) \
            == _result_bytes(absorption_solve(space))


def _traced_peak(fn, *args) -> int:
    """Bytes traced at the peak of ``fn(*args)``, above those allocated
    when it was called; the result counts, as it is allocated inside."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def _chain_bytes(space) -> int:
    """What a random-draw chain must hold: an int32 row and column and a
    float64 p per transition; per state an int64 mask and hand size, an
    absorbing flag and a float64 boundary value."""
    return 16 * space.trans_probs.size + 25 * space.n_states


def _blocks_and_basis_bytes(space) -> int:
    """GMRES's working set: the two slot-major blocks, each with an intp
    column and a float64 p in each of its half's rows times its longest
    row, and the basis of ``GMRES_RESTART`` + 1 odd-half vectors."""
    odd = space.hand_size % 2 == 1
    counts = np.bincount(space.trans_rows, minlength=space.n_states)
    slot = np.dtype(np.intp).itemsize + 8
    blocks = sum(int(half.sum()) * int(counts[half].max()) * slot
                 for half in (odd, ~odd))
    n_odd = int(odd.sum())
    return blocks + (min(exact.GMRES_RESTART, n_odd) + 1) * n_odd * 8


class TestMemory:
    """tracemalloc traces numpy's buffers, so these peaks repeat exactly.
    The 12-card solve peaks at 1.53 times its blocks and basis and the
    fwar n=6 solve at 1.72 times; enumeration peaks at 1.47 times its
    chain. A solve that copied the kept triplets again before building
    each block, with a product buffer per block, peaked at 2.89 and 2.44
    times, and int64 triplets with a (states, k, d-k) array of p put
    enumeration at 1.89 times."""

    SOLVE_HEADROOM = 2.0
    ENUMERATE_HEADROOM = 1.6

    @pytest.mark.parametrize("make", [
        lambda: enumerate_pwar(build_deck((12, 1)), rule_coin()),
        lambda: enumerate_fwar(6, strength_builtin("identity")),
    ], ids=["pwar-12x1-coin", "fwar-6-identity"])
    def test_solve_within_blocks_and_basis(self, make):
        space = make()
        absorption_solve(space)
        peak = _traced_peak(absorption_solve, space)
        assert peak <= self.SOLVE_HEADROOM * _blocks_and_basis_bytes(space)

    @pytest.mark.parametrize("rule", ["coin", "greater-tiecoin"])
    def test_enumeration_within_its_chain(self, rule):
        deck = build_deck((12, 1))
        space = enumerate_pwar(deck, rule_by_name(rule))
        peak = _traced_peak(enumerate_pwar, build_deck((12, 1)),
                            rule_by_name(rule))
        assert peak <= self.ENUMERATE_HEADROOM * _chain_bytes(space)


def _python(code, **env):
    """Runs ``code`` in a fresh interpreter with ``env`` added to the
    environment; the child finds the package under test through
    PYTHONPATH, as pytest's own ``pythonpath`` is not inherited."""
    src = str(Path(exact.__file__).resolve().parent.parent)
    child_env = dict(os.environ, **env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, child_env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env)


def _counting(a, calls):
    """The product with ``a``, appending to ``calls`` on every use."""
    def apply(v):
        calls.append(1)
        return a @ v
    return apply


class TestGmres:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_dense_systems_match_numpy(self, n, seed):
        """Strictly diagonally dominant nonsymmetric systems (singular
        values within [n, 3n]) agree with a dense solve."""
        rng = np.random.default_rng(seed)
        a = 2 * n * np.eye(n) + rng.uniform(-1.0, 1.0, (n, n))
        b = rng.standard_normal(n)
        x, info = exact.gmres(lambda v: a @ v, b)
        ref = np.linalg.solve(a, b)
        assert info == 0
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_zero_rhs_returns_zeros_unapplied(self):
        calls = []
        x, info = exact.gmres(_counting(np.eye(5), calls), np.zeros(5))
        assert info == 0
        assert np.array_equal(x, np.zeros(5))
        assert calls == []

    def test_exact_breakdown_converges(self):
        """b is an eigenvector, so the first step's new direction is
        exactly zero: the cycle stops there with the solution, after one
        product for the step and one for the residual."""
        a = np.triu(np.random.default_rng(7).uniform(-1.0, 1.0, (6, 6)))
        a += 4.0 * np.eye(6)
        b = np.zeros(6)
        b[0] = 3.0
        calls = []
        x, info = exact.gmres(_counting(a, calls), b)
        assert info == 0
        assert len(calls) == 2
        assert np.linalg.norm(a @ x - b) <= exact.GMRES_RTOL * 3.0

    def test_one_cycle_short_of_a_hard_system(self, monkeypatch):
        """A 200-state system with condition number 1000 needs more than
        one cycle of 20 steps to reach GMRES_RTOL, and gets there with
        the GMRES_MAXITER cap."""
        a = np.diag(np.linspace(1.0, 1000.0, 200))
        b = np.ones(200)
        with monkeypatch.context() as m:
            m.setattr(exact, "GMRES_MAXITER", 1)
            _, info = exact.gmres(lambda v: a @ v, b)
        assert info != 0
        x, info = exact.gmres(lambda v: a @ v, b)
        assert info == 0
        assert np.max(np.abs(x - b / np.diag(a))) <= 1e-12

    def test_breakdown_then_continue(self):
        """An operator whose first product is exactly 2 v breaks the
        first cycle down after one step, short of the solution of
        diag(2, 3, 4, 5, 6) x = 1; the next cycle starts from the
        residual and converges."""
        a = np.diag([2.0, 3.0, 4.0, 5.0, 6.0])
        calls = []

        def apply(v):
            calls.append(1)
            return 2.0 * v if len(calls) == 1 else a @ v

        b = np.ones(5)
        x, info = exact.gmres(apply, b)
        assert info == 0
        assert len(calls) > 2
        assert np.linalg.norm(b - a @ x) \
            <= exact.GMRES_RTOL * np.linalg.norm(b)

    def test_solve_counts_applications(self, monkeypatch):
        """``matvecs`` is the number of operator applications over both
        systems, as a counter wrapped round the operator sees them."""
        seen = []

        def counting_gmres(apply, b, **kwargs):
            def counted(v):
                seen.append(1)
                return apply(v)
            return _GMRES(counted, b, **kwargs)

        space = enumerate_pwar(build_deck((6, 1)), rule_powered())
        monkeypatch.setattr(exact, "gmres", counting_gmres)
        result = absorption_solve(space)
        assert result.method == "gmres"
        assert result.matvecs == len(seen) > 0

    def test_solve_leaves_scipy_sparse_linalg_unloaded(self):
        """A solve that stays on GMRES imports no scipy module at all."""
        proc = _python(
            "import sys\n"
            "from warlab.core import build_deck\n"
            "from warlab.exact import absorption_solve, enumerate_pwar\n"
            "from warlab.rules import rule_coin\n"
            "space = enumerate_pwar(build_deck((6, 1)), rule_coin())\n"
            "print(absorption_solve(space).method, "
            "[m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["gmres", "[]"]

    def test_limits_stay_on_gmres_with_one_blas_thread(self):
        """GMRES_RTOL sits at the rounding floor, so the sums' order can
        decide convergence: both limit chains must converge with one
        OpenBLAS thread as well as with the suite's own setting."""
        proc = _python(
            "from warlab.core import build_deck\n"
            "from warlab.exact import (MAX_FWAR_N, MAX_PWAR_CARDS,\n"
            "    absorption_solve, enumerate_fwar, enumerate_pwar)\n"
            "from warlab.rules import rule_coin, strength_builtin\n"
            "for space in (\n"
            "        enumerate_pwar(build_deck((MAX_PWAR_CARDS, 1)),\n"
            "                       rule_coin()),\n"
            "        enumerate_fwar(MAX_FWAR_N,\n"
            "                       strength_builtin('identity'))):\n"
            "    result = absorption_solve(space)\n"
            "    print(result.method, result.residual)\n",
            OPENBLAS_NUM_THREADS="1",
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert [method for method, _ in rows] == ["gmres", "gmres"]
        assert all(float(r) <= exact.RESIDUAL_TOL for _, r in rows)


class TestSrwOracle:
    def test_reference_values(self):
        assert srw_oracle(52, 26) == (676.0, 0.5)
        assert srw_oracle(8, 0) == (0.0, 0.0)
        assert srw_oracle(8, 3) == (15.0, 0.375)

    def test_cross_check_against_solver(self):
        """(8,3) agrees with the exact solve of the coin rule on deck 8."""
        deck = build_deck((8, 1))
        space = enumerate_pwar(deck, rule_coin())
        result = absorption_solve(space)
        mean_tau, mean_win = average_uniform_hands(space, result, 3)
        assert mean_tau == pytest.approx(15.0, abs=EXACT_TOL)
        assert mean_win == pytest.approx(0.375, abs=EXACT_TOL)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            srw_oracle(8, 9)


def _one_step_distribution_oracle(deck, rule, k):
    """Independent brute-force: distribution of the hand after one round
    from the uniform distribution over size-k hands, via direct summation
    over (hand, a, b) triples (no transition matrices)."""
    ids = list(range(deck.size))
    hands = list(itertools.combinations(ids, k))
    w0 = 1.0 / len(hands)
    dist = defaultdict(float)
    for hand in hands:
        hand_set = set(hand)
        others = [i for i in ids if i not in hand_set]
        pair_w = w0 / (len(hand) * len(others))
        for a_id in hand:
            s = frozenset(hand_set - {a_id})
            for b_id in others:
                p = rule.eval(deck.cards[a_id], deck.cards[b_id], s, deck)
                dist[frozenset(hand_set | {b_id})] += pair_w * p
                dist[s] += pair_w * (1.0 - p)
    return dist


class TestUniformPreservation:
    def test_symmetric_rules_preserve(self):
        deck = build_deck((6, 1))
        for name in ("coin", "greater-tiecoin", "powered"):
            dev = verify_uniform_preservation(rule_by_name(name), deck, 3)
            assert dev <= 1e-12, f"{name}: {dev}"

    def test_coin_rule_any_size(self):
        deck = build_deck((4, 2))
        for k in range(1, 8):
            assert verify_uniform_preservation(rule_coin(), deck, k) <= 1e-12

    def test_max_holder_breaks_uniformity(self):
        """Non-symmetric rule: the one-step distribution visibly deviates
        from the half/half uniform mixture, and the deviation agrees with
        an independent brute-force computation."""
        deck = build_deck((6, 1))
        dev = verify_uniform_preservation(rule_max_holder(), deck, 3)
        assert dev > 0.01
        dist = _one_step_distribution_oracle(deck, rule_max_holder(), 3)
        n_lo = math.comb(6, 2)
        n_hi = math.comb(6, 4)
        oracle_dev = 0.0
        for hand, mass in dist.items():
            target = 0.5 / (n_lo if len(hand) == 2 else n_hi)
            oracle_dev = max(oracle_dev, abs(mass - target))
        assert dev == pytest.approx(oracle_dev, abs=1e-12)

    def test_oracle_agrees_for_symmetric_rule(self):
        deck = build_deck((6, 1))
        dist = _one_step_distribution_oracle(deck, rule_greater_tiecoin(), 2)
        n_lo = math.comb(6, 1)
        n_hi = math.comb(6, 3)
        for hand, mass in dist.items():
            target = 0.5 / (n_lo if len(hand) == 1 else n_hi)
            assert mass == pytest.approx(target, abs=1e-12)

    def test_rejects_absorbing_k(self):
        deck = build_deck((4, 1))
        with pytest.raises(ValueError):
            verify_uniform_preservation(rule_coin(), deck, 0)


class TestCountingIdentity:
    def test_small_cases(self):
        assert counting_identity(1, 1)
        assert counting_identity(3, 2)

    def test_both_sides_value(self):
        """n=3, k=2: both factorizations equal 1/120 exactly."""
        lhs = (
            Fraction(1, math.comb(6, 1))
            * Fraction(1, math.comb(5, 2))
            * Fraction(1, 2)
        )
        assert lhs == Fraction(1, 120)
        rhs = Fraction(1, math.comb(6, 2)) * Fraction(1, 2) * Fraction(1, 4)
        assert rhs == Fraction(1, 120)
        assert counting_identity(3, 2)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            counting_identity(3, 0)
        with pytest.raises(ValueError):
            counting_identity(3, 6)


class TestMartingaleDrifts:
    def test_identity_n4(self):
        space = enumerate_fwar(4, strength_builtin("identity"))
        dm, dq = verify_martingales(space, strength_builtin("identity"))
        assert dm <= 1e-10
        assert dq <= 1e-10

    def test_constant_is_walk_compensator(self):
        """Constant strengths: the compensator increment is exactly 1, the
        discrete analogue of a unit-variance fair step."""
        f = strength_builtin("constant")
        space = enumerate_fwar(4, f)
        dm, dq = verify_martingales(space, f)
        assert dm <= 1e-12
        assert dq <= 1e-12

    def test_exponential_n5(self):
        f = strength_builtin("exponential", lam=1.0)
        space = enumerate_fwar(5, f)
        dm, dq = verify_martingales(space, f)
        assert max(dm, dq) <= 1e-9

    @pytest.mark.parametrize("kind", sorted(_FWAR_STRENGTHS))
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_matches_reference_loop(self, n, kind):
        f = _FWAR_STRENGTHS[kind](n)
        space = enumerate_fwar(n, f)
        dm, dq = verify_martingales(space, f)
        ref_m, ref_q = _reference_drifts(space, f)
        assert abs(dm - ref_m) <= 1e-12
        assert abs(dq - ref_q) <= 1e-12

    def test_flavor_check(self):
        space = enumerate_pwar(build_deck((4, 1)), rule_coin())
        with pytest.raises(ValueError):
            verify_martingales(space, strength_builtin("identity"))


class TestStrongestDealExact:
    def test_identity_n3(self):
        """Exact chain solve matches the closed form 3/4 within 1e-9."""
        f = strength_builtin("identity")
        assert strongest_deal_exact_win_prob(3, f) == pytest.approx(
            0.75, abs=EXACT_TOL
        )

    @pytest.mark.parametrize("kind,lam", [
        ("identity", None), ("constant", None), ("exponential", 1.0),
    ])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_closed_form(self, kind, lam, n):
        kw = {"lam": lam} if lam is not None else {}
        f = strength_builtin(kind, **kw)
        exact_p = strongest_deal_exact_win_prob(n, f)
        assert exact_p == pytest.approx(
            strongest_deal_win_prob(f, n), abs=EXACT_TOL
        )

    def test_iid_deal_is_fair(self):
        """Exchangeable players: iid fair-coin deal gives P(A wins)=1/2."""
        space = enumerate_fwar(4, strength_builtin("identity"))
        assert _deal_win_prob(space, absorption_solve(space), "iid") \
            == pytest.approx(0.5, abs=EXACT_TOL)


class TestMonteCarloAgreesWithExact:
    def test_pwar_small_instance(self):
        """Simulation matches the exact solve within 3 sigma on a small
        instance (powered rule, deck 6, uniform size-3 hands)."""
        from warlab.pwar import PwarConfig
        from warlab.stats import run_trials

        deck = build_deck((6, 1))
        space = enumerate_pwar(deck, rule_powered())
        result = absorption_solve(space)
        exact_tau, exact_win = average_uniform_hands(space, result, 3)
        n = 20000
        records = run_trials(PwarConfig(deck=(6, 1), rule="powered"), n, 61)
        taus = [r.tau for r in records]
        mean = sum(taus) / n
        sem = np.std(taus, ddof=1) / math.sqrt(n)
        assert abs(mean - exact_tau) <= 3 * sem
        freq = sum(r.winner == "A" for r in records) / n
        assert abs(freq - exact_win) <= 3 * math.sqrt(0.25 / n)

    def test_fwar_small_instance(self):
        """Top-card simulation matches its exact solve (identity, n=4,
        uniform 2-2 ordered split)."""
        from warlab.fwar import FwarConfig
        from warlab.stats import run_trials

        f = strength_builtin("identity")
        space = enumerate_fwar(4, f)
        result = absorption_solve(space)
        starts = [
            i for i, (a, b) in enumerate(_hands(space))
            if len(a) == 2 and len(b) == 2
        ]
        exact_win = float(np.mean([result.win_prob_a[i] for i in starts]))
        exact_tau = float(np.mean([result.expected_tau[i] for i in starts]))
        n = 20000
        records = run_trials(FwarConfig(n=4, strength="identity"), n, 62)
        freq = sum(r.winner == "A" for r in records) / n
        taus = [r.tau for r in records]
        mean = sum(taus) / n
        sem = np.std(taus, ddof=1) / math.sqrt(n)
        assert abs(freq - exact_win) <= 3 * math.sqrt(0.25 / n)
        assert abs(mean - exact_tau) <= 3 * sem


@pytest.mark.parametrize("demo", ["demo_exact_solver.py",
                                  "demo_martingale_war.py"])
def test_state_space_demo_runs(demo):
    """The demos that read ``StateSpace`` run to completion."""
    path = Path(__file__).resolve().parent.parent / "demos" / demo
    proc = _python(f"import runpy; runpy.run_path({str(path)!r}, "
                   "run_name='__main__')")
    assert proc.returncode == 0, proc.stderr
