"""Tests for enumeration, the absorption solver, oracles and identities."""

import itertools
import math
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from warlab import exact
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
            for i, j, p in space.transitions
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
    for r, c, p in space.transitions:
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


def _reference_drifts(space, strength):
    """Reference for the vectorised martingale check: the per-state
    loop."""
    fs = strength.table(space.n_cards)
    drift_m = 0.0
    drift_q = 0.0
    for i, (a, b) in enumerate(space.states):
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
        assert space.states == states
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
        idx = space.states.index(((1,), (0,)))
        win_mass = sum(
            p
            for i, j, p in space.transitions
            if i == idx and not space.states[j][1]
        )
        assert win_mass == pytest.approx(2 / 3, abs=1e-15)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            enumerate_fwar(8, strength_builtin("identity"))


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
        space = space()
        assert exact._unreachable_states(space) \
            == _reference_unreachable(space)

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
        monkeypatch.setattr(exact, "splu", recording_splu)
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

    def test_warm_restart_before_fallback(self, monkeypatch):
        """A first GMRES call that stops short is restarted from its
        answer, and a converged restart is kept."""
        starts = []

        def first_call_stops_short(a_mat, b, x0=None, **kwargs):
            starts.append(x0)
            x, info = _GMRES(a_mat, b, x0=x0, **kwargs)
            return x, (1 if x0 is None else info)

        space = enumerate_pwar(build_deck((6, 1)), rule_powered())
        result = _solve_patched(space, monkeypatch, first_call_stops_short)
        assert result.method == "gmres"
        assert result.residual <= exact.RESIDUAL_TOL
        assert [x0 is None for x0 in starts] == [True, False, True, False]

    def test_both_paths_over_tolerance_raise(self, monkeypatch):
        class _BadLU:
            def solve(self, b):
                return np.zeros_like(b)

        space = enumerate_pwar(build_deck((6, 1)), rule_coin())
        monkeypatch.setattr(exact, "gmres", _wrong_answer)
        monkeypatch.setattr(exact, "splu", lambda a_mat, **kwargs: _BadLU())
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

    @pytest.mark.parametrize("x0", [None, np.ones(5)], ids=["cold", "warm"])
    def test_zero_rhs_returns_zeros_unapplied(self, x0):
        calls = []
        x, info = exact.gmres(_counting(np.eye(5), calls), np.zeros(5),
                              x0=x0)
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

    def test_one_cycle_short_of_a_hard_system(self):
        """A 200-state system with condition number 1000 needs more than
        one cycle of 20 steps to reach GMRES_RTOL, and gets there with
        the default cap."""
        a = np.diag(np.linspace(1.0, 1000.0, 200))
        b = np.ones(200)
        _, info = exact.gmres(lambda v: a @ v, b, maxiter=1)
        assert info != 0
        x, info = exact.gmres(lambda v: a @ v, b)
        assert info == 0
        assert np.max(np.abs(x - b / np.diag(a))) <= 1e-12

    def test_solve_counts_applications_and_restarts(self, monkeypatch):
        """A warm restart is reported, and its operator applications
        counted: restarting from a converged answer costs one, for its
        residual, per system."""
        space = enumerate_pwar(build_deck((6, 1)), rule_powered())
        plain = absorption_solve(space)
        assert (plain.method, plain.restarted) == ("gmres", False)

        def first_call_stops_short(apply, b, x0=None, **kwargs):
            x, info = _GMRES(apply, b, x0=x0, **kwargs)
            return x, (1 if x0 is None else info)

        monkeypatch.setattr(exact, "gmres", first_call_stops_short)
        result = absorption_solve(space)
        assert (result.method, result.restarted) == ("gmres", True)
        assert result.matvecs == plain.matvecs + 2

    def test_solve_leaves_scipy_sparse_linalg_unloaded(self):
        """A solve that stays on GMRES imports no scipy solver."""
        proc = _python(
            "import sys\n"
            "from warlab.core import build_deck\n"
            "from warlab.exact import absorption_solve, enumerate_pwar\n"
            "from warlab.rules import rule_coin\n"
            "space = enumerate_pwar(build_deck((6, 1)), rule_coin())\n"
            "print(absorption_solve(space).method, "
            "'scipy.sparse.linalg' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["gmres", "False"]

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
            i for i, (a, b) in enumerate(space.states)
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
