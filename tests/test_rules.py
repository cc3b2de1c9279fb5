"""Tests for the built-in winning rules, strength functions and validators."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warlab.core import StrengthFunction, build_deck
from warlab.rules import (
    VIOLATION_TOL,
    rule_bradley_terry,
    rule_by_name,
    rule_coin,
    rule_greater,
    rule_greater_tiecoin,
    rule_max_holder,
    rule_powered,
    strength_builtin,
    validate_rule,
)


def _card(deck, rank):
    """First card of the given rank."""
    return next(c for c in deck.cards if c.rank == rank)


class TestCoinRule:
    def test_half_everywhere(self):
        deck = build_deck((8, 1))
        rule = rule_coin()
        assert rule.eval(_card(deck, 7), _card(deck, 2), frozenset(), deck) == 0.5
        assert rule.eval(
            _card(deck, 1), _card(deck, 2), frozenset({2}), deck
        ) == 0.5

    def test_symmetric_and_valid(self):
        report = validate_rule(rule_coin(), build_deck((6, 1)))
        assert report.is_valid_rule
        assert report.is_symmetric
        assert report.max_violation == 0.0


class TestGreaterRules:
    def test_higher_rank_wins(self):
        deck = build_deck((6, 1))
        rule = rule_greater_tiecoin()
        assert rule.eval(_card(deck, 5), _card(deck, 3), frozenset(), deck) == 1.0
        assert rule.eval(_card(deck, 3), _card(deck, 5), frozenset(), deck) == 0.0

    def test_equal_ranks_coin(self):
        deck = build_deck((3, 2))
        rule = rule_greater_tiecoin()
        a, b = deck.cards[0], deck.cards[1]
        assert a.rank == b.rank
        assert rule.eval(a, b, frozenset(), deck) == 0.5

    def test_strict_raises_on_tie(self):
        deck = build_deck((3, 2))
        a, b = deck.cards[0], deck.cards[1]
        with pytest.raises(ValueError):
            rule_greater().eval(a, b, frozenset(), deck)

    def test_symmetric(self):
        report = validate_rule(rule_greater_tiecoin(), build_deck((3, 2)))
        assert report.is_valid_rule
        assert report.is_symmetric

    def test_strict_matches_tiecoin_on_distinct(self):
        deck = build_deck((5, 1))
        strict, tiecoin = rule_greater(), rule_greater_tiecoin()
        for a, b in itertools.permutations(deck.cards, 2):
            s = frozenset()
            assert strict.eval(a, b, s, deck) == tiecoin.eval(a, b, s, deck)


class TestPoweredRule:
    def test_last_card_is_fair(self):
        """s = 0 when a player holds a single card: probability 1/2."""
        deck = build_deck([2, 1])
        rule = rule_powered()
        a, b = deck.cards[0], deck.cards[1]
        assert rule.eval(a, b, frozenset(), deck) == 0.5

    def test_power_three(self):
        """ranks 2 vs 1 with s=3 on both sides: 2^3/(2^3+1^3) = 8/9."""
        deck = build_deck([2, 1, 3, 3, 3, 4, 4, 4])
        rule = rule_powered()
        a, b = deck.cards[0], deck.cards[1]
        s = frozenset({2, 3, 4})
        assert rule.eval(a, b, s, deck) == pytest.approx(8 / 9, abs=1e-15)

    def test_equal_ranks_half(self):
        deck = build_deck((4, 2))
        rule = rule_powered()
        a, b = deck.cards[0], deck.cards[1]
        for s in (frozenset(), frozenset({2, 3}), frozenset({2, 3, 4, 5})):
            assert rule.eval(a, b, s, deck) == 0.5

    def test_valid_and_symmetric_on_repeated_deck(self):
        report = validate_rule(rule_powered(), build_deck((2, 2)))
        assert report.is_valid_rule
        assert report.is_symmetric

    def test_symmetry_sum_is_exact(self):
        """p_{a,b}(S) + p_{b,a}(S) == 1.0 exactly at every enumerated
        point, not merely within tolerance."""
        deck = build_deck((6, 1))
        rule = rule_powered()
        ids = set(range(deck.size))
        for a_id, b_id in itertools.permutations(range(deck.size), 2):
            rest = ids - {a_id, b_id}
            for r in range(len(rest) + 1):
                for s_tuple in itertools.combinations(sorted(rest), r):
                    s = frozenset(s_tuple)
                    a, b = deck.cards[a_id], deck.cards[b_id]
                    assert rule.eval(a, b, s, deck) + rule.eval(
                        b, a, s, deck
                    ) == 1.0


class TestBradleyTerryRule:
    def test_identity_quarter(self):
        deck = build_deck((4, 1))
        rule = rule_bradley_terry(strength_builtin("identity"))
        a, b = _card(deck, 1), _card(deck, 3)
        assert rule.eval(a, b, frozenset(), deck) == pytest.approx(0.25)

    def test_equal_ranks_half(self):
        deck = build_deck((2, 2))
        rule = rule_bradley_terry(strength_builtin("identity"))
        assert rule.eval(deck.cards[0], deck.cards[1], frozenset(), deck) == 0.5

    def test_constant_strength_equals_coin(self):
        """Bradley-Terry with constant strengths is the coin rule
        pointwise on every enumerable input."""
        deck = build_deck((5, 1))
        bt = rule_bradley_terry(strength_builtin("constant"))
        coin = rule_coin()
        ids = set(range(deck.size))
        for a_id, b_id in itertools.permutations(range(deck.size), 2):
            rest = sorted(ids - {a_id, b_id})
            for r in range(len(rest) + 1):
                for s_tuple in itertools.combinations(rest, r):
                    s = frozenset(s_tuple)
                    a, b = deck.cards[a_id], deck.cards[b_id]
                    assert bt.eval(a, b, s, deck) == coin.eval(a, b, s, deck)

    def test_symmetric(self):
        rule = rule_bradley_terry(strength_builtin("identity"))
        report = validate_rule(rule, build_deck((6, 1)))
        assert report.is_valid_rule
        assert report.is_symmetric

    def test_reads_the_decks_strength_table(self):
        """Every (a, b) pair of a deck costs one f call per rank, made by
        the deck's strength table, not one per evaluation."""
        calls = []
        strength = StrengthFunction(
            name="counted", f=lambda r: calls.append(r) or float(r))
        deck = build_deck((3, 2))
        rule = rule_bradley_terry(strength)
        for a, b in itertools.permutations(deck.cards, 2):
            rule.eval(a, b, frozenset(), deck)
        assert calls == [1, 2, 3]
        a, b = _card(deck, 1), _card(deck, 3)
        assert rule.eval(a, b, frozenset(), deck) == 0.25
        assert deck.strength_table(strength) == (1.0, 1.0, 2.0, 2.0, 3.0,
                                                 3.0)

    def test_bad_strength_rejected_by_the_table(self):
        deck = build_deck((3, 1))
        rule = rule_bradley_terry(
            StrengthFunction(name="bad", f=lambda r: r - 2.0))
        with pytest.raises(ValueError, match="'bad' is non-positive"):
            rule.eval(deck.cards[0], deck.cards[2], frozenset(), deck)


class TestMaxHolderRule:
    def test_holder_of_max_wins(self):
        deck = build_deck((4, 1))
        rule = rule_max_holder()
        a = _card(deck, 1)
        b = _card(deck, 2)
        s = frozenset({_card(deck, 4).id})
        assert rule.eval(a, b, s, deck) == 1.0
        assert rule.eval(a, b, frozenset({_card(deck, 3).id}), deck) == 0.0

    def test_valid_but_not_symmetric(self):
        report = validate_rule(rule_max_holder(), build_deck((6, 1)))
        assert report.is_valid_rule
        assert not report.is_symmetric
        assert report.max_symmetry_violation == 1.0

    def test_rejects_repeated_ranks(self):
        deck = build_deck((2, 2))
        with pytest.raises(ValueError):
            rule_max_holder().eval(
                deck.cards[0], deck.cards[2], frozenset(), deck
            )


class TestStrengthBuiltins:
    def test_constant(self):
        f = strength_builtin("constant")
        assert [f.f(a) for a in (1, 5, 9)] == [1.0, 1.0, 1.0]

    def test_identity(self):
        assert strength_builtin("identity").f(5) == 5.0

    def test_shifted(self):
        assert strength_builtin("shifted", shift=4).f(3) == 7.0

    def test_exponential(self):
        f = strength_builtin("exponential", lam=0.5)
        assert f.f(2) == pytest.approx(math.exp(1.0))

    def test_shifted_requires_shift(self):
        with pytest.raises(ValueError):
            strength_builtin("shifted")

    def test_exponential_requires_finite_lam(self):
        with pytest.raises(ValueError):
            strength_builtin("exponential", lam=float("inf"))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            strength_builtin("cubic")

    def test_table_validates_positivity(self):
        bad = StrengthFunction(name="bad", f=lambda a: a - 2.0)
        with pytest.raises(ValueError):
            bad.table(4)

    @pytest.mark.parametrize("f,ranks", [
        (lambda a: math.exp(400.0 * a), "[2, 3]"),
        (lambda a: 10 ** (200 * a), "[2, 3]"),
        (lambda a: math.inf if a == 1 else 1.0, "[1]"),
        (lambda a: math.nan if a == 3 else 1.0, "[3]"),
    ], ids=["exp-overflow", "int-overflow", "inf", "nan"])
    def test_table_rejects_overflow_and_non_finite(self, f, ranks):
        bad = StrengthFunction(name="bad", f=f)
        with pytest.raises(ValueError) as info:
            bad.table(3)
        assert str(info.value) == (
            f"strength 'bad' is non-positive or not finite at ranks {ranks}")


class TestValidateRule:
    def test_rejects_large_deck(self):
        with pytest.raises(ValueError):
            validate_rule(rule_coin(), build_deck((15, 1)))

    def test_flags_invalid_rule(self):
        """A rule violating the defining identity is reported with a
        witness."""
        from warlab.core import WinningRule

        broken = WinningRule(
            name="always-a", eval=lambda a, b, s, d: 1.0, reads="cards"
        )
        report = validate_rule(broken, build_deck((4, 1)))
        assert not report.is_valid_rule
        assert report.max_violation == 1.0
        assert report.witness is not None

    @given(
        n_ranks=st.integers(1, 5),
        copies=st.integers(1, 3),
        name=st.sampled_from(
            ["coin", "greater-tiecoin", "powered", "bradley-terry"]
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_shipped_rules_valid_on_small_decks(self, n_ranks, copies, name):
        """Every shipped symmetric rule passes validation with violation
        <= 1e-12 on all decks of size <= 10."""
        if n_ranks * copies > 10:
            return
        deck = build_deck((n_ranks, copies))
        report = validate_rule(rule_by_name(name), deck)
        assert report.is_valid_rule
        assert report.is_symmetric
        assert report.max_violation <= VIOLATION_TOL

    @pytest.mark.parametrize("spec", [(6, 1), (3, 2)])
    def test_builtins_read_what_they_declare(self, spec):
        deck = build_deck(spec)
        for name in ("coin", "greater", "greater-tiecoin", "powered",
                     "bradley-terry", "max-holder"):
            if name in ("greater", "max-holder") and deck.has_repeated_ranks:
                continue
            report = validate_rule(rule_by_name(name), deck)
            assert report.reads_witness is None, name

    def test_cards_rule_reading_hand_size_caught(self):
        """An oscillator reads len(s); declared as reading only the cards
        it is reported with the first S where eval differs from S = {}."""
        from warlab.core import WinningRule

        def oscillator(a, b, s, deck):
            half = deck.size // 2
            if len(s) < half - 1:
                return 1.0
            if len(s) > half - 1:
                return 0.0
            return 0.5

        deck = build_deck((6, 1))
        report = validate_rule(
            WinningRule(name="oscillator", eval=oscillator, reads="cards"),
            deck)
        assert report.is_valid_rule
        assert report.reads_witness == (0, 1, (2, 3))
        a_id, b_id, s = report.reads_witness
        a, b = deck.cards[a_id], deck.cards[b_id]
        assert oscillator(a, b, frozenset(s), deck) \
            != oscillator(a, b, frozenset(), deck)
        sized = validate_rule(
            WinningRule(name="oscillator", eval=oscillator, reads="size"),
            deck)
        assert sized.reads_witness is None

    def test_size_rule_reading_hand_caught(self):
        """max-holder declared as reading only the hand size is caught:
        two hands of one size differ in whether they hold the maximum."""
        from warlab.core import WinningRule

        rule = WinningRule(name="max-holder-as-size",
                           eval=rule_max_holder().eval, reads="size")
        report = validate_rule(rule, build_deck((4, 1)))
        assert report.reads_witness is not None
        a_id, b_id, s = report.reads_witness
        assert len(s) >= 1 and a_id not in s and b_id not in s

    def test_reads_must_be_known(self):
        from warlab.core import WinningRule

        with pytest.raises(ValueError, match="reads"):
            WinningRule(name="x", eval=lambda a, b, s, d: 0.5, reads="ranks")

    def test_uses_hand_spelling(self):
        """The boolean spelling still constructs and reads."""
        from warlab.core import WinningRule

        ev = rule_coin().eval
        assert WinningRule(name="c", eval=ev, uses_hand=False).reads \
            == "cards"
        assert WinningRule(name="h", eval=ev, uses_hand=True).reads == "hand"
        assert rule_powered().uses_hand and not rule_coin().uses_hand

    def test_max_holder_valid_on_distinct_decks(self):
        for size in (2, 4, 6, 8):
            report = validate_rule(rule_max_holder(), build_deck((size, 1)))
            assert report.is_valid_rule

    def test_rule_by_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="valid names"):
            rule_by_name("nonesuch")
