"""Built-in winning rules and strength functions, plus exhaustive validators.

All built-ins evaluate exact rationals in floating point, so the validation
tolerance is 1e-12. Complementary probabilities are computed from one
canonical orientation (lower rank first) so that ``p + (1 - p)`` sums to 1.0
bit-for-bit, not merely within rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import Card, Deck, StrengthFunction, WinningRule

#: Max violation for a rule to count as valid/symmetric.
VIOLATION_TOL = 1e-12
#: Exhaustive (a, b, S) enumeration is exponential in deck size.
MAX_VALIDATE_CARDS = 14


# ---------------------------------------------------------------------------
# Built-in winning rules
# ---------------------------------------------------------------------------


def rule_coin() -> WinningRule:
    """Fair coin each round regardless of the cards: hand size is a simple
    symmetric random walk."""

    def ev(a: Card, b: Card, s: frozenset, deck: Deck) -> float:
        return 0.5

    return WinningRule(name="coin", eval=ev, reads="cards")


def rule_greater() -> WinningRule:
    """Strictly higher rank wins. Only valid on decks of distinct ranks;
    evaluating a tie raises."""

    def ev(a: Card, b: Card, s: frozenset, deck: Deck) -> float:
        if a.rank == b.rank:
            raise ValueError(
                "rule 'greater' is undefined on tied ranks; use "
                "'greater-tiecoin' for decks with repeated ranks"
            )
        return 1.0 if a.rank > b.rank else 0.0

    return WinningRule(name="greater", eval=ev, reads="cards")


def rule_greater_tiecoin() -> WinningRule:
    """Higher rank wins; equal ranks are settled by a fair coin."""

    def ev(a: Card, b: Card, s: frozenset, deck: Deck) -> float:
        if a.rank > b.rank:
            return 1.0
        if a.rank < b.rank:
            return 0.0
        return 0.5

    return WinningRule(name="greater-tiecoin", eval=ev, reads="cards")


def rule_powered() -> WinningRule:
    """p = a^s / (a^s + b^s) with s = min(|S|, |D| - |S| - 2).

    The higher card's edge grows with the smaller remaining hand size s:
    even hands make the higher card strong, a player on their last card
    gets a fair coin (s = 0).
    """

    def ev(a: Card, b: Card, s: frozenset, deck: Deck) -> float:
        k = min(len(s), deck.size - len(s) - 2)
        if a.rank == b.rank:
            return 0.5
        # Canonical orientation keeps p and its complement exact.
        if a.rank < b.rank:
            lo, hi = a.rank, b.rank
            num = lo**k
            return num / (num + hi**k)
        lo, hi = b.rank, a.rank
        num = lo**k
        return 1.0 - num / (num + hi**k)

    return WinningRule(name="powered", eval=ev, reads="size")


def rule_bradley_terry(strength: StrengthFunction) -> WinningRule:
    """p = f(a) / (f(a) + f(b)), independent of the rest of the hand;
    f is read from the deck's strength table, which checks it."""

    def ev(a: Card, b: Card, s: frozenset, deck: Deck) -> float:
        if a.rank == b.rank:
            return 0.5
        f_of = deck.strength_table(strength)
        fa, fb = f_of[a.id], f_of[b.id]
        if a.rank < b.rank:
            return fa / (fa + fb)
        return 1.0 - fb / (fb + fa)

    return WinningRule(
        name=f"bradley-terry({strength.describe()})", eval=ev, reads="cards"
    )


def rule_max_holder() -> WinningRule:
    """A wins with certainty iff A's whole hand holds the deck's maximum.

    Not symmetric: whoever holds the single highest card wins every round
    and therefore the game in at most ``deck.size`` rounds. Requires
    distinct ranks.
    """

    def ev(a: Card, b: Card, s: frozenset, deck: Deck) -> float:
        if deck.has_repeated_ranks:
            raise ValueError("rule 'max-holder' requires distinct ranks")
        ranks = deck.ranks
        own = max(ranks[i] for i in s) if s else 0
        own = max(own, a.rank)
        rest = max(
            r for i, r in enumerate(ranks) if i not in s and i != a.id
        )
        return 1.0 if own > rest else 0.0

    return WinningRule(name="max-holder", eval=ev, reads="hand")


# ---------------------------------------------------------------------------
# Strength functions
# ---------------------------------------------------------------------------


def strength_builtin(
    kind: str,
    shift: Optional[int] = None,
    lam: Optional[float] = None,
) -> StrengthFunction:
    """Named strength families for top-card (Bradley-Terry) war.

    - ``constant``: f(a) = 1, a simple random walk.
    - ``identity``: f(a) = a, the gladiator-duel weighting.
    - ``shifted``: f(a) = a + shift, shift a non-negative integer (the
      family whose absorption time scales quadratically when shift
      equals the deck size).
    - ``exponential``: f(a) = exp(lam * a); play approaches
      higher-card-always-wins as lam grows.
    """
    if kind == "constant":
        return StrengthFunction(name="constant", f=lambda a: 1.0)
    if kind == "identity":
        return StrengthFunction(name="identity", f=lambda a: float(a))
    if kind == "shifted":
        if shift is None:
            raise ValueError("shifted strength requires a shift value")
        if shift < 0:
            raise ValueError("shift must be non-negative")
        if not float(shift).is_integer():
            raise ValueError(f"shift must be an integer, got {shift!r}")
        s = int(shift)
        return StrengthFunction(
            name="shifted", f=lambda a, _s=s: float(a + _s),
            params=(("shift", s),),
        )
    if kind == "exponential":
        if lam is None:
            raise ValueError("exponential strength requires lam")
        lam = float(lam)
        if not math.isfinite(lam):
            raise ValueError("lam must be finite")
        return StrengthFunction(
            name="exponential", f=lambda a, _l=lam: math.exp(_l * a),
            params=(("lam", lam),),
        )
    raise ValueError(
        f"unknown strength kind {kind!r}; valid: {sorted(STRENGTH_KINDS)}"
    )


STRENGTH_KINDS = ("constant", "identity", "shifted", "exponential")
#: The one parameter of each strength family that takes one, by the
#: keyword of :func:`strength_builtin` (and flag of the command line).
STRENGTH_PARAMS = {"shifted": "shift", "exponential": "lam"}


def strength_from_spec(
    kind: str, param: Optional[float], max_rank: int
) -> StrengthFunction:
    """Strength family ``kind`` with its one optional parameter, as trial
    configs and the command line spell it: ``param`` is the family's
    parameter in ``STRENGTH_PARAMS`` (a shift defaults to ``max_rank``,
    the deck's top rank); the other families ignore it."""
    name = STRENGTH_PARAMS.get(kind)
    if name is None:
        return strength_builtin(kind)
    if name == "shift" and param is None:
        param = max_rank
    return strength_builtin(kind, **{name: param})


#: Built-in rule factories by the name the CLI and trial configs use;
#: those of ``STRENGTH_RULES`` take the strength function.
_RULES = {
    "coin": rule_coin,
    "greater": rule_greater,
    "greater-tiecoin": rule_greater_tiecoin,
    "powered": rule_powered,
    "bradley-terry": rule_bradley_terry,
    "max-holder": rule_max_holder,
}
RULE_NAMES = tuple(_RULES)
#: The built-in rules that read a strength function.
STRENGTH_RULES = ("bradley-terry",)
#: The built-in rules with p_{a,b}(S) + p_{b,a}(S) = 1, under which hand
#: size is a fair walk; ``max-holder`` alone is not symmetric.
SYMMETRIC_RULES = tuple(name for name in RULE_NAMES if name != "max-holder")
#: The strength family of ``bradley-terry`` and top-card war when none is
#: named.
DEFAULT_STRENGTH = "identity"


def rule_by_name(
    name: str, strength: Optional[StrengthFunction] = None
) -> WinningRule:
    """Construct a built-in rule from its CLI name."""
    if name not in _RULES:
        raise ValueError(
            f"unknown rule {name!r}; valid names: {', '.join(RULE_NAMES)}"
        )
    if name not in STRENGTH_RULES:
        return _RULES[name]()
    return _RULES[name](strength or strength_builtin(DEFAULT_STRENGTH))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleReport:
    """Exhaustive check of the winning-rule and symmetry identities.

    ``max_violation`` is the worst |p_{a,b}(S) + p_{b,a}(D\\(S|{a,b})) - 1|;
    ``max_symmetry_violation`` the worst |p_{a,b}(S) + p_{b,a}(S) - 1|.
    ``witness`` is the (a_id, b_id, S) triple attaining the larger of the
    two. ``reads_witness`` is the first (a_id, b_id, S) at which ``eval``
    differs from its value at an S the rule's ``reads`` declaration cannot
    tell apart (any S for ``"cards"``, any S of the same size for
    ``"size"``), or None when the declaration holds.
    """

    is_valid_rule: bool
    is_symmetric: bool
    max_violation: float
    max_symmetry_violation: float
    witness: Optional[tuple]
    reads_witness: Optional[tuple] = None


def _subsets(ids: Iterable[int]):
    pool = list(ids)
    for r in range(len(pool) + 1):
        yield from itertools.combinations(pool, r)


def validate_rule(rule: WinningRule, deck: Deck) -> RuleReport:
    """Enumerate every (a, b, S) on a small deck and report the worst
    violations of the defining identity and of symmetry.

    Rejects decks larger than ``MAX_VALIDATE_CARDS`` (enumeration is
    exponential). Probabilities outside [0, 1] count as violations of the
    defining identity. The ``reads`` declaration is checked exactly, since
    exact enumeration substitutes one evaluation for the others it
    declares equal.
    """
    if deck.size > MAX_VALIDATE_CARDS:
        raise ValueError(
            f"deck of {deck.size} cards exceeds the exhaustive-validation "
            f"limit of {MAX_VALIDATE_CARDS}"
        )
    cards = deck.cards
    all_ids = set(range(deck.size))
    worst = 0.0
    worst_sym = 0.0
    witness: Optional[tuple] = None
    first: dict = {}
    reads_witness: Optional[tuple] = None
    for a_id, b_id in itertools.permutations(range(deck.size), 2):
        a, b = cards[a_id], cards[b_id]
        rest = all_ids - {a_id, b_id}
        for s_tuple in _subsets(rest):
            s = frozenset(s_tuple)
            comp = frozenset(rest - s)
            p = rule.eval(a, b, s, deck)
            if rule.reads != "hand" and reads_witness is None:
                key = (a_id, b_id, len(s) if rule.reads == "size" else 0)
                if first.setdefault(key, p) != p:
                    reads_witness = (a_id, b_id, s_tuple)
            viol = abs(p + rule.eval(b, a, comp, deck) - 1.0)
            if not 0.0 <= p <= 1.0:
                viol = max(viol, abs(p))
            sym = abs(p + rule.eval(b, a, s, deck) - 1.0)
            if max(viol, sym) > max(worst, worst_sym) or witness is None:
                witness = (a_id, b_id, s_tuple)
            worst = max(worst, viol)
            worst_sym = max(worst_sym, sym)
    return RuleReport(
        is_valid_rule=worst <= VIOLATION_TOL,
        is_symmetric=worst_sym <= VIOLATION_TOL,
        max_violation=worst,
        max_symmetry_violation=worst_sym,
        witness=witness,
        reads_witness=reads_witness,
    )
