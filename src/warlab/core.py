"""Deck, game-state and trial-record types plus the seeded randomness
contract.

Every engine in this package draws randomness exclusively through
:class:`RngStream`, one stream per trial. A stream is a pure function of
``(seed, stream_id)``, so trial results are reproducible and independent of
how trials are distributed over workers.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

#: Name of the RNG scheme, recorded in every output's metadata.
RNG_ALGORITHM = "mt19937/sha256-derived-streams"


# ---------------------------------------------------------------------------
# Cards and decks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Card:
    """One card: a unique identity plus an integer face value.

    Ranks may repeat within a deck; ids never do. Rules compare ranks, the
    ids exist so that repeated ranks conserve as a multiset and so that
    exact state enumeration has distinguishable cards.
    """

    id: int
    rank: int


@dataclass(frozen=True)
class Deck:
    """The fixed multiset of all cards in play, ids ``0..size-1``."""

    cards: tuple[Card, ...]

    @property
    def size(self) -> int:
        return len(self.cards)

    @property
    def half(self) -> int:
        """The first hand's size in an even split: half the deck, rounded
        down."""
        return len(self.cards) // 2

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Rank of each card, indexed by card id."""
        return tuple(c.rank for c in self.cards)

    @cached_property
    def max_rank(self) -> int:
        return max(c.rank for c in self.cards)

    @cached_property
    def has_repeated_ranks(self) -> bool:
        ranks = self.ranks
        return len(set(ranks)) != len(ranks)

    @cached_property
    def _tables(self) -> dict:
        return {}

    def _table(self, key, make: Callable):
        """The table kept under ``key``, a rule or a strength, made by
        ``make()`` on first use. A lookup hashes the key, never the deck,
        and an ad-hoc key lives no longer than the deck it was used on."""
        tables = self._tables
        table = tables.get(key)
        if table is None:
            table = tables[key] = make()
        return table

    def pair_table(self, rule: WinningRule) -> PairTable:
        """This deck's :class:`PairTable` for ``rule``."""
        return self._table(rule, lambda: PairTable(rule, self))

    def strength_table(self, strength: StrengthFunction) -> tuple[float, ...]:
        """f of each card, indexed by card id: the engines' one source of
        strengths, checked by :meth:`StrengthFunction.table`."""
        def make():
            fs = strength.table(self.max_rank)
            return tuple(fs[r - 1] for r in self.ranks)
        return self._table(strength, make)

    def __getstate__(self):
        # The tables are keyed by rule and strength callables, which need
        # not pickle.
        return {"cards": self.cards}


def build_deck(spec: Sequence[int]) -> Deck:
    """Build a deck from an ``(n_ranks, copies)`` pair or an explicit
    sequence of ranks.

    Ids are assigned ``0..size-1``; for ``(n_ranks, copies)`` decks, card
    ``i`` has rank ``i // copies + 1`` so ranks run ``1..n_ranks``.

    Raises ``ValueError`` for empty decks, non-positive sizes or ranks.
    """
    if isinstance(spec, tuple) and len(spec) == 2 and all(
        isinstance(x, int) for x in spec
    ):
        # A 2-tuple of ints always means (n_ranks, copies); pass a list for
        # an explicit two-card rank sequence.
        n_ranks, copies = spec
    else:
        ranks = tuple(int(r) for r in spec)
        if not ranks:
            raise ValueError("deck must contain at least one card")
        if any(r <= 0 for r in ranks):
            raise ValueError("ranks must be positive integers")
        return Deck(cards=tuple(Card(id=i, rank=r)
                                for i, r in enumerate(ranks)))
    if n_ranks <= 0 or copies <= 0:
        raise ValueError(
            f"deck spec needs positive rank and copy counts, got "
            f"{n_ranks}x{copies}"
        )
    cards = tuple(
        Card(id=i, rank=i // copies + 1) for i in range(n_ranks * copies)
    )
    return Deck(cards=cards)


# ---------------------------------------------------------------------------
# Hands and game states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GameState:
    """Partition of the deck into two hands plus a round counter.

    Both hands must be the same flavor: ``frozenset`` ids for random-draw
    war, tuples (front = next played) for top-card games. The state is
    absorbing exactly when one hand is empty.
    """

    hand_a: frozenset | tuple
    hand_b: frozenset | tuple
    round: int = 0

    @property
    def is_absorbing(self) -> bool:
        return not self.hand_a or not self.hand_b

    @property
    def ordered(self) -> bool:
        return isinstance(self.hand_a, tuple)


def validate_state(state: GameState, deck: Deck) -> None:
    """Check card conservation and hand-flavor consistency.

    Raises ``ValueError`` if the two hands are not disjoint, do not cover
    the deck's ids exactly, contain duplicates, or mix flavors.
    """
    if type(state.hand_a) is not type(state.hand_b):
        raise ValueError("hands must share a flavor (both sets or both tuples)")
    a, b = list(state.hand_a), list(state.hand_b)
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        raise ValueError("a hand contains duplicate card ids")
    union = set(a) | set(b)
    if len(a) + len(b) != deck.size or union != set(range(deck.size)):
        raise ValueError("hands must partition the deck's card ids")
    if state.round < 0:
        raise ValueError("round counter must be non-negative")


# ---------------------------------------------------------------------------
# Trial records
# ---------------------------------------------------------------------------

WINNER_A = "A"
WINNER_B = "B"
DRAW = "Draw"
TRUNCATED = "Truncated"

#: Cap on rounds per game; arbitrary rules need not terminate.
DEFAULT_MAX_ROUNDS = 10_000_000


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one game: rounds played, winner and the trial's stream id.

    ``winner`` is one of :data:`WINNER_A`, :data:`WINNER_B`, :data:`DRAW`
    or :data:`TRUNCATED` (round cap hit). ``trace`` is recorded on request:
    |A_t| for t = 0..tau in random-draw war, the signed pile size of each
    round in classic war (positive when A collected it).
    """

    tau: int
    winner: str
    stream_id: int
    trace: Optional[tuple] = None


# ---------------------------------------------------------------------------
# Rule and strength-function interfaces
# ---------------------------------------------------------------------------


#: What a rule's ``eval`` may depend on, from least to most.
RULE_READS = ("cards", "size", "hand")


@dataclass(frozen=True, init=False)
class WinningRule:
    """Round-outcome law for random-draw war.

    ``eval(a, b, s, deck)`` returns the probability that card ``a`` beats
    card ``b`` when the rest of the first player's hand is the id set ``s``.
    A valid rule satisfies ``eval(a, b, S) + eval(b, a, D \\ (S|{a,b})) = 1``
    for every legal triple; it is symmetric when additionally
    ``eval(a, b, S) + eval(b, a, S) = 1``.

    ``reads`` declares what ``eval`` depends on besides the deck:

    - ``"cards"``: the two played cards only; ``eval`` is called once per
      card pair, with an empty ``s``;
    - ``"size"``: the two cards and ``len(s)``; ``eval`` is called once per
      card pair and hand size k, on the canonical ``s`` of the lowest k-1
      ids other than the two cards;
    - ``"hand"`` (the default): the set ``s`` itself; ``eval`` is called
      with the real rest of the hand, every round and every state.

    The Monte Carlo engine and exact enumeration both rely on the
    declaration: for ``"cards"`` and ``"size"`` rules they read p from the
    deck's :class:`PairTable`, so a rule that reads more than it declares
    is silently evaluated on the wrong ``s``.
    :func:`warlab.rules.validate_rule` checks the declaration exactly
    (``RuleReport.reads_witness``, and ``verify rules``). The older
    boolean ``uses_hand`` is still accepted by the constructor (True means
    ``"hand"``, False ``"cards"``) and read as ``reads != "cards"``.
    """

    name: str
    eval: Callable[[Card, Card, frozenset, Deck], float]
    reads: str = "hand"

    def __init__(self, name: str, eval: Callable, reads: str = "hand", *,
                 uses_hand: Optional[bool] = None):
        if uses_hand is not None:
            reads = "hand" if uses_hand else "cards"
        if reads not in RULE_READS:
            raise ValueError(
                f"reads must be one of {RULE_READS}, got {reads!r}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "eval", eval)
        object.__setattr__(self, "reads", reads)

    @property
    def uses_hand(self) -> bool:
        return self.reads != "cards"


class PairTable:
    """``rule.eval`` of one rule on one deck, for a rule that reads at
    most the hand size.

    ``by_size[k]``, for hand sizes k = 1..d-1, is a flat table of d*d
    floats: p of card ``a`` against card ``b`` sits at ``a * d + b`` and
    is NaN until :meth:`fill` computes it; the diagonal (a card against
    itself) is 0. A p outside [0, 1], or NaN, is never stored, so play
    meets it only through :meth:`fill`, and rejects it there. A
    ``"cards"`` rule has one table, a list shared by every k, filled
    with an empty ``s`` when the table is made (see ``walk_p``). A
    ``"size"`` rule has one ``array('d')`` per k (d^3 doubles in all),
    each entry filled on first read with the canonical rest of a size-k
    hand: the lowest k-1 ids other than a and b. The Monte Carlo engine
    and exact enumeration both read p from here, so they share one
    evaluation per entry.

    ``walk_p`` is the p that a ``"cards"`` rule gives every pair of
    distinct cards, and None when the pairs differ, when the rule reads
    the hand size or when some pair's ``eval`` raises; with it, hand size
    is a walk that ignores the cards. To decide it, a ``"cards"`` table is
    filled in ascending (a, b) order; an ``eval`` that raises stops the
    fill there, and play raises when it reads that pair.
    """

    __slots__ = ("rule", "deck", "by_size", "walk_p")

    def __init__(self, rule: WinningRule, deck: Deck):
        if rule.reads == "hand":
            raise ValueError(f"rule {rule.name!r} reads the hand")
        d = deck.size
        unfilled = array("d", [math.nan]) * (d * d)
        unfilled[::d + 1] = array("d", [0.0]) * d
        self.rule = rule
        self.deck = deck
        self.walk_p = None
        if rule.reads == "cards":
            # One small table: a list reads faster than an array, which
            # boxes a new float on every read.
            self.by_size = [unfilled.tolist()] * (d + 1)
            self.walk_p = self._one_p()
        else:
            self.by_size = ([None] + [array("d", unfilled)
                                      for _ in range(1, d)] + [None])

    def _one_p(self) -> Optional[float]:
        """The one p off the diagonal of a ``"cards"`` table, or None."""
        try:
            table = self.filled(1)
        except Exception:
            return None
        d = self.deck.size
        off = [p for i, p in enumerate(table) if i % (d + 1)]
        if off and all(p == off[0] for p in off):
            return off[0]
        return None

    def fill(self, a_id: int, b_id: int, k: int) -> float:
        """Evaluate, store and return p of ``a_id`` against ``b_id`` at
        hand size ``k``."""
        deck = self.deck
        if self.rule.reads == "cards":
            s = frozenset()
        else:
            rest = [i for i in range(k + 1) if i != a_id and i != b_id]
            s = frozenset(rest[:k - 1])
        cards = deck.cards
        p = self.rule.eval(cards[a_id], cards[b_id], s, deck)
        if 0.0 <= p <= 1.0:
            self.by_size[k][a_id * deck.size + b_id] = p
        return p

    def filled(self, k: int) -> Sequence[float]:
        """p of every ordered pair at hand size ``k`` in ascending (a, b)
        order: ``by_size[k]``, its missing entries evaluated."""
        table = self.by_size[k]
        total = sum(table)
        if total == total:  # no entry is NaN
            return table
        d = self.deck.size
        return [p if p == p else self.fill(i // d, i % d, k)
                for i, p in enumerate(table)]


@dataclass(frozen=True)
class StrengthFunction:
    """Per-rank positive strength used by Bradley-Terry round outcomes."""

    name: str
    f: Callable[[int], float]
    params: tuple = ()

    def table(self, max_rank: int) -> list[float]:
        """Strengths ``[f(1), .., f(max_rank)]``, validated positive and
        finite; a value that overflows counts as infinite."""
        values = []
        for r in range(1, max_rank + 1):
            try:
                values.append(float(self.f(r)))
            except OverflowError:
                values.append(math.inf)
        bad = [r + 1 for r, v in enumerate(values) if not 0 < v < math.inf]
        if bad:
            raise ValueError(f"strength {self.name!r} is non-positive or "
                             f"not finite at ranks {bad}")
        return values

    def describe(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


class RngStream:
    """Deterministic per-trial random stream.

    The contract: an MT19937 generator (the stdlib ``random.Random``)
    seeded with the SHA-256 digest of ``"{seed}:{stream_id}"``, so the
    draw sequence is a pure function of ``(seed, stream_id)`` and distinct
    stream ids give statistically independent streams. Its ``random()``
    (53-bit floats from two 32-bit words) and ``getrandbits(k)`` (one word
    per call for ``k <= 32``) are the only generator calls; :meth:`shuffle`
    and :meth:`sample` are warlab's own, written over ``getrandbits``, so no
    draw depends on the private helpers of ``Lib/random.py``. They consume
    the same words as CPython 3.11's ``Random.shuffle``/``Random.sample``
    and give the same results. ``random`` and ``getrandbits`` are bound
    methods stored as attributes, so hot loops pay no delegation cost.
    """

    __slots__ = ("stream_id", "random", "getrandbits")

    def __init__(self, seed: int, stream_id: int = 0):
        material = hashlib.sha256(f"{seed}:{stream_id}".encode()).digest()
        rng = random.Random(int.from_bytes(material, "big"))
        self.stream_id = stream_id
        self.random = rng.random
        self.getrandbits = rng.getrandbits

    def shuffle(self, x: list) -> None:
        """Shuffle ``x`` in place (Fisher-Yates from the back). Position
        ``i`` swaps with a uniform index below ``i + 1``, drawn by
        rejection: ``getrandbits(n.bit_length())`` until it is below
        ``n``."""
        getrandbits = self.getrandbits
        for i in reversed(range(1, len(x))):
            n = i + 1
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]

    def sample(self, population: Sequence, k: int) -> list:
        """``k`` elements of ``population`` at distinct positions, chosen
        uniformly, in selection order. Small populations are drawn from a shrinking pool;
        when ``k`` is small against ``len(population)`` positions are drawn
        with replacement and redrawn when already taken. Both branches and
        the size that picks between them are CPython 3.11's."""
        n = len(population)
        if not 0 <= k <= n:
            raise ValueError("sample larger than population or is negative")
        getrandbits = self.getrandbits
        result = [None] * k
        setsize = 21
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        if n <= setsize:
            pool = list(population)
            for i in range(k):
                m = n - i
                bits = m.bit_length()
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                result[i] = pool[j]
                pool[j] = pool[m - 1]
        else:
            bits = n.bit_length()
            selected = set()
            for i in range(k):
                j = getrandbits(bits)
                while j >= n or j in selected:
                    j = getrandbits(bits)
                selected.add(j)
                result[i] = population[j]
        return result


def deal_uniform(
    deck: Deck, size_a: Optional[int], rng: RngStream, ordered: bool = False
) -> GameState:
    """Deal a uniformly random initial state with ``size_a`` cards for A,
    ``deck.half`` when ``size_a`` is None.

    The first hand is a uniform subset of the stated size; with
    ``ordered=True`` both hands are additionally uniform random
    permutations of their sets (the shuffle-and-split distribution).
    """
    if size_a is None:
        size_a = deck.half
    if not 0 <= size_a <= deck.size:
        raise ValueError(
            f"size_a must lie in [0, {deck.size}], got {size_a}"
        )
    ids = range(deck.size)
    picked = rng.sample(ids, size_a)
    in_a = set(picked)
    rest = [i for i in ids if i not in in_a]
    if ordered:
        rng.shuffle(rest)
        return GameState(hand_a=tuple(picked), hand_b=tuple(rest), round=0)
    return GameState(
        hand_a=frozenset(picked), hand_b=frozenset(rest), round=0
    )


@lru_cache(maxsize=128)
def built(config):
    """``config.build()``, computed once per distinct config value.

    Trial recipes are frozen (hashable) dataclasses, so all trials of one
    recipe share its deck and rule or strength instead of rebuilding them
    per trial; forked workers inherit the cache.
    """
    return config.build()
