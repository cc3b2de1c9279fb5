"""Deck, game-state and trial-record types plus the seeded randomness
contract.

Every engine in this package draws randomness exclusively through
:class:`RngStream`, one stream per trial. A stream is a pure function of
``(seed, stream_id)``, so trial results are reproducible and independent of
how trials are distributed over workers.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

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
class DeckSpec:
    """Deck descriptor: ``n_ranks`` distinct ranks, ``copies`` cards of each."""

    n_ranks: int
    copies: int = 1

    @property
    def size(self) -> int:
        return self.n_ranks * self.copies

    def label(self) -> str:
        return f"{self.n_ranks}x{self.copies}"


@dataclass(frozen=True)
class Deck:
    """The fixed multiset of all cards in play, ids ``0..size-1``."""

    cards: tuple[Card, ...]
    spec: DeckSpec | None = None

    @property
    def size(self) -> int:
        return len(self.cards)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Rank of each card, indexed by card id."""
        return tuple(c.rank for c in self.cards)

    @property
    def max_rank(self) -> int:
        return max(c.rank for c in self.cards)

    @property
    def has_repeated_ranks(self) -> bool:
        ranks = self.ranks
        return len(set(ranks)) != len(ranks)

    def describe(self) -> str:
        if self.spec is not None:
            return self.spec.label()
        return "ranks:" + ",".join(str(r) for r in self.ranks)


DeckLike = Union[DeckSpec, tuple, Sequence[int]]


@lru_cache(maxsize=128)
def _deck_from_spec(n_ranks: int, copies: int) -> Deck:
    cards = tuple(
        Card(id=i, rank=i // copies + 1) for i in range(n_ranks * copies)
    )
    return Deck(cards=cards, spec=DeckSpec(n_ranks, copies))


@lru_cache(maxsize=128)
def _deck_from_ranks(ranks: tuple) -> Deck:
    cards = tuple(Card(id=i, rank=r) for i, r in enumerate(ranks))
    return Deck(cards=cards, spec=None)


def build_deck(spec: DeckLike) -> Deck:
    """Build a deck from a :class:`DeckSpec`, an ``(n_ranks, copies)`` pair,
    or an explicit sequence of ranks.

    Ids are assigned ``0..size-1``; for spec decks, card ``i`` has rank
    ``i // copies + 1`` so ranks run ``1..n_ranks``.

    Raises ``ValueError`` for empty decks, non-positive sizes or ranks.
    """
    if isinstance(spec, DeckSpec):
        n_ranks, copies = spec.n_ranks, spec.copies
    elif isinstance(spec, tuple) and len(spec) == 2 and all(
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
        return _deck_from_ranks(ranks)
    if n_ranks <= 0 or copies <= 0:
        raise ValueError(
            f"deck spec needs positive rank and copy counts, got "
            f"{n_ranks}x{copies}"
        )
    return _deck_from_spec(n_ranks, copies)


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


@dataclass(frozen=True)
class WinningRule:
    """Round-outcome law for random-draw war.

    ``eval(a, b, s, deck)`` returns the probability that card ``a`` beats
    card ``b`` when the rest of the first player's hand is the id set ``s``.
    A valid rule satisfies ``eval(a, b, S) + eval(b, a, D \\ (S|{a,b})) = 1``
    for every legal triple; it is symmetric when additionally
    ``eval(a, b, S) + eval(b, a, S) = 1``.

    ``uses_hand`` is False when the probability depends only on the two
    played cards; engines then skip building ``s`` and pass an empty set.
    """

    name: str
    eval: Callable[[Card, Card, frozenset, Deck], float]
    uses_hand: bool = True


@dataclass(frozen=True)
class StrengthFunction:
    """Per-rank positive strength used by Bradley-Terry round outcomes."""

    name: str
    f: Callable[[int], float]
    params: tuple = ()

    def table(self, max_rank: int) -> list[float]:
        """Strengths ``[f(1), .., f(max_rank)]``, validated positive."""
        values = [float(self.f(r)) for r in range(1, max_rank + 1)]
        bad = [r + 1 for r, v in enumerate(values) if not v > 0]
        if bad:
            raise ValueError(
                f"strength {self.name!r} is non-positive at ranks {bad}"
            )
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

    The underlying generator is the stdlib Mersenne Twister seeded with the
    SHA-256 digest of ``"{seed}:{stream_id}"``, so the draw sequence is a
    pure function of ``(seed, stream_id)`` and distinct stream ids give
    statistically independent streams. The bound methods ``random``,
    ``randrange``, ``shuffle`` and ``sample`` are exposed as attributes so
    hot loops pay no delegation cost.
    """

    __slots__ = ("seed", "stream_id", "random", "randrange", "shuffle",
                 "sample", "_rng")

    algorithm = RNG_ALGORITHM

    def __init__(self, seed: int, stream_id: int = 0):
        material = hashlib.sha256(f"{seed}:{stream_id}".encode()).digest()
        self._rng = random.Random(int.from_bytes(material, "big"))
        self.seed = seed
        self.stream_id = stream_id
        self.random = self._rng.random
        self.randrange = self._rng.randrange
        self.shuffle = self._rng.shuffle
        self.sample = self._rng.sample


def bernoulli_flag(p: float, rng: RngStream) -> bool:
    """True with probability ``p`` (``U <= p`` convention, one draw)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return rng.random() <= p


def deal_uniform(
    deck: Deck, size_a: int, rng: RngStream, ordered: bool = False
) -> GameState:
    """Deal a uniformly random initial state with ``size_a`` cards for A.

    The first hand is a uniform subset of the stated size; with
    ``ordered=True`` both hands are additionally uniform random
    permutations of their sets (the shuffle-and-split distribution).
    """
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
