"""Random-draw war engine.

Each round both players play a uniformly random card from their hands and
the winning rule decides, with probability p_{a,b}(S), whether the pair goes
to the first or the second player. Hand size therefore moves by exactly one
card per round and the game absorbs when a hand empties.

Determinism contract: hands are kept in ascending-id order and each round
consumes exactly three uniform draws in fixed order (index into A's hand,
index into B's hand, outcome), with index = floor(U * hand_size).
:func:`pwar_run` and :func:`pwar_step` share one play loop, the step
capped at one round, so a run is draw-for-draw the iteration of steps.

When a ``"cards"`` rule gives every pair of cards the same p (``coin``,
Bradley-Terry with ``constant`` strength), hand size is a walk that
ignores the cards, and :func:`pwar_run` plays that walk on |A| alone
(:attr:`PairTable.walk_p <warlab.core.PairTable.walk_p>`). It makes the
same three draws per round, the two index draws discarded, so its record
is the play loop's; ``tests/test_pwar.py`` checks this against a
reference loop.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Optional

from . import rules
from .core import (
    DEFAULT_MAX_ROUNDS,
    TRUNCATED,
    WINNER_A,
    WINNER_B,
    Deck,
    GameState,
    RngStream,
    TrialRecord,
    WinningRule,
    build_deck,
    built,
    deal_uniform,
)

def _pair_table(state, rule, deck):
    """The deck's pair table for ``rule``, None for a ``"hand"`` rule,
    once ``state`` is checked to hold unordered hands."""
    if state.ordered:
        raise ValueError("random-draw war uses unordered (set) hands")
    return None if rule.reads == "hand" else deck.pair_table(rule)


def _bad_p(rule, a_id, b_id, k, p):
    """The error for a p outside [0, 1], or NaN, that ``rule`` gives card
    ``a_id`` against card ``b_id`` at hand size ``k``."""
    return ValueError(
        f"rule {rule.name!r} gives p = {p!r} to card {a_id} against card "
        f"{b_id} at hand size {k}, outside [0, 1]"
    )


def _play(state, rule, table, deck, rng, max_rounds, record_trace):
    """The play loop: from ``state``, play until a hand empties or
    ``max_rounds`` rounds are played. Returns the final hands (ascending id
    lists) and the game's record.

    A ``"hand"`` rule (``table`` None) is evaluated every round on the real
    rest of A's hand; any other rule's p is read from its pair ``table``
    at the current hand size and evaluated only the first time an entry
    is read. Either raises on a p outside [0, 1], or NaN, as it is read
    (the table never stores one)."""
    ha = sorted(state.hand_a)
    hb = sorted(state.hand_b)
    size = deck.size
    cards = deck.cards
    ev = rule.eval
    if table is None:
        by_size = None
    else:
        by_size = table.by_size
        fill = table.fill
    rand = rng.random
    traj = [len(ha)] if record_trace else None
    rounds = 0
    while ha and hb and rounds < max_rounds:
        k = len(ha)
        ia = int(rand() * k)
        ib = int(rand() * len(hb))
        a_id = ha[ia]
        b_id = hb[ib]
        if by_size is None:
            p = ev(cards[a_id], cards[b_id],
                   frozenset(x for x in ha if x != a_id), deck)
            if not 0.0 <= p <= 1.0:
                raise _bad_p(rule, a_id, b_id, k, p)
        else:
            p = by_size[k][a_id * size + b_id]
            if p != p:
                p = fill(a_id, b_id, k)
                if not 0.0 <= p <= 1.0:
                    raise _bad_p(rule, a_id, b_id, k, p)
        if rand() <= p:
            hb.pop(ib)
            insort(ha, b_id)
        else:
            ha.pop(ia)
            insort(hb, a_id)
        rounds += 1
        if traj is not None:
            traj.append(len(ha))
        if __debug__:
            assert len(ha) + len(hb) == size, "card count not conserved"
    if __debug__:
        assert sorted(ha + hb) == list(range(size)), "cards not conserved"
    if ha and hb:
        winner = TRUNCATED
    else:
        winner = WINNER_A if ha else WINNER_B
    record = TrialRecord(rounds, winner, rng.stream_id,
                         tuple(traj) if traj is not None else None)
    return ha, hb, record


def _walk(k, n, p, rng, max_rounds, record_trace):
    """The play loop of a rule with one p for every pair: |A| = ``k`` of
    ``n`` cards moves up with probability ``p``, else down. Each round
    makes the loop's two index draws and drops them, then its outcome
    draw, so the record is the one :func:`_play` returns."""
    rand = rng.random
    traj = [k] if record_trace else None
    rounds = 0
    while 0 < k < n and rounds < max_rounds:
        rand()
        rand()
        if rand() <= p:
            k += 1
        else:
            k -= 1
        rounds += 1
        if traj is not None:
            traj.append(k)
    if 0 < k < n:
        winner = TRUNCATED
    else:
        winner = WINNER_A if k else WINNER_B
    return TrialRecord(rounds, winner, rng.stream_id,
                       tuple(traj) if traj is not None else None)


def pwar_step(
    state: GameState, rule: WinningRule, deck: Deck, rng: RngStream
) -> GameState:
    """Advance one round from a non-absorbing unordered state."""
    if state.is_absorbing:
        raise ValueError("cannot step an absorbing state")
    table = _pair_table(state, rule, deck)
    ha, hb, _ = _play(state, rule, table, deck, rng, 1, False)
    return GameState(frozenset(ha), frozenset(hb), state.round + 1)


def pwar_run(
    init: GameState,
    rule: WinningRule,
    deck: Deck,
    rng: RngStream,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
) -> TrialRecord:
    """Play from ``init`` until absorption or the round cap.

    Returns winner ``"Truncated"`` if the cap was hit. When
    ``record_trace`` is set, the record's trace is |A_t| for t = 0..tau.
    A rule with one p for every pair plays the walk on |A|, with the same
    draws and the same record. A p outside [0, 1], or NaN, raises
    ``ValueError`` naming the rule, two card ids, the hand size and p.
    """
    table = _pair_table(init, rule, deck)
    if table is not None and table.walk_p is not None:
        if not 0.0 <= table.walk_p <= 1.0:
            raise _bad_p(rule, 0, 1, len(init.hand_a), table.walk_p)
        if __debug__:
            assert len(init.hand_a) + len(init.hand_b) == deck.size, (
                "card count not conserved"
            )
        return _walk(len(init.hand_a), deck.size, table.walk_p, rng,
                     max_rounds, record_trace)
    return _play(init, rule, table, deck, rng, max_rounds, record_trace)[2]


@dataclass(frozen=True)
class PwarConfig:
    """Picklable trial recipe for the Monte Carlo harness.

    ``deck`` is an ``(n_ranks, copies)`` pair or explicit rank tuple;
    ``rule`` a built-in rule name, with ``strength``/``strength_param``
    forwarded when the rule is Bradley-Terry. ``size_a`` defaults to half
    the deck.
    """

    deck: tuple
    rule: str = "coin"
    size_a: Optional[int] = None
    strength: Optional[str] = None
    strength_param: Optional[float] = None
    max_rounds: int = DEFAULT_MAX_ROUNDS
    record_trace: bool = False

    def build(self):
        deck = build_deck(self.deck)
        strength = None
        if self.strength is not None:
            strength = rules.strength_from_spec(
                self.strength, self.strength_param, deck.max_rank
            )
            deck.strength_table(strength)  # a bad strength fails here
        return deck, rules.rule_by_name(self.rule, strength)

    def run_trial(self, seed: int, stream_id: int) -> TrialRecord:
        deck, rule = built(self)
        rng = RngStream(seed, stream_id)
        state = deal_uniform(deck, self.size_a, rng, ordered=False)
        return pwar_run(
            state,
            rule,
            deck,
            rng,
            max_rounds=self.max_rounds,
            record_trace=self.record_trace,
        )
