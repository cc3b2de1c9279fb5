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
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Optional

from . import rules
from .core import (
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

#: Cap on rounds per game; arbitrary rules need not terminate.
DEFAULT_MAX_ROUNDS = 10_000_000

_EMPTY: frozenset = frozenset()


def _play(state, rule, deck, rng, max_rounds, record_trace):
    """The play loop: from ``state``, play until a hand empties or
    ``max_rounds`` rounds are played. Returns the final hands (ascending id
    lists) and the game's record."""
    if state.ordered:
        raise ValueError("random-draw war uses unordered (set) hands")
    ha = sorted(state.hand_a)
    hb = sorted(state.hand_b)
    size = deck.size
    cards = deck.cards
    ev = rule.eval
    uses_hand = rule.uses_hand
    rand = rng.random
    traj = [len(ha)] if record_trace else None
    rounds = 0
    while ha and hb and rounds < max_rounds:
        ia = int(rand() * len(ha))
        ib = int(rand() * len(hb))
        a_id = ha[ia]
        b_id = hb[ib]
        if uses_hand:
            s = frozenset(x for x in ha if x != a_id)
        else:
            s = _EMPTY
        p = ev(cards[a_id], cards[b_id], s, deck)
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


def pwar_step(
    state: GameState, rule: WinningRule, deck: Deck, rng: RngStream
) -> GameState:
    """Advance one round from a non-absorbing unordered state."""
    if state.is_absorbing:
        raise ValueError("cannot step an absorbing state")
    ha, hb, _ = _play(state, rule, deck, rng, 1, False)
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
    """
    return _play(init, rule, deck, rng, max_rounds, record_trace)[2]


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
        return deck, rules.rule_by_name(self.rule, strength)

    def run_trial(self, seed: int, stream_id: int) -> TrialRecord:
        deck, rule = built(self)
        rng = RngStream(seed, stream_id)
        size_a = self.size_a if self.size_a is not None else deck.size // 2
        state = deal_uniform(deck, size_a, rng, ordered=False)
        return pwar_run(
            state,
            rule,
            deck,
            rng,
            max_rounds=self.max_rounds,
            record_trace=self.record_trace,
        )
