"""Classic war engine: top-card play with war rounds or coin-flip ties.

Round anatomy: both players reveal their top card; the higher rank takes the
table pile. Equal ranks trigger the tie policy. Under ``war_round`` each
player stakes ``face_down`` cards unseen plus one face-up card and the new
face-up cards are compared, iterating on further ties; the entire
accumulated pile goes to the ultimate winner. Under ``coin_flip`` a fair
coin assigns the two table cards. The winner's pile is shuffled uniformly
before being appended to the bottom of their hand, and one whole
tie-resolution sequence counts as a single round.

Runouts: a player who cannot stake ``face_down + 1`` cards mid-war loses
immediately (the opponent collects everything); if both are short
simultaneously the game is a Draw and the staked cards return to their
contributors so the final state still conserves cards.

``min_hand`` is a round-start playability threshold. The default 1 plays
until a hand is empty. Setting it to ``face_down + 1`` makes a player
forfeit whenever they could not fund a full war stake; that convention is
what the published simulation tables this package reproduces turn out to
use, and the reproduction paths run with ``min_hand=2``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .core import (
    DEFAULT_MAX_ROUNDS,
    DRAW,
    TRUNCATED,
    WINNER_A,
    WINNER_B,
    Deck,
    GameState,
    RngStream,
    TrialRecord,
    build_deck,
    built,
    deal_uniform,
)
from .stats import clopper_pearson, run_trials, tally


#: Tie kinds by the name the CLI's ``--tie`` gives them.
TIE_KINDS = {"war": "war_round", "coin": "coin_flip"}


@dataclass(frozen=True)
class TiePolicy:
    """How equal top cards are resolved.

    ``kind`` is ``"war_round"`` or ``"coin_flip"``; ``face_down`` is the
    number of unseen cards staked per war escalation. A player who cannot
    stake mid-war loses immediately.
    """

    kind: str = "war_round"
    face_down: int = 1

    def __post_init__(self):
        if self.kind not in TIE_KINDS.values():
            raise ValueError(
                f"tie policy must be "
                f"{' or '.join(map(repr, TIE_KINDS.values()))}, "
                f"got {self.kind!r}"
            )
        if self.face_down < 0:
            raise ValueError("face_down must be non-negative")


def _play(state, tie, deck, rng, max_rounds, min_hand, record_trace):
    """The play loop: from ``state``, play whole rounds (each including its
    war sequence) until the game ends or ``max_rounds`` rounds are played.
    Returns the final hands (deques, front = next played) and the game's
    record; its trace is the signed pile size of each round, negated when
    B collected it and 0 when a runout ends the game."""
    if not state.ordered:
        raise ValueError("classic war uses ordered (tuple) hands")
    if min_hand < 1:
        raise ValueError(f"min_hand must be at least 1, got {min_hand}")
    a = deque(state.hand_a)
    b = deque(state.hand_b)
    ranks = deck.ranks
    size = deck.size
    war = tie.kind == "war_round"
    face_down = tie.face_down
    need = face_down + 1
    shuffle = rng.shuffle
    getrandbits = rng.getrandbits
    rand = rng.random
    piles = [] if record_trace else None
    rounds = 0
    while True:
        la, lb = len(a), len(b)
        if la < min_hand and lb < min_hand:
            winner = DRAW
            break
        if la < min_hand:
            winner = WINNER_B
            break
        if lb < min_hand:
            winner = WINNER_A
            break
        if rounds >= max_rounds:
            winner = TRUNCATED
            break
        rounds += 1
        ca = a.popleft()
        cb = b.popleft()
        ra = ranks[ca]
        rb = ranks[cb]
        if ra != rb or not war:
            # A two-card pile, shuffled inline with the words shuffle()
            # would use: one uniform index below 2 by rejection, where 0
            # puts cb first.
            a_won = ra > rb if ra != rb else rand() <= 0.5
            j = getrandbits(2)
            while j >= 2:
                j = getrandbits(2)
            if a_won:
                hand = a
                signed = 2
            else:
                hand = b
                signed = -2
            if j:
                hand.append(ca)
                hand.append(cb)
            else:
                hand.append(cb)
                hand.append(ca)
        else:
            pile = [ca, cb]
            winner = None
            while True:
                a_ok = len(a) >= need
                b_ok = len(b) >= need
                if not a_ok and not b_ok:
                    # Simultaneous runout: annul the war so the terminal
                    # state still conserves cards (stakes go back to their
                    # owners).
                    a.extend(pile[0::2])
                    b.extend(pile[1::2])
                    winner = DRAW
                    break
                if not a_ok:
                    b.extend(pile)
                    b.extend(a)
                    a.clear()
                    winner = WINNER_B
                    break
                if not b_ok:
                    a.extend(pile)
                    a.extend(b)
                    b.clear()
                    winner = WINNER_A
                    break
                for _ in range(face_down):
                    pile.append(a.popleft())
                    pile.append(b.popleft())
                ca = a.popleft()
                cb = b.popleft()
                pile.append(ca)
                pile.append(cb)
                ra = ranks[ca]
                rb = ranks[cb]
                if ra != rb:
                    a_won = ra > rb
                    break
            if winner is not None:
                # A runout ended the game mid-war.
                if piles is not None:
                    piles.append(0)
                break
            shuffle(pile)
            if a_won:
                a.extend(pile)
                signed = len(pile)
            else:
                b.extend(pile)
                signed = -len(pile)
        if piles is not None:
            piles.append(signed)
        if __debug__:
            assert len(a) + len(b) == size, "card count not conserved"
    if __debug__:
        assert sorted(list(a) + list(b)) == list(range(size)), (
            "cards not conserved at game end"
        )
    record = TrialRecord(rounds, winner, rng.stream_id,
                         tuple(piles) if piles is not None else None)
    return a, b, record


def classic_step(
    state: GameState,
    tie: TiePolicy,
    deck: Deck,
    rng: RngStream,
    min_hand: int = 1,
) -> tuple[GameState, Optional[str]]:
    """Advance one round from an ordered, non-absorbing state.

    Returns ``(new_state, outcome)``: outcome is None while play
    continues, otherwise "A", "B" or "Draw" for a game that ended by this
    round (runout, emptied hand, or a hand now below ``min_hand``). A
    state that already has a hand below ``min_hand`` is a forfeit: it
    consumes no randomness and comes back unchanged.
    """
    if state.is_absorbing:
        raise ValueError("cannot step an absorbing state")
    a, b, record = _play(state, tie, deck, rng, 1, min_hand, False)
    outcome = None if record.winner == TRUNCATED else record.winner
    return GameState(tuple(a), tuple(b), state.round + record.tau), outcome


def classic_run(
    init: GameState,
    tie: TiePolicy,
    deck: Deck,
    rng: RngStream,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    min_hand: int = 1,
    record_trace: bool = False,
) -> TrialRecord:
    """Play from ``init`` until the game ends or the round cap is hit."""
    return _play(init, tie, deck, rng, max_rounds, min_hand,
                 record_trace)[2]


# ---------------------------------------------------------------------------
# Deals and trial recipe
# ---------------------------------------------------------------------------


def deal_top_rank_conditioned(
    deck: Deck, k: int, rng: RngStream
) -> GameState:
    """Deal ``deck.half`` cards to the first player, exactly ``k`` of them
    of the strongest rank; the remaining cards fill both hands
    uniformly and each hand is uniformly shuffled."""
    top = deck.max_rank
    top_ids = [c.id for c in deck.cards if c.rank == top]
    others = [c.id for c in deck.cards if c.rank != top]
    if not 0 <= k <= len(top_ids):
        raise ValueError(
            f"k must lie in [0, {len(top_ids)}], got {k}"
        )
    half = deck.half
    if half < k or len(others) < half - k:
        raise ValueError("deck too small for the requested conditioning")
    rng.shuffle(others)
    a = top_ids[:k] + others[: half - k]
    b = top_ids[k:] + others[half - k:]
    rng.shuffle(a)
    rng.shuffle(b)
    return GameState(hand_a=tuple(a), hand_b=tuple(b), round=0)


@dataclass(frozen=True)
class ClassicConfig:
    """Picklable trial recipe for the Monte Carlo harness.

    ``top_rank_count`` switches the deal from a uniform split to the
    conditioned deal of :func:`deal_top_rank_conditioned`.
    """

    deck: tuple = (13, 4)
    tie: str = "war_round"
    face_down: int = 1
    min_hand: int = 1
    top_rank_count: Optional[int] = None
    max_rounds: int = DEFAULT_MAX_ROUNDS
    record_trace: bool = False

    def build(self):
        return build_deck(self.deck), TiePolicy(self.tie, self.face_down)

    def run_trial(self, seed: int, stream_id: int) -> TrialRecord:
        deck, tie = built(self)
        rng = RngStream(seed, stream_id)
        if self.top_rank_count is None:
            state = deal_uniform(deck, None, rng, ordered=True)
        else:
            state = deal_top_rank_conditioned(
                deck, self.top_rank_count, rng
            )
        record = classic_run(
            state,
            tie,
            deck,
            rng,
            max_rounds=self.max_rounds,
            min_hand=self.min_hand,
            record_trace=self.record_trace,
        )
        if self.top_rank_count is not None and self.tie == "coin_flip":
            _check_top_rank_monotonicity(
                self.top_rank_count, deck.ranks.count(deck.max_rank), record
            )
        return record


def _check_top_rank_monotonicity(k: int, copies: int,
                                 record: TrialRecord) -> None:
    """Structural facts under coin-flip ties: a top-rank card can only
    change hands through a top-vs-top tie, so with none of them the first
    player can never win and with all of them can never lose. Checked on
    every simulated game; a violation is an engine bug, not noise. (War
    rounds move unseen cards, so the claim does not apply there.)"""
    if (k == 0 and record.winner == WINNER_A
            or k == copies and record.winner == WINNER_B):
        raise RuntimeError(
            f"invariant violated in stream {record.stream_id}: the player "
            f"holding k={k} of {copies} top-rank cards {record.winner}"
        )


def aces_win_table(
    deck: Deck,
    tie: TiePolicy,
    trials_per_cell: int,
    seed: int,
    min_hand: int = 2,
    workers: int = 1,
) -> list[dict]:
    """Estimated win probability conditioned on the number of strongest-
    rank cards dealt to the first player (hand sizes equalized).

    Returns one row per count k = 0..copies with an exact (Clopper-
    Pearson) 95% interval; draws and truncated games are excluded from
    the denominator and reported. Cell k uses stream ids starting at
    ``k * trials_per_cell`` so all cells are independent under one seed.
    """
    if trials_per_cell < 1:
        raise ValueError("trials_per_cell must be at least 1")
    if deck.size == 2:  # a config reads a pair as (n_ranks, copies)
        raise ValueError("the conditioned table needs at least three cards")
    copies = deck.ranks.count(deck.max_rank)
    rows = []
    for k in range(copies + 1):
        cfg = ClassicConfig(
            deck=deck.ranks,
            tie=tie.kind,
            face_down=tie.face_down,
            min_hand=min_hand,
            top_rank_count=k,
        )
        records = run_trials(
            cfg,
            trials_per_cell,
            seed,
            workers=workers,
            stream_base=k * trials_per_cell,
        )
        taus, wins, draws, truncated = tally(records)
        decided = len(taus)
        p = wins / decided if decided else float("nan")
        lo, hi = clopper_pearson(wins, decided)
        rows.append(
            {
                "k": k,
                "trials": trials_per_cell,
                "decided": decided,
                "wins": wins,
                "draws": draws,
                "truncated": truncated,
                "p_win": p,
                "ci_lo": lo,
                "ci_hi": hi,
            }
        )
    return rows
