"""Top-card war with Bradley-Terry round outcomes.

Both players play the front card of their hand; the first player wins the
pair with probability f(a) / (f(a) + f(b)) and the winner appends both cards
to the bottom of their hand, by default in uniformly random order (the
randomness that keeps play from cycling). The deck is ``n`` distinct ranks
``1..n``; card id i carries rank i + 1.

Two processes are tracked alongside play. M_t, the total strength of the
first player's hand, is a martingale; Q_t, the running sum of the round
products f(a_t) f(b_t), is the compensator making M_t^2 - Q_t a martingale.
Optional stopping applied to these gives closed-form win probabilities and
quadratic absorption-time scaling that the exact module verifies.

Each round consumes the outcome draw first, then (in random return order)
exactly one order draw. :func:`fwar_run` and :func:`fwar_step` share one
play loop, the step capped at one round, so a run is draw-for-draw the
iteration of steps.
"""

from __future__ import annotations

import math
from collections import deque
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
    StrengthFunction,
    TrialRecord,
    build_deck,
    built,
    deal_uniform,
)

#: How the winner returns the pair to the bottom of their hand.
RETURN_ORDERS = ("random", "own_first", "captured_first")


@dataclass(frozen=True, kw_only=True)
class FwarTrace(TrialRecord):
    """One game's record plus martingale bookkeeping.

    ``m_final``/``q_final`` always hold M_tau and Q_tau; the per-round
    trajectories (M_0..M_tau and Q_0..Q_tau) are recorded only when asked,
    since they are O(tau) memory per trial. ``trace`` stays None.
    """

    m_final: float
    q_final: float
    m_trajectory: Optional[tuple] = None
    q_trajectory: Optional[tuple] = None


def _play(state, strength, deck, rng, max_rounds, return_order,
          record_trace):
    """The play loop: from ``state``, play until a hand empties or
    ``max_rounds`` rounds are played. Returns the final hands (deques,
    front = next played) and the game's record."""
    if not state.ordered:
        raise ValueError("top-card war uses ordered (tuple) hands")
    if return_order not in RETURN_ORDERS:
        raise ValueError(f"return_order must be one of {RETURN_ORDERS}")
    n = deck.size
    fs = strength.table(deck.max_rank)
    f_of = [fs[r - 1] for r in deck.ranks]
    a = deque(state.hand_a)
    b = deque(state.hand_b)
    m = math.fsum(f_of[i] for i in a)
    q = 0.0
    m_traj = [m] if record_trace else None
    q_traj = [0.0] if record_trace else None
    rand = rng.random
    random_return = return_order == "random"
    own_first = return_order == "own_first"
    rounds = 0
    while a and b and rounds < max_rounds:
        a_id = a[0]
        b_id = b[0]
        fa = f_of[a_id]
        fb = f_of[b_id]
        a_wins = rand() <= fa / (fa + fb)
        if random_return:
            first_own = rand() <= 0.5
        else:
            first_own = own_first
        a.popleft()
        b.popleft()
        if a_wins:
            own, captured = a_id, b_id
            hand = a
            m += fb
        else:
            own, captured = b_id, a_id
            hand = b
            m -= fa
        if first_own:
            hand.append(own)
            hand.append(captured)
        else:
            hand.append(captured)
            hand.append(own)
        q += fa * fb
        rounds += 1
        if m_traj is not None:
            m_traj.append(m)
            q_traj.append(q)
        if __debug__:
            assert len(a) + len(b) == n, "card count not conserved"
    if __debug__:
        assert sorted(list(a) + list(b)) == list(range(n)), (
            "cards not conserved"
        )
        exact_m = math.fsum(f_of[i] for i in a)
        scale = max(1.0, abs(exact_m))
        assert abs(m - exact_m) <= 1e-9 * scale, (
            f"tracked strength {m} drifted from recomputed {exact_m}"
        )
    if a and b:
        winner = TRUNCATED
    else:
        winner = WINNER_A if a else WINNER_B
    record = FwarTrace(
        tau=rounds,
        winner=winner,
        stream_id=rng.stream_id,
        m_final=m,
        q_final=q,
        m_trajectory=tuple(m_traj) if m_traj is not None else None,
        q_trajectory=tuple(q_traj) if q_traj is not None else None,
    )
    return a, b, record


def fwar_step(
    state: GameState,
    strength: StrengthFunction,
    deck: Deck,
    rng: RngStream,
    return_order: str = "random",
) -> tuple[GameState, float]:
    """Advance one round from a non-absorbing ordered state.

    Returns the new state and the round product f(a) f(b), the increment
    of the compensator Q.
    """
    if state.is_absorbing:
        raise ValueError("cannot step an absorbing state")
    a, b, record = _play(state, strength, deck, rng, 1, return_order, False)
    return (
        GameState(tuple(a), tuple(b), state.round + 1),
        record.q_final,
    )


def fwar_run(
    init: GameState,
    strength: StrengthFunction,
    deck: Deck,
    rng: RngStream,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
    return_order: str = "random",
) -> FwarTrace:
    """Play from ``init`` to absorption or the round cap."""
    return _play(init, strength, deck, rng, max_rounds, return_order,
                 record_trace)[2]


# ---------------------------------------------------------------------------
# Initial deals
# ---------------------------------------------------------------------------


def deal_iid(n: int, rng: RngStream) -> GameState:
    """Every card goes to the first player with an independent fair coin;
    both hands are then uniformly permuted. Either hand may be empty, in
    which case the game is absorbed at round 0."""
    a = []
    b = []
    for i in range(n):
        (a if rng.random() <= 0.5 else b).append(i)
    rng.shuffle(a)
    rng.shuffle(b)
    return GameState(hand_a=tuple(a), hand_b=tuple(b), round=0)


def deal_strongest(n: int, rng: RngStream) -> GameState:
    """The strongest card (rank n) goes to the first player, every other
    card by an independent fair coin; both hands uniformly permuted."""
    a = [n - 1]
    b = []
    for i in range(n - 1):
        (a if rng.random() <= 0.5 else b).append(i)
    rng.shuffle(a)
    rng.shuffle(b)
    return GameState(hand_a=tuple(a), hand_b=tuple(b), round=0)


DEALS = ("uniform", "iid", "strongest")


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def strongest_deal_win_prob(strength: StrengthFunction, n: int) -> float:
    """Win probability for the first player under the strongest-card deal.

    Optional stopping of the strength martingale M_t gives
    1/2 + f(n) / (2 sum_{i=1..n} f(i)); for identity strengths this is
    1/2 + 1/(n+1).
    """
    if n < 1:
        raise ValueError("deck must have at least one card")
    fs = strength.table(n)
    return 0.5 + fs[n - 1] / (2.0 * math.fsum(fs))


def shifted_iid_moments(n: int) -> tuple[float, float]:
    """Mean and second moment of the initial strength M_0 under the iid
    deal with the shifted family f(a) = a + n (strengths n+1 .. 2n).

    E[M_0] = (3 n^2 + n) / 4 exactly; E[M_0^2] = (S1^2 + S2) / 4 with
    S1, S2 the sum and sum of squares of n+1..2n (leading term 9 n^4 / 16).
    """
    if n < 1:
        raise ValueError("n must be positive")
    s1 = sum(range(n + 1, 2 * n + 1))
    s2 = sum(i * i for i in range(n + 1, 2 * n + 1))
    e_m0 = s1 / 2.0
    e_m0_sq = (s1 * s1 + s2) / 4.0
    return e_m0, e_m0_sq


# ---------------------------------------------------------------------------
# Trial recipe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FwarConfig:
    """Picklable trial recipe for the Monte Carlo harness."""

    n: int
    strength: str = "identity"
    strength_param: Optional[float] = None
    deal: str = "uniform"
    size_a: Optional[int] = None
    max_rounds: int = DEFAULT_MAX_ROUNDS
    record_trace: bool = False
    return_order: str = "random"

    def build(self):
        deck = build_deck((self.n, 1))
        strength = rules.strength_from_spec(
            self.strength, self.strength_param, self.n
        )
        return deck, strength

    def deal_state(self, rng: RngStream) -> GameState:
        if self.deal == "iid":
            return deal_iid(self.n, rng)
        if self.deal == "strongest":
            return deal_strongest(self.n, rng)
        if self.deal == "uniform":
            deck, _ = built(self)
            size_a = self.size_a if self.size_a is not None else self.n // 2
            return deal_uniform(deck, size_a, rng, ordered=True)
        raise ValueError(f"unknown deal {self.deal!r}; valid: {DEALS}")

    def run_trial(self, seed: int, stream_id: int) -> FwarTrace:
        deck, strength = built(self)
        rng = RngStream(seed, stream_id)
        state = self.deal_state(rng)
        return fwar_run(
            state,
            strength,
            deck,
            rng,
            max_rounds=self.max_rounds,
            record_trace=self.record_trace,
            return_order=self.return_order,
        )
