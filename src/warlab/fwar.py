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
iteration of steps. :meth:`FwarConfig.run_chunk` calls the same loop.
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
    _deal_uniform,
    build_deck,
    built,
    deal_uniform,
    first_hand_size,
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


def _check_return_order(return_order: str) -> None:
    if return_order not in RETURN_ORDERS:
        raise ValueError(f"return_order must be one of {RETURN_ORDERS}")


def _hands(state: GameState, return_order: str) -> tuple[tuple, tuple]:
    """The hands of ``state``, once ``state`` is checked to hold ordered
    hands and ``return_order`` to be known."""
    if not state.ordered:
        raise ValueError("top-card war uses ordered (tuple) hands")
    _check_return_order(return_order)
    return state.hand_a, state.hand_b


def _play(a, b, f_of, rng, max_rounds, return_order, record_trace):
    """The play loop: from the hands ``a`` and ``b`` (sequences, front =
    next played), play until a hand empties or ``max_rounds`` rounds are
    played. ``f_of`` is the strength of each card id. Returns the final
    hands (deques) and the game's record."""
    n = len(f_of)
    a = deque(a)
    b = deque(b)
    m = math.fsum(map(f_of.__getitem__, a))
    q = 0.0
    m_traj = [m] if record_trace else None
    q_traj = [0.0] if record_trace else None
    rand = rng.random
    random_return = return_order == "random"
    own_first = return_order == "own_first"
    take_a, take_b = a.popleft, b.popleft
    put_a, put_b = a.append, b.append
    rounds = 0
    while a and b and rounds < max_rounds:
        a_id = take_a()
        b_id = take_b()
        fa = f_of[a_id]
        fb = f_of[b_id]
        if rand() <= fa / (fa + fb):
            own, captured, put = a_id, b_id, put_a
            m += fb
        else:
            own, captured, put = b_id, a_id, put_b
            m -= fa
        if (rand() <= 0.5) if random_return else own_first:
            put(own)
            put(captured)
        else:
            put(captured)
            put(own)
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
        # Each round's rounding error in m is of the order of eps times
        # the largest strength, so the deck's total strength scales the
        # tolerance, not M_tau (0 whenever A loses).
        exact_m = math.fsum(map(f_of.__getitem__, a))
        assert abs(m - exact_m) <= 1e-9 * math.fsum(f_of), (
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
    a, b = _hands(state, return_order)
    a, b, record = _play(a, b, deck.strength_table(strength), rng, 1,
                         return_order, False)
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
    a, b = _hands(init, return_order)
    return _play(a, b, deck.strength_table(strength), rng, max_rounds,
                 return_order, record_trace)[2]


# ---------------------------------------------------------------------------
# Initial deals
# ---------------------------------------------------------------------------


def _coin_deal(a: list, ids, rng: RngStream) -> tuple[list, list]:
    """Each card of ``ids`` joins the first hand ``a`` on a fair coin,
    else the second; both hands are then uniformly permuted."""
    b = []
    rand = rng.random
    for i in ids:
        (a if rand() <= 0.5 else b).append(i)
    rng.shuffle(a)
    rng.shuffle(b)
    return a, b


def deal_iid(n: int, rng: RngStream) -> GameState:
    """Every card goes to the first player with an independent fair coin;
    both hands are then uniformly permuted. Either hand may be empty, in
    which case the game is absorbed at round 0."""
    a, b = _coin_deal([], range(n), rng)
    return GameState(hand_a=tuple(a), hand_b=tuple(b), round=0)


def deal_strongest(n: int, rng: RngStream) -> GameState:
    """The strongest card (rank n) goes to the first player, every other
    card by an independent fair coin; both hands uniformly permuted."""
    a, b = _coin_deal([n - 1], range(n - 1), rng)
    return GameState(hand_a=tuple(a), hand_b=tuple(b), round=0)


DEALS = ("uniform", "iid", "strongest")


def _unknown_deal(deal: str) -> ValueError:
    return ValueError(f"unknown deal {deal!r}; valid: {DEALS}")


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
    strength: str = rules.DEFAULT_STRENGTH
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
        deck.strength_table(strength)  # a bad strength fails here
        return deck, strength

    def _deals(self):
        """The deal as two functions of a trial's stream: the public deal
        function, which returns a ``GameState``, and its helper, which
        returns both hands as lists. :meth:`deal_state` (the per-trial
        path, where tracing sees every public deal) calls the first,
        :meth:`run_chunk` the second. The first hand's size is checked
        here, once; an unknown deal raises ``ValueError``."""
        n = self.n
        if self.deal == "iid":
            return (lambda rng: deal_iid(n, rng),
                    lambda rng: _coin_deal([], range(n), rng))
        if self.deal == "strongest":
            return (lambda rng: deal_strongest(n, rng),
                    lambda rng: _coin_deal([n - 1], range(n - 1), rng))
        if self.deal == "uniform":
            deck = built(self)[0]
            size_a = first_hand_size(deck, self.size_a)
            return (lambda rng: deal_uniform(deck, size_a, rng, ordered=True),
                    lambda rng: _deal_uniform(n, size_a, rng, True))
        raise _unknown_deal(self.deal)

    def deal_state(self, rng: RngStream) -> GameState:
        return self._deals()[0](rng)

    def run_chunk(self, seed: int, lo: int, hi: int) -> list:
        """``[run_trial(seed, i) for i in range(lo, hi)]``, with the
        strength table, deal and return order looked up once: each trial
        deals straight into lists that the play loop takes."""
        deck, strength = built(self)
        f_of = deck.strength_table(strength)
        deal = self._deals()[1]
        return_order = self.return_order
        _check_return_order(return_order)
        max_rounds = self.max_rounds
        record_trace = self.record_trace
        records = []
        for stream_id in range(lo, hi):
            rng = RngStream(seed, stream_id)
            a, b = deal(rng)
            records.append(_play(a, b, f_of, rng, max_rounds, return_order,
                                 record_trace)[2])
        return records

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
