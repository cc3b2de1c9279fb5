"""Exact analysis on small decks.

Full state-space enumeration for both engines, the standard first-step
linear systems for absorption probability and expected absorption time
(over every state, absorbing states being identity rows whose right-hand
side is the boundary value; warlab's own restarted GMRES with a
sparse-LU fallback, residual-checked either way), a simple-random-walk
oracle, one-step uniformity preservation for symmetric
rules, the exact-rational counting identity behind it, and zero-drift
verification of the strength martingales.

State indexing is canonical so results reproduce across runs and platforms:
random-draw states are the bitmask of the first player's card ids (the mask
is the index); top-card states are rows of card ids, the first hand then
the second, sorted as the ordered hand pairs sort.

Both chains are built with numpy. Random-draw transitions come one hand
size at a time from the deck's pair table of ``rule.eval``, the one the
Monte Carlo engine reads (once per card pair for rules that read only
the cards, once per pair and hand size for rules that read only its
size; per state for rules that read the hand); top-card states
are sorted by an integer code and their successors found by searching
the codes. Every round moves the first hand's size by one, so each chain
is bipartite between odd and even hand sizes: the two blocks between the
halves are built once from the transition triplets, the
almost-sure-absorption pre-check runs on them, and GMRES runs on the odd
half alone. :func:`gmres` is written here over numpy (block
Gram-Schmidt, Givens rotations in Python floats), and the blocks are
numpy arrays stored slot-major, whose products sum each row in
triplet order. numpy and scipy are both imported inside
the functions that use them, so importing this module loads neither; a
solve loads scipy only when it falls back to sparse LU.

Memory: a chain holds 16 bytes per transition (int32 row and column,
float64 p). A solve copies each half's triplets once, straight into its
block (16 bytes per slot: an intp column and p), and the two blocks
share one product scratch; the triplets are filtered again only if the
sparse-LU fallback runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import permutations
from math import comb, factorial
from typing import TYPE_CHECKING, Iterator

from .core import Deck, StrengthFunction, WinningRule

if TYPE_CHECKING:
    import numpy as np

#: Enumeration limits; both spaces grow superexponentially.
MAX_PWAR_CARDS = 14
MAX_FWAR_N = 7

#: Non-absorbing transition rows must sum to 1 within this.
ROW_SUM_TOL = 1e-12
#: Linear solves are rejected if the residual exceeds this.
RESIDUAL_TOL = 1e-9
#: :func:`gmres` settings: relative tolerance (2-norm of the residual
#: over that of the right-hand side), steps per restart cycle and the
#: cap on cycles; the odd-half systems tried up to the
#: enumeration limits converged within 4 cycles.
GMRES_RTOL = 1e-14
GMRES_RESTART = 20
GMRES_MAXITER = 50
_EPS = sys.float_info.epsilon


class AbsorptionError(ValueError):
    """Raised when absorption is not almost sure from every state.

    ``witness`` holds the indices, ascending, of the states that cannot
    reach absorption (a recurrent class under the given rule).
    """

    def __init__(self, message: str, witness: list):
        super().__init__(message)
        self.witness = witness


@dataclass
class StateSpace:
    """Enumerated chain: states, sparse transitions, absorption labels.

    ``trans_rows/cols/probs`` are aligned triplet arrays, the state
    indices int32 (the enumerators refuse a chain whose indices would
    not fit) and the probabilities float64; ``absorbing`` flags
    absorbing states and ``absorbing_win`` is 1.0 where the first
    player has won. ``states`` is an int64 array: the masks (random-draw
    flavor) or one row of card ids per state, hand A front to back then
    hand B, split at ``hand_size`` (|A| of each state, int64; top-card
    flavor). Every round moves |A| by exactly one, which
    :func:`absorption_solve` relies on.
    """

    flavor: str
    states: np.ndarray
    trans_rows: np.ndarray
    trans_cols: np.ndarray
    trans_probs: np.ndarray
    absorbing: np.ndarray
    absorbing_win: np.ndarray
    n_cards: int
    hand_size: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_label(self, i: int) -> str:
        if self.flavor == "pwar_subsets":
            return str(int(self.states[i]))
        return _hands_label(self.states[i].tolist(), int(self.hand_size[i]))


def _hands_label(cards: list, k: int) -> str:
    """``a:..;b:..`` label of a top-card state's cards split at ``k``."""
    return ("a:" + ",".join(map(str, cards[:k]))
            + ";b:" + ",".join(map(str, cards[k:])))


@dataclass
class SolveResult:
    """Per-state win probability for the first player and expected
    rounds to absorption; zero/one consistent at absorbing states.

    ``method`` is the solver whose answers were kept ("gmres" or
    "splu"; "none" when every state is absorbing) and ``residual`` the
    larger max-abs residual of the two systems. ``matvecs`` counts the
    GMRES operator applications over both systems.
    """

    win_prob_a: np.ndarray
    expected_tau: np.ndarray
    method: str
    residual: float
    matvecs: int


def _check_transitions(space: StateSpace) -> None:
    """Reject, naming the state, a probability below 0, above 1 +
    ``ROW_SUM_TOL`` or NaN, or a non-absorbing row off 1 by more than
    that."""
    import numpy as np

    probs = space.trans_probs
    bad = np.flatnonzero(~((probs >= 0.0) & (probs <= 1.0 + ROW_SUM_TOL)))
    if bad.size:
        t = bad[0]
        raise ValueError(
            f"transition probability {probs[t].item()!r} from state "
            f"{space.state_label(space.trans_rows[t])} lies outside [0, 1]"
        )
    sums = np.zeros(space.n_states)
    np.add.at(sums, space.trans_rows, space.trans_probs)
    bad = np.flatnonzero(
        ~space.absorbing & (np.abs(sums - 1.0) > ROW_SUM_TOL)
    )
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"transition probabilities from state {space.state_label(i)} "
            f"sum to {sums[i].item()!r}, not 1"
        )


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _index_dtype(n_states: int) -> type:
    """int32, the dtype of the triplets' state indices, once the largest
    index of ``n_states`` states is checked to fit it."""
    import numpy as np

    if n_states - 1 > np.iinfo(np.int32).max:
        raise ValueError(
            f"{n_states} states exceed the int32 state indices of the "
            f"transition triplets"
        )
    return np.int32


def _sizes(d: int) -> np.ndarray:
    """Hand size (popcount) of every mask of a ``d``-card deck."""
    import numpy as np

    sizes = np.zeros(1 << d, dtype=np.int64)
    for i in range(d):
        sizes[1 << i:2 << i] = sizes[:1 << i] + 1
    return sizes


def _pair_table(deck: Deck, rule: WinningRule, k: int) -> np.ndarray:
    """p of every ordered pair of distinct card ids at hand size ``k``, as
    a d x d array with a zero diagonal, for a rule that reads at most the
    hand size: a copy of the deck's :class:`~warlab.core.PairTable`, the
    one the Monte Carlo engine reads, with its missing entries filled."""
    import numpy as np

    d = deck.size
    return np.array(deck.pair_table(rule).filled(k)).reshape(d, d)


def _pwar_rows(deck: Deck, rule: WinningRule, k: int,
               masks: np.ndarray) -> tuple:
    """Transitions out of the size-k random-draw states ``masks``.

    Each of the k(d-k) card pairs is drawn with probability 1/(k(d-k)),
    then resolved by the rule with probability p[a, b]. A ``"hand"`` rule
    makes one ``eval`` per state and pair with the rest of the hand as
    ``s``; the others take p from :func:`_pair_table`, one card column
    at a time, so no (states, k, d-k) array of p is made. Returns
    the next masks and their probabilities as two (len(masks), d) arrays,
    one row per state with its d distinct successors in the order the
    pairs first reach them: win(b0), lose(a0), win(b1..), lose(a1..) over
    ascending ids. The win mass of each b is summed over a ascending and
    the lose mass of each a over b ascending, one card column at a time.
    """
    import numpy as np

    d = deck.size
    n = len(masks)
    held = (masks[:, None] >> np.arange(d)) & 1 == 1
    a = np.nonzero(held)[1].reshape(n, k)
    b = np.nonzero(~held)[1].reshape(n, d - k)
    if rule.reads == "hand":
        cards = deck.cards
        ev = rule.eval
        p = np.empty((n, k, d - k))
        for m, (a_row, b_row) in enumerate(zip(a.tolist(), b.tolist())):
            for i, a_id in enumerate(a_row):
                s = frozenset(a_row[:i] + a_row[i + 1:])
                for j, b_id in enumerate(b_row):
                    p[m, i, j] = ev(cards[a_id], cards[b_id], s, deck)
        p_of_a = [p[:, i, :] for i in range(k)]
        p_of_b = [p[:, :, j] for j in range(d - k)]
    else:
        table = _pair_table(deck, rule, k).ravel()
        at_a = a * d
        p_of_a = (table.take(at_a[:, i, None] + b) for i in range(k))
        p_of_b = (table.take(at_a + b[:, j, None]) for j in range(d - k))
    base = 1.0 / (k * (d - k))
    win = np.zeros((n, d - k))
    for p in p_of_a:
        win += base * p
    lose = np.zeros((n, k))
    for p in p_of_b:
        lose += base * (1.0 - p)
    win_next = masks[:, None] | (1 << b)
    lose_next = masks[:, None] ^ (1 << a)
    cols = np.concatenate((win_next[:, :1], lose_next[:, :1],
                           win_next[:, 1:], lose_next[:, 1:]), axis=1)
    probs = np.concatenate((win[:, :1], lose[:, :1], win[:, 1:],
                            lose[:, 1:]), axis=1)
    return cols, probs


def enumerate_pwar(deck: Deck, rule: WinningRule) -> StateSpace:
    """Enumerate the 2^size random-draw states and their transitions.

    From a non-absorbing state each of the |A||B| card pairs is drawn with
    probability 1/(|A||B|), then resolved by the rule. Each of the
    2^size - 2 non-absorbing masks, in ascending order, has one triplet
    per successor, d per row, ordered as :func:`_pwar_rows` emits them.
    The rows of each hand size are built at once with numpy, from
    ``rule.eval`` on each card pair once (``"cards"`` rules), once per
    hand size (``"size"``) or once per state (``"hand"``).
    """
    import numpy as np

    d = deck.size
    if d > MAX_PWAR_CARDS:
        raise ValueError(
            f"{d}-card deck exceeds the {MAX_PWAR_CARDS}-card "
            f"enumeration limit (2^size states)"
        )
    full = (1 << d) - 1
    n_states = 1 << d
    index = _index_dtype(n_states)
    absorbing = np.zeros(n_states, dtype=bool)
    absorbing[0] = absorbing[full] = True
    win = np.zeros(n_states)
    win[full] = 1.0
    sizes = _sizes(d)
    cols = np.zeros((n_states, d), dtype=index)
    probs = np.zeros((n_states, d))
    for k in range(1, d):
        masks = np.flatnonzero(sizes == k)
        cols[masks], probs[masks] = _pwar_rows(deck, rule, k, masks)
    space = StateSpace(
        flavor="pwar_subsets",
        states=np.arange(n_states, dtype=np.int64),
        trans_rows=np.repeat(np.arange(1, full, dtype=index), d),
        trans_cols=cols[1:full].ravel(),
        trans_probs=probs[1:full].ravel(),
        absorbing=absorbing,
        absorbing_win=win,
        n_cards=d,
        hand_size=sizes,
    )
    _check_transitions(space)
    return space


def enumerate_fwar(n: int, strength: StrengthFunction) -> StateSpace:
    """Enumerate all (n+1)! ordered-hand top-card states.

    Each non-absorbing state branches four ways: winner (Bradley-Terry on
    the front cards) times the two bottom-return orders at probability 1/2
    each, emitted in the order win (a0 then b0 returned), win (b0, a0),
    lose (b0, a0), lose (a0, b0).

    A state is a permutation of the cards cut after its first k = |A|.
    Its code is the base-(n+1) digits of ``a``, then of ``b``, each card
    id stored as id + 1 and each hand padded to n digits with 0, so
    codes sort as the ``(a, b)`` tuples do. The successors' codes follow
    by digit arithmetic and their indices by a search of the sorted
    codes; the whole chain is built with numpy, one pass per k.
    """
    import numpy as np

    if n > MAX_FWAR_N:
        raise ValueError(
            f"n={n} exceeds the n<={MAX_FWAR_N} enumeration limit "
            f"((n+1)! states)"
        )
    if n < 1:
        raise ValueError("n must be positive")
    fs = np.asarray(strength.table(n))
    digits = np.array(list(permutations(range(1, n + 1))), dtype=np.int64)
    base = n + 1
    # weight[i]: place value of digit i of a hand (digit 0 the front card).
    weight = base ** np.arange(n, -1, -1, dtype=np.int64)[1:]
    shift = base ** n
    codes = np.concatenate([
        digits[:, :k] @ weight[:k] * shift + digits[:, k:] @ weight[:n - k]
        for k in range(n + 1)
    ])
    order = np.argsort(codes)
    codes = codes[order]
    # Code i of the concatenation is permutation i % len(digits) cut
    # after its first i // len(digits) cards.
    hand_size = order // len(digits)
    states = (digits - 1)[order % len(digits)]
    del order, digits

    # Each per-state temporary below is deleted once read, so that no
    # more than a few of them are alive at once.
    absorbing = (hand_size == 0) | (hand_size == n)
    transient = np.flatnonzero(~absorbing)
    k = hand_size[transient]
    da = states[transient, 0] + 1
    db = states[transient, k] + 1
    fa = fs[da - 1]
    fb = fs[db - 1]
    p = fa / (fa + fb)
    del fa, fb
    probs = np.stack((p * 0.5, p * 0.5, (1 - p) * 0.5, (1 - p) * 0.5),
                     axis=1)
    del p
    a_code, b_code = np.divmod(codes[transient], shift)
    a_tail = (a_code - da * weight[0]) * base
    del a_code
    b_tail = (b_code - db * weight[0]) * base
    del b_code
    m = n - k
    successors = np.empty((len(transient), 4), dtype=np.int64)
    successors[:, 0] = (a_tail + da * weight[k - 1]
                        + db * weight[k]) * shift + b_tail
    successors[:, 1] = (a_tail + db * weight[k - 1]
                        + da * weight[k]) * shift + b_tail
    del k
    successors[:, 2] = a_tail * shift + (b_tail + db * weight[m - 1]
                                         + da * weight[m])
    successors[:, 3] = a_tail * shift + (b_tail + da * weight[m - 1]
                                         + db * weight[m])
    del m, da, db, a_tail, b_tail
    index = _index_dtype(len(codes))
    trans_cols = np.searchsorted(codes, successors.ravel()).astype(index)
    del successors, codes
    space = StateSpace(
        flavor="fwar_ordered",
        states=states,
        trans_rows=np.repeat(transient.astype(index), 4),
        trans_cols=trans_cols,
        trans_probs=probs.ravel(),
        absorbing=absorbing,
        absorbing_win=(hand_size == n).astype(np.float64),
        n_cards=n,
        hand_size=hand_size,
    )
    _check_transitions(space)
    return space


# ---------------------------------------------------------------------------
# Absorption solve
# ---------------------------------------------------------------------------


class _Block:
    """A sparse block stored slot-major (ELLPACK), for products with
    finite vectors.

    ``cols`` (intp) and ``probs`` have shape (longest row, rows): slot j
    of row i holds row i's j-th triplet in the order given, and shorter
    rows are padded with column 0 and p = 0. A product takes ``v`` at
    every slot into a scratch array of that shape, multiplies by p and
    sums each row from 0.0 slot by slot, so each row is summed in triplet
    order. Padding adds 0 * v[0], which leaves a sum started at +0.0
    unchanged while v is finite. A repeated (row, col) pair adds up in
    products.

    Triplets whose rows ascend with one length, as both enumerators emit
    them, are copied into place from their ``(rows, width)`` views; any
    others take a stable sort by row and a scatter. The scratch array is
    made at the first product, unless :func:`absorption_solve` has given
    the block a share of the one its two blocks use in turn.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray,
                 probs: np.ndarray, shape: tuple):
        import numpy as np

        n_rows, n_cols = shape
        if rows.size and not (0 <= rows.min() and rows.max() < n_rows
                              and 0 <= cols.min() and cols.max() < n_cols):
            raise ValueError(f"triplet index outside the {shape} block")
        counts = np.bincount(rows, minlength=n_rows)
        width = int(counts.max(initial=0))
        self.cols = np.zeros((width, n_rows), dtype=np.intp)
        self.probs = np.zeros((width, n_rows))
        filled = np.flatnonzero(counts)
        if (counts[filled] == width).all() and (rows[1:] >= rows[:-1]).all():
            self.cols[:, filled] = cols.reshape(filled.size, width).T
            self.probs[:, filled] = probs.reshape(filled.size, width).T
        else:
            order = np.argsort(rows, kind="stable")
            row = rows[order]
            slot = np.arange(row.size) - (np.cumsum(counts) - counts)[row]
            self.cols[slot, row] = cols[order]
            self.probs[slot, row] = probs[order]
        self._buf = None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        import numpy as np

        buf = self._buf
        if buf is None:
            buf = self._buf = np.empty(self.probs.shape)
        v.take(self.cols, out=buf, mode="clip")
        np.multiply(buf, self.probs, out=buf)
        if buf.shape[1] != 1:
            return np.add.reduce(buf, axis=0, initial=0.0)
        # One row makes the slots numpy's contiguous axis, which it sums
        # pairwise from 8 terms on: add them one at a time instead.
        out = np.zeros(1)
        for term in buf:
            out += term
        return out

    def reaches(self, v: np.ndarray) -> np.ndarray:
        """Rows with a p > 0 entry in a column where boolean ``v`` holds."""
        hit = v.take(self.cols, mode="clip") & (self.probs > 0.0)
        return hit.any(axis=0)


def gmres(apply, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve ``apply(x) = b`` by restarted GMRES (Saad and Schultz, SIAM
    J. Sci. Stat. Comput. 7, 1986), ``apply`` being the operator's
    product with a vector.

    Each cycle of at most ``GMRES_RESTART`` steps grows an orthonormal
    Krylov basis from the residual. A step is one ``apply`` and then
    classical Gram-Schmidt run twice over the whole basis block, two
    products with the block each time. Givens rotations reduce each new
    Hessenberg column in Python floats, so the rotated right-hand side
    gives the residual norm at every step. The cycle ends when that norm
    reaches the tolerance, when the new direction vanishes (a breakdown:
    the basis then holds the solution, up to rounding) or after
    ``GMRES_RESTART`` steps; it then solves its small triangular system
    and recomputes the residual. A breakdown ends the cycle, not the
    call: if that residual still misses the tolerance, the next cycle
    starts from it. The first cycle starts from zero and
    ``GMRES_MAXITER`` caps the cycles. Returns ``(x, info)``: ``info``
    is 0 when ``|b - apply(x)| <= GMRES_RTOL |b|`` (2-norms),
    else 1. A zero ``b`` returns zeros without calling ``apply``.
    """
    import numpy as np

    n = b.size
    b_norm = math.sqrt(b @ b)
    if b_norm == 0.0:
        return np.zeros(n), 0
    tol = GMRES_RTOL * b_norm
    x = np.zeros(n)
    r, r_norm = b, b_norm
    m = min(GMRES_RESTART, n)
    basis = np.empty((m + 1, n))
    for _ in range(GMRES_MAXITER):
        if r_norm <= tol:
            return x, 0
        np.multiply(r, 1.0 / r_norm, out=basis[0])
        g = [r_norm]
        cos, sin, cols = [], [], []
        for j in range(m):
            w = apply(basis[j])
            w_norm = math.sqrt(w @ w)
            block = basis[:j + 1]
            h = block @ w
            w -= h @ block
            again = block @ w
            w -= again @ block
            col = (h + again).tolist()
            h_next = math.sqrt(w @ w)
            breakdown = h_next <= _EPS * w_norm
            if breakdown:
                h_next = 0.0
            else:
                np.multiply(w, 1.0 / h_next, out=basis[j + 1])
            for i in range(j):
                c, s = cos[i], sin[i]
                col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                      c * col[i + 1] - s * col[i])
            # A zero pivot (a singular system) drops the step: c = s = 0
            # zeroes its component of the solution.
            rho = math.hypot(col[j], h_next) or 1.0
            c, s = col[j] / rho, h_next / rho
            col[j] = rho
            cos.append(c)
            sin.append(s)
            cols.append(col)
            g.append(-s * g[j])
            g[j] *= c
            if abs(g[j + 1]) <= tol or breakdown:
                break
        k = len(cols)
        tri = np.zeros((k, k))
        for i, col in enumerate(cols):
            tri[:i + 1, i] = col
        x += np.linalg.solve(tri, g[:k]) @ basis[:k]
        r = b - apply(x)
        r_norm = math.sqrt(r @ r)
    return x, int(r_norm > tol)


def absorption_solve(space: StateSpace) -> SolveResult:
    """Solve the first-step equations for win probability and E[rounds].

    The unknowns are every state's value: ``(I - Q) x = b`` with ``Q``
    the transitions out of the live (non-absorbing) states, so each
    absorbing state is an identity row whose right-hand side is its
    boundary value. The win system takes ``b = absorbing_win`` (1/0) and
    the time system ``b`` = 1 at live states and 0 at absorbing ones.

    A transition of positive probability between two states of the same
    hand-size parity raises ``ValueError``. Otherwise ``I - Q`` is
    ``[[I, -Q_oe], [-Q_eo, I]]`` between the states of odd and of even
    ``hand_size``, and the two blocks are built once as :class:`_Block`
    arrays, with each state numbered within its half and each half's
    triplets picked by a boolean mask. States that cannot
    reach absorption through them raise ``AbsorptionError`` with a
    recurrent-class witness. :func:`gmres` then solves each system on
    its odd half, ``(I - Q_oe Q_eo) x_o = b_o + Q_oe b_e``, and
    ``x_e = b_e + Q_eo x_o``.
    If either does not converge or its max-abs residual on the whole
    system exceeds ``RESIDUAL_TOL``, both go through one sparse-LU
    factorization of the whole ``I - Q`` instead, the only place it is
    built and the only place scipy is imported (LU fill makes that path
    slow on the largest chains). A residual
    above ``RESIDUAL_TOL`` after either path raises ``ValueError``. Only
    the live states' answers are kept, so boundary values stay exact.
    """
    import numpy as np

    n = space.n_states
    live = ~space.absorbing
    win = space.absorbing_win.copy()
    tau = np.zeros(n)
    if not live.any():
        return SolveResult(win_prob_a=win, expected_tau=tau, method="none",
                           residual=0.0, matvecs=0)
    rows, cols, probs = space.trans_rows, space.trans_cols, space.trans_probs
    odd = space.hand_size % 2 == 1
    from_odd = odd[rows]
    keep = live[rows]
    same = from_odd == odd[cols]
    same &= keep
    step = np.flatnonzero(same & (probs > 0.0))
    if step.size:
        i, j = rows[step[0]], cols[step[0]]
        raise ValueError(
            f"state {space.state_label(i)} moves to state "
            f"{space.state_label(j)} of the same hand-size parity"
        )
    keep &= ~same
    del same  # masks and numbering are freed once no longer read
    odd_ids, even_ids = np.flatnonzero(odd), np.flatnonzero(~odd)
    half = np.empty(n, dtype=np.intp)
    half[odd_ids] = np.arange(odd_ids.size)
    half[even_ids] = np.arange(even_ids.size)

    def block(sel, shape):
        return _Block(half[rows[sel]], half[cols[sel]], probs[sel], shape)

    q_oe = block(keep & from_odd, (odd_ids.size, even_ids.size))
    q_eo = block(keep & ~from_odd, (even_ids.size, odd_ids.size))
    del from_odd, half
    # A product leaves nothing in its scratch that the next one reads,
    # and the blocks' products run one after the other: one scratch.
    scratch = np.empty(max(q_oe.probs.size, q_eo.probs.size))
    for q in (q_oe, q_eo):
        q._buf = scratch[:q.probs.size].reshape(q.probs.shape)

    # Grow the states that can reach absorption from the absorbing ones,
    # a half at a time, until a pass adds none: a state joins when a
    # p > 0 transition enters the set.
    reached = space.absorbing.copy()
    while True:
        at_odd = reached[odd_ids] | q_oe.reaches(reached[even_ids])
        at_even = reached[even_ids] | q_eo.reaches(at_odd)
        if at_odd.sum() + at_even.sum() == reached.sum():
            break
        reached[odd_ids], reached[even_ids] = at_odd, at_even
    bad = np.flatnonzero(~reached).tolist()
    if bad:
        labels = [space.state_label(i) for i in bad[:8]]
        raise AbsorptionError(
            f"{len(bad)} state(s) cannot reach absorption, e.g. "
            f"{labels}",
            witness=bad,
        )

    matvecs = 0

    def s_apply(v):
        nonlocal matvecs
        matvecs += 1
        return v - q_oe @ (q_eo @ v)

    def gap(x, b):
        x_odd, x_even = x[odd_ids], x[even_ids]
        r_odd = x_odd - q_oe @ x_even - b[odd_ids]
        r_even = x_even - q_eo @ x_odd - b[even_ids]
        return max(float(np.max(np.abs(r_odd), initial=0.0)),
                   float(np.max(np.abs(r_even), initial=0.0)))

    rhs = [space.absorbing_win, live.astype(np.float64)]
    method, xs, gaps = "gmres", [], []
    for b in rhs:
        b_even = b[even_ids]
        x_odd, info = gmres(s_apply, b[odd_ids] + q_oe @ b_even)
        x = np.empty_like(b)
        x[odd_ids] = x_odd
        x[even_ids] = b_even + q_eo @ x_odd
        gaps.append(gap(x, b))
        if info != 0 or gaps[-1] > RESIDUAL_TOL:
            from scipy.sparse import csc_matrix, identity
            from scipy.sparse.linalg import splu

            a_mat = identity(n, format="csc") - csc_matrix(
                (probs[keep], (rows[keep], cols[keep])), shape=(n, n))
            lu = splu(a_mat, permc_spec="MMD_AT_PLUS_A")
            xs = [lu.solve(v) for v in rhs]
            gaps = [gap(x, b) for x, b in zip(xs, rhs)]
            method = "splu"
            break
        xs.append(x)
    residual = max(gaps)
    if residual > RESIDUAL_TOL:
        raise ValueError(
            f"solver residual {residual:.3e} exceeds {RESIDUAL_TOL}"
        )
    win[live] = xs[0][live]
    tau[live] = xs[1][live]
    return SolveResult(win_prob_a=win, expected_tau=tau, method=method,
                       residual=residual, matvecs=matvecs)


def solve_rows(space: StateSpace, result: SolveResult) -> Iterator[dict]:
    """Per-state export rows: index, canonical label, win prob, E[tau]."""
    states = space.states.tolist()
    labels = (map(str, states) if space.flavor == "pwar_subsets"
              else map(_hands_label, states, space.hand_size.tolist()))
    win, tau = result.win_prob_a.tolist(), result.expected_tau.tolist()
    for i, label in enumerate(labels):
        yield {"state_index": i, "state": label, "win_prob_a": win[i],
               "expected_tau": tau[i]}


# ---------------------------------------------------------------------------
# Oracles and identity checks
# ---------------------------------------------------------------------------


def srw_oracle(total: int, a0: int) -> tuple[float, float]:
    """Gambler's-ruin closed forms for a fair walk on [0, total]:
    expected absorption time a0 (total - a0) and win probability
    a0 / total."""
    if total < 1:
        raise ValueError("total must be positive")
    if not 0 <= a0 <= total:
        raise ValueError(f"a0 must lie in [0, {total}], got {a0}")
    return float(a0 * (total - a0)), a0 / total


def average_uniform_hands(
    space: StateSpace, result: SolveResult, k: int
) -> tuple[float, float]:
    """Mean (E[tau], win prob) over the uniform distribution on size-k
    first-player hands of a random-draw space."""
    if space.flavor != "pwar_subsets":
        raise ValueError("uniform-hand averaging needs a random-draw space")
    masks = space.hand_size == k
    if not masks.any():
        raise ValueError(f"no states of hand size {k}")
    return (float(result.expected_tau[masks].mean()),
            float(result.win_prob_a[masks].mean()))


def verify_uniform_preservation(
    rule: WinningRule, deck: Deck, k: int
) -> float:
    """Max deviation of one exact step from the uniform mixture.

    Starting from the uniform distribution over size-k first-player
    hands, one transition step of a symmetric rule must land on the
    half/half mixture of the uniform distributions over sizes k-1 and
    k+1. Returns the largest absolute per-state deviation; symmetric
    rules sit at rounding level, non-symmetric rules visibly break it.
    Only the size-k states are stepped, with the transitions
    ``enumerate_pwar`` builds for them (the same numpy builder).
    """
    import numpy as np

    d = deck.size
    if d > 12:
        raise ValueError("uniformity check is limited to 12-card decks")
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must be a non-absorbing size in [1, {d - 1}]")
    sizes = _sizes(d)
    start = np.flatnonzero(sizes == k)
    cols, probs = _pwar_rows(deck, rule, k, start)
    # bincount adds in index order: start masks ascending, each row's
    # successors in emission order.
    w = 1.0 / len(start)
    pi1 = np.bincount(cols.ravel(), weights=(probs * w).ravel(),
                      minlength=1 << d)
    target = np.zeros(1 << d)
    target[sizes == k - 1] = 0.5 / comb(d, k - 1)
    target[sizes == k + 1] = 0.5 / comb(d, k + 1)
    return float(np.max(np.abs(pi1 - target)))


def counting_identity(n: int, k: int) -> bool:
    """Exact-rational equality of the two factorizations of a uniform
    round outcome at hand size k on a 2n-card deck:

    1/C(2n, k-1) * 1/C(2n-k+1, 2) * 1/2  ==  1/C(2n, k) * 1/k * 1/(2n-k)
    """
    from fractions import Fraction

    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= k <= 2 * n - 1:
        raise ValueError(f"k must lie in [1, {2 * n - 1}], got {k}")
    lhs = (
        Fraction(1, comb(2 * n, k - 1))
        * Fraction(1, comb(2 * n - k + 1, 2))
        * Fraction(1, 2)
    )
    rhs = (
        Fraction(1, comb(2 * n, k))
        * Fraction(1, k)
        * Fraction(1, 2 * n - k)
    )
    return lhs == rhs


def verify_martingales(
    space: StateSpace, strength: StrengthFunction
) -> tuple[float, float]:
    """Exact one-step drifts of the strength martingales.

    For every non-absorbing top-card state, the conditional expectation
    of the change in M (total first-player strength) must be 0, and the
    change in M^2 minus the round product f(a) f(b) must be 0. Returns
    the maximum absolute deviations (drift_m, drift_q).
    """
    import numpy as np

    if space.flavor != "fwar_ordered":
        raise ValueError("martingale drifts need a top-card space")
    fs = np.asarray(strength.table(space.n_cards))
    live = ~space.absorbing
    f = fs[space.states[live]]
    k = space.hand_size[live]
    rows = np.arange(k.size)
    fa = f[:, 0]
    fb = f[rows, k]
    # Running sums add a's strengths front to back, as sum() would.
    m = np.cumsum(f, axis=1)[rows, k - 1]
    p = fa / (fa + fb)
    e_dm = p * fb - (1.0 - p) * fa
    e_dm2 = p * (m + fb) ** 2 + (1.0 - p) * (m - fa) ** 2 - m * m
    return (float(np.max(np.abs(e_dm), initial=0.0)),
            float(np.max(np.abs(e_dm2 - fa * fb), initial=0.0)))


def _deal_win_prob(space: StateSpace, result: SolveResult,
                   deal: str) -> float:
    """First-player win probability under an ``iid`` or ``strongest``
    deal of a solved top-card chain: the per-state probabilities weighted
    by the deal's law. Every card goes to the first hand by a fair coin
    (except the strongest, which ``strongest`` puts there) and both hands
    are uniformly permuted."""
    import numpy as np

    n = space.n_cards
    k = space.hand_size
    strongest = deal == "strongest"
    fact = np.array([factorial(i) for i in range(n + 1)], dtype=np.float64)
    weight = 0.5 ** (n - 1 if strongest else n) / (fact[k] * fact[n - k])
    if strongest:
        # The strongest card is in hand A when it sits before |A|.
        weight[np.argmax(space.states == n - 1, axis=1) >= k] = 0.0
    return float(weight @ result.win_prob_a)


def strongest_deal_exact_win_prob(
    n: int, strength: StrengthFunction
) -> float:
    """Exact win probability under the strongest-card deal, by weighting
    the solved per-state probabilities with the deal's law: the strongest
    card is in the first hand, every other card by a fair coin, and both
    hands uniformly permuted."""
    space = enumerate_fwar(n, strength)
    return _deal_win_prob(space, absorption_solve(space), "strongest")
