"""The exact machinery: state spaces, absorption solves, identity checks.

Everything the Monte Carlo engines estimate can be computed exactly on
small decks: enumerate the chain, solve the first-step linear systems for
win probability and expected game length, and check the combinatorial
identity and chi-square fairness behind the fair-walk reduction.
"""

from fractions import Fraction
from math import comb

from warlab import (
    PwarConfig,
    build_deck,
    counting_identity,
    fairness_test,
    rule_by_name,
    run_trials,
)
from warlab.exact import (
    AbsorptionError,
    absorption_solve,
    enumerate_fwar,
    enumerate_pwar,
    solve_rows,
)
from warlab.rules import strength_builtin

print("=== 1. A 4-card chain, fully enumerated ===")
deck = build_deck((4, 1))
space = enumerate_pwar(deck, rule_by_name("greater-tiecoin"))
result = absorption_solve(space)
print("  state (hand-A bitmask) -> P(A wins), E[rounds]")
for row in solve_rows(space, result):
    print(
        f"  {row['state_index']:2d} ({row['state_index']:04b})   "
        f"{row['win_prob_a']:.6f}   {row['expected_tau']:.6f}"
    )
print("  bitmask 1100 holds ranks {3,4}: it always wins, but captured")
print("  low cards can lose rounds later, hence E[rounds]=2.4, not 2.")

print()
print("=== 2. The counting identity behind the fair-walk theorem ===")
n, k = 3, 2
lhs = (
    Fraction(1, comb(2 * n, k - 1))
    * Fraction(1, comb(2 * n - k + 1, 2))
    * Fraction(1, 2)
)
rhs = Fraction(1, comb(2 * n, k)) * Fraction(1, k) * Fraction(1, 2 * n - k)
print(f"  n=3, k=2: both factorizations equal {lhs} == {rhs}")
print(
    "  holds for every (n,k) with n <= 20:",
    all(counting_identity(n, k) for n in range(1, 21)
        for k in range(1, 2 * n)),
)

print()
print("=== 3. Top-card chains are bigger: (n+1)! ordered states ===")
for n in (2, 3, 4, 5):
    space = enumerate_fwar(n, strength_builtin("identity"))
    print(f"  n={n}: {space.n_states} states, "
          f"{int(space.absorbing.sum())} absorbing")

print()
print("=== 4. The solver refuses chains that never absorb ===")


def oscillator(a, b, s, deck):
    half = deck.size // 2
    if len(s) < half - 1:
        return 1.0
    if len(s) > half - 1:
        return 0.0
    return 0.5


from warlab.core import WinningRule  # noqa: E402

space = enumerate_pwar(
    build_deck((4, 1)),
    WinningRule(name="oscillator", eval=oscillator, uses_hand=True),
)
try:
    absorption_solve(space)
except AbsorptionError as err:
    print(f"  AbsorptionError: {err}")

print()
print("=== 5. Chi-square fairness of simulated hand-size increments ===")
records = run_trials(
    PwarConfig(deck=(8, 1), rule="powered", record_trace=True),
    1500, seed=5,
)
increments, sizes = [], []
for rec in records:
    traj = rec.trace
    for t in range(len(traj) - 1):
        increments.append(traj[t + 1] - traj[t])
        sizes.append(traj[t])
chi2, p = fairness_test(increments, grouped_by_size=sizes)
print(f"  powered rule, {len(increments)} steps grouped by hand size: "
      f"chi2={chi2:.1f}, p={p:.3f} (fair at alpha=0.001)")
