"""Top-card war with Bradley-Terry outcomes and its two martingales.

Cards are played from the top; the holder of card a beats card b with
probability f(a)/(f(a)+f(b)) and returns both cards to the bottom in
random order. The total strength M_t of a hand is then a martingale, and
M_t^2 - Q_t (with Q_t the running sum of round products f(a)f(b)) is one
too. Optional stopping turns these into a closed-form win probability and
a quadratic bound on how long games last.
"""

import math

from warlab import (
    FwarConfig,
    run_trials,
    shifted_iid_moments,
    strength_builtin,
    strongest_deal_win_prob,
)
from warlab.exact import (
    absorption_solve,
    enumerate_fwar,
    strongest_deal_exact_win_prob,
    verify_martingales,
)

print("=== 1. Exact zero drift of M and M^2 - Q (all states, n=5) ===")
for kind, kw in (("constant", {}), ("identity", {}),
                 ("exponential", {"lam": 1.0})):
    strength = strength_builtin(kind, **kw)
    space = enumerate_fwar(5, strength)
    dm, dq = verify_martingales(space, strength)
    print(f"  {strength.describe():22s} drift(M)={dm:.1e}  "
          f"drift(M^2-Q)={dq:.1e}")

print()
print("=== 2. Give one player the strongest card: who wins? ===")
print("  deal: card n to player A, every other card by a fair coin")
print("  optional stopping gives  P(A wins) = 1/2 + f(n) / (2 sum f)")
identity = strength_builtin("identity")
print("  n   exact chain solve   closed form")
for n in (2, 3, 4, 5, 6):
    exact_p = strongest_deal_exact_win_prob(n, identity)
    formula = strongest_deal_win_prob(identity, n)
    print(f"  {n}   {exact_p:.9f}       {formula:.9f}")
print("  (identity strengths: only 1/2 + 1/(n+1), far from a sure win)")

print()
print("=== 3. ...unless strengths grow steep ===")
for lam in (0.5, 1.0, 2.0, 4.0):
    f = strength_builtin("exponential", lam=lam)
    print(f"  lam={lam:3.1f}: P(A wins) = "
          f"{strongest_deal_win_prob(f, 10):.6f}")
print("  (steepness recovers higher-card-always-wins play)")

print()
print("=== 4. Quadratic game length for f(a) = a + n ===")
e_m0, e_m0_sq = shifted_iid_moments(16)
print(f"  initial strength moments at n=16: E[M0]={e_m0:.1f}, "
      f"E[M0^2]={e_m0_sq:.0f}")
print("  every round product f(a)f(b) lies in [(n+1)^2, 4n^2], so")
print("  E[tau] = Theta(n^2). Doubling n should 4x the mean game:")
means = {}
for n in (8, 16, 32):
    records = run_trials(
        FwarConfig(n=n, strength="shifted", deal="iid"), 4000, seed=2,
        workers=2,
    )
    means[n] = sum(r.tau for r in records) / len(records)
    print(f"  n={n:2d}: mean tau = {means[n]:6.1f}   "
          f"(mean/n^2 = {means[n] / n**2:.3f})")
print(f"  ratios: {means[16] / means[8]:.2f} and "
      f"{means[32] / means[16]:.2f} per doubling")

print()
print("=== 5. Pathwise sanity on one simulated game ===")
records = run_trials(
    FwarConfig(n=8, strength="shifted", deal="iid",
               record_trace=True), 1, seed=3,
)
trace = records[0]
products = [
    hi - lo
    for lo, hi in zip(trace.q_trajectory, trace.q_trajectory[1:])
]
print(f"  tau={trace.tau}, winner={trace.winner}, "
      f"Q_tau/tau={trace.q_final / trace.tau:.1f}, "
      f"round products within [81, 256]: "
      f"{all(81 <= p <= 256 for p in products)}")
