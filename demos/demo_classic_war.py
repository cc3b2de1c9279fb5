"""Classic war with a standard deck: war rounds, ties, and the ace table.

Reproduces (at reduced trial counts) the reference simulation results:
mean/median round counts for four game models and the probability of
winning conditioned on how many aces a player is dealt. War rounds move
unseen cards, which both shortens games and gives an ace-less player a
real chance; coin-flip ties make aces unlosable.

Uses min_hand=2 (a player who cannot fund a war stake forfeits), the
stopping convention the reference tables follow; run the full-size check
with `warlab reproduce rounds` / `warlab reproduce aces`.
"""

from warlab import (
    TiePolicy,
    aces_win_table,
    build_deck,
    run_trials,
    summarize_records,
)
from warlab.reproduce import REFERENCE_MIN_HAND, REFERENCE_ROUNDS, ROUND_MODELS

TRIALS = 8000

print("=== 1. Round counts for four models (52 cards) ===")
labels = {
    "war_ties": "top card, war-round ties",
    "coin_ties": "top card, coin-flip ties",
    "random_draw": "random draw, coin-flip ties",
    "distinct": "top card, 52 distinct ranks",
}
for name, config in ROUND_MODELS.items():
    stats = summarize_records(
        run_trials(config, TRIALS, seed=11, workers=2)
    )
    print(
        f"  {labels[name]:30s} mean={stats.mean:6.1f}  "
        f"median={stats.median:6.1f}  max={stats.max:6.0f}  "
        f"(reference mean {REFERENCE_ROUNDS[name]['mean']:.0f})"
    )
print("  war rounds move many cards per counted round, so model 1 ends")
print("  ~1.6x sooner. The random-draw model's exact mean is 676; the")
print("  reference 625 stems from stopping at a 1-card hand (25*25).")

print()
print("=== 2. P(win) by number of aces dealt (hand sizes equal) ===")
deck = build_deck((13, 4))
for policy, label in (("war_round", "war-round ties"),
                      ("coin_flip", "coin-flip ties")):
    rows = aces_win_table(
        deck, TiePolicy(kind=policy), trials_per_cell=4000, seed=23,
        min_hand=REFERENCE_MIN_HAND, workers=2,
    )
    cells = "  ".join(f"{row['k']}:{row['p_win']:.3f}" for row in rows)
    print(f"  {label:16s} {cells}")
print("  coin-flip ties: aces can only move in ace-vs-ace ties, so zero")
print("  aces can never win and four aces can never lose. War rounds")
print("  stake aces face down, giving an ace-less hand a ~11% chance.")
