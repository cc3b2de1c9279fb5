"""The reference tables and every check warlab runs against them.

Two kinds of check live here, each a function of plain arguments that
returns one row dict per comparison:

- the exact verify suites (no randomness): rule validity, one-step
  uniformity preservation, martingale drifts, the counting identity;
- the reproduce targets (seeded Monte Carlo): the four round-count models,
  the win probability by strongest cards held, and quadratic scaling.

A row's ``"pass"`` is the check itself; a run fails when any row does.
"""

from __future__ import annotations

import math

from .classic import ClassicConfig, TiePolicy, aces_win_table
from .core import build_deck
from .exact import (
    counting_identity,
    enumerate_fwar,
    srw_oracle,
    verify_martingales,
    verify_uniform_preservation,
)
from .fwar import FwarConfig
from .pwar import PwarConfig
from .rules import (
    RULE_NAMES,
    SYMMETRIC_RULES,
    VIOLATION_TOL,
    rule_by_name,
    strength_builtin,
    validate_rule,
)
from .stats import run_trials, summarize_records

#: Reference round-count table this package reproduces (52-card deck,
#: 50,000 games per model in the published run).
REFERENCE_ROUNDS = {
    "war_ties": {"mean": 397.0, "median": 302.0, "max": 3752.0},
    "coin_ties": {"mean": 628.0, "median": 474.0, "max": 5510.0},
    "random_draw": {"mean": 625.0, "median": 472.0, "max": 5900.0},
    "distinct": {"mean": 624.0, "median": 474.0, "max": 8026.0},
}

#: Reference win probability by count of strongest-rank cards held.
REFERENCE_ACES = {
    "war_round": (0.108, 0.293, 0.500, 0.706, 0.892),
    "coin_flip": (0.000, 0.243, 0.500, 0.757, 1.000),
}

#: Round-start playability threshold matching the reference tables.
REFERENCE_MIN_HAND = 2

#: The random-draw model's exact mean round count: a fair walk from 26 of
#: 52 cards.
RANDOM_DRAW_MEAN = srw_oracle(52, 26)[0]

#: The four models of the round-count table, keyed as in REFERENCE_ROUNDS.
ROUND_MODELS = {
    "war_ties": ClassicConfig(
        deck=(13, 4), tie="war_round", min_hand=REFERENCE_MIN_HAND
    ),
    "coin_ties": ClassicConfig(
        deck=(13, 4), tie="coin_flip", min_hand=REFERENCE_MIN_HAND
    ),
    "random_draw": PwarConfig(deck=(13, 4), rule="greater-tiecoin"),
    "distinct": ClassicConfig(
        deck=(52, 1), tie="war_round", min_hand=REFERENCE_MIN_HAND
    ),
}


def _check(suite: str, check: str, deviation: float, tolerance: float,
           ok: bool = True) -> dict:
    """One verify row; it passes when ``ok`` holds and the deviation is
    within the tolerance."""
    return {"suite": suite, "check": check, "deviation": deviation,
            "tolerance": tolerance, "pass": ok and deviation <= tolerance}


def _comparison(target: str, model: str, metric: str, artifact, reference,
                pass_target="", tolerance: str = "(reported only)",
                ok: bool = True) -> dict:
    """One reproduce row; the defaults describe a value reported only."""
    return {"target": target, "model": model, "metric": metric,
            "artifact": artifact, "reference": reference,
            "pass_target": pass_target, "tolerance": tolerance, "pass": ok}


# ---------------------------------------------------------------------------
# Verify suites
# ---------------------------------------------------------------------------


def rules_suite() -> list[dict]:
    """Each built-in rule is valid, symmetric iff it is one of
    SYMMETRIC_RULES, and reads only what it declares."""
    cases = []
    decks = [
        ("6x1", build_deck((6, 1))),
        ("3x2", build_deck((3, 2))),
        ("4x1", build_deck((4, 1))),
    ]
    for name in RULE_NAMES:
        rule = rule_by_name(name)
        for label, deck in decks:
            try:
                report = validate_rule(rule, deck)
            except ValueError:
                # A rule that refuses tied ranks has no row on such decks.
                if deck.has_repeated_ranks:
                    continue
                raise
            cases.append(_check(
                "rules", f"{name} on {label}", report.max_violation,
                VIOLATION_TOL,
                ok=(report.is_symmetric == (name in SYMMETRIC_RULES)
                    and report.reads_witness is None),
            ))
    return cases


def theorem_suite() -> list[dict]:
    """Symmetric rules map uniform hands of each size to uniform hands."""
    cases = []
    for size in (4, 6, 8, 10, 12):
        deck = build_deck((size, 1))
        for name in SYMMETRIC_RULES:
            rule = rule_by_name(name)
            worst = 0.0
            for k in range(1, size):
                worst = max(
                    worst, verify_uniform_preservation(rule, deck, k)
                )
            cases.append(_check(
                "theorem", f"uniformity preserved: {name} on {size}x1",
                worst, 1e-12,
            ))
    return cases


def martingales_suite() -> list[dict]:
    """M_t and M_t^2 - Q_t have zero drift in every top-card state."""
    cases = []
    strengths = [
        strength_builtin("constant"),
        strength_builtin("identity"),
        strength_builtin("exponential", lam=1.0),
    ]
    for n in range(2, 6):
        for strength in strengths:
            space = enumerate_fwar(n, strength)
            cases.append(_check(
                "martingales", f"zero drift: n={n}, {strength.describe()}",
                max(verify_martingales(space, strength)), 1e-9,
            ))
    return cases


def identity_suite() -> list[dict]:
    """The counting identity in exact rationals for n <= 20."""
    ok = all(
        counting_identity(n, k)
        for n in range(1, 21)
        for k in range(1, 2 * n)
    )
    return [_check("identity", "counting identity, n <= 20, exact rationals",
                   0.0 if ok else 1.0, 0.0)]


VERIFY_SUITES = {
    "rules": rules_suite,
    "theorem": theorem_suite,
    "martingales": martingales_suite,
    "identity": identity_suite,
}


# ---------------------------------------------------------------------------
# Reproduce targets
# ---------------------------------------------------------------------------


def rounds_target(trials: int, seed: int, workers: int) -> list[dict]:
    """The four round-count models against REFERENCE_ROUNDS."""
    rows = []
    for name, config in ROUND_MODELS.items():
        stats = summarize_records(
            run_trials(config, trials, seed, workers=workers)
        )
        ref = REFERENCE_ROUNDS[name]
        if name == "random_draw":
            # The random-draw model is pinned to its exact gambler's-ruin
            # value rather than the reference table's 625; the target's
            # note says why.
            decided = stats.n_trials - stats.truncated_count - stats.draw_count
            sem = stats.std / math.sqrt(decided)
            checks = [("mean", stats.mean, RANDOM_DRAW_MEAN, 3 * sem,
                       "3 SE")]
        else:
            tol = 0.10 if name == "war_ties" else 0.05
            metrics = ("mean", "median") if name == "war_ties" else ("mean",)
            checks = [
                (metric, getattr(stats, metric), ref[metric],
                 tol * ref[metric], f"+-{tol:.0%}")
                for metric in metrics
            ]
        for metric, got, target, tol_abs, tol_label in checks:
            rows.append(_comparison(
                "rounds", name, metric, round(got, 3), ref[metric], target,
                tol_label, abs(got - target) <= tol_abs,
            ))
        rows.append(_comparison("rounds", name, "max", stats.max, ref["max"]))
    return rows


def aces_target(trials_per_cell: int, seed: int, workers: int) -> list[dict]:
    """Win probability by strongest cards held against REFERENCE_ACES."""
    tol = 0.02
    rows = []
    for policy, reference in REFERENCE_ACES.items():
        table = aces_win_table(
            build_deck((13, 4)),
            TiePolicy(kind=policy),
            trials_per_cell=trials_per_cell,
            seed=seed,
            min_hand=REFERENCE_MIN_HAND,
            workers=workers,
        )
        for row in table:
            k, p_win = row["k"], row["p_win"]
            ref = reference[k]
            if policy == "coin_flip" and k in (0, 4):
                # Structural: aces move only in ace-vs-ace coin ties.
                ok, tol_label = p_win == ref, "exact"
            else:
                ok, tol_label = abs(p_win - ref) <= tol, f"+-{tol}"
            rows.append(_comparison(
                "aces", policy, f"P(win | {k} strongest)", round(p_win, 4),
                ref, ref, tol_label, ok,
            ))
    return rows


def scaling_target(trials: int, seed: int, workers: int) -> list[dict]:
    """Top-card war with shifted strengths: mean game length grows as n^2
    and every game keeps Q_tau / tau within its pathwise bounds."""
    sizes = (8, 16, 32)
    lo_ratio, hi_ratio = 3.5, 4.5
    rows = []
    means = {}
    for n in sizes:
        config = FwarConfig(n=n, strength="shifted", deal="iid")
        records = run_trials(config, trials, seed, workers=workers)
        lo_bound, hi_bound = (n + 1) ** 2, 4 * n * n
        in_bounds = all(
            lo_bound - 1e-9 <= r.q_final / r.tau <= hi_bound + 1e-9
            for r in records if r.tau > 0
        )
        mean_tau = summarize_records(records).mean
        means[n] = mean_tau
        model = f"shifted strengths, n={n}"
        rows.append(_comparison(
            "scaling", model, "mean_tau (empirical constant mean/n^2)",
            round(mean_tau, 2), f"c={mean_tau / n**2:.4f}",
        ))
        rows.append(_comparison(
            "scaling", model, "pathwise Q_tau/tau bounds",
            "all trials" if in_bounds else "violated",
            f"[{lo_bound}, {hi_bound}]", "in bounds", "every trial",
            in_bounds,
        ))
    for lo, hi in zip(sizes, sizes[1:]):
        # A mean of 0 (every game dealt an empty hand) gives no ratio.
        ratio = means[hi] / means[lo] if means[lo] else None
        rows.append(_comparison(
            "scaling", f"n={lo} -> n={hi}", "mean_tau ratio per doubling",
            None if ratio is None else round(ratio, 3), 4.0,
            f"[{lo_ratio}, {hi_ratio}]", "window",
            ratio is not None and lo_ratio <= ratio <= hi_ratio,
        ))
    return rows


REPRODUCE_TARGETS = {
    "rounds": rounds_target,
    "aces": aces_target,
    "scaling": scaling_target,
}

#: Each target's default trial count: per round-count model, per
#: strongest-count cell, per scaling size.
REPRODUCE_TRIALS = {"rounds": 50000, "aces": 12000, "scaling": 20000}

#: The settings each target records beside its trial count: the
#: reference ``min_hand`` for the targets that play under it.
REPRODUCE_SETTINGS = {"rounds": {"min_hand": REFERENCE_MIN_HAND},
                      "aces": {"min_hand": REFERENCE_MIN_HAND}, "scaling": {}}

#: What ``reproduce`` prints after a target's rows, where it needs saying.
REPRODUCE_NOTES = {
    "rounds": (
        "note: the random-draw model is checked against its exact value "
        f"{RANDOM_DRAW_MEAN:g} (a fair walk from 26 of 52 cards); the "
        f"reference table's {REFERENCE_ROUNDS['random_draw']['mean']:g} "
        "matches a walk stopped when a hand drops below 2 cards, the "
        "convention the top-card models above reproduce."
    ),
}
