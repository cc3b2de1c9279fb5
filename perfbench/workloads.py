"""The benchmark's workloads: their models, one round of work, and the
checks on every output.

A run repeats whole rounds. Round ``r`` of a Monte Carlo workload runs
each model's trials on stream ids ``r * trials .. (r + 1) * trials - 1``
of the run's seed, so the inputs are a pure function of ``--seed`` and
every round attempts the same operations. Only the body of a round is
timed; the checks run after it. Every expected value below is computed
here from closed forms or published figures, never from a stored copy
of warlab's output, except the byte-identity digests.

warlab is passed in as a module so that this file imports without it.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import resource
import time
from dataclasses import dataclass
from fractions import Fraction
from statistics import median
from typing import Callable

import digests

#: Playability threshold of the published classic-war tables.
MIN_HAND = 2
#: Checks on means and frequencies allow this many standard errors.
Z = 4.0
#: Stream ids per model and round re-run in-process against the pool.
RERUN_SAMPLE = 4


@dataclass(frozen=True)
class Model:
    """One Monte Carlo model: its config, trials per round, worker count
    and the property its output must have."""

    name: str
    make: Callable
    trials: int
    workers: int
    check: tuple


def _classic(deck, tie):
    return lambda w: w.ClassicConfig(deck=deck, tie=tie, min_hand=MIN_HAND)


# ("walk", cards, k): symmetric random-draw rule, uniform deal of k cards
#   to A: E[tau] = k (cards - k), P(A wins) = k / cards.
# ("reference", mean, tolerance): published classic-war mean round count.
# ("fwar_iid", n): shifted strengths f(a) = a + n under the iid deal:
#   every Q_tau / tau in [(n+1)^2, 4 n^2], P(A wins) = 1/2.
LONG_MODELS = (
    Model("classic-war-13x4", _classic((13, 4), "war_round"), 400, 1,
          ("reference", 397.0, 0.10)),
    Model("classic-coin-13x4", _classic((13, 4), "coin_flip"), 400, 1,
          ("reference", 628.0, 0.05)),
    Model("classic-war-52x1", _classic((52, 1), "war_round"), 400, 1,
          ("reference", 624.0, 0.05)),
    Model("pwar-greater-tiecoin-13x4",
          lambda w: w.PwarConfig(deck=(13, 4), rule="greater-tiecoin"),
          200, 1, ("walk", 52, 26)),
    Model("pwar-powered-52x1",
          lambda w: w.PwarConfig(deck=(52, 1), rule="powered", size_a=26),
          40, 1, ("walk", 52, 26)),
    Model("fwar-shifted-iid-32",
          lambda w: w.FwarConfig(n=32, strength="shifted", deal="iid"),
          300, 1, ("fwar_iid", 32)),
)

SHORT_MODELS = (
    Model("pwar-coin-8x1",
          lambda w: w.PwarConfig(deck=(8, 1), rule="coin", size_a=4),
          3000, 2, ("walk", 8, 4)),
    Model("fwar-shifted-iid-8",
          lambda w: w.FwarConfig(n=8, strength="shifted", deal="iid"),
          3000, 2, ("fwar_iid", 8)),
)

MC_MODELS = {"mc_long_games": LONG_MODELS, "mc_short_games": SHORT_MODELS}

#: Exact workload inputs: 12-card coin chain, n=6 identity top-card
#: chain, powered-rule uniformity on 12x1.
EXACT_CARDS = 12
EXACT_FWAR_N = 6


def build_inputs(workload: str, w) -> list:
    """Build the workload's configs, decks and rules (the set-up that
    ``setup_s`` times after ``import warlab``)."""
    if workload in MC_MODELS:
        built = []
        for model in MC_MODELS[workload]:
            config = model.make(w)
            if hasattr(config, "build"):
                built.append(config.build())
            else:
                built.append((w.build_deck(config.deck),
                              w.TiePolicy(kind=config.tie)))
        return built
    if workload == "exact_chains":
        deck = w.build_deck((EXACT_CARDS, 1))
        return [deck, w.rule_by_name("coin"), w.rule_by_name("powered"),
                w.strength_builtin("identity")]
    raise ValueError(f"unknown workload {workload!r}")


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def maxrss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


class _Tally:
    """The benchmark's own accumulation of one model's outputs."""

    def __init__(self, model: Model):
        self.model = model
        self.decided = 0
        self.sum_tau = 0
        self.sum_tau2 = 0
        self.wins_a = 0

    def add(self, records) -> int:
        """Fold in one batch; returns the number of failed trials."""
        failed = 0
        kind = self.model.check[0]
        if kind == "fwar_iid":
            n = self.model.check[1]
            lo, hi = (n + 1) ** 2, 4 * n * n
        for r in records:
            if r.winner not in ("A", "B"):
                # Draws are legal classic outcomes; a truncated game is not.
                failed += r.winner != "Draw"
                continue
            self.decided += 1
            self.sum_tau += r.tau
            self.sum_tau2 += r.tau * r.tau
            self.wins_a += r.winner == "A"
            if kind == "fwar_iid" and r.tau and not (
                lo <= r.q_final / r.tau <= hi
            ):
                failed += 1
        return failed

    def problems(self) -> list[str]:
        n = self.decided
        if n < 2:
            return [f"{self.model.name}: only {n} decided games"]
        mean = Fraction(self.sum_tau, n)
        var = (Fraction(self.sum_tau2) - n * mean * mean) / (n - 1)
        mean, sem = float(mean), math.sqrt(float(var) / n)
        freq = self.wins_a / n
        kind, *params = self.model.check
        out = []

        def near(what, got, want, tol):
            if not abs(got - want) <= tol:
                out.append(f"{self.model.name}: {what} {got:.4f} is not "
                           f"within {tol:.4f} of {want:.4f}")

        if kind == "walk":
            cards, k = params
            p = k / cards
            near("mean rounds", mean, k * (cards - k), Z * sem)
            near("A win frequency", freq, p, Z * math.sqrt(p * (1 - p) / n))
        elif kind == "reference":
            ref, tol = params
            near("mean rounds", mean, ref, tol * ref)
        else:
            near("A win frequency", freq, 0.5, Z * math.sqrt(0.25 / n))
        return out


class MonteCarlo:
    """``mc_long_games`` and ``mc_short_games``."""

    def __init__(self, w, workload: str, seed: int, tracer=None):
        self.w = w
        self.seed = seed
        self.tracer = tracer
        if tracer is not None:
            import tracing

            self._tracing = tracing
        self.models = MC_MODELS[workload]
        self.configs = [m.make(w) for m in self.models]
        self.tallies = [_Tally(m) for m in self.models]
        self.stored = digests.load()
        self.walls: list[float] = []
        self.rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Traced-run figures.
        self.harness = {"fanout_ns": [], "trials": 0, "trial_ns": 0,
                        "engine_ns": 0, "record_bytes": 0, "records": 0}

    def round(self, r: int) -> None:
        w = self.w
        batches = []
        simulated = 0
        in_trials = 0.0
        t_round = time.perf_counter()
        for model, config in zip(self.models, self.configs):
            base = r * model.trials
            if self.tracer is not None:
                rows = self._tracing.open_rows(model.trials)
                config = self._tracing.TracedConfig(config, base)
            t = time.perf_counter()
            records = w.run_trials(config, model.trials, self.seed,
                                   workers=model.workers, stream_base=base)
            in_trials += time.perf_counter() - t
            if self.tracer is not None:
                self._ingest(rows, records)
            summary = w.summarize_records(records)
            simulated += sum(rec.tau for rec in records)
            batches.append((model, base, records, summary))
        wall = time.perf_counter() - t_round
        self.walls.append(wall)
        self.rates.append(simulated / in_trials)
        for (model, base, records, summary), tally, config in zip(
            batches, self.tallies, self.configs
        ):
            self.attempted += len(records)
            self.failed += tally.add(records)
            self._check_summary(model, records, summary)
            self._check_digest(model, config)
            if model.workers > 1:
                self._check_reruns(model, config, base, records, r)

    def _ingest(self, rows, records) -> None:
        figs = self.tracer.ingest_trials(rows)
        _, t0, t1, _ = self.tracer.last["stats.run_trials"]
        h = self.harness
        h["fanout_ns"].append((t1 - t0) - figs["busiest_ns"])
        h["trials"] += figs["trials"]
        h["trial_ns"] += figs["trial_ns"]
        h["engine_ns"] += figs["engine_ns"]
        h["record_bytes"] += sum(len(pickle.dumps(rec)) for rec in records)
        h["records"] += len(records)

    def _check_summary(self, model, records, summary) -> None:
        taus = [rec.tau for rec in records if rec.winner in ("A", "B")]
        mean = math.fsum(taus) / len(taus)
        if summary.n_trials != len(records) or not (
            abs(summary.mean - mean) <= 1e-9 * max(1.0, mean)
        ):
            self.problems.append(
                f"{model.name}: summarize_records gave n={summary.n_trials} "
                f"mean={summary.mean!r}, expected n={len(records)} "
                f"mean={mean!r}")

    def _check_digest(self, model, config) -> None:
        records = self.w.run_trials(config, digests.TRIALS, digests.SEED,
                                    workers=1)
        self.attempted += 1
        if digests.digest(records) != self.stored.get(model.name):
            self.failed += 1

    def _check_reruns(self, model, config, base, records, r) -> None:
        """Trial i must be a pure function of (seed, stream id): re-run a
        sample of the pool's trials in this process."""
        pick = random.Random(f"{self.seed}:{r}:{model.name}")
        for sid in pick.sample(range(base, base + model.trials),
                               RERUN_SAMPLE):
            self.attempted += 1
            if config.run_trial(self.seed, sid) != records[sid - base]:
                self.failed += 1

    def finish(self) -> None:
        for tally in self.tallies:
            self.problems.extend(tally.problems())

    def throughput(self) -> float:
        return median(self.rates)


def parallel_efficiency(w, workload: str, seed: int, reps: int = 3) -> float:
    """Time with 1 worker over 2 x time with 2 workers, on the same
    trials of every model of the workload (median of ``reps``)."""
    values = []
    models = MC_MODELS[workload]
    for _ in range(reps):
        times = {1: 0.0, 2: 0.0}
        for model in models:
            config = model.make(w)
            for workers in times:
                t = time.perf_counter()
                w.run_trials(config, model.trials, seed, workers=workers)
                times[workers] += time.perf_counter() - t
        values.append(times[1] / (2 * times[2]))
    return median(values)


# ---------------------------------------------------------------------------
# Exact workload
# ---------------------------------------------------------------------------

#: Tolerances of the exact checks.
VALUE_TOL = 1e-9
UNIFORM_TOL = 1e-12


def _residuals(space, result) -> float:
    """Largest first-step residual of a solve, recomputed from the
    space's transition triplets: win = P win and tau = 1 + P tau at
    transient states, the boundary values at absorbing ones."""
    import numpy as np

    win = np.asarray(result.win_prob_a, dtype=float)
    tau = np.asarray(result.expected_tau, dtype=float)
    absorbing = np.asarray(space.absorbing, dtype=bool)
    rows, cols = space.trans_rows, space.trans_cols
    probs = space.trans_probs
    step_win = np.zeros(len(win))
    step_tau = np.zeros(len(win))
    np.add.at(step_win, rows, probs * win[cols])
    np.add.at(step_tau, rows, probs * tau[cols])
    t = ~absorbing
    return float(max(
        np.max(np.abs(win[t] - step_win[t]), initial=0.0),
        np.max(np.abs(tau[t] - 1.0 - step_tau[t]), initial=0.0),
        np.max(np.abs(win[absorbing] - space.absorbing_win[absorbing]),
               initial=0.0),
        np.max(np.abs(tau[absorbing]), initial=0.0),
    ))


class ExactChains:
    """``exact_chains``: the exact layer alone, no Monte Carlo code.

    The chains are fixed; the seed only orders the uniformity checks."""

    def __init__(self, w, seed: int):
        self.w = w
        self.deck = w.build_deck((EXACT_CARDS, 1))
        self.coin = w.rule_by_name("coin")
        self.powered = w.rule_by_name("powered")
        self.identity = w.strength_builtin("identity")
        self.ks = list(range(1, EXACT_CARDS))
        random.Random(seed).shuffle(self.ks)
        self.walls: list[float] = []
        self.rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.solve_rss_mb = 0.0
        self.states = 0
        self.transitions = 0

    def _solve(self, space):
        before = rss_mb()
        result = self.w.absorption_solve(space)
        self.solve_rss_mb = max(self.solve_rss_mb, maxrss_mb() - before)
        return result

    def round(self, r: int) -> None:
        w = self.w
        n = EXACT_FWAR_N
        t_round = time.perf_counter()
        t = time.perf_counter()
        coin_space = w.enumerate_pwar(self.deck, self.coin)
        coin = self._solve(coin_space)
        fwar_space = w.enumerate_fwar(n, self.identity)
        fwar = self._solve(fwar_space)
        chain_s = time.perf_counter() - t
        strongest = w.strongest_deal_exact_win_prob(n, self.identity)
        drifts = w.verify_martingales(fwar_space, self.identity)
        devs = [w.verify_uniform_preservation(self.powered, self.deck, k)
                for k in self.ks]
        self.walls.append(time.perf_counter() - t_round)
        states = coin_space.n_states + fwar_space.n_states
        self.rates.append(2 * states / chain_s)
        self.states = states
        self.transitions = (len(coin_space.trans_rows)
                            + len(fwar_space.trans_rows))

        ops = [
            self._coin_ok(coin_space, coin),
            fwar_space.n_states == math.factorial(n + 1)
            and _residuals(fwar_space, fwar) <= VALUE_TOL,
            abs(strongest - (0.5 + 1 / (n + 1))) <= VALUE_TOL,
            max(drifts) <= VALUE_TOL,
        ] + [dev <= UNIFORM_TOL for dev in devs]
        self.attempted += len(ops)
        self.failed += ops.count(False)

    def _coin_ok(self, space, result) -> bool:
        """Fair walk: E[tau] = |A| (12 - |A|), P(A wins) = |A| / 12."""
        import numpy as np

        d = EXACT_CARDS
        if space.n_states != 2**d:
            return False
        k = np.array([bin(m).count("1") for m in range(2**d)], dtype=float)
        err = max(
            np.max(np.abs(np.asarray(result.expected_tau) - k * (d - k))),
            np.max(np.abs(np.asarray(result.win_prob_a) - k / d)),
        )
        return err <= VALUE_TOL and _residuals(space, result) <= VALUE_TOL

    def finish(self) -> None:
        pass

    def throughput(self) -> float:
        return median(self.rates)
