"""Monte Carlo harness, summary statistics and machine-readable emitters.

``run_trials`` is the single parallelism point: trial i always uses stream
id ``stream_base + i``, so the returned list is identical for any worker
count and any chunking. All reductions use exactly rounded summation
(math.fsum), which makes the reported statistics independent of trial
order as well.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import sys
from dataclasses import asdict, dataclass, is_dataclass
from typing import Iterable, Optional, Sequence

from . import __version__
from .core import DRAW, RNG_ALGORITHM, TRUNCATED, WINNER_A

#: Two-sided 95% normal quantile for the CI of the mean.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SampleStats:
    """Summary of decided-game round counts.

    Truncated games and draws are excluded from every moment and order
    statistic and reported as counts.
    """

    n_trials: int
    mean: float
    median: float
    max: float
    std: float
    ci95: tuple
    truncated_count: int = 0
    draw_count: int = 0


@dataclass(frozen=True)
class HistogramData:
    """Equal-width histogram; counts cover exactly the decided games."""

    bin_edges: tuple
    counts: tuple


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


def _run_chunk(config, seed: int, lo: int, hi: int) -> list:
    """The records of trials ``lo..hi-1``: one ``config.run_chunk`` call
    when the config has one, else one ``run_trial`` call per trial."""
    run_chunk = getattr(config, "run_chunk", None)
    if run_chunk is not None:
        return run_chunk(seed, lo, hi)
    return [config.run_trial(seed, i) for i in range(lo, hi)]


def _shares(lo: int, hi: int, workers: int) -> list:
    """``[lo, hi)`` cut into ``min(workers, hi - lo)`` contiguous,
    ascending shares whose sizes differ by at most one."""
    n = min(workers, hi - lo)
    bounds = [lo + (hi - lo) * i // n for i in range(n + 1)]
    return list(zip(bounds, bounds[1:]))


def _serve_share(fd: int, config, seed: int, lo: int, hi: int) -> None:
    """Body of a forked child: run trials ``lo..hi-1``, pickle
    ``(ok, records or exception)`` into the pipe ``fd`` and leave with
    ``os._exit``, so that none of the parent's exit handlers or buffered
    output runs twice. Exit status 1 means nothing usable was written."""
    import pickle

    status = 1
    try:
        try:
            payload = (True, _run_chunk(config, seed, lo, hi))
        except BaseException as exc:
            payload = (False, exc)
        with os.fdopen(fd, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def run_trials(
    config,
    n_trials: int,
    seed: int,
    workers: int = 1,
    stream_base: int = 0,
) -> list:
    """Run ``n_trials`` independent games of ``config``.

    ``config`` is any object exposing ``run_trial(seed, stream_id)``.
    Trial i uses stream id ``stream_base + i``; the output is ordered by
    trial index and compares equal across worker counts. A config may
    also expose ``run_chunk(seed, lo, hi)``, called only with lo < hi,
    which must return ``[run_trial(seed, i) for i in range(lo, hi)]`` and
    raise as that list would; it may raise on an empty range, where the
    list is empty. Each share runs as one such call, so its set-up is
    paid once per share. ``PwarConfig`` and ``FwarConfig`` have one.

    ``workers`` counts this process. With more than one, the trials are
    cut into contiguous shares; a forked child runs each share after the
    first and sends its records back through a pipe while this process
    runs the first. The children inherit ``config`` through the fork, so
    only their records, or an exception, are pickled. An exception in
    any share is re-raised here with its type and message, the lowest
    share's first, as a serial run would.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    lo = stream_base
    hi = stream_base + n_trials
    if workers == 1:
        return _run_chunk(config, seed, lo, hi)
    import pickle
    import signal

    first, *rest = _shares(lo, hi, workers)
    children = []  # (pid, read end of its pipe, share), in share order
    running = set()
    try:
        for share in rest:
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _serve_share(w, config, seed, *share)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            running.add(pid)
            children.append((pid, os.fdopen(r, "rb"), share))
        records = _run_chunk(config, seed, *first)
        for pid, pipe, (s_lo, s_hi) in children:
            # Read to EOF before waiting: a child blocks on a full pipe.
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.discard(pid)
            if code != 0 or not data:
                raise RuntimeError(
                    f"the worker for stream ids {s_lo}..{s_hi - 1} "
                    f"exited with status {code}"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            records += value
        return records
    finally:
        for _, pipe, _ in children:
            pipe.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def summarize(
    samples: Sequence[float],
    truncated_count: int = 0,
    draw_count: int = 0,
) -> SampleStats:
    """Exact moments and order statistics of decided-game round counts.

    The 95% CI uses the normal approximation (acceptance runs use
    n >= 1000); means and variances accumulate through fsum so the result
    does not depend on sample order.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = math.fsum(samples) / n
    if n > 1:
        var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    sem = std / math.sqrt(n)
    ordered = sorted(samples)
    mid = n // 2
    if n % 2:
        median = float(ordered[mid])
    else:
        median = (float(ordered[mid - 1]) + float(ordered[mid])) / 2
    return SampleStats(
        n_trials=n + truncated_count + draw_count,
        mean=mean,
        median=median,
        max=float(ordered[-1]),
        std=std,
        ci95=(mean - _Z95 * sem, mean + _Z95 * sem),
        truncated_count=truncated_count,
        draw_count=draw_count,
    )


def tally(records: Iterable) -> tuple[list, int, int, int]:
    """Class trial records by winner; no other code in warlab does.
    Returns the decided games' round counts (won by A or B, in record
    order) and the counts of A's wins, of draws and of truncated games."""
    taus = []
    wins = draws = truncated = 0
    for r in records:
        winner = r.winner
        if winner == DRAW:
            draws += 1
        elif winner == TRUNCATED:
            truncated += 1
        else:
            taus.append(r.tau)
            wins += winner == WINNER_A
    return taus, wins, draws, truncated


def summarize_records(records: Iterable) -> SampleStats:
    """Summarize trial records by winner class: draws and truncations are
    counted, decided games contribute their round counts."""
    taus, _, draws, truncated = tally(records)
    return summarize(taus, truncated_count=truncated, draw_count=draws)


def win_frequency(records: Iterable) -> float:
    """Fraction of decided games won by the first player."""
    taus, wins, _, _ = tally(records)
    if not taus:
        raise ValueError("no decided games")
    return wins / len(taus)


def histogram(samples: Sequence[float], bin_count: int) -> HistogramData:
    """Equal-width bins over [min, max] (plot-ready; no rendering here)."""
    import numpy as np

    if bin_count < 1:
        raise ValueError("bin_count must be at least 1")
    if len(samples) == 0:
        raise ValueError("cannot histogram an empty sample")
    counts, edges = np.histogram(np.asarray(samples, float), bins=bin_count)
    return HistogramData(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
    )


# ---------------------------------------------------------------------------
# Distribution tails (math only)
# ---------------------------------------------------------------------------

#: Iteration cap of the incomplete-beta continued fraction; it converges
#: in O(sqrt(max(a, b))) steps.
_BETACF_MAX_ITER = 100_000
#: Smallest divisor the modified Lentz method lets through.
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """The continued fraction of the regularized incomplete beta
    function, by the modified Lentz method. It stops when the last
    factor lies within 2**-51 of 1, a few ulps, so a factor that settles
    an ulp above 1 still ends the loop."""
    eps = 2.0 ** -51
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            h *= d * c
        if abs(d * c - 1.0) <= eps:
            return h
    raise ArithmeticError(
        f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _beta_cdf(x: float, a: int, b: int, log_norm: float) -> float:
    """I_x(a, b), the Beta(a, b) distribution function at ``x``, given
    ``log_norm`` = log(1 / B(a, b))."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(log_norm + a * math.log(x) + b * math.log1p(-x))
    # The fraction converges fast below the mean; above it, use
    # I_x(a, b) = 1 - I_{1-x}(b, a).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _beta_ppf(q: float, a: int, b: int) -> float:
    """The ``q`` quantile of Beta(a, b) for positive integers a and b, by
    bisection of :func:`_beta_cdf` down to adjacent floats."""
    # log(1 / B(a, b)) = log((l)(l+1)..(l+s-1)) - log((s-1)!) for
    # s = min(a, b) and l = max(a, b): no difference of two large
    # log-gammas, which would leave an error of eps * a * log(a).
    short, long_ = sorted((a, b))
    log_norm = (math.fsum(math.log(long_ + i) for i in range(short))
                - math.lgamma(short))
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if _beta_cdf(mid, a, b, log_norm) < q:
            lo = mid
        else:
            hi = mid


def clopper_pearson(wins: int, n: int,
                    alpha: float = 0.05) -> tuple[float, float]:
    """The exact (Clopper-Pearson) two-sided ``1 - alpha`` interval, for
    ``alpha`` in (0, 1), after ``wins`` successes in ``n`` trials: the
    ``alpha/2`` quantile of Beta(wins, n - wins + 1) and 1 minus that of
    Beta(n - wins, wins + 1) (the ``1 - alpha/2`` quantile of
    Beta(wins + 1, n - wins), precise even at tiny ``alpha``), with 0 and 1
    at the edges and ``(0, 1)`` when ``n`` is 0."""
    if not 0 <= wins <= n:
        raise ValueError(f"need 0 <= wins <= n, got wins={wins}, n={n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n == 0:
        return 0.0, 1.0
    lo = 0.0 if wins == 0 else _beta_ppf(alpha / 2, wins, n - wins + 1)
    hi = 1.0 if wins == n else 1 - _beta_ppf(alpha / 2, n - wins, wins + 1)
    return lo, hi


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with a positive integer ``df``: with
    h = x/2, e^-h times the first df/2 terms of the series of e^h for
    even ``df``, and erfc(sqrt(h)) plus the half-integer terms for odd
    ``df``. The terms are summed from their logarithms, so a tail below
    e^-745 still comes out when it is representable."""
    if df < 1 or df != int(df):
        raise ValueError(f"df must be a positive integer, got {df}")
    if x <= 0.0:
        return 1.0
    h = x / 2.0
    log_h = math.log(h)
    if df % 2:
        total = math.erfc(math.sqrt(h))
        # h^(1/2) e^-h / Gamma(3/2), then the ratio h / (j + 1/2).
        log_term = math.log(2.0) - h + 0.5 * (log_h - math.log(math.pi))
        start = 1.5
    else:
        total = 0.0
        log_term = -h
        start = 1.0
    for j in range(df // 2):
        total += math.exp(log_term)
        log_term += log_h - math.log(start + j)
    return min(total, 1.0)


# ---------------------------------------------------------------------------
# Fairness test
# ---------------------------------------------------------------------------

#: Minimum pooled/grouped sample for the chi-square approximation.
MIN_GROUP = 100


def fairness_test(
    increments: Sequence[int],
    grouped_by_size: Optional[Sequence[int]] = None,
) -> tuple[float, float]:
    """Chi-square goodness of fit of +-1 increments against a fair coin.

    With ``grouped_by_size`` (one group key per increment, e.g. the hand
    size the step was taken from), the statistic sums the per-group
    chi-squares with one degree of freedom per group, which catches rules
    that are fair only on average. Groups below ``MIN_GROUP`` increments
    are an error. Returns (chi_sq, p_value).
    """
    n = len(increments)
    if n < MIN_GROUP:
        raise ValueError(
            f"need at least {MIN_GROUP} increments, got {n}"
        )
    bad = [x for x in increments if x not in (1, -1)]
    if bad:
        raise ValueError(f"increments must be +-1, got {bad[:3]}")
    if grouped_by_size is None:
        groups = {None: increments}
    else:
        if len(grouped_by_size) != n:
            raise ValueError("one group key per increment required")
        groups = {}
        for key, inc in zip(grouped_by_size, increments):
            groups.setdefault(key, []).append(inc)
    chi_sq = 0.0
    for key, incs in groups.items():
        m = len(incs)
        if m < MIN_GROUP:
            raise ValueError(
                f"group {key!r} has only {m} increments "
                f"(minimum {MIN_GROUP})"
            )
        ups = sum(1 for x in incs if x == 1)
        expected = m / 2.0
        chi_sq += (ups - expected) ** 2 / expected + (
            (m - ups) - expected
        ) ** 2 / expected
    return chi_sq, chi2_sf(chi_sq, len(groups))


# ---------------------------------------------------------------------------
# Metadata and emitters
# ---------------------------------------------------------------------------


def run_metadata(config=None, **fields) -> dict:
    """Everything needed to regenerate an output exactly, then ``fields``.

    numpy's version is read from the loaded module, else from the
    installed package's metadata, so that a Monte Carlo run loads no
    numpy to name it."""
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        numpy_version = numpy.__version__
    else:
        from importlib.metadata import version

        numpy_version = version("numpy")

    meta = {
        "package": "warlab",
        "version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    if config is not None:
        meta["config"] = (asdict(config) if is_dataclass(config)
                          else dict(config))
    meta.update(fields)
    return meta


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_table_csv(path: str, header: Sequence[str],
                    rows: Iterable[Sequence],
                    metadata: Optional[dict] = None) -> None:
    """CSV with comma delimiter, dot decimals, header row, newline-
    terminated records; metadata rides along as one leading '# ' comment
    line holding JSON."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if metadata is not None:
            fh.write("# " + json.dumps(metadata, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def read_csv_with_metadata(path: str) -> tuple[Optional[dict], list]:
    """Inverse of :func:`write_table_csv`: (metadata dict or None, rows
    incl. header)."""
    metadata = None
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if first.startswith("# "):
            metadata = json.loads(first[2:])
        else:
            fh.seek(0)
        rows = list(csv.reader(fh))
    return metadata, rows
