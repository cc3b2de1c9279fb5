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
import multiprocessing
import os
import platform
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import DRAW, RNG_ALGORITHM, TRUNCATED, WINNER_A, WINNER_B

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
    return [config.run_trial(seed, i) for i in range(lo, hi)]


def run_trials(
    config,
    n_trials: int,
    seed: int,
    workers: int = 1,
    stream_base: int = 0,
) -> list:
    """Run ``n_trials`` independent games of ``config``.

    ``config`` is any picklable object exposing
    ``run_trial(seed, stream_id)``. Trial i uses stream id
    ``stream_base + i``; the output is ordered by trial index and is
    byte-identical across worker counts.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    lo = stream_base
    hi = stream_base + n_trials
    if workers == 1:
        return _run_chunk(config, seed, lo, hi)
    n_chunks = min(n_trials, workers * 4)
    bounds = np.linspace(lo, hi, n_chunks + 1, dtype=int)
    args = [
        (config, seed, int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_chunks)
        if bounds[i] < bounds[i + 1]
    ]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        parts = pool.starmap(_run_chunk, args)
    return [record for part in parts for record in part]


def default_workers() -> int:
    """Worker count from the WARLAB_WORKERS environment variable, else 1."""
    value = os.environ.get("WARLAB_WORKERS")
    if value is None:
        return 1
    try:
        workers = int(value)
    except ValueError as exc:
        raise ValueError(
            f"WARLAB_WORKERS must be an integer, got {value!r}"
        ) from exc
    if workers < 1:
        raise ValueError("WARLAB_WORKERS must be at least 1")
    return workers


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
    arr = np.asarray(samples, dtype=float)
    return SampleStats(
        n_trials=n + truncated_count + draw_count,
        mean=mean,
        median=float(np.median(arr)),
        max=float(arr.max()),
        std=std,
        ci95=(mean - _Z95 * sem, mean + _Z95 * sem),
        truncated_count=truncated_count,
        draw_count=draw_count,
    )


def summarize_records(records: Iterable) -> SampleStats:
    """Summarize trial records by winner class: draws and truncations are
    counted, decided games contribute their round counts."""
    taus = []
    truncated = 0
    draws = 0
    for r in records:
        if r.winner == TRUNCATED:
            truncated += 1
        elif r.winner == DRAW:
            draws += 1
        else:
            taus.append(r.tau)
    return summarize(taus, truncated_count=truncated, draw_count=draws)


def win_frequency(records: Iterable) -> float:
    """Fraction of decided games won by the first player."""
    wins = 0
    decided = 0
    for r in records:
        if r.winner in (WINNER_A, WINNER_B):
            decided += 1
            wins += r.winner == WINNER_A
    if decided == 0:
        raise ValueError("no decided games")
    return wins / decided


def histogram(samples: Sequence[float], bin_count: int) -> HistogramData:
    """Equal-width bins over [min, max] (plot-ready; no rendering here)."""
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
    from scipy.stats import chi2

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
    df = len(groups)
    p_value = float(chi2.sf(chi_sq, df))
    return chi_sq, p_value


# ---------------------------------------------------------------------------
# Metadata and emitters
# ---------------------------------------------------------------------------


def run_metadata(config=None, seed=None, n_trials=None, workers=None,
                 **extra) -> dict:
    """Everything needed to regenerate an output exactly."""
    from . import __version__

    meta = {
        "package": "warlab",
        "version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if config is not None:
        meta["config"] = asdict(config) if hasattr(
            config, "__dataclass_fields__"
        ) else dict(config)
    if seed is not None:
        meta["seed"] = seed
    if n_trials is not None:
        meta["n_trials"] = n_trials
    if workers is not None:
        meta["workers"] = workers
    meta.update(extra)
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
