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
    trial index and is byte-identical across worker counts.

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
