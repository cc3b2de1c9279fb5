"""Tests for the Monte Carlo harness, summaries, fairness test, emitters."""

import json
import math
import os
import pickle
import re
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warlab import rules
from warlab.core import (
    DEFAULT_MAX_ROUNDS,
    TrialRecord,
    WinningRule,
    build_deck,
    built,
)
from warlab.exact import srw_oracle
from warlab.fwar import DEALS, RETURN_ORDERS, FwarConfig
from warlab.pwar import PwarConfig
from warlab.stats import (
    HistogramData,
    _shares,
    SampleStats,
    chi2_sf,
    clopper_pearson,
    fairness_test,
    histogram,
    run_metadata,
    read_csv_with_metadata,
    run_trials,
    summarize,
    summarize_records,
    tally,
    win_frequency,
    write_json,
    write_table_csv,
)


class TestSummarize:
    def test_basic(self):
        stats = summarize([1, 2, 3])
        assert stats.mean == 2.0
        assert stats.median == 2.0
        assert stats.max == 3.0
        assert stats.n_trials == 3

    def test_ci_brackets_mean(self):
        stats = summarize(list(range(100)))
        assert stats.ci95[0] <= stats.mean <= stats.ci95[1]

    def test_single_sample(self):
        stats = summarize([7])
        assert stats.std == 0.0
        assert stats.ci95 == (7.0, 7.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @given(
        st.lists(st.integers(0, 10_000), min_size=2, max_size=60),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_order_independent(self, samples, rnd):
        """Permuting the sample leaves every reported statistic unchanged."""
        shuffled = list(samples)
        rnd.shuffle(shuffled)
        assert summarize(samples) == summarize(shuffled)

    def test_excludes_truncated_and_draws(self):
        records = [
            TrialRecord(tau=5, winner="A", stream_id=0),
            TrialRecord(tau=9, winner="B", stream_id=1),
            TrialRecord(tau=1000, winner="Truncated", stream_id=2),
            TrialRecord(tau=3, winner="Draw", stream_id=3),
        ]
        stats = summarize_records(records)
        assert stats.mean == 7.0
        assert stats.max == 9.0
        assert stats.truncated_count == 1
        assert stats.draw_count == 1
        assert stats.n_trials == 4

    def test_win_frequency_excludes_undecided(self):
        records = [
            TrialRecord(tau=1, winner="A", stream_id=0),
            TrialRecord(tau=1, winner="B", stream_id=1),
            TrialRecord(tau=1, winner="Truncated", stream_id=2),
        ]
        assert win_frequency(records) == 0.5

    def test_tally_classes_each_record_once(self):
        records = [
            TrialRecord(tau=t, winner=w, stream_id=i) for i, (t, w) in
            enumerate([(4, "B"), (7, "Draw"), (2, "A"), (9, "Truncated"),
                       (5, "A"), (3, "Draw")])
        ]
        assert tally(records) == ([4, 2, 5], 2, 2, 1)
        assert tally(iter(records)) == tally(records)
        assert tally([]) == ([], 0, 0, 0)

    def test_win_frequency_needs_a_decided_game(self):
        with pytest.raises(ValueError, match="no decided games"):
            win_frequency([TrialRecord(tau=3, winner="Draw", stream_id=0)])


class TestHistogram:
    def test_constant_sample_single_occupied_bin(self):
        hist = histogram([5, 5, 5, 5], bin_count=4)
        assert sum(hist.counts) == 4
        assert sum(1 for c in hist.counts if c > 0) == 1

    def test_counts_conserve_sample(self):
        samples = list(range(1000))
        hist = histogram(samples, bin_count=13)
        assert sum(hist.counts) == len(samples)

    def test_edges_strictly_increasing(self):
        hist = histogram([1, 1, 1], bin_count=3)
        assert all(
            lo < hi for lo, hi in zip(hist.bin_edges, hist.bin_edges[1:])
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([], 3)
        with pytest.raises(ValueError):
            histogram([1.0], 0)


class TestFairnessTest:
    def test_fair_coin_passes(self):
        import random

        rnd = random.Random(5)
        incs = [1 if rnd.random() < 0.5 else -1 for _ in range(20000)]
        chi2, p = fairness_test(incs)
        assert p >= 0.001

    def test_biased_coin_rejected(self):
        import random

        rnd = random.Random(6)
        incs = [1 if rnd.random() < 0.56 else -1 for _ in range(20000)]
        _, p = fairness_test(incs)
        assert p < 0.001

    def test_grouped_detects_conditional_bias(self):
        """Globally balanced but biased within each group: the pooled test
        passes, the grouped test rejects."""
        incs = [1] * 500 + [-1] * 500
        groups = [0] * 500 + [1] * 500
        _, p_pooled = fairness_test(incs)
        assert p_pooled >= 0.001
        _, p_grouped = fairness_test(incs, grouped_by_size=groups)
        assert p_grouped < 0.001

    def test_insufficient_data_rejected(self):
        with pytest.raises(ValueError):
            fairness_test([1, -1] * 10)
        with pytest.raises(ValueError):
            fairness_test([1] * 150 + [-1] * 50, [0] * 150 + [1] * 50)

    def test_non_unit_increment_rejected(self):
        with pytest.raises(ValueError):
            fairness_test([1, -1, 2] * 50)


class TestRunTrials:
    CFG = PwarConfig(deck=(6, 1), rule="coin")

    def test_ordered_by_trial_index(self):
        records = run_trials(self.CFG, 50, seed=3)
        assert [r.stream_id for r in records] == list(range(50))

    def test_identical_across_worker_counts(self):
        serial = run_trials(self.CFG, 200, seed=3)
        for workers in (2, 3, 4, 5):
            parallel = run_trials(self.CFG, 200, seed=3, workers=workers)
            assert serial == parallel, workers

    def test_stream_base_offsets_ids(self):
        records = run_trials(self.CFG, 10, seed=3, stream_base=100)
        assert [r.stream_id for r in records] == list(
            range(100, 110)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            run_trials(self.CFG, 0, seed=1)

    @pytest.mark.parametrize("cfg", [
        PwarConfig(deck=(6, 1), rule="bradley-terry", strength="shifted"),
        FwarConfig(n=6, strength="shifted", deal="iid"),
    ], ids=["pwar", "fwar"])
    def test_config_built_once(self, cfg, monkeypatch):
        """All trials of one config share one deck and rule/strength."""
        calls = Counter()

        def counting(name):
            inner = getattr(rules, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in ("rule_by_name", "strength_builtin"):
            monkeypatch.setattr(rules, name, counting(name))
        built.cache_clear()
        records = run_trials(cfg, 100, seed=2)
        assert len(records) == 100
        expected = {"strength_builtin": 1}
        if isinstance(cfg, PwarConfig):
            expected["rule_by_name"] = 1
        assert calls == expected
        with pytest.raises(ValueError):
            run_trials(self.CFG, 5, seed=1, workers=0)

    def test_ci_coverage_against_oracle(self):
        """The 95% CI contains the exact mean in at least 90 of 100
        seeded batches (coin rule on deck 8, uniform half split)."""
        expect, _ = srw_oracle(8, 4)
        cfg = PwarConfig(deck=(8, 1), rule="coin")
        hits = 0
        batch = 1500
        for b in range(100):
            records = run_trials(cfg, batch, seed=1000 + b,
                                 stream_base=b * batch)
            stats = summarize([r.tau for r in records])
            hits += stats.ci95[0] <= expect <= stats.ci95[1]
        assert hits >= 90, f"coverage {hits}/100"


class _TrialFailed(Exception):
    pass


class _FailsAt:
    """Coin-rule trials on 6 cards, except that stream id ``bad`` raises."""

    def __init__(self, bad):
        self.bad = bad

    def run_trial(self, seed, stream_id):
        if stream_id == self.bad:
            raise _TrialFailed(f"stream {stream_id} failed")
        return TestRunTrials.CFG.run_trial(seed, stream_id)


class TestFanOut:
    """``run_trials`` with several workers: shares after the first run in
    forked children, the first in the calling process."""

    @pytest.mark.parametrize("bad", [15, 3], ids=["child", "caller"])
    def test_exception_reraised_with_type_and_message(self, bad):
        # Two workers cut 20 trials into shares 0..9 and 10..19.
        with pytest.raises(_TrialFailed) as serial:
            run_trials(_FailsAt(bad), 20, seed=1)
        with pytest.raises(_TrialFailed) as parallel:
            run_trials(_FailsAt(bad), 20, seed=1, workers=2)
        assert str(parallel.value) == str(serial.value) == (
            f"stream {bad} failed")

    @pytest.mark.parametrize("bad", [None, 3, 10, 17])
    def test_every_child_reaped(self, bad, monkeypatch):
        forked = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        try:
            records = run_trials(_FailsAt(bad), 20, seed=1, workers=3)
        except _TrialFailed:
            assert bad is not None
        else:
            assert bad is None and len(records) == 20
        assert len(forked) == 2
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_output_beyond_a_pipe_buffer(self):
        cfg = PwarConfig(deck=(52, 1), rule="coin", record_trace=True)
        serial = run_trials(cfg, 100, seed=4)
        assert len(pickle.dumps(serial[50:])) > 64 * 1024
        assert run_trials(cfg, 100, seed=4, workers=2) == serial


def _per_trial(cfg, n_trials, seed, stream_base=0):
    """The reference for a batch: one ``run_trial`` call per trial."""
    return [cfg.run_trial(seed, stream_base + i) for i in range(n_trials)]


def _outcome(fn):
    """The ``repr`` of ``fn()``'s records, exact for floats, or the type
    and message of the ``ValueError`` it raised."""
    try:
        return repr(fn())
    except ValueError as err:
        return type(err), str(err)


#: (rule, strength) pairs: with ``constant`` strength Bradley-Terry plays
#: the walk, with ``identity`` the play loop.
_PWAR_RULES = (("coin", None), ("greater-tiecoin", None), ("powered", None),
               ("max-holder", None), ("bradley-terry", "constant"),
               ("bradley-terry", "identity"))


@st.composite
def _configs(draw):
    """A random-draw or top-card config over every path a batch takes."""
    max_rounds = draw(st.sampled_from([DEFAULT_MAX_ROUNDS, 0, 1, 3]))
    record_trace = draw(st.booleans())
    if draw(st.booleans()):
        rule, strength = draw(st.sampled_from(_PWAR_RULES))
        # max-holder needs distinct ranks.
        copies = 1 if rule == "max-holder" else draw(st.integers(1, 2))
        d = draw(st.integers(1, 8 // copies)) * copies
        size_a = draw(st.sampled_from([None, 0, d, max(1, d // 3)]))
        return PwarConfig(deck=(d // copies, copies), rule=rule,
                          size_a=size_a, strength=strength,
                          max_rounds=max_rounds, record_trace=record_trace)
    n = draw(st.integers(1, 7))
    return FwarConfig(
        n=n, strength=draw(st.sampled_from(["identity", "shifted"])),
        deal=draw(st.sampled_from(DEALS)),
        size_a=draw(st.sampled_from([None, 0, n, max(1, n // 3)])),
        return_order=draw(st.sampled_from(RETURN_ORDERS)),
        max_rounds=max_rounds, record_trace=record_trace)


class TestBatchMatchesPerTrial:
    """``PwarConfig`` and ``FwarConfig`` run each share as one
    ``run_chunk`` call; its records must equal the per-trial reference's
    field for field."""

    @given(cfg=_configs(), n_trials=st.integers(1, 12),
           seed=st.integers(-2**40, 2**40),
           stream_base=st.integers(-100, 10**6),
           workers=st.sampled_from([1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_records_identical(self, cfg, n_trials, seed, stream_base,
                               workers):
        want = _outcome(lambda: _per_trial(cfg, n_trials, seed, stream_base))
        got = _outcome(lambda: run_trials(cfg, n_trials, seed, workers,
                                          stream_base))
        assert got == want
        assert isinstance(got, str), got

    @pytest.mark.parametrize("cfg", [
        PwarConfig(deck=(8, 1), rule="coin", size_a=4),
        FwarConfig(n=8, strength="shifted", deal="iid"),
    ], ids=["pwar", "fwar"])
    def test_run_trials_takes_the_batch(self, cfg, monkeypatch):
        want = _per_trial(cfg, 30, 5)

        def no_trial(self, seed, stream_id):
            raise AssertionError("run_trial called")

        monkeypatch.setattr(type(cfg), "run_trial", no_trial)
        assert run_trials(cfg, 30, 5) == want


def _const_walk(a, b, s, deck):
    return 1.5


def _overshoot(a, b, s, deck):
    return 1.5 if a.rank > b.rank else -0.5


@dataclass(frozen=True)
class _RuleConfig(PwarConfig):
    """A random-draw recipe with a custom rule in place of a named one."""

    make_rule: Callable = None

    def build(self):
        return build_deck(self.deck), self.make_rule()


def _rule(name, ev, reads):
    return lambda: WinningRule(name=name, eval=ev, reads=reads)


#: Configs that raise in every trial, or in some, with their message.
_FAILING = {
    "size_a-above": (PwarConfig(deck=(6, 1), size_a=7),
                     "size_a must lie in [0, 6], got 7"),
    "size_a-negative": (PwarConfig(deck=(6, 1), rule="powered", size_a=-1),
                        "size_a must lie in [0, 6], got -1"),
    "fwar-size_a": (FwarConfig(n=5, deal="uniform", size_a=9),
                    "size_a must lie in [0, 5], got 9"),
    "walk-p": (_RuleConfig(deck=(6, 1), size_a=2,
                           make_rule=_rule("walk", _const_walk, "cards")),
               "rule 'walk' gives p = 1.5 to card 0 against card 1 at hand "
               "size 2, outside [0, 1]"),
    "table-p": (_RuleConfig(deck=(6, 1),
                            make_rule=_rule("over", _overshoot, "cards")),
                "rule 'over' gives p = "),
    "hand-p": (_RuleConfig(deck=(6, 1),
                           make_rule=_rule("over", _overshoot, "hand")),
               "rule 'over' gives p = "),
    "unknown-deal": (FwarConfig(n=4, deal="mystery"),
                     "unknown deal 'mystery'; valid: "),
    "return-order": (FwarConfig(n=4, return_order="sideways"),
                     "return_order must be one of "),
}


class TestBatchErrors:
    """A batch raises what its first failing trial raises."""

    @pytest.mark.parametrize("name", sorted(_FAILING))
    def test_same_type_and_message(self, name):
        cfg, message = _FAILING[name]
        with pytest.raises(ValueError, match=re.escape(message)) as single:
            _per_trial(cfg, 20, 3)
        for run in (lambda: cfg.run_chunk(3, 0, 20),
                    lambda: run_trials(cfg, 20, 3),
                    lambda: run_trials(cfg, 20, 3, workers=2)):
            with pytest.raises(ValueError) as batch:
                run()
            assert type(batch.value) is type(single.value)
            assert str(batch.value) == str(single.value)


class _PerTrialOnly:
    """A config with ``run_trial`` alone, counting its calls."""

    def __init__(self, config):
        self.config = config
        self.calls = 0

    def run_trial(self, seed, stream_id):
        self.calls += 1
        return self.config.run_trial(seed, stream_id)


class TestPerTrialFallback:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_config_without_run_chunk(self, workers):
        cfg = FwarConfig(n=6, deal="iid")
        only = _PerTrialOnly(cfg)
        records = run_trials(only, 25, 4, workers=workers, stream_base=7)
        assert records == run_trials(cfg, 25, 4, stream_base=7)
        lo, hi = _shares(7, 32, workers)[0]
        assert only.calls == hi - lo


class TestMathOnlyTails:
    """Clopper-Pearson bounds and chi-square tails from ``math`` alone."""

    CASES = [(n, wins) for n in (1, 2, 7, 60, 211, 1000, 20000)
             for wins in sorted({0, 1, n // 3, n // 2, n - 1, n})]

    def test_clopper_pearson_matches_scipy(self):
        beta = pytest.importorskip("scipy.stats").beta
        for n, wins in self.CASES:
            for alpha in (0.05, 0.01):
                lo, hi = clopper_pearson(wins, n, alpha)
                if wins:
                    want = beta.ppf(alpha / 2, wins, n - wins + 1)
                    assert lo == pytest.approx(want, rel=1e-10, abs=0)
                if wins < n:
                    want = beta.ppf(1 - alpha / 2, wins + 1, n - wins)
                    assert hi == pytest.approx(want, rel=1e-10, abs=0)

    def test_chi2_sf_matches_scipy(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        for df in list(range(1, 41)) + [99, 250]:
            for x in (1e-6, 0.01, 0.5, 1.0, 3.84, 10.0, 60.0, 300.0,
                      1200.0):
                want = chi2.sf(x, df)
                assert chi2_sf(x, df) == pytest.approx(want, rel=1e-12,
                                                       abs=0), (x, df)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 100_000), data=st.data(),
           alpha=st.floats(1e-9, 0.5))
    def test_clopper_pearson_returns_on_any_input(self, n, data, alpha):
        wins = data.draw(st.integers(0, n))
        lo, hi = clopper_pearson(wins, n, alpha)
        assert 0.0 <= lo <= wins / n <= hi <= 1.0

    def test_edges(self):
        assert clopper_pearson(0, 0) == (0.0, 1.0)
        assert clopper_pearson(0, 10)[0] == 0.0
        assert clopper_pearson(10, 10)[1] == 1.0
        # Zero successes: the upper bound solves (1 - hi)^n = alpha / 2.
        assert clopper_pearson(0, 10)[1] == pytest.approx(
            1 - 0.025 ** 0.1, rel=1e-13)
        for x in (0.0, -1.0):
            assert chi2_sf(x, 3) == 1.0
        # One degree of freedom is the square of a standard normal.
        assert chi2_sf(3.8414588206941254, 1) == pytest.approx(0.05,
                                                               rel=1e-13)
        with pytest.raises(ValueError):
            clopper_pearson(3, 2)
        for df in (0, 1.5):
            with pytest.raises(ValueError):
                chi2_sf(1.0, df)


def _numpy_summarize(samples, truncated_count=0, draw_count=0):
    """The reference summary: ``summarize`` as it was computed with numpy,
    its median from ``np.median`` and its max from ``ndarray.max``."""
    n = len(samples)
    mean = math.fsum(samples) / n
    if n > 1:
        std = math.sqrt(math.fsum((x - mean) ** 2 for x in samples) / (n - 1))
    else:
        std = 0.0
    sem = std / math.sqrt(n)
    arr = np.asarray(samples, dtype=float)
    z95 = 1.959963984540054
    return SampleStats(
        n_trials=n + truncated_count + draw_count,
        mean=mean,
        median=float(np.median(arr)),
        max=float(arr.max()),
        std=std,
        ci95=(mean - z95 * sem, mean + z95 * sem),
        truncated_count=truncated_count,
        draw_count=draw_count,
    )


#: Sample values: round counts are ints; finite floats are bounded so that
#: squared deviations stay finite.
_SAMPLE_VALUES = {
    "int": st.integers(-10**9, 10**9),
    "float": st.floats(-1e100, 1e100, allow_nan=False),
}


class TestNumpyFreeSummaries:
    @pytest.mark.parametrize("kind", sorted(_SAMPLE_VALUES))
    @pytest.mark.parametrize("parity", [1, 0], ids=["odd", "even"])
    @given(data=st.data())
    @settings(max_examples=100)
    def test_summarize_equals_numpy_reference(self, kind, parity, data):
        size = 2 * data.draw(st.integers(1 - parity, 30)) + parity
        samples = data.draw(st.lists(_SAMPLE_VALUES[kind], min_size=size,
                                     max_size=size))
        truncated = data.draw(st.integers(0, 5))
        draws = data.draw(st.integers(0, 5))
        got = summarize(samples, truncated, draws)
        want = _numpy_summarize(samples, truncated, draws)
        for field in fields(SampleStats):
            assert getattr(got, field.name) == getattr(want, field.name), (
                field.name)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_chunks_partition_trials(self, workers):
        """The shares are non-empty, ascending and cover [lo, hi)."""
        for n_trials in range(1, 41):
            shares = _shares(5, 5 + n_trials, workers)
            assert len(shares) == min(workers, n_trials)
            starts = [lo for lo, _ in shares]
            ends = [hi for _, hi in shares]
            assert starts[0] == 5 and ends[-1] == 5 + n_trials
            assert starts[1:] == ends[:-1]
            assert all(lo < hi for lo, hi in shares)

    def test_records_equal_for_one_two_three_workers(self):
        cfg = PwarConfig(deck=(6, 1), rule="coin")
        for n_trials in range(1, 41):
            serial = run_trials(cfg, n_trials, seed=9)
            for workers in (2, 3):
                assert run_trials(cfg, n_trials, seed=9,
                                  workers=workers) == serial, (
                    n_trials, workers)


class TestEmitters:
    def test_stats_csv_round_trip(self, tmp_path):
        stats = summarize([1, 2, 3, 4])
        meta = run_metadata(seed=9, n_trials=4)
        path = str(tmp_path / "stats.csv")
        write_table_csv(path, ["n_trials", "mean"],
                        [[stats.n_trials, stats.mean]], metadata=meta)
        got_meta, rows = read_csv_with_metadata(path)
        assert got_meta["seed"] == 9
        assert got_meta["rng_algorithm"].startswith("mt19937")
        header, values = rows
        record = dict(zip(header, values))
        assert float(record["mean"]) == stats.mean
        assert int(record["n_trials"]) == 4

    def test_histogram_csv(self, tmp_path):
        hist = histogram([1, 2, 2, 3], 3)
        path = str(tmp_path / "hist.csv")
        edges = hist.bin_edges
        write_table_csv(path, ["bin_lo", "bin_hi", "count"],
                        zip(edges, edges[1:], hist.counts),
                        metadata={"seed": 0})
        got_meta, rows = read_csv_with_metadata(path)
        assert got_meta == {"seed": 0}
        assert rows[0] == ["bin_lo", "bin_hi", "count"]
        assert sum(int(r[2]) for r in rows[1:]) == 4

    def test_table_csv_newline_terminated(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        text = open(path).read()
        assert text.endswith("\n")
        assert text.splitlines() == ["a,b", "1,2", "3,4"]

    def test_csv_without_metadata_line(self, tmp_path):
        """A CSV with no leading '# ' line reads as no metadata, its first
        line kept as the header."""
        path = str(tmp_path / "t.csv")
        write_table_csv(path, ["a", "b"], [[1, 2]])
        assert read_csv_with_metadata(path) == (None, [["a", "b"],
                                                       ["1", "2"]])

    def test_json_payload(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json(path, {"metadata": run_metadata(seed=4), "x": [1, 2]})
        payload = json.loads(open(path).read())
        assert payload["metadata"]["seed"] == 4
        assert payload["x"] == [1, 2]

    def test_metadata_echoes_config(self):
        cfg = PwarConfig(deck=(6, 1), rule="coin")
        meta = run_metadata(config=cfg, seed=1, n_trials=10, workers=2)
        assert meta["config"]["rule"] == "coin"
        assert meta["config"]["deck"] == (6, 1)
        assert meta["workers"] == 2


class TestHistogramData:
    def test_fields(self):
        h = HistogramData(bin_edges=(0.0, 1.0), counts=(3,))
        assert h.counts[0] == 3
