"""Tests for the Monte Carlo harness, summaries, fairness test, emitters."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warlab import rules
from warlab.core import TrialRecord, built
from warlab.exact import srw_oracle
from warlab.fwar import FwarConfig
from warlab.pwar import PwarConfig
from warlab.stats import (
    HistogramData,
    fairness_test,
    histogram,
    run_metadata,
    read_csv_with_metadata,
    run_trials,
    summarize,
    summarize_records,
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
        parallel = run_trials(self.CFG, 200, seed=3, workers=4)
        assert serial == parallel

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
