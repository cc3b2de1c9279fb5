"""Tests for the command-line front end."""

import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import warlab
from warlab import cli, exact, reproduce
from warlab.cli import main
from warlab.reproduce import scaling_target
from warlab.rules import strength_builtin
from warlab.stats import read_csv_with_metadata


class TestSimulate:
    def test_writes_json_with_metadata(self, tmp_path):
        out = str(tmp_path / "run.json")
        rc = main([
            "simulate", "--game", "pwar", "--rule", "coin",
            "--deck", "8x1", "--trials", "500", "--seed", "11",
            "--format", "json", "--out", out,
        ])
        assert rc == 0
        payload = json.loads(open(out).read())
        assert payload["metadata"]["seed"] == 11
        assert payload["metadata"]["config"]["rule"] == "coin"
        assert payload["stats"]["n_trials"] == 500

    def test_writes_csv_and_histogram(self, tmp_path):
        out = str(tmp_path / "run.csv")
        rc = main([
            "simulate", "--game", "classic", "--deck", "13x4",
            "--tie", "coin", "--trials", "300", "--seed", "2",
            "--out", out, "--bins", "10",
        ])
        assert rc == 0
        meta, rows = read_csv_with_metadata(out)
        assert meta["config"]["tie"] == "coin_flip"
        hist_meta, hist_rows = read_csv_with_metadata(out + ".hist.csv")
        assert hist_rows[0] == ["bin_lo", "bin_hi", "count"]
        assert sum(int(r[2]) for r in hist_rows[1:]) == 300

    def test_csv_row_is_json_stats(self, tmp_path):
        """One run written as CSV and as JSON carries the same content:
        the stats CSV row is the JSON ``stats`` object (``win_freq_a``
        included, floats as ``repr``), each ``.hist.csv`` row is one bin
        of the JSON histogram, and both CSV comment lines hold the JSON
        metadata."""
        argv = ["simulate", "--game", "pwar", "--rule", "coin", "--deck",
                "8x1", "--trials", "300", "--seed", "3", "--bins", "5"]
        csv_out, json_out = str(tmp_path / "r.csv"), tmp_path / "r.json"
        assert main([*argv, "--out", csv_out]) == 0
        assert main([*argv, "--format", "json", "--out", str(json_out)]) == 0
        payload = json.loads(json_out.read_text())
        meta, (header, values) = read_csv_with_metadata(csv_out)
        assert meta == payload["metadata"]
        assert meta["seed"] == 3
        assert meta["rng_algorithm"].startswith("mt19937")
        assert header == ["n_trials", "mean", "median", "max", "std",
                          "ci95_lo", "ci95_hi", "truncated_count",
                          "draw_count", "win_freq_a"]
        stats = payload["stats"]
        assert dict(zip(header, values)) == {
            k: repr(v) for k, v in stats.items()}
        assert stats["n_trials"] == 300
        hist_meta, hist_rows = read_csv_with_metadata(csv_out + ".hist.csv")
        assert hist_meta == payload["metadata"]
        assert hist_rows[0] == ["bin_lo", "bin_hi", "count"]
        edges = payload["histogram"]["bin_edges"]
        counts = payload["histogram"]["counts"]
        assert hist_rows[1:] == [[repr(lo), repr(hi), repr(c)] for lo, hi, c
                                 in zip(edges, edges[1:], counts)]
        assert sum(counts) == 300

    def test_fwar_strongest_deal(self, tmp_path):
        rc = main([
            "simulate", "--game", "fwar", "--n", "4",
            "--strength", "identity", "--deal", "strongest",
            "--trials", "200", "--seed", "5",
        ])
        assert rc == 0

    def test_zero_trials_rejected(self):
        assert main([
            "simulate", "--game", "pwar", "--deck", "8x1",
            "--trials", "0",
        ]) == 2

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_nonpositive_bins_rejected(self, tmp_path, capsys, bins):
        out = tmp_path / "o.json"
        assert main([
            "simulate", "--game", "pwar", "--deck", "8x1", "--trials", "5",
            "--bins", bins, "--format", "json", "--out", str(out),
        ]) == 2
        assert "bin_count must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_bins_rejected_before_any_trial(self, tmp_path, capsys,
                                                monkeypatch):
        """A bad --bins or --max-rounds stops the run before a trial is
        played, not after the stats line is printed, and is named."""
        played = []
        monkeypatch.setattr(cli, "run_trials",
                            lambda *args, **kwargs: played.append(args))
        out = tmp_path / "o.csv"
        for game, flag, value in [("pwar", "--bins", "0"),
                                  ("pwar", "--max-rounds", "0"),
                                  ("classic", "--max-rounds", "-2")]:
            assert main([
                "simulate", "--game", game, "--deck", "8x1", "--trials", "5",
                flag, value, "--out", str(out),
            ]) == 2
            assert played == []
            captured = capsys.readouterr()
            assert "trials" not in captured.out
            assert flag in captured.err
            assert not out.exists()
            assert not Path(str(out) + ".hist.csv").exists()

    @pytest.mark.parametrize("argv,counts", [
        (["--game", "pwar", "--deck", "52x1", "--max-rounds", "10",
          "--trials", "20"], {"truncated_count": 20, "draw_count": 0}),
        (["--game", "classic", "--deck", "2x1", "--min-hand", "2",
          "--trials", "5"], {"truncated_count": 0, "draw_count": 5}),
    ], ids=["all-truncated", "all-drawn"])
    def test_no_decided_game_reports_counts(self, tmp_path, capsys, argv,
                                            counts):
        """With no decided game simulate still exits 0 and writes its
        counts; the moments and win frequency are null in JSON and empty
        in CSV, and --bins writes no histogram."""
        trials = int(argv[-1])
        csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
        assert main(["simulate", *argv, "--bins", "4",
                     "--out", str(csv_out)]) == 0
        assert main(["simulate", *argv, "--bins", "4", "--format", "json",
                     "--out", str(json_out)]) == 0
        assert "no decided games" in capsys.readouterr().out
        payload = json.loads(json_out.read_text())
        assert "histogram" not in payload
        unset = ["mean", "median", "max", "std", "ci95_lo", "ci95_hi",
                 "win_freq_a"]
        assert payload["stats"] == {"n_trials": trials, **counts,
                                    **dict.fromkeys(unset)}
        _, (header, values) = read_csv_with_metadata(str(csv_out))
        assert dict(zip(header, values)) == {
            "n_trials": str(trials),
            **{k: str(v) for k, v in counts.items()},
            **dict.fromkeys(unset, ""),
        }
        assert not Path(str(csv_out) + ".hist.csv").exists()

    @pytest.mark.parametrize("argv,stats", [
        (["--game", "classic", "--deck", "3x2", "--min-hand", "2",
          "--trials", "200", "--seed", "5"],
         {"n_trials": 200, "mean": 2.7151162790697674, "median": 2.0,
          "max": 10.0, "std": 1.6667380645661733,
          "ci95_lo": 2.4660291876616616, "ci95_hi": 2.964203370477873,
          "truncated_count": 0, "draw_count": 28,
          "win_freq_a": 0.48255813953488375}),
        (["--game", "pwar", "--deck", "8x1", "--rule", "coin",
          "--max-rounds", "5", "--trials", "300", "--seed", "4"],
         {"n_trials": 300, "mean": 4.0, "median": 4.0, "max": 4.0,
          "std": 0.0, "ci95_lo": 4.0, "ci95_hi": 4.0,
          "truncated_count": 270, "draw_count": 0, "win_freq_a": 0.4}),
        (["--game", "pwar", "--deck", "8x1", "--rule", "coin",
          "--max-rounds", "1", "--trials", "20", "--seed", "4"],
         {"n_trials": 20, "mean": None, "median": None, "max": None,
          "std": None, "ci95_lo": None, "ci95_hi": None,
          "truncated_count": 20, "draw_count": 0, "win_freq_a": None}),
    ], ids=["classic-draws", "pwar-truncated", "pwar-undecided"])
    def test_stats_pinned(self, tmp_path, argv, stats):
        """The JSON stats object of runs with draws, with truncated games
        and with no decided game, as the per-winner walks over the
        records before ``stats.tally`` gave it."""
        out = tmp_path / "r.json"
        assert main(["simulate", *argv, "--format", "json",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["stats"] == stats

    @pytest.mark.parametrize("argv", [
        ["simulate", "--game", "fwar", "--n", "4", "--strength",
         "exponential", "--lam", "1000", "--trials", "2"],
        ["simulate", "--game", "fwar", "--n", "4", "--strength",
         "exponential", "--lam", "1000", "--trials", "2", "--workers", "2"],
        ["simulate", "--game", "pwar", "--deck", "3x2", "--rule",
         "bradley-terry", "--strength", "exponential", "--lam", "800",
         "--trials", "2"],
        ["exact", "--game", "pwar", "--deck", "3x2", "--rule",
         "bradley-terry", "--strength", "exponential", "--lam", "800"],
        ["exact", "--game", "fwar", "--n", "4", "--strength", "exponential",
         "--lam", "1000"],
    ], ids=["simulate-fwar", "simulate-fwar-workers", "simulate-pwar",
            "exact-pwar", "exact-fwar"])
    def test_overflowing_strength_clean_error(self, monkeypatch, capsys,
                                              argv):
        """A strength that overflows is an ``error:`` with exit 2, raised
        while the config is built: no trial is played."""
        monkeypatch.setattr(cli, "run_trials", None)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: strength 'exponential' is non-positive or not finite")

    def test_classic_min_hand_below_one_clean_error(self, capsys):
        rc = main([
            "simulate", "--game", "classic", "--deck", "4x1",
            "--min-hand", "0", "--trials", "5",
        ])
        assert rc == 2
        assert "min_hand" in capsys.readouterr().err

    def test_unknown_rule_lists_valid_names(self, capsys):
        rc = main([
            "simulate", "--game", "pwar", "--rule", "bogus",
            "--deck", "8x1", "--trials", "5",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "valid names" in err
        assert "greater-tiecoin" in err


class TestExact:
    def test_pwar_oracle_comparison(self, tmp_path):
        out = str(tmp_path / "solve.csv")
        rc = main([
            "exact", "--game", "pwar", "--rule", "greater-tiecoin",
            "--deck", "8x1", "--uniform-size", "4", "--out", out,
        ])
        assert rc == 0
        meta, rows = read_csv_with_metadata(out)
        assert meta["summary"]["srw_tau"] == 16.0
        assert len(rows) == 1 + 2**8
        assert meta["solve"]["method"] == "gmres"
        assert 0.0 < meta["solve"]["residual"] <= 1e-9
        # 254 non-absorbing states, each with 8 successors.
        assert meta["solve"]["states"] == 2**8
        assert meta["solve"]["transitions"] == 254 * 8

    @pytest.mark.parametrize("argv,states,transitions", [
        (["--game", "pwar", "--deck", "6x1", "--rule", "powered"],
         64, 62 * 6),
        (["--game", "fwar", "--n", "3"], 24, 4 * 12),
    ], ids=["pwar", "fwar"])
    def test_solve_counts_in_csv_and_json(self, tmp_path, argv, states,
                                          transitions):
        csv_out, json_out = tmp_path / "s.csv", tmp_path / "s.json"
        assert main(["exact", *argv, "--out", str(csv_out)]) == 0
        assert main(["exact", *argv, "--format", "json",
                     "--out", str(json_out)]) == 0
        meta, _ = read_csv_with_metadata(str(csv_out))
        assert meta == json.loads(json_out.read_text())["metadata"]
        assert meta["solve"]["states"] == states
        assert meta["solve"]["transitions"] == transitions
        assert meta["solve"]["method"] == "gmres"
        # GMRES ran on both systems, one operator application at least.
        assert meta["solve"]["matvecs"] >= 2
        assert "restarted" not in meta["solve"]

    def test_fwar_strongest_comparison(self):
        rc = main([
            "exact", "--game", "fwar", "--strength", "identity",
            "--n", "3", "--deal", "strongest",
        ])
        assert rc == 0

    def test_fwar_strongest_solves_once(self, monkeypatch, tmp_path):
        """The strongest-deal comparison weights the chain the command
        already solved instead of enumerating and solving it again."""
        calls = Counter()

        def counting(name):
            inner = getattr(exact, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in ("enumerate_fwar", "absorption_solve"):
            monkeypatch.setattr(exact, name, counting(name))
        out = tmp_path / "s.json"
        assert main(["exact", "--game", "fwar", "--n", "5", "--deal",
                     "strongest", "--format", "json", "--out",
                     str(out)]) == 0
        assert calls == {"enumerate_fwar": 1, "absorption_solve": 1}
        summary = json.loads(out.read_text())["summary"]
        expected = exact.strongest_deal_exact_win_prob(
            5, strength_builtin("identity"))
        assert summary["exact_win_prob"] == expected

    def test_same_run_same_bytes_at_any_path(self, tmp_path):
        """The metadata records what was solved, not where it was
        written, so one run written to two paths gives identical files."""
        argv = ["exact", "--game", "pwar", "--deck", "6x1", "--rule",
                "greater", "--uniform-size", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_shifted_strength_defaults_shift_to_n(self, tmp_path):
        base = ["exact", "--game", "fwar", "--n", "3", "--strength",
                "shifted", "--format", "json"]
        default, explicit = tmp_path / "d.json", tmp_path / "e.json"
        assert main(base + ["--out", str(default)]) == 0
        assert main(base + ["--shift", "3", "--out", str(explicit)]) == 0
        rows = json.loads(default.read_text())["states"]
        assert rows == json.loads(explicit.read_text())["states"]
        assert len(rows) == 24

    def test_max_holder_walk_comparison_not_checked(self, capsys):
        """max-holder is not symmetric, so the walk oracle is reported as
        unchecked rather than passed."""
        assert main(["exact", "--game", "pwar", "--rule", "max-holder",
                     "--deck", "6x1", "--uniform-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "max dev 5.33e+00 -> walk comparison not checked" in out
        assert "pass" not in out

    def test_deck_count_means_distinct_ranks(self, tmp_path):
        """--deck 6 is the deck 6x1: the same states and values."""
        outs = []
        for deck in ("6", "6x1"):
            out = tmp_path / f"{deck}.json"
            assert main(["exact", "--game", "pwar", "--deck", deck,
                         "--format", "json", "--out", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        assert outs[0]["states"] == outs[1]["states"]
        assert len(outs[0]["states"]) == 2**6

    def test_deck_rank_list_recorded(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["exact", "--game", "pwar", "--deck", "1,2,3,4",
                     "--rule", "greater", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["config"]["deck"] == "ranks:1,2,3,4"
        assert len(payload["states"]) == 2**4

    @pytest.mark.parametrize("command", [
        ["simulate", "--trials", "3"],
        ["exact", "--rule", "greater"],
    ])
    def test_two_rank_list_rejected(self, command, monkeypatch, capsys):
        """A config reads a pair of ints as (n_ranks, copies), so the rank
        list 5,3 would play a 15-card deck: both commands exit 2 naming
        --deck before any trial or enumeration."""
        def never(*args, **kwargs):
            raise AssertionError("the deck was played")

        monkeypatch.setattr(cli, "run_trials", never)
        monkeypatch.setattr(exact, "enumerate_pwar", never)
        rc = main([command[0], "--game", "pwar", "--deck", "5,3",
                   *command[1:]])
        assert rc == 2
        assert "--deck 5,3" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["99", "-1", "15"])
    def test_uniform_size_checked_before_enumeration(self, size,
                                                     monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the chain was enumerated")

        monkeypatch.setattr(exact, "enumerate_pwar", never)
        assert main(["exact", "--game", "pwar", "--deck", "14x1",
                     "--uniform-size", size]) == 2
        err = capsys.readouterr().err
        assert f"--uniform-size must lie in [0, 14], got {size}" in err

    def test_oversized_deck_clean_error(self, capsys):
        rc = main([
            "exact", "--game", "pwar", "--rule", "coin",
            "--deck", "16x1",
        ])
        assert rc == 2
        assert "limit" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("suite", ["rules", "identity", "martingales"])
    def test_suites_pass(self, suite):
        assert main(["verify", suite]) == 0

    def test_theorem_suite_passes(self):
        assert main(["verify", "theorem"]) == 0

    def test_theorem_suite_checks_every_symmetric_rule(self):
        """One row for each symmetric rule at each deck size."""
        checks = [row["check"] for row in reproduce.theorem_suite()]
        assert sorted(checks) == sorted(
            f"uniformity preserved: {name} on {size}x1"
            for name in reproduce.SYMMETRIC_RULES
            for size in (4, 6, 8, 10, 12))

    def test_rules_suite_skips_rules_that_refuse_tied_ranks(self):
        """Only the rules that raise on tied ranks lack a 3x2 row."""
        checks = [row["check"] for row in reproduce.rules_suite()]
        for name in ("greater", "max-holder"):
            assert f"{name} on 3x2" not in checks
            assert f"{name} on 6x1" in checks
        assert "greater-tiecoin on 3x2" in checks
        assert len(checks) == 3 * len(reproduce.RULE_NAMES) - 2

    def test_rules_suite_asks_the_rule(self, monkeypatch):
        """Whichever rule raises ValueError on tied ranks loses its 3x2
        row, not a list of names."""
        real = reproduce.validate_rule

        def coin_refuses_ties(rule, deck):
            if rule.name == "coin" and deck.has_repeated_ranks:
                raise ValueError("tied ranks")
            return real(rule, deck)

        monkeypatch.setattr(reproduce, "validate_rule", coin_refuses_ties)
        checks = [row["check"] for row in reproduce.rules_suite()]
        assert "coin on 3x2" not in checks
        assert "coin on 4x1" in checks

    @pytest.mark.parametrize("error, tied", [
        (ValueError("deck too large"), False),
        (TypeError("broken rule"), True),
    ])
    def test_rules_suite_raises_other_failures(self, monkeypatch, error,
                                                tied):
        """A ValueError on a distinct-rank deck, or any other exception,
        is not a skip."""
        real = reproduce.validate_rule

        def failing(rule, deck):
            if deck.has_repeated_ranks == tied:
                raise error
            return real(rule, deck)

        monkeypatch.setattr(reproduce, "validate_rule", failing)
        with pytest.raises(type(error), match=str(error)):
            reproduce.rules_suite()

    def test_writes_table(self, tmp_path):
        """The CSV comment line round-trips to the flat run metadata, the
        same object the JSON output stores under "metadata"."""
        out = str(tmp_path / "verify.csv")
        rc = main(["verify", "identity", "--out", out])
        assert rc == 0
        meta, rows = read_csv_with_metadata(out)
        assert rows[0] == ["suite", "check", "deviation", "tolerance",
                           "pass"]
        assert meta["suite"] == "identity"
        assert "metadata" not in meta
        out_json = str(tmp_path / "verify.json")
        rc = main(["verify", "identity", "--format", "json",
                   "--out", out_json])
        assert rc == 0
        assert meta == json.loads(open(out_json).read())["metadata"]


class TestReproduce:
    def test_rounds_small(self, tmp_path, capsys):
        """All nine comparisons pass at 4000 trials with this seed; the
        statistical windows are wide enough that this is not marginal."""
        out = str(tmp_path / "rounds.csv")
        rc = main([
            "reproduce", "rounds", "--trials", "4000", "--seed", "13",
            "--workers", "2", "--out", out,
        ])
        assert rc == 0
        assert ("checked against its exact value 676 (a fair walk from 26 "
                "of 52 cards); the reference table's 625 matches"
                in capsys.readouterr().out)
        meta, rows = read_csv_with_metadata(out)
        assert meta["target"] == "rounds"
        assert meta["trials"] == 4000
        assert meta["min_hand"] == 2
        header = rows[0]
        reference = {}
        for r in rows[1:]:
            row = dict(zip(header, r))
            reference[row["model"], row["metric"]] = float(row["reference"])
        assert reference == {
            ("war_ties", "mean"): 397, ("war_ties", "median"): 302,
            ("war_ties", "max"): 3752,
            ("coin_ties", "mean"): 628, ("coin_ties", "max"): 5510,
            ("random_draw", "mean"): 625, ("random_draw", "max"): 5900,
            ("distinct", "mean"): 624, ("distinct", "max"): 8026,
        }

    def test_scaling_small(self, tmp_path):
        out = str(tmp_path / "scaling.json")
        rc = main([
            "reproduce", "scaling", "--trials", "1500",
            "--seed", "7", "--format", "json", "--out", out,
        ])
        assert rc == 0
        payload = json.loads(open(out).read())
        assert payload["metadata"]["trials"] == 1500
        rows = payload["comparisons"]
        ratios = [
            r for r in rows if r["metric"] == "mean_tau ratio per doubling"
        ]
        assert len(ratios) == 2
        assert all(r["pass"] for r in rows)

    def test_scaling_zero_mean_has_no_ratio(self, tmp_path):
        """Seed 90's one n=8 game is dealt an empty hand, so that size's
        mean is 0: its ratio row fails with no ratio, null in JSON."""
        rows = scaling_target(1, 90, 1)
        assert rows[0]["artifact"] == 0.0
        first, second = [r for r in rows
                         if r["metric"] == "mean_tau ratio per doubling"]
        assert first["artifact"] is None and first["pass"] is False
        assert second["artifact"] == round(96.0 / 89.0, 3)
        out = tmp_path / "s.json"
        assert main(["reproduce", "scaling", "--trials", "1", "--seed", "90",
                     "--format", "json", "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["comparisons"][6]["artifact"] is None

    @pytest.mark.parametrize("target", ["rounds", "aces", "scaling"])
    def test_zero_trials_rejected(self, capsys, target):
        assert main(["reproduce", target, "--trials", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: --trials must be at least 1\n")

    def test_aces_table_alias(self, tmp_path):
        """aces at small trials still checks the structural rows."""
        out = str(tmp_path / "aces.csv")
        rc = main([
            "reproduce", "aces", "--trials", "250",
            "--seed", "9", "--out", out,
        ])
        # tolerance rows may miss at 250 trials/cell; the structural rows
        # must still be exact and the table must be written
        meta, rows = read_csv_with_metadata(out)
        assert meta["target"] == "aces"
        assert meta["trials"] == 250
        header = rows[0]
        byname = [dict(zip(header, r)) for r in rows[1:]]
        for model, reference in (
            ("war_round", [0.108, 0.293, 0.500, 0.706, 0.892]),
            ("coin_flip", [0.000, 0.243, 0.500, 0.757, 1.000]),
        ):
            assert [float(r["reference"]) for r in byname
                    if r["model"] == model] == reference
        coin_rows = [r for r in byname if r["model"] == "coin_flip"]
        assert coin_rows[0]["artifact"] == "0.0"
        assert coin_rows[4]["artifact"] == "1.0"
        assert coin_rows[0]["pass"] == "True"
        assert coin_rows[4]["pass"] == "True"

    def test_aces_table_spelling_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "aces-table", "--trials", "5"])
        assert exc.value.code == 2
        assert "invalid choice: 'aces-table'" in capsys.readouterr().err


class TestDeckSpec:
    @pytest.mark.parametrize("text,spec", [
        ("13x4", (13, 4)), (" 52 ", (52, 1)), ("1,2,3", (1, 2, 3)),
    ])
    def test_forms(self, text, spec):
        assert cli._parse_deck(text) == spec

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("deck", ["x", "3x", "13x4x2", "1,,2"])
    def test_malformed_deck_names_flag_and_forms(self, tmp_path, capsys,
                                                 deck, via):
        """A malformed deck, as a flag or as a config value, exits 2
        naming --deck and the three accepted forms."""
        argv = ["simulate", "--game", "pwar", "--trials", "3"]
        if via == "flag":
            argv += ["--deck", deck]
        else:
            cfg = tmp_path / "conf.json"
            cfg.write_text(json.dumps({"deck": deck}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert (f"error: --deck {deck}: expected NxM, N, or three or more "
                f"comma-separated ranks") in capsys.readouterr().err


class TestOutputTables:
    @pytest.mark.parametrize("argv,key", [
        (["exact", "--game", "pwar", "--deck", "4x1"], "states"),
        (["verify", "identity"], "checks"),
        (["reproduce", "scaling", "--trials", "5", "--seed", "3"],
         "comparisons"),
        (["simulate", "--game", "pwar", "--deck", "8x1", "--trials", "50"],
         "stats"),
    ], ids=["exact", "verify", "reproduce", "simulate"])
    def test_csv_table_is_json_rows(self, tmp_path, argv, key):
        """The CSV header is the key list of the JSON rows (written with
        sorted keys), and each CSV row holds that JSON row's values as
        ``csv.writer`` writes them."""
        csv_out, json_out = tmp_path / "o.csv", tmp_path / "o.json"
        rc = main([*argv, "--out", str(csv_out)])
        assert main([*argv, "--format", "json", "--out", str(json_out)]) == rc
        rows = json.loads(json_out.read_text())[key]
        rows = [rows] if isinstance(rows, dict) else rows
        _, body = csv_out.read_text().split("\n", 1)
        header = next(csv.reader(io.StringIO(body)))
        assert len(set(header)) == len(header)
        assert {frozenset(row) for row in rows} == {frozenset(header)}
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([row[col] for col in header] for row in rows)
        assert body == expected.getvalue()


class TestConfigFile:
    def test_file_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"trials": 123, "seed": 4}))
        out = str(tmp_path / "o.json")
        rc = main([
            "simulate", "--game", "pwar", "--deck", "6x1",
            "--config", str(cfg), "--seed", "9", "--format", "json",
            "--out", out,
        ])
        assert rc == 0
        payload = json.loads(open(out).read())
        assert payload["metadata"]["n_trials"] == 123  # from file
        assert payload["metadata"]["seed"] == 9  # flag wins

    def test_unread_parameter_not_recorded(self, tmp_path):
        """A config value of the parameter another strength family takes
        is ignored, and the run's config does not record it."""
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"shift": 5, "lam": 2.0}))
        out = str(tmp_path / "o.json")
        assert main(["simulate", "--game", "fwar", "--n", "4", "--trials",
                     "5", "--config", str(cfg), "--format", "json",
                     "--out", out]) == 0
        config = json.loads(open(out).read())["metadata"]["config"]
        assert (config["strength"], config["strength_param"]) == (
            "identity", None)

    @pytest.mark.parametrize("argv,values,key", [
        (["verify", "identity"], {"format": "xml", "trials": 5}, "format"),
        (["simulate", "--game", "classic", "--trials", "5"],
         {"tie": "bogus"}, "tie"),
        (["simulate", "--game", "pwar", "--trials", "5"],
         {"trials": 1.5}, "trials"),
    ], ids=["choices", "tie", "type"])
    def test_values_checked_like_flags(self, tmp_path, capsys, argv, values,
                                       key):
        """A config value passes the option's type and choices, as the
        flag would; a key of another subcommand (here ``trials`` for
        verify) is still accepted."""
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "o"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"speed": 1}))
        assert main([
            "simulate", "--game", "pwar", "--deck", "6x1",
            "--config", str(cfg),
        ]) == 2


class TestGameOptions:
    @pytest.mark.parametrize("argv,flag,by", [
        (["exact", "--game", "fwar", "--n", "3", "--uniform-size", "2"],
         "--uniform-size", "--game fwar"),
        (["exact", "--game", "pwar", "--deck", "4x1", "--deal",
          "strongest"], "--deal", "--game pwar"),
        (["simulate", "--game", "classic", "--rule", "bogus", "--deck",
          "4x1", "--trials", "5"], "--rule", "--game classic"),
        (["simulate", "--game", "pwar", "--rule", "coin", "--deck", "8x1",
          "--strength", "exponential", "--lam", "2", "--trials", "50"],
         "--strength", "--rule coin"),
        (["exact", "--game", "fwar", "--n", "3", "--strength", "shifted",
          "--lam", "9"], "--lam", "--strength shifted"),
        (["simulate", "--game", "fwar", "--n", "4", "--deal", "iid",
          "--split", "2", "--trials", "5"], "--split", "--deal iid"),
        (["simulate", "--game", "classic", "--deck", "4x1", "--tie", "coin",
          "--face-down", "3", "--trials", "5"], "--face-down", "--tie coin"),
        (["exact", "--game", "fwar", "--n", "3", "--strength",
          "exponential", "--lam", "1", "--shift", "2"], "--shift",
         "--strength exponential"),
        (["exact", "--game", "pwar", "--deck", "4x1", "--rule",
          "bradley-terry", "--strength", "identity", "--shift", "2"],
         "--shift", "--strength identity"),
        (["simulate", "--game", "fwar", "--n", "4", "--strength",
          "constant", "--lam", "0.5", "--trials", "5"], "--lam",
         "--strength constant"),
    ], ids=["exact-fwar", "exact-pwar", "simulate-classic",
            "simulate-pwar-strength", "exact-fwar-lam", "simulate-fwar-split",
            "simulate-classic-face-down", "exact-fwar-shift-exponential",
            "exact-pwar-shift-identity", "simulate-fwar-lam-constant"])
    def test_unread_flag_rejected(self, tmp_path, capsys, argv, flag, by):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} is not read by {by}\n")
        assert not out.exists()

    def test_config_values_of_other_games_accepted(self, tmp_path):
        """A config file may hold settings of several games; each run
        reads those of its own game."""
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"n": 4, "rule": "greater", "tie": "coin",
                                   "deal": "strongest"}))
        for argv in (["simulate", "--game", "classic", "--deck", "4x1",
                      "--trials", "5"],
                     ["exact", "--game", "pwar", "--deck", "4x1"]):
            assert main([*argv, "--config", str(cfg)]) == 0


def _child(*args):
    """Runs a fresh interpreter from a checkout: the child finds the
    package under test through PYTHONPATH, as pytest's own ``pythonpath``
    is not inherited."""
    src = str(Path(warlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


class TestEntryPoints:
    def test_module_help(self):
        proc = _child("-m", "warlab", "--help")
        assert proc.returncode == 0
        for sub in ("simulate", "exact", "verify", "reproduce"):
            assert sub in proc.stdout

    def test_import_leaves_scipy_sparse_unloaded(self):
        """Neither ``import warlab`` nor a GMRES solve loads any scipy
        module."""
        proc = _child("-c", (
            "import sys, warlab; "
            "loaded = lambda: any(m.split('.')[0] == 'scipy' "
            "for m in sys.modules); print(loaded()); "
            "from warlab.core import build_deck; "
            "from warlab.rules import rule_coin; "
            "r = warlab.exact.absorption_solve(warlab.exact.enumerate_pwar("
            "build_deck((4, 1)), rule_coin())); "
            "print(r.method, loaded())"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "gmres", "False"]

    def test_unseeded_commands_take_no_workers(self):
        """exact and verify draw no randomness, so they take neither
        --seed nor --workers."""
        assert main(["verify", "identity"]) == 0
        assert main(["exact", "--game", "pwar", "--deck", "4x1"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--game", "pwar", "--deck", "4x1", "--seed", "5"])
        assert exc.value.code == 2


#: The names ``warlab`` takes from ``warlab.exact``.
_EXACT_NAMES = (
    "AbsorptionError", "SolveResult", "StateSpace", "absorption_solve",
    "average_uniform_hands", "counting_identity", "enumerate_fwar",
    "enumerate_pwar", "srw_oracle", "strongest_deal_exact_win_prob",
    "verify_martingales", "verify_uniform_preservation",
)


class TestLazyImports:
    """``import warlab``, ``import warlab.exact`` and the Monte Carlo
    path, parallel runs included, load no numpy, scipy or
    ``multiprocessing``; the first call of an exact function loads
    numpy."""

    heavy = ("print(*(m in sys.modules for m in "
             "('numpy', 'scipy', 'multiprocessing')))")

    def _loaded(self, code):
        proc = _child("-c", "import sys\n" + code)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_monte_carlo_path_leaves_numpy_unloaded(self):
        assert self._loaded(
            "import warlab\n"
            + self.heavy + "\n"
            "from warlab import ClassicConfig, FwarConfig, PwarConfig\n"
            "for config in (PwarConfig(deck=(6, 1), rule='powered'),\n"
            "               FwarConfig(n=6, strength='shifted', deal='iid'),\n"
            "               ClassicConfig(tie='coin_flip')):\n"
            "    warlab.summarize_records(warlab.run_trials(config, 1, 1))\n"
            "    warlab.run_trials(config, 4, 1, workers=2)\n"
            + self.heavy + "\n"
        ) == ["False"] * 6

    def test_run_metadata_names_numpy_without_loading_it(self):
        assert self._loaded(
            "from warlab.stats import run_metadata\n"
            "version = run_metadata()['numpy']\n"
            "print('numpy' in sys.modules)\n"
            "import numpy\n"
            "print(version == numpy.__version__,\n"
            "      run_metadata()['numpy'] == version)\n"
        ) == ["False", "True", "True"]

    def test_first_exact_call_loads_numpy(self):
        assert self._loaded(
            "import importlib.util\n"
            "import warlab.exact\n"
            + self.heavy + "\n"
            "print(isinstance(warlab.exact.__spec__.loader,\n"
            "                 importlib.util.LazyLoader))\n"
            "from warlab.core import build_deck\n"
            "from warlab.rules import rule_coin\n"
            "from warlab.exact import absorption_solve, enumerate_pwar\n"
            "absorption_solve(enumerate_pwar(build_deck((4, 1)), "
            "rule_coin()))\n"
            "print('numpy' in sys.modules)\n"
        ) == ["False"] * 4 + ["True"]

    def test_cli_import_leaves_numpy_unloaded(self):
        assert self._loaded(
            "import warlab.cli\n"
            + self.heavy + "\n"
        ) == ["False"] * 3

    def test_names_listed_before_first_use(self):
        names = self._loaded(
            "import warlab\n"
            "print(*(n in dir(warlab) and n in warlab.__all__\n"
            f"         for n in {_EXACT_NAMES!r}))\n"
            "print('numpy' in sys.modules)\n"
            "namespace = {}\n"
            "exec('from warlab import *', namespace)\n"
            + self.heavy + "\n"
            "print(*(namespace[n] is getattr(sys.modules['warlab.exact'], n)\n"
            f"         for n in {_EXACT_NAMES!r}))\n"
        )
        assert names == (["True"] * len(_EXACT_NAMES) + ["False"] * 4
                         + ["True"] * len(_EXACT_NAMES))

    def test_patches_before_first_use_reach_exact_calls(self):
        # A tracer lists warlab's modules from sys.modules and rebinds a
        # function in every one that holds it; warlab.exact must already be
        # listed, so that the calls inside it are rebound too.
        assert self._loaded(
            "import warlab\n"
            "mods = [m for k, m in sys.modules.items()\n"
            "        if k == 'warlab' or k.startswith('warlab.')]\n"
            "print('numpy' in sys.modules)\n"
            "solve = warlab.exact.absorption_solve\n"
            "calls = []\n"
            "def counted(*args, **kwargs):\n"
            "    calls.append(1)\n"
            "    return solve(*args, **kwargs)\n"
            "for m in mods:\n"
            "    for attr, value in list(vars(m).items()):\n"
            "        if value is solve:\n"
            "            setattr(m, attr, counted)\n"
            "from warlab.rules import strength_builtin\n"
            "warlab.strongest_deal_exact_win_prob(3, "
            "strength_builtin('identity'))\n"
            "print(len(calls), warlab.absorption_solve is counted)\n"
        ) == ["False", "1", "True"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            warlab.no_such_name
