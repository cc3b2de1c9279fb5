"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import warlab
from warlab import cli, exact
from warlab.cli import main
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
    def test_rounds_small(self, tmp_path):
        """All nine comparisons pass at 4000 trials with this seed; the
        statistical windows are wide enough that this is not marginal."""
        out = str(tmp_path / "rounds.csv")
        rc = main([
            "reproduce", "rounds", "--trials", "4000", "--seed", "13",
            "--workers", "2", "--out", out,
        ])
        assert rc == 0
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
    ], ids=["exact-fwar", "exact-pwar", "simulate-classic",
            "simulate-pwar-strength", "exact-fwar-lam", "simulate-fwar-split",
            "simulate-classic-face-down"])
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
        """Only a solve loads scipy.sparse; ``import warlab`` does not."""
        proc = _child("-c", (
            "import sys, warlab; print('scipy.sparse' in sys.modules); "
            "from warlab.core import build_deck; "
            "from warlab.rules import rule_coin; "
            "warlab.exact.absorption_solve(warlab.exact.enumerate_pwar("
            "build_deck((4, 1)), rule_coin())); "
            "print('scipy.sparse' in sys.modules)"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_workers_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WARLAB_WORKERS", "2")
        out = str(tmp_path / "w.json")
        rc = main([
            "simulate", "--game", "pwar", "--deck", "6x1",
            "--trials", "64", "--format", "json", "--out", out,
        ])
        assert rc == 0
        assert json.loads(open(out).read())["metadata"]["workers"] == 2

    def test_unseeded_commands_take_no_workers(self, monkeypatch):
        """exact and verify draw no randomness, so they take neither
        --seed nor --workers and ignore WARLAB_WORKERS."""
        monkeypatch.setenv("WARLAB_WORKERS", "zero")
        assert main(["verify", "identity"]) == 0
        assert main(["exact", "--game", "pwar", "--deck", "4x1"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--game", "pwar", "--deck", "4x1", "--seed", "5"])
        assert exc.value.code == 2

    def test_bad_workers_env(self, monkeypatch):
        monkeypatch.setenv("WARLAB_WORKERS", "zero")
        assert main([
            "simulate", "--game", "pwar", "--deck", "6x1",
            "--trials", "5",
        ]) == 2
