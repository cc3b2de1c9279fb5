"""Tests for the command-line front end."""

import json
import subprocess
import sys

import pytest

from warlab.cli import main
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

    def test_fwar_strongest_comparison(self):
        rc = main([
            "exact", "--game", "fwar", "--strength", "identity",
            "--n", "3", "--deal", "strongest",
        ])
        assert rc == 0

    def test_same_run_same_bytes_at_any_path(self, tmp_path):
        """The metadata records what was solved, not where it was
        written, so one run written to two paths gives identical files."""
        argv = ["exact", "--game", "pwar", "--deck", "6x1", "--rule",
                "greater", "--uniform-size", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b), "--seed", "5"]) == 0
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
        header = rows[0]
        models = {dict(zip(header, r))["model"] for r in rows[1:]}
        assert models == {"war_ties", "coin_ties", "random_draw",
                          "distinct"}

    def test_scaling_small(self, tmp_path):
        out = str(tmp_path / "scaling.json")
        rc = main([
            "reproduce", "scaling", "--trials-scaling", "1500",
            "--seed", "7", "--format", "json", "--out", out,
        ])
        assert rc == 0
        payload = json.loads(open(out).read())
        rows = payload["comparisons"]
        ratios = [
            r for r in rows if r["metric"] == "mean_tau ratio per doubling"
        ]
        assert len(ratios) == 2
        assert all(r["pass"] for r in rows)

    def test_aces_table_alias(self, tmp_path):
        """aces-table at small trials still checks the structural rows."""
        out = str(tmp_path / "aces.csv")
        rc = main([
            "reproduce", "aces-table", "--trials-per-cell", "250",
            "--seed", "9", "--out", out,
        ])
        # tolerance rows may miss at 250 trials/cell; the structural rows
        # must still be exact and the table must be written
        meta, rows = read_csv_with_metadata(out)
        assert meta["target"] == "aces"
        header = rows[0]
        byname = [dict(zip(header, r)) for r in rows[1:]]
        coin_rows = [r for r in byname if r["model"] == "coin_flip"]
        assert coin_rows[0]["artifact"] == "0.0"
        assert coin_rows[4]["artifact"] == "1.0"
        assert coin_rows[0]["pass"] == "True"
        assert coin_rows[4]["pass"] == "True"


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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"speed": 1}))
        assert main([
            "simulate", "--game", "pwar", "--deck", "6x1",
            "--config", str(cfg),
        ]) == 2


class TestEntryPoints:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "warlab", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for sub in ("simulate", "exact", "verify", "reproduce"):
            assert sub in proc.stdout

    def test_workers_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WARLAB_WORKERS", "2")
        out = str(tmp_path / "w.json")
        rc = main([
            "simulate", "--game", "pwar", "--deck", "6x1",
            "--trials", "64", "--format", "json", "--out", out,
        ])
        assert rc == 0
        assert json.loads(open(out).read())["metadata"]["workers"] == 2

    def test_bad_workers_env(self, monkeypatch):
        monkeypatch.setenv("WARLAB_WORKERS", "zero")
        assert main([
            "simulate", "--game", "pwar", "--deck", "6x1",
            "--trials", "5",
        ]) == 2
