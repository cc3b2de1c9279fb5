"""Tests for the bench-file writer in tools/."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_file.py"


def _write_run(directory, workload, seed, wall, failed=0):
    directory.mkdir(exist_ok=True)
    detail = {
        "workload": workload, "seed": seed, "seconds": 10.0,
        "end_to_end": {"wall_s": wall, "setup_s": 0.25,
                       "peak_rss_mb": 40.0, "throughput_per_s": 1 / wall},
        "result": {"attempted": 100, "failed": failed},
    }
    (directory / f"{workload}-seed{seed}-trace0.json").write_text(
        json.dumps(detail))


def test_writes_medians_pairs_and_verdicts(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    for seed, b, h in ((1, 1.0, 0.8), (2, 1.1, 0.9), (3, 0.9, 0.95)):
        _write_run(base, "mc_long_games", seed, b)
        _write_run(head, "mc_long_games", seed, h)
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(TOOL), str(base), str(head),
                    "--out", str(out), "--base-rev", "abc"], check=True)
    payload = json.loads(out.read_text())
    assert payload["base"] == "abc"
    assert payload["machine"]["cores"] >= 1
    run = payload["workloads"]["mc_long_games"]
    assert run["seeds"] == [1, 2, 3]
    assert run["pairs"] == 3
    assert run["failed_share"] == {"base": 0.0, "head": 0.0}
    wall = run["metrics"]["wall_s"]
    assert wall["base"]["median"] == 1.0
    assert wall["head"]["median"] == 0.9
    assert wall["head"]["runs"] == [0.8, 0.9, 0.95]
    assert wall["pairs_head_better"] == 2
    assert wall["verdict"] == "within"
    assert abs(wall["worse_by"] + 0.1) < 1e-12
    assert run["metrics"]["throughput_per_s"]["pairs_head_better"] == 2
    assert run["metrics"]["setup_s"]["pairs_head_better"] == 0


def test_empty_side_fails(tmp_path):
    _write_run(tmp_path / "base", "exact_chains", 1, 0.1)
    (tmp_path / "head").mkdir()
    rc = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "base"),
                         str(tmp_path / "head"), "--out",
                         str(tmp_path / "x.json")],
                        capture_output=True).returncode
    assert rc == 1
    assert not (tmp_path / "x.json").exists()
