"""Write a bench file: two sides' benchmark runs, summarised as JSON.

    python3 tools/bench_file.py BASE_DIR HEAD_DIR --out BENCH_18.json \
        --base-rev 386b9a2 --head-rev HEAD

Each directory holds the untraced result files that ``perfbench/run.py``
writes for one commit (see ``perfbench/compare.py``). For every workload
and every end-to-end metric of ``BENCHMARK.json`` the file records each
side's median and quartiles, the number of seed-paired runs in which the
head side is better, and ``compare.py``'s verdict; it also records each
side's failed share and the machine the runs were made on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import failed_share, load_runs, quartiles, verdict  # noqa: E402


def machine() -> dict:
    """The host and the numeric stack the runs used."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _side(values: list) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def summarise(base_runs: dict, head_runs: dict, spec: dict) -> dict:
    workloads = {}
    for workload in sorted(set(base_runs) & set(head_runs)):
        base = sorted(base_runs[workload], key=lambda r: r["seed"])
        head = sorted(head_runs[workload], key=lambda r: r["seed"])
        paired = [(b, h) for b in base for h in head
                  if b["seed"] == h["seed"]]
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = [r["end_to_end"][name] for r in base]
            hv = [r["end_to_end"][name] for r in head]
            result, worse_by = verdict(metric, bv, hv)
            sign = 1 if metric["better"] == "lower" else -1
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "base": _side(bv),
                "head": _side(hv),
                "worse_by": worse_by,
                "pairs_head_better": sum(
                    sign * (h["end_to_end"][name] - b["end_to_end"][name]) < 0
                    for b, h in paired),
                "verdict": result,
            }
        workloads[workload] = {
            "seeds": [r["seed"] for r in base],
            "seconds": sorted({r["seconds"] for r in base + head}),
            "pairs": len(paired),
            "failed_share": {"base": failed_share(base),
                             "head": failed_share(head)},
            "metrics": metrics,
        }
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--base-rev", default="")
    parser.add_argument("--head-rev", default="")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base_runs, head_runs = load_runs(args.base), load_runs(args.head)
    if not base_runs or not head_runs:
        print("no untraced result files on one side", file=sys.stderr)
        return 1
    payload = {
        "base": args.base_rev,
        "head": args.head_rev,
        "machine": machine(),
        "workloads": summarise(base_runs, head_runs, spec),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
