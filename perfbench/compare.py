"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the untraced result files that ``perfbench/run.py``
writes (``<workload>-seed<n>-trace0.json``; copy ``perfbench/results``
aside after the runs of one commit). For every workload and every
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles and a verdict:

- ``within``: the head median is no worse than the base median by more
  than the metric's bound;
- ``WORSE``: it is worse by more than the bound;
- ``unresolved``: the spread of either side (quartile distance over
  median) is wider than the bound, and not every head run is better than
  every base run.

It also prints each side's share of failed operations. Exits 1 if any
verdict is ``WORSE`` or the failed shares differ, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_runs(directory: Path) -> dict:
    """workload -> list of run details (untraced runs only)."""
    runs: dict[str, list] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        detail = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(detail["workload"], []).append(detail)
    return runs


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric: dict, base: list, head: list) -> tuple[str, float]:
    """(verdict, relative change of the median, positive = worse)."""
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (hm - bm) / bm
    bound = metric["bound"]
    spread = max((b3 - b1) / bm, (h3 - h1) / hm)
    if sign > 0:
        all_better = max(head) < min(base)
    else:
        all_better = min(head) > max(base)
    if spread > bound and not all_better:
        return "unresolved", worse_by
    return ("WORSE" if worse_by > bound else "within"), worse_by


def failed_share(runs: list) -> float:
    attempted = sum(r["result"]["attempted"] for r in runs)
    return sum(r["result"]["failed"] for r in runs) / attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    base_runs, head_runs = load_runs(args.base), load_runs(args.head)
    if not base_runs or not head_runs:
        print("no untraced result files on one side", file=sys.stderr)
        return 1
    bad = False
    for workload in sorted(set(base_runs) | set(head_runs)):
        base = base_runs.get(workload, [])
        head = head_runs.get(workload, [])
        print(f"{workload}: {len(base)} base runs, {len(head)} head runs")
        if not base or not head:
            print("  missing runs on one side")
            bad = True
            continue
        fb, fh = failed_share(base), failed_share(head)
        print(f"  failed share: base {fb:.6g}  head {fh:.6g}")
        bad |= fb != fh
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = [r["end_to_end"][name] for r in base]
            hv = [r["end_to_end"][name] for r in head]
            result, worse_by = verdict(metric, bv, hv)
            bad |= result == "WORSE"
            bq, hq = quartiles(bv), quartiles(hv)
            print(f"  {name:17s} base {bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
                  f"  head {hq[1]:.5g} [{hq[0]:.5g}, {hq[2]:.5g}]"
                  f"  worse by {worse_by:+.2%} (bound {metric['bound']:.0%})"
                  f"  {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
