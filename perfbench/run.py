"""warlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload mc_long_games --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``mc_long_games``, ``mc_short_games``, ``exact_chains`` (see
``perfbench/README.md``). The run first times ``setup_s`` in fresh
interpreters, then repeats whole rounds of the workload until
``--seconds`` have passed and at least ``MIN_ROUNDS`` rounds are done,
then checks every output. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. The same object, with the run's details, is
written to ``perfbench/results/``; a traced run also writes its spans
there as ``.trace.npz``.

Engine assertions stay live: run it without ``python -O``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import workloads  # noqa: E402  (sits next to this file)

WORKLOADS = ("mc_long_games", "mc_short_games", "exact_chains")
#: Rounds a run makes at least, however short --seconds is: 13 rounds of
#: mc_long_games give the classic models 5200 games each, enough for their
#: reference checks; 3 exact rounds give wall_s a median of three.
MIN_ROUNDS = {"mc_long_games": 13, "mc_short_games": 1, "exact_chains": 3}
#: Fresh interpreters timed for setup_s, after one untimed warm-up that
#: writes the bytecode caches of a new checkout.
SETUP_REPS = 3

_SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import warlab
t1 = time.perf_counter()
sys.path.insert(0, {bench!r})
import workloads
workloads.build_inputs({workload!r}, warlab)
print(json.dumps({{"import_s": t1 - t0,
                  "build_s": time.perf_counter() - t1}}))
"""


def measure_setup(workload: str) -> list[dict]:
    """Wall time of fresh interpreters from start through ``import warlab``
    and building the workload's configs, decks and rules."""
    code = _SETUP_CHILD.format(bench=str(HERE), workload=workload)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    runs = []
    for i in range(SETUP_REPS + 1):
        t = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120)
        wall = time.perf_counter() - t
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise SystemExit(f"set-up interpreter exited {out.returncode}")
        if i:
            runs.append(dict(json.loads(out.stdout), wall_s=wall))
    return runs


def end_to_end(bench, setup) -> dict:
    peak = max(workloads.maxrss_mb(),
               workloads.maxrss_mb(resource.RUSAGE_CHILDREN))
    return {
        "wall_s": (median(bench.walls), "s"),
        "setup_s": (median([s["wall_s"] for s in setup]), "s"),
        "peak_rss_mb": (peak, "MB"),
        "throughput_per_s": (bench.throughput(), "1/s"),
    }


def per_layer(bench, setup, tracer, efficiency) -> dict:
    """The per-layer metrics of a traced run. A layer the workload does
    not call reads 0."""

    def per_call(names, scale):
        calls = sum(tracer.calls_of(n) for n in names)
        return sum(tracer.busy_ns(n) for n in names) / calls * scale \
            if calls else 0.0

    def per_eval(rule):
        calls, ns = tracer.counters.get(f"rules.eval.{rule}", (0, 0))
        return ns / calls if calls else 0.0

    def per_round(label):
        own, units = tracer.labels.get(label, (0, 0))
        return own / units if units else 0.0

    rounds = len(bench.walls)
    m = {
        "cli.import_s": (median(
            [s["import_s"] for s in setup]), "s"),
        "core.rngstream_us": (per_call(["core.RngStream"], 1e-3), "us"),
        "core.deal_us": (per_call(["core.deal_uniform", "fwar.deal_iid"],
                                  1e-3), "us"),
    }
    for rule in ("powered", "greater-tiecoin"):
        m[f"rules.eval_ns.{rule}"] = (per_eval(rule), "ns")
    for label in ("pwar.ns_per_round.powered",
                  "pwar.ns_per_round.greater-tiecoin",
                  "classic.ns_per_round.war_round",
                  "classic.ns_per_round.coin_flip",
                  "fwar.ns_per_round"):
        m[label] = (per_round(label), "ns/round")
    h = getattr(bench, "harness", None)
    if h and h["trials"]:
        m["stats.trial_overhead_us"] = (
            (h["trial_ns"] - h["engine_ns"]) / h["trials"] / 1e3, "us")
        m["stats.fanout_s"] = (
            median(h["fanout_ns"]) / 1e9, "s")
        m["stats.record_bytes"] = (h["record_bytes"] / h["records"], "B")
    else:
        m["stats.trial_overhead_us"] = (0.0, "us")
        m["stats.fanout_s"] = (0.0, "s")
        m["stats.record_bytes"] = (0.0, "B")
    m["stats.parallel_efficiency"] = (efficiency, "ratio")
    m["stats.summarize_s"] = (per_call(["stats.summarize_records"], 1e-9),
                              "s")
    exact = {
        "exact.enumerate_s": ["exact.enumerate_pwar", "exact.enumerate_fwar"],
        "exact.solve_s": ["exact.absorption_solve"],
        "exact.uniformity_s": ["exact.verify_uniform_preservation"],
        "exact.martingale_s": ["exact.verify_martingales"],
    }
    for key, names in exact.items():
        m[key] = (sum(tracer.busy_ns(n) for n in names) / 1e9 / rounds, "s")
    m["exact.solve_rss_mb"] = (getattr(bench, "solve_rss_mb", 0.0), "MB")
    m["exact.states"] = (getattr(bench, "states", 0), "count")
    m["exact.transitions"] = (getattr(bench, "transitions", 0), "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not __debug__:
        print("perfbench: warlab's conservation assertions need a run "
              "without python -O", file=sys.stderr)
        return 2
    if not (SRC / "warlab" / "__init__.py").is_file():
        print(f"perfbench: no warlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup = measure_setup(args.workload)
    import warlab

    tracer = None
    efficiency = 0.0
    if args.trace:
        import tracing

        if args.workload == "mc_short_games":
            efficiency = workloads.parallel_efficiency(
                warlab, args.workload, args.seed)
        tracer = tracing.Tracer()
        installed = tracing.install(tracer, warlab)
    if args.workload == "exact_chains":
        bench = workloads.ExactChains(warlab, args.seed)
    else:
        bench = workloads.MonteCarlo(warlab, args.workload, args.seed, tracer)

    start = time.perf_counter()
    rounds = 0
    while (rounds < MIN_ROUNDS[args.workload]
           or time.perf_counter() - start < args.seconds):
        if tracer is not None:
            tracer.run_id = rounds
        bench.round(rounds)
        rounds += 1
    elapsed = time.perf_counter() - start
    bench.finish()

    e2e = end_to_end(bench, setup)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
        "elapsed_s": elapsed, "round_walls": bench.walls,
        "problems": bench.problems,
        "setup": setup, "end_to_end": {k: v for k, (v, _) in e2e.items()},
    }
    if tracer is not None:
        tracing.uninstall(installed)
        metrics = per_layer(bench, setup, tracer, efficiency)
        detail["layers"] = tracer.layer_table()
        detail["spans"] = tracer.name_table()
    else:
        metrics = e2e
    declared = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
            "per_layer" if args.trace else "end_to_end"]}
    if declared != {k: u for k, (_, u) in metrics.items()}:
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    detail["result"] = result

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(str(RESULTS / f"{args.workload}-seed{args.seed}"
                         ".trace.npz"), detail)

    print(f"{args.workload} seed={args.seed}: {rounds} rounds in "
          f"{elapsed:.1f} s, {bench.attempted} operations, "
          f"{bench.failed} failed")
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    for layer, row in detail.get("layers", {}).items():
        print(f"  layer {layer:8s} calls={row['calls']:<9d} "
              f"busy={row['busy_s']:.3f}s failures={row['failures']}")
    for key, (value, unit) in e2e.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
