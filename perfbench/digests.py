"""Byte-identity digests of the Monte Carlo models.

warlab's contract is that trial ``i`` is a pure function of
``(seed, stream_id)``. For every model of the two Monte Carlo workloads
this file stores the SHA-256 of the first ``TRIALS`` trials at ``SEED``:
one line per trial with the stream id, tau and winner, and for top-card
war ``m_final`` and ``q_final`` (as ``repr``). Each benchmark round
recomputes them; a mismatch counts as a failed operation.

Make the digests anew, after a change that is meant to alter trial
output, with:

    python3 perfbench/digests.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "digests.json"
SEED = 20230206
TRIALS = 16


def digest(records) -> str:
    """SHA-256 over the trials in stream-id order (stream id = position)."""
    h = hashlib.sha256()
    for stream_id, r in enumerate(records):
        line = f"{stream_id} {r.tau} {r.winner}"
        if hasattr(r, "q_final"):
            line += f" {r.m_final!r} {r.q_final!r}"
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def compute(w) -> dict:
    import workloads

    out = {}
    for models in workloads.MC_MODELS.values():
        for model in models:
            records = w.run_trials(model.make(w), TRIALS, SEED, workers=1)
            out[model.name] = digest(records)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="store the digests instead of checking them")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    import warlab

    got = compute(warlab)
    if args.write:
        payload = {"seed": SEED, "trials": TRIALS, "digests": got}
        PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {len(got)} digests to {PATH}")
        return 0
    stored = load()
    bad = [name for name in got if stored.get(name) != got[name]]
    for name in got:
        print(f"{name:28s} {'MISMATCH' if name in bad else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
