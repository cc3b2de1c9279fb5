"""Span tracing for the benchmark's traced runs (``--trace 1``).

Nothing inside warlab is edited. :func:`install` replaces the public
functions of each module (and the ``build`` methods of the trial configs)
with wrappers that record one span per call: name, start, end, parent and
run id, all in ``time.perf_counter_ns`` units. Each span also stores its
self time, its duration minus the time its child spans cover.

Rule ``eval`` calls run millions of times at well under a microsecond, so
they are counted rather than spanned: calls and busy time per rule, and
their time is subtracted from the enclosing span's self time.

Trials that run in ``run_trials``' fork pool record their spans in the
worker. :class:`TracedConfig` copies one trial's spans into a shared
anonymous memory map, one fixed-size row per trial, and the parent reads
them back with :meth:`Tracer.ingest_trials`. The tracer and the map are
module globals on purpose: forked workers inherit them, nothing is sent.

Counts and times cover every call; the span table itself keeps only the
first ``MAX_SPANS`` spans so that a long traced run stays small.
"""

from __future__ import annotations

import json
import mmap
import os
import sys
import time
from array import array

import numpy as np

MAX_SPANS = 200_000
#: Spans kept per trial row; a trial records at most 7 in this benchmark.
ROW_SPANS = 10
#: Fields per span in a trial row.
_F = 7  # name, start, end, self, parent offset, label, units
_ROW = 2 + ROW_SPANS * _F  # pid, span count, spans

_now = time.perf_counter_ns

#: The tracer of this process; set by :func:`install`.
ACTIVE: "Tracer | None" = None
_rows: "np.ndarray | None" = None


class Tracer:
    """In-memory span store with per-name and per-label aggregates."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.label = array("q")
        self.units = array("q")
        self.run_id = 0
        self.cap = MAX_SPANS
        # Open spans: [stored index or -1, name id, start, child ns].
        self._open: list[list] = []
        # Per name id: calls, busy ns, self ns, failures.
        self.calls: dict[int, list] = {}
        # Per label name (e.g. pwar.ns_per_round.coin): self ns, units.
        self.labels: dict[str, list] = {}
        # Counted leaf calls: key -> [calls, ns].
        self.counters: dict[str, list] = {}
        # Last closed span per name: (index, start, end, self ns).
        self.last: dict[str, tuple] = {}

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            if os.getpid() != self.owner:
                # Ids are shared with the parent only through the fork.
                raise RuntimeError(f"span name {name!r} first seen in a "
                                   "pool worker; register it in install()")
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def stored(self) -> int:
        return len(self.start)

    # -- recording ---------------------------------------------------------

    def begin(self, name_id: int) -> list:
        t = _now()
        parent = self._open[-1][0] if self._open else -1
        idx = -1
        if self.stored() < self.cap:
            idx = self.stored()
            self.name.append(name_id)
            self.start.append(t)
            self.end.append(t)
            self.self_ns.append(0)
            self.parent.append(parent)
            self.run.append(self.run_id)
            self.label.append(-1)
            self.units.append(0)
        frame = [idx, name_id, t, 0]
        self._open.append(frame)
        return frame

    def finish(self, frame: list, failed: bool, label=None, units=0) -> None:
        t = _now()
        self._open.pop()
        idx, nid, t0, child = frame
        dur = t - t0
        own = dur - child
        if self._open:
            self._open[-1][3] += dur
        if idx >= 0:
            self.end[idx] = t
            self.self_ns[idx] = own
            if label is not None:
                self.label[idx] = self.name_id(label)
                self.units[idx] = units
        agg = self.calls.get(nid)
        if agg is None:
            agg = self.calls[nid] = [0, 0, 0, 0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += own
        agg[3] += failed
        if label is not None:
            lab = self.labels.setdefault(label, [0, 0])
            lab[0] += own
            lab[1] += units
        self.last[self.names[nid]] = (idx, t0, t, own)

    def call(self, fn, name_id: int, args, kwargs, label_of=None):
        frame = self.begin(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.finish(frame, True)
            raise
        label, units = label_of(args, result) if label_of else (None, 0)
        self.finish(frame, False, label, units)
        return result

    def count(self, key: str, ns: int) -> None:
        cell = self.counters.get(key)
        if cell is None:
            cell = self.counters[key] = [0, 0]
        cell[0] += 1
        cell[1] += ns
        if self._open:
            self._open[-1][3] += ns

    # -- trial rows --------------------------------------------------------

    def export_trial(self, mark: int, row: np.ndarray) -> None:
        """Copy the spans stored since ``mark`` into ``row``."""
        n = min(self.stored() - mark, ROW_SPANS)
        flat = [os.getpid(), n]
        for i in range(mark, mark + n):
            p = self.parent[i]
            flat += (self.name[i], self.start[i], self.end[i],
                     self.self_ns[i], p - mark if p >= mark else -1,
                     self.label[i], self.units[i])
        row[:len(flat)] = flat

    def truncate(self, mark: int) -> None:
        for column in (self.name, self.start, self.end, self.self_ns,
                       self.parent, self.run, self.label, self.units):
            del column[mark:]

    def ingest_trials(self, rows: np.ndarray) -> dict:
        """Fold the trial rows of the last ``run_trials`` call into the
        aggregates and the span store.

        Rows written by this process were recorded here already and only
        feed the harness figures. Returns those figures: the busiest
        worker's busy ns, the trial count, and the ns trials spent in and
        out of their engine run.
        """
        r_idx, r_t0, r_t1, r_own = self.last["stats.run_trials"]
        count = rows[:, 1]
        spans = rows[:, 2:].reshape(len(rows), ROW_SPANS, _F)
        top = spans[:, 0, :]
        trial_dur = top[:, 2] - top[:, 1]
        pids = rows[:, 0]
        busy = [int(trial_dur[pids == pid].sum()) for pid in np.unique(pids)]
        valid = np.arange(ROW_SPANS)[None, :] < count[:, None]
        nid, t0, t1, own, poff, lab, units = spans[valid].T
        engine = np.isin(nid, [self._ids[n] for n in ENGINE_RUNS
                               if n in self._ids])
        figures = {
            "busiest_ns": max(busy),
            "trials": len(rows),
            "trial_ns": int(trial_dur.sum()),
            "engine_ns": int((t1 - t0)[engine].sum()),
        }
        # The run_trials span's self time is its wall time minus the part
        # covered by trials, wherever they ran.
        new_own = (r_t1 - r_t0) - _union_ns(top[:, 1], top[:, 2])
        self.calls[self._ids["stats.run_trials"]][2] += new_own - r_own
        if r_idx >= 0:
            self.self_ns[r_idx] = new_own
        foreign = np.repeat(pids != self.owner, count)
        if not foreign.any():
            return figures
        sub = (spans[valid])[foreign]
        nid, t0, t1, own, poff, lab, units = sub.T
        dur = t1 - t0
        for k in np.unique(nid):
            sel = nid == k
            agg = self.calls.setdefault(int(k), [0, 0, 0, 0])
            agg[0] += int(sel.sum())
            agg[1] += int(dur[sel].sum())
            agg[2] += int(own[sel].sum())
        for k in np.unique(lab[lab >= 0]):
            sel = lab == k
            cell = self.labels.setdefault(self.names[int(k)], [0, 0])
            cell[0] += int(own[sel].sum())
            cell[1] += int(units[sel].sum())
        room = self.cap - self.stored()
        if room > 0:
            n_kept = count[pids != self.owner]
            firsts = self.stored() + np.concatenate(
                ([0], np.cumsum(n_kept)[:-1]))
            absparent = np.where(poff >= 0, np.repeat(firsts, n_kept) + poff,
                                 r_idx)
            keep = min(room, len(sub))
            for column, values in ((self.name, nid), (self.start, t0),
                                   (self.end, t1), (self.self_ns, own),
                                   (self.parent, absparent),
                                   (self.label, lab), (self.units, units)):
                column.extend(values[:keep].tolist())
            self.run.extend([self.run_id] * keep)
        return figures

    # -- output ------------------------------------------------------------

    def layer_table(self) -> dict:
        """Per layer (module): calls, busy seconds (self time) and
        failures."""
        table: dict[str, list] = {}
        for nid, (calls, _busy, own, failed) in self.calls.items():
            row = table.setdefault(self.names[nid].split(".", 1)[0],
                                   [0, 0, 0])
            row[0] += calls
            row[1] += own
            row[2] += failed
        for key, (calls, ns) in self.counters.items():
            row = table.setdefault(key.split(".", 1)[0], [0, 0, 0])
            row[0] += calls
            row[1] += ns
        return {
            layer: {"calls": c, "busy_s": ns / 1e9, "failures": f}
            for layer, (c, ns, f) in sorted(table.items())
        }

    def name_table(self) -> dict:
        """Per span name: calls, busy seconds, self seconds, failures."""
        return {
            self.names[nid]: {"calls": c, "busy_s": busy / 1e9,
                              "self_s": own / 1e9, "failures": f}
            for nid, (c, busy, own, f) in sorted(self.calls.items())
        }

    def busy_ns(self, name: str) -> int:
        agg = self.calls.get(self._ids.get(name, -1))
        return agg[1] if agg else 0

    def calls_of(self, name: str) -> int:
        agg = self.calls.get(self._ids.get(name, -1))
        return agg[0] if agg else 0

    def write(self, path: str, summary: dict) -> None:
        """Write the span table, its name list and ``summary`` as .npz."""
        cols = {k: np.frombuffer(getattr(self, k), dtype=np.int64)
                for k in ("name", "start", "end", "self_ns", "parent",
                          "run", "label", "units")}
        np.savez_compressed(path, names=np.asarray(self.names),
                            summary=np.asarray(json.dumps(summary)), **cols)


def _union_ns(starts: np.ndarray, ends: np.ndarray) -> int:
    """Length of the union of the intervals [starts[i], ends[i])."""
    if not len(starts):
        return 0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    reach = np.concatenate(([s[0]], np.maximum.accumulate(e)[:-1]))
    return int(np.sum(np.maximum(e, reach) - np.maximum(s, reach)))


# ---------------------------------------------------------------------------
# Patching warlab
# ---------------------------------------------------------------------------

#: Public functions spanned, as (module, attribute).
SPANNED = (
    ("core", "RngStream"),
    ("core", "build_deck"),
    ("core", "deal_uniform"),
    ("rules", "strength_builtin"),
    ("pwar", "pwar_run"),
    ("fwar", "fwar_run"),
    ("fwar", "deal_iid"),
    ("classic", "classic_run"),
    ("stats", "run_trials"),
    ("stats", "summarize_records"),
    ("exact", "enumerate_pwar"),
    ("exact", "enumerate_fwar"),
    ("exact", "absorption_solve"),
    ("exact", "verify_uniform_preservation"),
    ("exact", "verify_martingales"),
    ("exact", "strongest_deal_exact_win_prob"),
)
#: Config methods spanned, as (module, class, method).
METHODS = (
    ("pwar", "PwarConfig", "build"),
    ("fwar", "FwarConfig", "build"),
)
ENGINE_RUNS = ("pwar.pwar_run", "fwar.fwar_run", "classic.classic_run")


def _engine_label(mod: str):
    if mod == "pwar":
        return lambda args, rec: (f"pwar.ns_per_round.{args[1].name}", rec.tau)
    if mod == "classic":
        return lambda args, rec: (f"classic.ns_per_round.{args[1].kind}",
                                  rec.tau)
    return lambda args, rec: ("fwar.ns_per_round", rec.tau)


def _spanned(tracer: Tracer, fn, name: str, label_of=None):
    nid = tracer.name_id(name)
    call = tracer.call

    def traced(*args, **kwargs):
        return call(fn, nid, args, kwargs, label_of)

    return traced


def _traced_rule(tracer: Tracer, rule):
    key = f"rules.eval.{rule.name}"
    inner = rule.eval
    count = tracer.count

    def ev(a, b, s, deck):
        t = _now()
        p = inner(a, b, s, deck)
        count(key, _now() - t)
        return p

    return type(rule)(name=rule.name, eval=ev, uses_hand=rule.uses_hand)


def install(tracer: Tracer, warlab) -> list:
    """Wrap the traced functions everywhere warlab refers to them.

    Returns the list of replacements for :func:`uninstall`.
    """
    global ACTIVE
    ACTIVE = tracer
    mods = [m for k, m in sys.modules.items()
            if k == "warlab" or k.startswith("warlab.")]
    done = []

    def replace_everywhere(orig, new):
        for m in mods:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, new)
                    done.append((m, attr, orig))

    for mod, attr in SPANNED:
        orig = getattr(getattr(warlab, mod), attr)
        label_of = _engine_label(mod) if attr.endswith("_run") else None
        replace_everywhere(orig, _spanned(tracer, orig, f"{mod}.{attr}",
                                          label_of))

    rule_by_name = warlab.rules.rule_by_name
    nid = tracer.name_id("rules.rule_by_name")

    def traced_rule_by_name(*args, **kwargs):
        rule = tracer.call(rule_by_name, nid, args, kwargs)
        return _traced_rule(tracer, rule)

    replace_everywhere(rule_by_name, traced_rule_by_name)
    for rule in warlab.rules.RULE_NAMES:
        tracer.name_id(f"pwar.ns_per_round.{rule}")
    for kind in ("war_round", "coin_flip"):
        tracer.name_id(f"classic.ns_per_round.{kind}")
    tracer.name_id("fwar.ns_per_round")
    for mod, cls_name, meth in METHODS:
        cls = getattr(getattr(warlab, mod), cls_name)
        orig = vars(cls)[meth]
        setattr(cls, meth, _spanned(tracer, orig, f"{mod}.{cls_name}.{meth}"))
        done.append((cls, meth, orig))
    return done


def uninstall(done: list) -> None:
    global ACTIVE
    for owner, attr, orig in reversed(done):
        setattr(owner, attr, orig)
    ACTIVE = None


# ---------------------------------------------------------------------------
# Trials through the pool
# ---------------------------------------------------------------------------


def open_rows(n_trials: int) -> np.ndarray:
    """Allocate the shared trial-row buffer for the next ``run_trials``
    call; forked workers inherit the mapping and write into it."""
    global _rows
    buf = mmap.mmap(-1, n_trials * _ROW * 8)
    _rows = np.frombuffer(buf, dtype=np.int64).reshape(n_trials, _ROW)
    return _rows


class TracedConfig:
    """Trial recipe that runs ``config.run_trial`` under the process's
    tracer and copies the trial's spans into row ``stream_id - base`` of
    the shared buffer."""

    def __init__(self, config, base: int):
        self.config = config
        self.base = base
        mod = type(config).__module__.rsplit(".", 1)[-1]
        self.name = f"{mod}.{type(config).__name__}.run_trial"
        ACTIVE.name_id(self.name)

    def run_trial(self, seed: int, stream_id: int):
        tracer = ACTIVE
        # Every span of the trial is kept until it is exported; past the
        # store's cap, and always in a worker, they are dropped after.
        cap, tracer.cap = tracer.cap, sys.maxsize
        mark = tracer.stored()
        try:
            record = tracer.call(self.config.run_trial,
                                 tracer.name_id(self.name),
                                 (seed, stream_id), {})
        finally:
            tracer.cap = cap
        tracer.export_trial(mark, _rows[stream_id - self.base])
        if mark >= cap or os.getpid() != tracer.owner:
            tracer.truncate(mark)
        return record
