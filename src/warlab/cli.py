"""Command-line front end: simulate, exact, verify, reproduce.

Config precedence: command-line flags override a JSON config file
(``--config``), which overrides built-in defaults. Every output file embeds
the effective config, seed and RNG algorithm needed to regenerate it.
Exit status is 0 iff every requested check passed its stated tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__, exact
from .classic import TIE_KINDS, ClassicConfig
from .core import DEFAULT_MAX_ROUNDS, built
from .fwar import DEALS, RETURN_ORDERS, FwarConfig, strongest_deal_win_prob
from .pwar import PwarConfig
from .reproduce import (
    REPRODUCE_NOTES,
    REPRODUCE_SETTINGS,
    REPRODUCE_TARGETS,
    REPRODUCE_TRIALS,
    VERIFY_SUITES,
)
from .rules import (DEFAULT_STRENGTH, RULE_NAMES, STRENGTH_KINDS,
                    STRENGTH_PARAMS, STRENGTH_RULES, SYMMETRIC_RULES)
from .stats import (
    histogram,
    run_metadata,
    run_trials,
    summarize,
    tally,
    write_json,
    write_table_csv,
)

#: The strength options: ``--strength`` and each family's parameter.
_STRENGTH_OPTIONS = {"strength", *STRENGTH_PARAMS.values()}
#: The game-specific options each game reads. An option of another game
#: must keep its parser default (built in or from ``--config``).
_GAME_OPTIONS = {
    "pwar": {"deck", "rule", "uniform_size", "split", *_STRENGTH_OPTIONS},
    "fwar": {"n", "deal", "return_order", "split", *_STRENGTH_OPTIONS},
    "classic": {"deck", "tie", "face_down", "min_hand"},
}


#: The accepted forms of ``--deck``.
_DECK_FORMS = "NxM, N, or three or more comma-separated ranks"


def _parse_deck(text: str) -> tuple:
    """Deck spec strings: '13x4', '52', or three or more comma-separated
    ranks (a config reads a pair of ints as ``(n_ranks, copies)``)."""
    text = text.strip()
    is_list = "," in text
    try:
        spec = tuple(int(x) for x in text.split("," if is_list else "x"))
    except ValueError:
        spec = ()
    if not (len(spec) >= 3 if is_list else 1 <= len(spec) <= 2):
        raise ValueError(f"--deck {text}: expected {_DECK_FORMS}")
    return spec if len(spec) > 1 else (spec[0], 1)


def _deck_label(spec: tuple) -> str:
    """``exact``'s label of a :func:`_parse_deck` tuple: ``NxM`` or
    ``ranks:r1,r2,...``."""
    if len(spec) == 2:
        return f"{spec[0]}x{spec[1]}"
    return "ranks:" + ",".join(map(str, spec))


def _strength_param(args) -> Optional[float]:
    """The parameter of the ``--strength`` family, or None when the
    family takes none."""
    name = STRENGTH_PARAMS.get(args.strength)
    return None if name is None else getattr(args, name)


def _reject_unread_options(command, args) -> None:
    """Raise naming the first option the chosen settings do not read
    that is off its parser default, so no asked-for setting or check is
    dropped unseen. Unread are the options of other games, the strength
    options of a random-draw rule that takes no strength, the
    parameters of ``STRENGTH_PARAMS`` other than the chosen family's,
    ``--split`` of a top-card deal other than ``uniform`` and
    ``--face-down`` of ``--tie coin``."""
    others = set().union(*_GAME_OPTIONS.values()) - _GAME_OPTIONS[args.game]
    unread = dict.fromkeys(others, f"--game {args.game}")
    if args.game == "pwar" and args.rule not in STRENGTH_RULES:
        unread.update(dict.fromkeys(_STRENGTH_OPTIONS, f"--rule {args.rule}"))
    elif args.game == "classic":
        if TIE_KINDS[args.tie] == "coin_flip":
            unread["face_down"] = f"--tie {args.tie}"
    else:
        kind = args.strength or DEFAULT_STRENGTH
        read = STRENGTH_PARAMS.get(kind)
        for name in STRENGTH_PARAMS.values():
            if name != read:
                unread[name] = f"--strength {kind}"
        if args.game == "fwar" and args.deal != "uniform":
            unread["split"] = f"--deal {args.deal}"
    for dest, action in command.options.items():
        if dest in unread and getattr(args, dest) != action.default:
            raise ValueError(f"{action.option_strings[0]} is not read by "
                             f"{unread[dest]}")


def _emit(args, payload: dict, rows: list) -> None:
    """Write the payload to --out in --format, if requested.

    JSON gets the whole payload. CSV gets one line per dict of ``rows``
    (which the payload holds) under the first row's keys, and its leading
    comment line holds ``payload["metadata"]`` itself, identical to what
    the JSON output stores under ``"metadata"``.
    """
    if not args.out:
        return
    if args.format == "json":
        write_json(args.out, payload)
    else:
        write_table_csv(args.out, list(rows[0]),
                        [row.values() for row in rows],
                        metadata=payload["metadata"])
    print(f"wrote {args.out}")


def _report(args, key: str, rows: list, line, metadata: dict,
            note: Optional[str] = None) -> int:
    """Print each check row as ``line`` renders it, then pass or FAIL;
    then ``note`` and how many of the ``key`` passed. Emit the rows under
    ``key`` and return exit status 1 iff a row failed."""
    for row in rows:
        print(line(row) + ("pass" if row["pass"] else "FAIL"))
    if note:
        print(note)
    failed = sum(not row["pass"] for row in rows)
    print(f"{len(rows) - failed}/{len(rows)} {key} passed")
    _emit(args, {"metadata": metadata, key: rows}, rows)
    return 1 if failed else 0


def _pwar_config(args, **play) -> PwarConfig:
    """Random-draw war of the deck, rule and strength flags, plus the
    ``play`` fields only ``simulate`` sets."""
    return PwarConfig(deck=_parse_deck(args.deck), rule=args.rule,
                      strength=args.strength,
                      strength_param=_strength_param(args), **play)


def _fwar_config(args, **play) -> FwarConfig:
    """Top-card war of ``--n`` and the strength flags, plus the ``play``
    fields only ``simulate`` sets."""
    if args.n is None:
        raise ValueError("fwar needs --n (deck of n distinct ranks)")
    return FwarConfig(n=args.n, strength=args.strength or DEFAULT_STRENGTH,
                      strength_param=_strength_param(args), **play)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _build_sim_config(args):
    if args.game == "pwar":
        return _pwar_config(args, size_a=args.split,
                            max_rounds=args.max_rounds)
    if args.game == "fwar":
        return _fwar_config(args, deal=args.deal, size_a=args.split,
                            max_rounds=args.max_rounds,
                            return_order=args.return_order)
    return ClassicConfig(
        deck=_parse_deck(args.deck),
        tie=TIE_KINDS[args.tie],
        face_down=args.face_down,
        min_hand=args.min_hand,
        max_rounds=args.max_rounds,
    )


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.max_rounds < 1:
        raise ValueError("--max-rounds must be at least 1")
    if args.bins is not None and args.bins < 1:
        raise ValueError("--bins: bin_count must be at least 1")
    config = _build_sim_config(args)
    built(config)  # a bad rule or strength fails here, before any fork
    records = run_trials(config, args.trials, args.seed,
                         workers=args.workers)
    taus, wins, draws, truncated = tally(records)
    # With no decided game the moments and win frequency stay None.
    row = dict.fromkeys(("n_trials", "mean", "median", "max", "std",
                         "ci95_lo", "ci95_hi", "truncated_count",
                         "draw_count", "win_freq_a"))
    row.update(n_trials=args.trials, truncated_count=truncated,
               draw_count=draws)
    line = "no decided games"
    if taus:
        stats = summarize(taus)
        row.update(mean=stats.mean, median=stats.median, max=stats.max,
                   std=stats.std, ci95_lo=stats.ci95[0],
                   ci95_hi=stats.ci95[1], win_freq_a=wins / len(taus))
        line = (f"mean={stats.mean:.2f}  median={stats.median:.1f}  "
                f"max={stats.max:.0f}  std={stats.std:.2f}  "
                f"P(A wins)={row['win_freq_a']:.4f}")
    print(f"{args.game}: {args.trials} trials  {line}  "
          f"truncated={truncated} draws={draws}")
    meta = run_metadata(config=config, seed=args.seed,
                        n_trials=args.trials, workers=args.workers)
    payload = {"metadata": meta, "stats": row}
    if args.bins is not None and taus:
        hist = histogram(taus, args.bins)
        payload["histogram"] = {
            "bin_edges": hist.bin_edges,
            "counts": hist.counts,
        }
        if args.out and args.format == "csv":
            hist_path = args.out + ".hist.csv"
            edges = hist.bin_edges
            write_table_csv(hist_path, ["bin_lo", "bin_hi", "count"],
                            zip(edges, edges[1:], hist.counts),
                            metadata=meta)
            print(f"wrote {hist_path}")
    _emit(args, payload, [row])
    return 0


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def cmd_exact(args) -> int:
    ok = True
    summary = {}
    if args.game == "pwar":
        config = _pwar_config(args)
        deck, rule = config.build()
        k = args.uniform_size
        if k is not None and not 0 <= k <= deck.size:
            raise ValueError(f"--uniform-size must lie in [0, {deck.size}], "
                             f"got {k}")
        inputs = {"deck": _deck_label(config.deck), "rule": rule.name,
                  "uniform_size": k}
        space = exact.enumerate_pwar(deck, rule)
        result = exact.absorption_solve(space)
        if k is not None:
            mean_tau, mean_win = exact.average_uniform_hands(space, result, k)
            oracle_tau, oracle_win = exact.srw_oracle(deck.size, k)
            dev = max(abs(mean_tau - oracle_tau),
                      abs(mean_win - oracle_win))
            if args.rule not in SYMMETRIC_RULES:
                verdict = "walk comparison not checked for this rule"
            else:
                ok = dev <= 1e-9
                verdict = "pass" if ok else "FAIL"
            summary = {
                "uniform_size": k,
                "mean_tau": mean_tau,
                "mean_win_prob": mean_win,
                "srw_tau": oracle_tau,
                "srw_win_prob": oracle_win,
                "max_deviation": dev,
            }
            print(
                f"uniform size-{k} hands: E[tau]={mean_tau:.9f} "
                f"(walk oracle {oracle_tau:g}), "
                f"P(A wins)={mean_win:.9f} (oracle {oracle_win:g}), "
                f"max dev {dev:.2e} -> {verdict}"
            )
    else:
        _, strength = _fwar_config(args).build()
        inputs = {"n": args.n, "strength": strength.describe(),
                  "deal": args.deal}
        space = exact.enumerate_fwar(args.n, strength)
        result = exact.absorption_solve(space)
        if args.deal == "strongest":
            exact_p = exact._deal_win_prob(space, result, "strongest")
            formula_p = strongest_deal_win_prob(strength, args.n)
            dev = abs(exact_p - formula_p)
            ok = dev <= 1e-9
            summary = {
                "deal": "strongest",
                "exact_win_prob": exact_p,
                "formula_win_prob": formula_p,
                "deviation": dev,
            }
            print(
                f"strongest-card deal, n={args.n}, "
                f"strength={strength.describe()}: exact P(A wins)="
                f"{exact_p:.9f}, closed form {formula_p:.9f}, "
                f"dev {dev:.2e} -> {'pass' if ok else 'FAIL'}"
            )
    rows = list(exact.solve_rows(space, result))
    print(f"{len(rows)} states solved")
    solve = {"method": result.method, "residual": result.residual,
             "matvecs": result.matvecs, "states": space.n_states,
             "transitions": len(space.trans_rows)}
    meta = run_metadata(config=inputs, game=args.game, summary=summary,
                        solve=solve)
    _emit(args, {"metadata": meta, "states": rows, "summary": summary}, rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    names = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    cases = [case for name in names for case in VERIFY_SUITES[name]()]
    width = max(len(c["check"]) for c in cases)
    return _report(
        args, "checks", cases,
        lambda c: (f"[{c['suite']:<11}] {c['check']:<{width}}  "
                   f"dev={c['deviation']:.3e}  tol={c['tolerance']:.0e}  "),
        run_metadata(suite=args.suite),
    )


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def cmd_reproduce(args) -> int:
    target = args.target
    trials = REPRODUCE_TRIALS[target] if args.trials is None else args.trials
    if trials < 1:
        raise ValueError("--trials must be at least 1")
    rows = REPRODUCE_TARGETS[target](trials, args.seed, args.workers)
    return _report(
        args, "comparisons", rows,
        lambda r: (f"[{r['model']:<26}] {r['metric']:<38} "
                   f"artifact={r['artifact']!s:<10} "
                   f"reference={r['reference']!s:<8} "
                   f"tol={r['tolerance']:<15} "),
        run_metadata(seed=args.seed, target=target, workers=args.workers,
                     trials=trials, **REPRODUCE_SETTINGS[target]),
        REPRODUCE_NOTES.get(target),
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Command(argparse.ArgumentParser):
    """A subcommand's parser. It keeps its options by dest so that
    ``--config`` values get the same checks as flags."""

    def __init__(self, *args, **kwargs):
        self.options = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action


def build_parser() -> argparse.ArgumentParser:
    """The ``warlab`` parser. Its ``commands`` attribute maps each
    subcommand's name to that subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="warlab",
        description=(
            "Simulate and verify war-style card games: random-draw war "
            "with pluggable winning rules, Bradley-Terry top-card war, "
            "and classic war with war rounds."
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"warlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Command)
    parser.commands = {}

    def command(name, func, seeded, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        if seeded:
            p.add_argument("--seed", type=int, default=0,
                           help="base seed; trial i uses stream id i")
            p.add_argument("--workers", type=int, default=1,
                           help="parallel workers")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output file path")
        p.add_argument("--config",
                       help="JSON file of defaults; flags override it")
        parser.commands[name] = p
        return p

    def game_flags(p, deck):
        """The game flags of ``simulate`` and ``exact``; ``deck`` is the
        default deck."""
        p.add_argument("--deck", default=deck,
                       help=f"deck spec: {_DECK_FORMS}")
        p.add_argument("--rule", default="coin",
                       help=f"pwar rule: {', '.join(RULE_NAMES)}")
        p.add_argument("--strength", choices=STRENGTH_KINDS, default=None)
        p.add_argument("--shift", type=int, default=None)
        p.add_argument("--lam", type=float, default=None)
        p.add_argument("--n", type=int, default=None,
                       help="fwar deck size (n distinct ranks)")

    sim = command("simulate", cmd_simulate, seeded=True,
                  help="run seeded Monte Carlo trials")
    sim.add_argument("--game", choices=("pwar", "fwar", "classic"),
                     required=True)
    sim.add_argument("--trials", type=int, default=10000)
    game_flags(sim, "13x4")
    sim.add_argument("--split", type=int, default=None,
                     help="initial size of the first hand (default half)")
    sim.add_argument("--deal", choices=DEALS, default="uniform")
    sim.add_argument("--return-order", dest="return_order",
                     choices=RETURN_ORDERS, default="random")
    sim.add_argument("--tie", choices=tuple(TIE_KINDS), default="war")
    sim.add_argument("--face-down", dest="face_down", type=int, default=1)
    sim.add_argument("--min-hand", dest="min_hand", type=int, default=1,
                     help="forfeit threshold at round start (2 matches "
                          "the reference tables)")
    sim.add_argument("--max-rounds", dest="max_rounds", type=int,
                     default=DEFAULT_MAX_ROUNDS)
    sim.add_argument("--bins", type=int, default=None,
                     help="also emit a round-count histogram")

    exa = command("exact", cmd_exact, seeded=False,
                  help="enumerate and solve a small instance")
    exa.add_argument("--game", choices=("pwar", "fwar"), required=True)
    game_flags(exa, "8x1")
    exa.add_argument("--uniform-size", dest="uniform_size", type=int,
                     default=None,
                     help="also average over uniform hands of this size "
                          "and compare with the walk oracle")
    exa.add_argument("--deal", choices=("none", "strongest"),
                     default="none",
                     help="'strongest' compares the exact win probability "
                          "under the strongest-card deal with its closed "
                          "form")

    ver = command("verify", cmd_verify, seeded=False,
                  help="run the exact check suites")
    ver.add_argument("suite", choices=(*VERIFY_SUITES, "all"))

    rep = command("reproduce", cmd_reproduce, seeded=True,
                  help="re-run the reference experiments and compare")
    rep.add_argument("target", choices=REPRODUCE_TARGETS)
    rep.add_argument("--trials", type=int, default=None,
                     help="trials per round-count model (rounds, default "
                          "{rounds}), per strongest-count cell (aces, "
                          "{aces}) or per size (scaling, {scaling})"
                          .format(**REPRODUCE_TRIALS))
    return parser


def _apply_config_file(parser, argv):
    """Load --config JSON as the chosen subcommand's defaults, keeping flag
    precedence.

    Each value stands for the flag text it replaces, so it passes the
    option's ``type`` and ``choices`` as that text would. Keys of another
    subcommand are accepted and ignored; keys no subcommand has are not.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    with open(known.config, encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(values).difference(
        *(p.options for p in parser.commands.values())
    )
    if unknown:
        raise ValueError(
            f"unknown config keys: {sorted(unknown)}"
        )
    command = parser.commands.get(argv[0])
    if command is None:
        return  # parse_args reports the missing or unknown subcommand
    defaults = {}
    for key, value in values.items():
        action = command.options.get(key)
        if action is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(
                f"config key {key!r}: expected a string or a number, "
                f"got {value!r}"
            )
        text = str(value)
        try:
            value = action.type(text) if action.type else text
        except ValueError:
            raise ValueError(
                f"config key {key!r}: invalid {action.type.__name__} "
                f"value {text!r}"
            ) from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"config key {key!r}: invalid choice {value!r} (choose "
                f"from {', '.join(map(str, action.choices))})"
            )
        defaults[key] = value
    command.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        if "game" in vars(args):
            _reject_unread_options(parser.commands[args.command], args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
