r"""Command line front end.

Subcommands:

    run     one simulation; writes ledger.csv and nodal snapshots
    sweep   the (alpha, beta, h) stability study; writes the table
    verify  built-in invariant and oracle checks
    oracle  print characteristics / shock reference values

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 dt underflow during `run`.  Messages go to stderr; simulation data
goes only to files (the `oracle` subcommand prints its requested values
to stdout, which are its data).

Options may also come from a flat key=value config file via --config:
each line ``key = value`` is the flag --key=value (underscores as
dashes), read before the command line's flags, which therefore win.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import selftest
from .diagnostics import (
    characteristics_solution,
    rankine_hugoniot_speed,
    shock_dissipation,
    shock_formation_time,
)
from .integrator import RunConfig, run_simulation
from .sweep import (TABLE_FORMATS, SweepGrid, atomic_write_text, emit_table, run_sweep,
                    write_run_outputs)


class UsageError(Exception):
    """Bad flags, bad config file, or inconsistent option values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise UsageError(message)


def _float_list(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _config_flags(parser: _Parser, command: str, path: str) -> list[str]:
    """The lines of a key=value config file as flags of ``command``, each checked.

    A key must be the dest of one of the subcommand's flags; the line
    ``key = value`` is the flag ``--key=value``, underscores turned into dashes.
    """
    keys = vars(parser.parse_args([command])).keys() - {"command", "config"}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    flags = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: {command} takes no key {key!r}")
        flags.append(f"--{key.replace('_', '-')}={value}")
        try:
            parser.parse_args([command, flags[-1]])
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return flags


def _check_out_dir(out_dir) -> None:
    """Reject an output directory that an existing file blocks, before any cell runs."""
    for path in (Path(out_dir), *Path(out_dir).parents):
        if path.exists() and not path.is_dir():
            raise UsageError(f"output directory {out_dir}: {path} exists and is not a directory")


def _build_parser() -> _Parser:
    parser = _Parser(prog="phburgers", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out-dir", dest="out_dir", default="phburgers_out",
                       help="output directory (default %(default)s)")

    p_run = sub.add_parser("run", help="run one simulation")
    add_common(p_run)
    p_run.add_argument("--h", type=float, help="element width, required (1/h integral)")
    p_run.add_argument("--alpha", type=float, default=RunConfig.alpha,
                       help="dt0 = alpha * h (default %(default)s)")
    p_run.add_argument("--beta", type=float, default=RunConfig.beta,
                       help="nu = beta * h / alpha, 0 = inviscid (default %(default)s)")
    p_run.add_argument("--t-final", dest="t_final", type=float, default=RunConfig.t_final,
                       help="end time (default %(default)s)")
    p_run.add_argument("--snapshots", type=int, default=RunConfig.n_snapshots,
                       help="snapshot count, at least 2: the initial and final states"
                            " and any between (default %(default)s)")

    p_sweep = sub.add_parser("sweep", help="run the (alpha, beta, h) study")
    add_common(p_sweep)
    p_sweep.add_argument("--alphas", type=_float_list, default=SweepGrid.alphas,
                         help="comma list (default %(default)s)")
    p_sweep.add_argument("--betas", type=_float_list, default=SweepGrid.betas,
                         help="comma list (default %(default)s)")
    p_sweep.add_argument("--hs", type=_float_list, default=SweepGrid.hs,
                         help="comma list (default %(default)s)")
    p_sweep.add_argument("--t-final", dest="t_final", type=float, default=SweepGrid.t_final,
                         help="end time (default %(default)s)")
    p_sweep.add_argument("--workers", type=int,
                         help="worker processes (default: CPUs this process may use)")
    p_sweep.add_argument("--format", choices=TABLE_FORMATS, default="csv",
                         help="table format (default %(default)s)")

    sub.add_parser("verify", help="run the built-in check battery")

    p_oracle = sub.add_parser("oracle", help="print reference values")
    group = p_oracle.add_mutually_exclusive_group(required=True)
    group.add_argument("--shock-speed", nargs=2, type=float, metavar=("VL", "VR"),
                       help="Rankine-Hugoniot speed of the (VL, VR) jump")
    group.add_argument("--shock-dissipation", nargs=2, type=float, metavar=("VL", "VR"),
                       help="jump contributions (dE, dH)")
    group.add_argument("--shock-time", action="store_true",
                       help="shock formation time of the pulse data")
    group.add_argument("--solution", nargs=2, type=float, metavar=("T", "X"),
                       help="pre-shock characteristics solution v(T, X)")
    return parser


def _cmd_run(args) -> int:
    if args.h is None:
        raise UsageError("the element width h is required (--h or a config file entry)")
    try:
        config = RunConfig(h=args.h, alpha=args.alpha, beta=args.beta, t_final=args.t_final,
                           n_snapshots=args.snapshots)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _check_out_dir(args.out_dir)
    result = run_simulation(config)
    paths = write_run_outputs(result, args.out_dir)
    print(f"run: t reached {result.t_reached:.6g} of {config.t_final:g}, "
          f"{result.n_steps} steps, Var {result.var:.3e}, "
          f"termination {result.termination_reason}; "
          f"{len(paths)} files in {args.out_dir}", file=sys.stderr)
    for flag in result.flags:
        print(f"run: flagged {flag}", file=sys.stderr)
    return 3 if result.termination_reason == "dt_underflow" else 0


def _cmd_sweep(args) -> int:
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir)
    try:
        grid = SweepGrid(alphas=args.alphas, betas=args.betas, hs=args.hs, t_final=args.t_final)
        result = run_sweep(grid, workers=args.workers, out_dir=out_dir)
    except ValueError as exc:  # a bad value, found before any cell runs
        raise UsageError(str(exc)) from exc
    path = out_dir / ("table.csv" if args.format == "csv" else "table.txt")
    atomic_write_text(path, emit_table(result, args.format))
    n_bad = sum(c.termination.startswith("error") for c in result.cells)
    print(f"sweep: {len(result.cells)} cells, {n_bad} errored; table at {path}",
          file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    checks = selftest.run_checks()
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'}  {name}  ({detail})", file=sys.stderr)
    failed = sum(not ok for _, ok, _ in checks)
    print(f"verify: {len(checks) - failed}/{len(checks)} checks passed", file=sys.stderr)
    return 0 if failed == 0 else 2


def _cmd_oracle(args) -> int:
    values = args.shock_speed or args.shock_dissipation or args.solution or []
    named = " ".join(map(str, values))
    if not all(abs(value) < float("inf") for value in values):
        raise UsageError(f"oracle values must be finite, got {named}")
    try:
        if args.shock_speed is not None:
            results = (rankine_hugoniot_speed(*args.shock_speed),)
        elif args.shock_dissipation is not None:
            results = shock_dissipation(*args.shock_dissipation)
        elif args.shock_time:
            results = (shock_formation_time(),)
        else:
            results = (characteristics_solution(*args.solution),)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not all(abs(r) < float("inf") for r in results):
        raise UsageError(f"oracle result for {named} is not finite: "
                         f"{' '.join(map(str, results))}")
    print(" ".join(f"{r:.12g}" for r in results))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):  # the file's flags first, so the command line's win
            flags = _config_flags(parser, args.command, args.config)
            args = parser.parse_args([args.command, *flags, *argv[1:]])
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
