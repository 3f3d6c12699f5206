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

Options may also come from a flat key=value config file via --config;
explicit flags win over file entries, and a key the subcommand has no
flag for is a usage error.
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
from .sweep import SweepGrid, atomic_write_text, emit_table, run_sweep, write_run_outputs


class UsageError(Exception):
    """Bad flags, bad config file, or inconsistent option values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise UsageError(message)


def _float_list(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


_TABLE_FORMATS = ("csv", "text")


def _table_format(text: str) -> str:
    if text not in _TABLE_FORMATS:
        raise ValueError(f"expected one of {', '.join(_TABLE_FORMATS)}, got {text!r}")
    return text


# keys a config file may set, with their conversions
_CONFIG_TYPES = {
    "h": float,
    "alpha": float,
    "beta": float,
    "t_final": float,
    "snapshots": int,
    "out_dir": str,
    "workers": int,
    "format": _table_format,
    "alphas": _float_list,
    "betas": _float_list,
    "hs": _float_list,
}


def _parse_config_file(path: str, args: argparse.Namespace) -> dict:
    """Values of the file's keys; each must be one the subcommand has a flag for."""
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if not hasattr(args, key):
            raise UsageError(f"{path}:{lineno}: {args.command} takes no key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](text)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _merge_config(args: argparse.Namespace) -> None:
    """Fill flag values that were not given from the config file, if any."""
    if not getattr(args, "config", None):
        return
    for key, value in _parse_config_file(args.config, args).items():
        if getattr(args, key) is None:
            setattr(args, key, value)


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
        p.add_argument("--out-dir", dest="out_dir", help="output directory")

    p_run = sub.add_parser("run", help="run one simulation")
    add_common(p_run)
    p_run.add_argument("--h", type=float, help="element width, required (1/h integral)")
    p_run.add_argument("--alpha", type=float, help="dt0 = alpha * h (default 1)")
    p_run.add_argument("--beta", type=float, help="nu = beta * h / alpha (0 = inviscid)")
    p_run.add_argument("--t-final", dest="t_final", type=float, help="end time (default 0.4)")
    p_run.add_argument("--snapshots", type=int, help="snapshot count (default 50)")

    p_sweep = sub.add_parser("sweep", help="run the (alpha, beta, h) study")
    add_common(p_sweep)
    p_sweep.add_argument("--alphas", type=_float_list, help="comma list (default 0.5,1,2)")
    p_sweep.add_argument("--betas", type=_float_list, help="comma list (default 0,1,2,5)")
    p_sweep.add_argument("--hs", type=_float_list,
                         help="comma list (default 5e-4,1e-3,2.5e-3,5e-3,1e-2)")
    p_sweep.add_argument("--t-final", dest="t_final", type=float, help="end time (default 0.4)")
    p_sweep.add_argument("--workers", type=int, help="worker processes (default: cores)")
    p_sweep.add_argument("--format", choices=_TABLE_FORMATS, help="table format")

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
    kwargs = {}
    for key in ("h", "alpha", "beta", "t_final"):
        if getattr(args, key) is not None:
            kwargs[key] = getattr(args, key)
    if args.snapshots is not None:
        kwargs["n_snapshots"] = args.snapshots
    try:
        config = RunConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out_dir = args.out_dir or "phburgers_out"
    _check_out_dir(out_dir)
    result = run_simulation(config)
    paths = write_run_outputs(result, out_dir)
    print(f"run: t reached {result.t_reached:.6g} of {config.t_final:g}, "
          f"{result.n_steps} steps, Var {result.var:.3e}, "
          f"termination {result.termination_reason}; "
          f"{len(paths)} files in {out_dir}", file=sys.stderr)
    for flag in result.flags:
        print(f"run: flagged {flag}", file=sys.stderr)
    return 3 if result.termination_reason == "dt_underflow" else 0


def _cmd_sweep(args) -> int:
    grid_kwargs = {}
    for key in ("alphas", "betas", "hs", "t_final"):
        if getattr(args, key) is not None:
            grid_kwargs[key] = getattr(args, key)
    out_dir = Path(args.out_dir or "phburgers_out")
    _check_out_dir(out_dir)
    try:
        grid = SweepGrid(**grid_kwargs)
        result = run_sweep(grid, workers=args.workers, out_dir=out_dir)
    except ValueError as exc:  # a bad value, found before any cell runs
        raise UsageError(str(exc)) from exc
    fmt = args.format or "csv"
    path = out_dir / ("table.csv" if fmt == "csv" else "table.txt")
    atomic_write_text(path, emit_table(result, fmt))
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
    try:
        if args.shock_speed is not None:
            print(f"{rankine_hugoniot_speed(*args.shock_speed):.12g}")
        elif args.shock_dissipation is not None:
            de, dh = shock_dissipation(*args.shock_dissipation)
            print(f"{de:.12g} {dh:.12g}")
        elif args.shock_time:
            print(f"{shock_formation_time():.12g}")
        else:
            t, x = args.solution
            print(f"{characteristics_solution(t, x):.12g}")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
