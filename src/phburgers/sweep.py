r"""Parameter sweep over (alpha, beta, h) and result serialization.

The stability study runs one simulation per grid cell and reduces each
to four numbers: the balance indicator Var, the time actually reached,
the accepted step count, and why the run stopped.  Cells are
independent, executed in a deterministic order (optionally across
worker processes), and a failed cell is recorded rather than allowed to
abort the sweep.

Serialization lives here too: sweep tables as CSV (full-precision,
round-trippable) or as an aligned text matrix with one block per alpha,
plus the per-run ledger and snapshot CSV writers used by the command
line front end.  All file writes go through a write-to-temp,
rename-on-success path so no output file is ever left half written.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fem1d
from .diagnostics import PowerLedger
from .integrator import RunConfig, RunResult, run_simulation
from .phsystem import State

CSV_HEADER = ("alpha", "beta", "h", "var", "t_final", "n_steps", "termination")
LEDGER_HEADER = PowerLedger.COLUMNS  # t,dt,newton_iters,H,E,qH,qE,QH,QE,bal
SNAPSHOT_HEADER = ("x", "v", "e", "e_r")


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian study grid; defaults match the full stability study.

    Every cell runs to the horizon ``t_final``, and each must be a valid
    :class:`RunConfig`.  No two cells may share a :func:`cell_tag`, the
    name of their ledger file.
    """

    alphas: tuple = (0.5, 1.0, 2.0)
    betas: tuple = (0.0, 1.0, 2.0, 5.0)
    hs: tuple = (5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2)
    t_final: float = RunConfig.t_final

    def __post_init__(self):
        tags = set()
        for config in self.configs():
            tag = cell_tag(config.alpha, config.beta, config.h)
            if tag in tags:
                raise ValueError(f"two cells share the ledger name {tag}; grid values "
                                 "must differ in their first 6 significant digits")
            tags.add(tag)

    def cells(self) -> list[tuple[float, float, float]]:
        return [(a, b, h) for a in self.alphas for b in self.betas for h in self.hs]

    def configs(self) -> list[RunConfig]:
        """Each cell's RunConfig, in :meth:`cells` order; raises ValueError for a bad value."""
        return [RunConfig(h=h, alpha=a, beta=b, t_final=self.t_final) for a, b, h in self.cells()]


@dataclass(frozen=True)
class SweepCell:
    """One grid point's reduced outcome."""

    alpha: float
    beta: float
    h: float
    var: float
    t_final: float
    n_steps: int
    termination: str


@dataclass(frozen=True)
class SweepResult:
    cells: tuple

    def cell(self, alpha: float, beta: float, h: float) -> SweepCell:
        for c in self.cells:
            if (c.alpha, c.beta, c.h) == (alpha, beta, h):
                return c
        raise KeyError(f"no cell for alpha={alpha}, beta={beta}, h={h}")


def cell_tag(alpha: float, beta: float, h: float) -> str:
    """Filesystem-safe name for one grid cell, unique within a SweepGrid."""
    return f"a{alpha:g}_b{beta:g}_h{h:g}"


def _run_cell(payload) -> SweepCell:
    config, out_dir = payload
    alpha, beta, h = config.alpha, config.beta, config.h
    try:
        result = run_simulation(config)
        if out_dir is not None:
            path = Path(out_dir) / f"ledger_{cell_tag(alpha, beta, h)}.csv"
            atomic_write_text(path, format_ledger_csv(result.ledger))
    except Exception as exc:  # a bad cell must not poison the sweep
        return SweepCell(alpha, beta, h, float("nan"), float("nan"), 0,
                         f"error: {type(exc).__name__}: {exc}")
    return SweepCell(alpha, beta, h, result.var, result.t_reached,
                     result.n_steps, result.termination_reason)


def run_sweep(grid: SweepGrid, workers: int | None = None,
              out_dir: str | os.PathLike | None = None) -> SweepResult:
    """Execute every cell of ``grid``; never raises for a failing cell.

    ``workers`` > 1 distributes cells over at most that many processes,
    and never more than there are cells; 1 (or a 1-cell grid) runs
    inline.  The default is the number of CPUs this process may use.
    When ``out_dir`` is given, each cell writes its ledger CSV there
    under a unique name.  Raises ValueError for ``workers`` < 1.
    """
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    payloads = [(config, os.fspath(out_dir) if out_dir else None) for config in grid.configs()]
    # the pool starts all its processes at once, wanted or not
    workers = min(workers, len(payloads))
    if workers <= 1:
        cells = [_run_cell(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell, payloads))
    return SweepResult(cells=tuple(cells))


def _csv_text(header, rows) -> str:
    """CSV of ``header`` and ``rows``; csv writes a float as its exact repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def format_table_csv(result: SweepResult) -> str:
    """Full-precision CSV, one row per cell."""
    return _csv_text(CSV_HEADER, ((c.alpha, c.beta, c.h, c.var, c.t_final, c.n_steps,
                                   c.termination) for c in result.cells))


def parse_table_csv(text: str) -> SweepResult:
    """Inverse of :func:`format_table_csv` (exact round trip)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ValueError(f"unexpected sweep CSV header: {rows[0] if rows else 'empty'}")
    for k, r in enumerate(rows[1:], start=1):
        if len(r) != len(CSV_HEADER):
            raise ValueError(f"sweep CSV row {k} has {len(r)} fields, not {len(CSV_HEADER)}: {r}")
    cells = [SweepCell(float(r[0]), float(r[1]), float(r[2]), float(r[3]),
                       float(r[4]), int(r[5]), r[6]) for r in rows[1:]]
    return SweepResult(cells=tuple(cells))


def format_table_text(result: SweepResult) -> str:
    """Aligned matrix per alpha: one row per beta, one column per h."""
    alphas, betas, hs = [], [], []
    for c in result.cells:
        if c.alpha not in alphas:
            alphas.append(c.alpha)
        if c.beta not in betas:
            betas.append(c.beta)
        if c.h not in hs:
            hs.append(c.h)
    by_key = {(c.alpha, c.beta, c.h): c for c in result.cells}
    lines = []
    for a in alphas:
        lines.append(f"alpha = {a:g}  (cell: var / t_final (n_steps))")
        header = ["beta \\ h"] + [f"{h:g}" for h in hs]
        table = [header]
        for b in betas:
            row = [f"{b:g}"]
            for h in hs:
                c = by_key.get((a, b, h))
                if c is None:
                    row.append("-")
                elif c.termination.startswith("error"):
                    row.append(c.termination)
                else:
                    row.append(f"{c.var:.3e} / {c.t_final:.3f} ({c.n_steps})")
            table.append(row)
        widths = [max(len(r[j]) for r in table) for j in range(len(header))]
        for r in table:
            lines.append("  ".join(s.ljust(w) for s, w in zip(r, widths)).rstrip())
        lines.append("")
    return "\n".join(lines)


TABLE_FORMATS = ("csv", "text")


def emit_table(result: SweepResult, format: str = "csv") -> str:
    """Serialize a sweep result with ``format_table_<format>``, for a format in TABLE_FORMATS."""
    if format not in TABLE_FORMATS:
        raise ValueError(f"unknown table format: {format!r}")
    # looked up at call time, so a writer replaced on the module (traced, patched) is the one run
    return globals()[f"format_table_{format}"](result)


def format_ledger_csv(ledger: PowerLedger) -> str:
    """Per-step power bookkeeping as full-precision CSV; numpy floats print as floats."""
    return _csv_text(LEDGER_HEADER, ([float(x) if isinstance(x, float) else x for x in row]
                                     for row in ledger.rows()))


def format_snapshot_csv(mesh: fem1d.Mesh1D, state: State) -> str:
    """Nodal snapshot (x, v, e, e_r) of one state as CSV."""
    e_r = state.e_r if state.e_r.size else np.zeros(mesh.n_interior)
    cols = [mesh.nodes] + [fem1d.embed_interior(mesh, x) for x in (state.v, state.e, e_r)]
    # tolist gives plain floats, whose repr is what csv writes for them
    rows = "\n".join(map(",".join, zip(*(map(repr, c.tolist()) for c in cols))))
    return ",".join(SNAPSHOT_HEADER) + "\n" + rows + "\n"


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write via a temporary sibling and rename, so readers never see a
    partial file and failures leave the old content intact.  On failure
    the temporary file is removed and the error re-raised."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_run_outputs(result: RunResult, out_dir: str | os.PathLike) -> list[Path]:
    """Write ledger + snapshot CSVs for one run; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mesh = fem1d.build_mesh(result.config.mesh_elems)
    paths = []
    ledger_path = out / "ledger.csv"
    atomic_write_text(ledger_path, format_ledger_csv(result.ledger))
    paths.append(ledger_path)
    digits = max(len(str(len(result.snapshots) - 1)), 2)
    for k, snap in enumerate(result.snapshots):
        p = out / f"snapshot_{k:0{digits}d}_t{snap.t:.6f}.csv"
        atomic_write_text(p, format_snapshot_csv(mesh, snap))
        paths.append(p)
    return paths
