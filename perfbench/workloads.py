"""The benchmark's two workloads and their behaviour fingerprints.

Each workload does what a user of ``phburgers run`` or ``phburgers
sweep`` does, through the package's public API, and returns one
fingerprint per simulation: (alpha, beta, h) with Var, the time reached,
the accepted step count and the termination reason.  ``check`` compares
them with ``reference.json`` and reads back the files the workload wrote.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from phburgers import integrator, sweep
from phburgers.integrator import RunConfig

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# the study grid of the sweep workload: 12 cells on the coarse mesh
STUDY_ALPHAS = (0.5, 1.0, 2.0)
STUDY_BETAS = (0.0, 1.0, 2.0, 5.0)
STUDY_H = 1e-2


@dataclass(frozen=True)
class Fingerprint:
    alpha: float
    beta: float
    h: float
    var: float
    t_reached: float
    n_steps: int
    termination: str

    @property
    def key(self) -> str:
        return sweep.cell_tag(self.alpha, self.beta, self.h)


@dataclass
class Outcome:
    """What one repetition of a workload produced.

    ``audit`` reads the written files back once the clock has stopped and
    returns why each cell's files are wrong, keyed by cell.
    """

    fingerprints: list[Fingerprint]
    audit: Callable[[], dict[str, str]]


def run_single(config: RunConfig, out_dir: Path) -> Outcome:
    """``phburgers run``: one simulation plus its ledger and snapshot CSVs."""
    result = integrator.run_simulation(config)
    paths = sweep.write_run_outputs(result, out_dir)
    fp = Fingerprint(config.alpha, config.beta, config.h, result.var, result.t_reached,
                     result.n_steps, result.termination_reason)

    def audit():
        ledger_lines = (out_dir / "ledger.csv").read_text().count("\n")
        if len(paths) == len(result.snapshots) + 1 and ledger_lines == result.n_steps + 2:
            return {}
        return {fp.key: f"{len(paths)} files, {ledger_lines} ledger lines for "
                        f"{len(result.snapshots)} snapshots and {result.n_steps} steps"}

    return Outcome([fp], audit)


def study_grid(seed: int) -> sweep.SweepGrid:
    """The study grid; seeds other than 0 permute the order cells are submitted in."""
    alphas, betas = list(STUDY_ALPHAS), list(STUDY_BETAS)
    if seed != 0:
        rng = random.Random(seed)
        rng.shuffle(alphas)
        rng.shuffle(betas)
    return sweep.SweepGrid(alphas=tuple(alphas), betas=tuple(betas), hs=(STUDY_H,))


def run_study(seed: int, workers: int, out_dir: Path) -> Outcome:
    """``phburgers sweep``: the grid across ``workers`` processes, then the table."""
    result = sweep.run_sweep(study_grid(seed), workers=workers, out_dir=out_dir)
    sweep.atomic_write_text(out_dir / "table.csv", sweep.emit_table(result, "csv"))
    fps = [Fingerprint(c.alpha, c.beta, c.h, c.var, c.t_final, c.n_steps, c.termination)
           for c in result.cells]

    def audit():
        problems = {}
        parsed = sweep.parse_table_csv((out_dir / "table.csv").read_text()).cells
        if len(parsed) != len(result.cells):
            parsed = [None] * len(result.cells)
        for fp, cell, row in zip(fps, result.cells, parsed):
            if row != cell:
                problems[fp.key] = f"table row {row} does not round-trip {cell}"
            elif not (out_dir / f"ledger_{fp.key}.csv").is_file():
                problems[fp.key] = "ledger file missing"
        return problems

    return Outcome(fps, audit)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: RunConfig  # mesh and viscosity whose set-up setup_s times
    run: Callable[[int, int, Path], Outcome]  # (seed, workers, out_dir)


VISCOUS_FINE = RunConfig(h=1e-3, alpha=1.0, beta=1.0)

# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "viscous_fine",
            VISCOUS_FINE,
            lambda seed, workers, out: run_single(VISCOUS_FINE, out),
        ),
        Workload(
            "study_coarse",
            RunConfig(h=STUDY_H, alpha=1.0, beta=1.0),
            run_study,
        ),
    )
}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def matches(fp: Fingerprint, ref: dict, rtol: dict) -> bool:
    """Exact n_steps and termination; t_reached and Var within relative tolerance."""
    return (fp.n_steps == ref["n_steps"] and fp.termination == ref["termination"]
            and abs(fp.t_reached - ref["t_reached"]) <= rtol["t_reached"] * abs(ref["t_reached"])
            and abs(fp.var - ref["var"]) <= rtol["var"] * abs(ref["var"]))


def check(workload: str, outcome: Outcome, reference: dict) -> tuple[int, dict[str, str]]:
    """Simulations attempted, and why each failed one failed, keyed by cell.

    A reference cell the outcome lacks counts as attempted and failed.
    """
    expected = {sweep.cell_tag(r["alpha"], r["beta"], r["h"]): r
                for r in reference["workloads"][workload]}
    failed = {key: "not run" for key in expected}
    problems = outcome.audit()
    for fp in outcome.fingerprints:
        ref = expected.get(fp.key)
        if fp.key in problems:
            failed[fp.key] = problems[fp.key]
        elif ref is None:
            failed[fp.key] = "no reference fingerprint"
        elif not matches(fp, ref, reference["rtol"]):
            failed[fp.key] = f"got {asdict(fp)}, expected {ref}"
        else:
            del failed[fp.key]
    return len(expected.keys() | {fp.key for fp in outcome.fingerprints}), failed
