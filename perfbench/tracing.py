"""Spans around phburgers' layer boundaries, recorded from outside the program.

Every public function of the five solver modules is replaced, for the
duration of a traced run, by a wrapper that records a span (name, start,
end, parent span, run id) in memory.  So are the three entry points the
program's linear algebra goes through, ``integrator._newton_matrix``
(called through the module global) and ``PowerLedger.record``.  Aliases
of a wrapped function in any ``phburgers`` module are replaced too, so a
``from .integrator import run_simulation`` inside the package is traced.

Per-layer metrics are derived from the spans alone: call counts,
inclusive seconds, self seconds (a span minus the part of it its child
spans cover) and the integrator's step, iteration and line-search
counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

import scipy.linalg
import scipy.sparse.linalg

MODULES = ("fem1d", "phsystem", "integrator", "diagnostics", "sweep")

# a new run id starts with every simulation
RUN_SPAN = "integrator.run_simulation"

# (name, unit, the end-to-end metric and workload it should move)
LAYER_METRICS = (
    ("fem1d.assemble_weighted_mass.calls", "count", "wall_s on study_coarse, then viscous_fine"),
    ("fem1d.assemble_weighted_mass.s", "s", "wall_s on study_coarse, then viscous_fine"),
    ("fem1d.assemble_quadratic_load.calls", "count", "wall_s on study_coarse, then viscous_fine"),
    ("fem1d.assemble_quadratic_load.s", "s", "wall_s on study_coarse, then viscous_fine"),
    ("fem1d.assemble_operators.s", "s", "setup_s on all workloads"),
    ("phsystem.make_state.calls", "count", "setup_s; a jump means use on the iteration path"),
    ("phsystem.make_state.s", "s", "setup_s on all workloads"),
    ("phsystem.weighted_mass_factor.calls", "count", "setup_s; a jump means use on the iteration path"),
    ("integrator.newton_solve.calls", "count", "wall_s on viscous_fine"),
    ("integrator.newton_solve.s", "s", "wall_s on viscous_fine"),
    ("integrator.newton_solve.self_s", "s", "wall_s on viscous_fine"),
    ("integrator.newton_matrix.calls", "count", "wall_s on viscous_fine"),
    ("integrator.newton_matrix.s", "s", "wall_s on viscous_fine"),
    ("linalg.splu.calls", "count", "wall_s on viscous_fine"),
    ("linalg.splu.s", "s", "wall_s on viscous_fine"),
    ("linalg.solve_banded.calls", "count", "wall_s on viscous_fine"),
    ("linalg.solveh_banded.calls", "count", "wall_s on viscous_fine"),
    ("linalg.banded.s", "s", "wall_s on viscous_fine"),
    ("integrator.steps_accepted", "count", "wall_s on study_coarse"),
    ("integrator.attempts_rejected", "count", "wall_s on study_coarse"),
    ("integrator.newton_iters", "count", "wall_s on study_coarse"),
    ("integrator.residual_evals", "count", "wall_s on study_coarse"),
    ("integrator.backtracks", "count", "wall_s on study_coarse"),
    ("integrator.accept_ratio", "ratio", "wall_s on study_coarse"),
    ("integrator.full_step_ratio", "ratio", "wall_s on study_coarse"),
    ("diagnostics.PowerLedger.record.calls", "count", "wall_s on viscous_fine and study_coarse"),
    ("diagnostics.PowerLedger.record.s", "s", "wall_s on viscous_fine and study_coarse"),
    ("sweep.format_csv.s", "s", "wall_s on viscous_fine, then study_coarse"),
    ("sweep.atomic_write_text.calls", "count", "wall_s on all workloads"),
    ("sweep.atomic_write_text.s", "s", "wall_s on all workloads"),
    ("sweep.atomic_write_text.bytes", "B", "wall_s on all workloads"),
    ("sweep.self_s", "s", "wall_s on viscous_fine"),
)
# Every time above is nonzero on every workload.  Functions some workload
# never calls are timed only inside an aggregate that it does call:
# weighted_mass_factor inside make_state, solve_banded with solveh_banded
# (linalg.banded), the snapshot, ledger and table writers together
# (sweep.format_csv), and the sweep module's own time, run_sweep's loop
# included, as sweep.self_s.
CSV_FORMATTERS = ("sweep.format_snapshot_csv", "sweep.format_ledger_csv",
                  "sweep.format_table_csv")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root
    run: int
    error: str | None = None
    nbytes: int = 0


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run = 0

    def call(self, name, fn, args, kwargs):
        if name == RUN_SPAN:
            self.run += 1
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.run,
                    nbytes=len(args[1].encode()) if name == "sweep.atomic_write_text" else 0)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._open.pop()


def _traced(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def targets():
    """(span name, owner, attribute) of every function a traced run wraps."""
    found = []
    for modname in MODULES:
        module = importlib.import_module(f"phburgers.{modname}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                found.append((f"{modname}.{attr}", module, attr))
    integrator = importlib.import_module("phburgers.integrator")
    diagnostics = importlib.import_module("phburgers.diagnostics")
    found += [
        ("integrator.newton_matrix", integrator, "_newton_matrix"),
        ("diagnostics.PowerLedger.record", diagnostics.PowerLedger, "record"),
        ("linalg.splu", scipy.sparse.linalg, "splu"),
        ("linalg.solve_banded", scipy.linalg, "solve_banded"),
        ("linalg.solveh_banded", scipy.linalg, "solveh_banded"),
    ]
    return found


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every target (and its aliases in phburgers modules) while active."""
    package = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "phburgers" or n.startswith("phburgers."))]
    saved = []
    try:
        for name, owner, attr in targets():
            original = getattr(owner, attr)
            wrapped = _traced(tracer, name, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            for module in package:
                for alias, obj in list(vars(module).items()):
                    if obj is original:
                        saved.append((module, alias, original))
                        setattr(module, alias, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's.

    Spans come from one thread's call stack, so children never overlap.
    """
    out = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every metric of LAYER_METRICS, derived from one traced run's spans."""
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    self_s: dict[str, float] = {}
    nbytes: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] = calls.get(span.name, 0) + 1
        secs[span.name] = secs.get(span.name, 0.0) + (span.end - span.start)
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        nbytes[span.name] = nbytes.get(span.name, 0) + span.nbytes

    attempts = calls.get("integrator.newton_solve", 0)
    accepted = sum(1 for s in spans if s.name == "integrator.newton_solve" and s.error is None)
    iters = calls.get("integrator.newton_matrix", 0)
    residual_evals = sum(1 for s in spans if s.name == "fem1d.assemble_quadratic_load"
                         and _has_ancestor(spans, s, "integrator.newton_solve"))
    candidates = residual_evals - attempts  # line-search trial points

    derived = {
        "integrator.newton_solve.self_s": self_s.get("integrator.newton_solve", 0.0),
        "integrator.steps_accepted": accepted,
        "integrator.attempts_rejected": attempts - accepted,
        "integrator.newton_iters": iters,
        "integrator.residual_evals": residual_evals,
        "integrator.backtracks": candidates - iters,
        "integrator.accept_ratio": accepted / attempts,
        "integrator.full_step_ratio": iters / candidates,
        "linalg.banded.s": secs.get("linalg.solve_banded", 0.0)
        + secs.get("linalg.solveh_banded", 0.0),
        "sweep.format_csv.s": sum(secs.get(name, 0.0) for name in CSV_FORMATTERS),
        "sweep.atomic_write_text.bytes": nbytes.get("sweep.atomic_write_text", 0),
        "sweep.self_s": sum(t for name, t in self_s.items() if name.startswith("sweep.")),
    }
    metrics = {}
    for name, _, _ in LAYER_METRICS:
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith(".calls"):
            metrics[name] = calls.get(name[: -len(".calls")], 0)
        else:
            metrics[name] = secs.get(name[: -len(".s")], 0.0)
    return metrics


def write_spans(path, spans_by_rep) -> None:
    """Write the spans of every traced repetition as CSV, one span a row."""
    with open(path, "w") as fh:
        fh.write("rep,id,name,start,end,parent,run,error,bytes\n")
        for rep, spans in enumerate(spans_by_rep):
            for i, s in enumerate(spans):
                fh.write(f"{rep},{i},{s.name},{s.start!r},{s.end!r},{s.parent},"
                         f"{s.run},{s.error or ''},{s.nbytes}\n")
