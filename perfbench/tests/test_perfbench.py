"""Checks of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from phburgers import fem1d, integrator, sweep  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("a.leaf", 2.0, 3.0, 1, 1),
        Span("b", 5.0, 6.5, 0, 1),
        Span("b", 7.0, 8.0, 0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5 - 1.0, 2.0, 1.0, 1.5, 1.0])


def test_counters_from_synthetic_spans():
    spans = [
        Span("integrator.newton_solve", 0.0, 5.0, -1, 1),          # accepted
        Span("fem1d.assemble_quadratic_load", 0.0, 0.1, 0, 1),     # initial residual
        Span("integrator.newton_matrix", 0.1, 0.5, 0, 1),
        Span("fem1d.assemble_quadratic_load", 0.5, 0.6, 0, 1),     # rejected candidate
        Span("fem1d.assemble_quadratic_load", 0.6, 0.7, 0, 1),     # accepted candidate
        Span("integrator.newton_solve", 6.0, 7.0, -1, 1, error="StepFailure"),
        Span("fem1d.assemble_quadratic_load", 6.0, 6.1, 5, 1),
        Span("fem1d.assemble_quadratic_load", 8.0, 8.1, -1, 1),    # outside Newton
    ]
    m = tracing.layer_metrics(spans)
    assert m["integrator.newton_solve.calls"] == 2
    assert m["integrator.steps_accepted"] == 1
    assert m["integrator.attempts_rejected"] == 1
    assert m["integrator.newton_iters"] == 1
    assert m["integrator.residual_evals"] == 4
    assert m["integrator.backtracks"] == 1
    assert m["integrator.accept_ratio"] == 0.5
    assert m["integrator.full_step_ratio"] == 0.5
    assert m["fem1d.assemble_quadratic_load.calls"] == 5
    assert m["integrator.newton_solve.self_s"] == pytest.approx(5.0 - 0.7 + 1.0 - 0.1)


def backtracks_in_span_order(spans):
    """Line-search backtracks counted from the order of the spans alone.

    Within a Newton attempt, each Newton matrix is followed by the
    residual evaluations of its line search; all but the first backtrack.
    """
    def enclosing_solve(span):
        while span.parent >= 0:
            if spans[span.parent].name == "integrator.newton_solve":
                return span.parent
            span = spans[span.parent]
        return None

    latest_matrix = {}  # newton_solve span -> its latest newton_matrix span
    candidates = {}  # newton_matrix span -> residual evaluations that follow it
    for i, span in enumerate(spans):
        solve = enclosing_solve(span)
        if solve is None:
            continue
        if span.name == "integrator.newton_matrix":
            latest_matrix[solve] = i
            candidates[i] = 0
        elif span.name == "fem1d.assemble_quadratic_load" and solve in latest_matrix:
            candidates[latest_matrix[solve]] += 1
    return sum(max(n - 1, 0) for n in candidates.values())


def test_counter_identities_on_a_wall_zone_cell():
    config = integrator.RunConfig(h=1e-2, alpha=1.0, beta=1.0)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        result = integrator.run_simulation(config)
    m = tracing.layer_metrics(tracer.spans)
    attempts = m["integrator.newton_solve.calls"]
    assert m["integrator.backtracks"] > 0  # this cell backtracks
    assert m["integrator.backtracks"] == backtracks_in_span_order(tracer.spans)
    assert m["integrator.residual_evals"] == (
        attempts + m["integrator.newton_iters"] + m["integrator.backtracks"])
    assert min(tracing.self_times(tracer.spans)) >= 0.0
    assert m["integrator.steps_accepted"] == result.n_steps
    assert m["integrator.attempts_rejected"] > 0  # this cell rejects attempts
    assert m["integrator.newton_matrix.calls"] >= sum(result.ledger.column("newton_iters"))
    assert m["diagnostics.PowerLedger.record.calls"] == len(result.ledger)


def test_instrument_restores_every_wrapped_function():
    originals = (fem1d.assemble_weighted_mass, integrator._newton_matrix,
                 integrator.run_simulation, sweep.run_simulation)
    with tracing.instrument(tracing.Tracer()):
        assert sweep.run_simulation is integrator.run_simulation
        assert integrator.run_simulation is not originals[2]
    assert (fem1d.assemble_weighted_mass, integrator._newton_matrix,
            integrator.run_simulation, sweep.run_simulation) == originals


def test_check_counts_mismatches_and_accepts_wall_zone_cells():
    reference = workloads.load_reference()
    cells = reference["workloads"]["study_coarse"]
    fps = [workloads.Fingerprint(c["alpha"], c["beta"], c["h"], c["var"], c["t_reached"],
                                 c["n_steps"], c["termination"]) for c in cells]
    assert any(fp.termination == "dt_underflow" for fp in fps)
    ok = workloads.Outcome(fps, dict)
    assert workloads.check("study_coarse", ok, reference) == (len(cells), {})

    fps[0] = workloads.Fingerprint(fps[0].alpha, fps[0].beta, fps[0].h, fps[0].var * 1.01,
                                   fps[0].t_reached, fps[0].n_steps, fps[0].termination)
    attempted, failed = workloads.check("study_coarse", workloads.Outcome(fps[:-1], dict),
                                        reference)
    assert attempted == len(cells)
    assert set(failed) == {fps[0].key, fps[-1].key}


def test_seeds_permute_the_study_grid_only():
    canonical = workloads.study_grid(0).cells()
    assert canonical == sweep.SweepGrid(alphas=workloads.STUDY_ALPHAS,
                                        betas=workloads.STUDY_BETAS,
                                        hs=(workloads.STUDY_H,)).cells()
    for seed in (1, 2, 3):
        assert sorted(workloads.study_grid(seed).cells()) == sorted(canonical)
        assert workloads.study_grid(seed).cells() == workloads.study_grid(seed).cells()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == set(workloads.load_reference()["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = tracing.LAYER_METRICS + run.TRACE_METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in layers]
