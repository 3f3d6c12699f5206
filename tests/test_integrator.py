"""Step solver, controller arithmetic, and whole-run bookkeeping."""

import dataclasses

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from conftest import (FIELD_KINDS, assert_bitwise_equal, einsum_quadratic_load,
                      einsum_weighted_mass, full_assembly_operators, op_by_op_residual,
                      sample_field)
from phburgers import diagnostics, fem1d, integrator, phsystem


def make_ops(n_elems):
    return fem1d.assemble_operators(fem1d.build_mesh(n_elems))


def pulse_state(ops, nu=0.0):
    v0 = fem1d.interpolate(ops.mesh, diagnostics.gaussian_pulse)
    return phsystem.make_state(ops, v0, nu=nu)


# ---------------------------------------------------------------- config


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs", [
    dict(h=0.0),
    dict(h=0.1, alpha=0.0),
    dict(h=0.1, alpha=-1.0),
    dict(h=0.1, beta=-0.5),
    dict(h=0.1, t_final=-1.0),
    dict(h=0.1, fixed_dt=0.0),
    dict(h=0.3),
    dict(h=-0.1),
    dict(h=NAN),
    dict(h=INF),
    dict(h=0.1, alpha=NAN),
    dict(h=0.1, alpha=INF),
    dict(h=0.1, beta=NAN),
    dict(h=0.1, beta=INF),
    dict(h=0.1, t_final=NAN),
    dict(h=0.1, t_final=INF),
    dict(h=0.1, fixed_dt=NAN),
    dict(h=0.1, fixed_dt=INF),
    dict(h=0.1, n_snapshots=-3),
    dict(h=1e-320),  # 1/h overflows
    dict(h=0.01, alpha=5e-324),  # dt0 underflows to zero
    dict(h=0.5, alpha=1e-320, beta=1.0),  # nu overflows
])
def test_config_rejects_bad_values(kwargs):
    # construction only: a NaN alpha that got through would never finish a run
    with pytest.raises(ValueError):
        integrator.RunConfig(**kwargs)


def test_config_derived_quantities():
    cfg = integrator.RunConfig(h=1e-2, alpha=2.0, beta=4.0)
    assert cfg.mesh_elems == 100
    assert cfg.width == pytest.approx(1e-2)
    assert cfg.nu == pytest.approx(0.02)
    assert cfg.dt0 == pytest.approx(0.02)
    assert cfg.dt_cap == pytest.approx(8.0 * cfg.dt0)
    assert cfg.dt_min == pytest.approx(cfg.dt0 / 4096.0)
    assert integrator.RunConfig(h=0.025).mesh_elems == 40


# --------------------------------------------------------- step_residual


def stacked(state):
    return np.concatenate([state.v, state.e, state.f_r, state.e_r])


def eliminated_residual(ops, state_n, v, dt):
    """One-field Crank-Nicolson residual in v, the constitutive rows solved away."""
    g_n = phsystem.structure_apply(ops, state_n)
    trial = phsystem.make_state(ops, v, nu=state_n.nu, t=state_n.t + dt)
    g_t = phsystem.structure_apply(ops, trial)
    return ops.mass @ (trial.v - state_n.v) - 0.5 * dt * (g_t + g_n)


@pytest.mark.parametrize("nu", [0.0, 2e-2])
def test_step_residual_zero_at_rest(nu):
    # every field vanishes at rest, which is consistent in both modes
    ops = make_ops(8)
    n = ops.mesh.n_interior
    st = integrator._stacked_state(np.zeros((4 if nu else 2) * n), nu, 0.0)
    F = integrator.step_residual(ops, st, dt=0.05)(stacked(st))
    assert F.size == stacked(st).size
    assert np.all(F == 0.0)


def test_step_residual_is_finite_where_trial_weight_vanishes():
    # no weighted-mass solve on the iteration path: W(0) = 0 is harmless
    ops = make_ops(6)
    rng = np.random.default_rng(0)
    st = phsystem.make_state(ops, rng.uniform(0.2, 1.2, ops.mesh.n_interior), nu=1e-2)
    z = stacked(st)
    z[:ops.mesh.n_interior] = 0.0
    F = integrator.step_residual(ops, st, dt=1e-3)(z)
    assert np.all(np.isfinite(F))
    assert np.any(F != 0.0)


# ----------------------------------------------------------- newton_solve


def test_newton_zero_dt_returns_start_state():
    ops = make_ops(10)
    st = pulse_state(ops)
    out, iters = integrator.newton_solve(ops, st, 0.0)
    assert iters == 0
    np.testing.assert_array_equal(out.v, st.v)


@pytest.mark.parametrize("nu", [0.0, 2e-2])
def test_single_element_step_is_identity(nu):
    # one interior basis function: D = [0], so nothing moves
    ops = make_ops(1)
    st = phsystem.make_state(ops, np.array([0.8]), nu=nu)
    out, iters = integrator.newton_solve(ops, st, 0.1)
    assert iters == 0
    np.testing.assert_array_equal(out.v, st.v)
    assert out.t == pytest.approx(0.1)


def test_newton_postcondition_on_step_residual(monkeypatch):
    # converged iterate satisfies the dynamics-residual bound used as the
    # acceptance contract: |F(v)| <= tol * max(|F(v_n)|, |M v_n|)
    monkeypatch.setattr(integrator, "NEWTON_TOL", 1e-10)
    ops = make_ops(16)
    rng = np.random.default_rng(5)
    for nu in (0.0, 2e-2):
        v = rng.uniform(0.4, 1.4, ops.mesh.n_interior)
        st = phsystem.make_state(ops, v, nu=nu)
        dt = 1e-3
        out, iters = integrator.newton_solve(ops, st, dt)
        assert 0 < iters <= integrator.NEWTON_MAX_ITER
        res = np.linalg.norm(eliminated_residual(ops, st, out.v, dt))
        res0 = np.linalg.norm(eliminated_residual(ops, st, st.v, dt))
        bound = integrator.NEWTON_TOL * max(res0, np.linalg.norm(ops.mass @ st.v))
        assert res <= bound


def test_newton_matches_generic_root_finder(monkeypatch):
    # independent solve of the same step equations via scipy's hybrd
    monkeypatch.setattr(integrator, "NEWTON_TOL", 1e-13)
    ops = make_ops(10)
    st = pulse_state(ops)
    dt = 0.02
    out, _ = integrator.newton_solve(ops, st, dt)

    sol = scipy.optimize.root(
        lambda v: eliminated_residual(ops, st, v, dt), st.v, tol=1e-13)
    assert sol.success
    assert np.linalg.norm(out.v - sol.x) <= 1e-9 * max(np.linalg.norm(sol.x), 1.0)


def test_newton_runs_out_of_iterations(monkeypatch):
    monkeypatch.setattr(integrator, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(integrator, "NEWTON_TOL", 1e-14)
    ops = make_ops(10)
    st = pulse_state(ops)
    with pytest.raises(phsystem.StepFailure) as exc:
        integrator.newton_solve(ops, st, 0.05)
    assert exc.value.reason == "newton_divergence"


# --------------------------------------------------------- _newton_matrix


def coupled_residual(ops, state_n, dt, z):
    """F(v, e, f, e_r) in the paper's form, with its R = D^T, from the operators.

    Splits z with np.split, takes R from the full-assembly oracle and
    builds a fresh W(v) and N(v) with the einsum oracles on every call,
    so it shares no kernel and no state with step_residual.
    """
    M, D = ops.mass, ops.convection
    if not state_n.viscous:
        v, e = np.split(z, 2)
        return np.concatenate([
            M @ (v - state_n.v) - 0.5 * dt * (D @ e + D @ state_n.e),
            M @ e - einsum_quadratic_load(ops.mesh, v),
        ])
    v, e, f, r = np.split(z, 4)
    R = full_assembly_operators(ops.mesh)[2]
    g_n = D @ state_n.e - R @ state_n.e_r
    return np.concatenate([
        M @ (v - state_n.v) - 0.5 * dt * (D @ e - R @ r + g_n),
        M @ e - einsum_quadratic_load(ops.mesh, v),
        M @ f - R.T @ e,
        einsum_weighted_mass(ops.mesh, v) @ r - state_n.nu * (M @ f),
    ])


def taylor_point(nu, perturbed):
    """Operators, start state, a stacked point and the generator that drew it."""
    ops = make_ops(12)
    state_n = pulse_state(ops, nu)
    rng = np.random.default_rng(7)
    z = stacked(state_n)
    if perturbed:
        z = z + 0.1 * np.abs(z).max() * rng.standard_normal(z.size)
    return ops, state_n, z, rng


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("nu", [0.0, 2e-2])
def test_newton_matrix_taylor_remainder_is_second_order(nu, perturbed):
    # F is polynomial in z, so |F(z + eps d) - F(z) - eps A d| = O(eps^2)
    # exactly when A is its Jacobian; a wrong block leaves an O(eps) term
    ops, state_n, z, rng = taylor_point(nu, perturbed)
    dt = 0.05
    A = integrator._newton_matrix(ops, integrator._stacked_state(z, nu, 0.0), dt)
    d = rng.standard_normal(z.size)
    F0 = coupled_residual(ops, state_n, dt, z)
    eps = np.array([1e-1, 1e-2, 1e-3])
    rem = [np.linalg.norm(coupled_residual(ops, state_n, dt, z + s * d) - F0 - s * (A @ d))
           for s in eps]
    slopes = np.diff(np.log(rem)) / np.diff(np.log(eps))
    np.testing.assert_allclose(slopes, 2.0, atol=1e-3)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("nu", [0.0, 2e-2])
def test_step_residual_is_bitwise_the_coupled_oracle(nu, perturbed):
    # the residual Newton drives to zero is the one the Taylor test checks
    ops, state_n, z, rng = taylor_point(nu, perturbed)
    dt = 0.05
    F = integrator.step_residual(ops, state_n, dt)
    for point in (z, z + 1e-2 * rng.standard_normal(z.size)):
        np.testing.assert_array_equal(F(point).view(np.int64),
                                      coupled_residual(ops, state_n, dt, point).view(np.int64))


@pytest.mark.parametrize("kind", FIELD_KINDS)
@pytest.mark.parametrize("nu", [0.0, 2e-2])
@pytest.mark.parametrize("n_elems", [1, 2, 9, 100, 1000])
def test_step_residual_is_bitwise_the_split_oracle(n_elems, nu, kind):
    # start state and trial points of one kind, overflow and signed zeros included
    ops = make_ops(n_elems)
    rng = np.random.default_rng(n_elems)
    n_fields = 4 if nu > 0.0 else 2

    def draw():
        return np.concatenate([sample_field(kind, rng, ops.mesh.n_interior)
                               for _ in range(n_fields)])

    state_n = integrator._stacked_state(draw(), nu, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        F = integrator.step_residual(ops, state_n, 0.05)
        for z in (draw(), draw()):
            assert F(z).tobytes() == coupled_residual(ops, state_n, 0.05, z).tobytes()


@pytest.mark.parametrize("kind", ["random", "zero", "negative", "subnormal", "huge",
                                  "nan", "inf"])
@pytest.mark.parametrize("nu", [0.0, 2e-2])
@pytest.mark.parametrize("n_elems", [1, 2, 7, 100])
def test_step_residual_is_bitwise_the_op_by_op_reference(n_elems, nu, kind):
    # one fused product and one quadrature pass change no bit of any row;
    # a NaN or inf entry goes into each field in turn, and NaN matches NaN
    ops = make_ops(n_elems)
    rng = np.random.default_rng(n_elems)
    n, n_fields = ops.mesh.n_interior, 4 if nu > 0.0 else 2
    state_n = integrator._stacked_state(rng.standard_normal(n_fields * n), nu, 0.0)
    F = integrator.step_residual(ops, state_n, 0.05)
    if kind in ("nan", "inf"):
        base = rng.standard_normal(n_fields * n)
        points = [base.copy() for _ in range(n_fields)]
        for field, z in enumerate(points):
            z[field * n + n // 2] = float(kind)
    else:
        points = [np.concatenate([sample_field(kind, rng, n) for _ in range(n_fields)])]
    with np.errstate(over="ignore", invalid="ignore"):
        for z in points:
            got, want = F(z), op_by_op_residual(ops, state_n, 0.05, z)
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@pytest.mark.parametrize("nu", [0.0, 2e-2])
def test_step_residual_keeps_no_state_between_evaluations(nu):
    # the viscous closure refills one W per evaluation; nothing may carry over
    ops, state_n, z1, rng = taylor_point(nu, perturbed=True)
    F = integrator.step_residual(ops, state_n, 0.05)
    z2 = z1 + rng.standard_normal(z1.size)
    first, second, third = F(z1), F(z2), F(z1)
    assert first.tobytes() == third.tobytes()
    assert first.tobytes() != second.tobytes()


def bmat_newton_matrix(ops, trial, dt, R=None):
    """Reference Newton matrix: the scaled blocks stacked by scipy.sparse.bmat.

    The blocks are those of the integrator's module docstring, or, given
    the paper's R, the same matrix written with R = D^T in the port column
    and row: (dt/2) R at (0, 3) and -R^T at (2, 1).
    """
    M, D = ops.mass, ops.convection
    Wv = fem1d.assemble_weighted_mass(ops.mesh, trial.v)
    if not trial.viscous:
        return scipy.sparse.bmat([[M, -0.5 * dt * D], [-Wv, M]], format="csc")
    Wr = fem1d.assemble_weighted_mass(ops.mesh, trial.e_r)
    port, flow = (-0.5 * dt * D, -D) if R is None else (0.5 * dt * R, -R.T)
    return scipy.sparse.bmat(
        [[M, -0.5 * dt * D, None, port],
         [-Wv, M, None, None],
         [None, flow, M, None],
         [Wr, None, -trial.nu * M, Wv]], format="csc")


@pytest.mark.parametrize("kind", FIELD_KINDS)
@pytest.mark.parametrize("nu", [0.0, 2e-2])
@pytest.mark.parametrize("n_elems", [1, 2, 9, 100])
def test_newton_matrix_is_bitwise_the_bmat_stack(n_elems, nu, kind):
    ops = make_ops(n_elems)
    rng = np.random.default_rng(n_elems)
    n_fields = 4 if nu > 0.0 else 2
    for dt in (0.0, 1e-3, 0.37):
        z = np.concatenate([sample_field(kind, rng, ops.mesh.n_interior)
                            for _ in range(n_fields)])
        trial = integrator._stacked_state(z, nu, 0.0)
        A = integrator._newton_matrix(ops, trial, dt)
        assert_bitwise_equal(A, bmat_newton_matrix(ops, trial, dt))
        if nu > 0.0:
            # the paper's R-form equals it entry by entry, NaNs in the same
            # places; only the diagonal zeros of block (0, 3) differ, +0 there
            # against -0 here, and all of them do
            P = bmat_newton_matrix(ops, trial, dt, R=full_assembly_operators(ops.mesh)[2])
            np.testing.assert_array_equal(P.indptr, A.indptr)
            np.testing.assert_array_equal(P.indices, A.indices)
            np.testing.assert_array_equal(P.data, A.data)
            n = ops.mesh.n_interior
            cols = np.repeat(np.arange(4 * n), np.diff(A.indptr))
            port_diagonal = (A.indices < n) & (cols == A.indices + 3 * n)
            differ = P.data.view(np.int64) != A.data.view(np.int64)
            np.testing.assert_array_equal(differ, port_diagonal)
            assert np.all(A.data[differ] == 0.0) and np.all(np.signbit(A.data[differ]))


# ------------------------------------------------------------ step loop


def replay_controller(cfg, schedule=lambda attempt: 0):
    """The step loop's controller arithmetic, replayed without solving.

    ``schedule(k)`` is the outcome of attempt k: the Newton iteration
    count of an accepted step, or a StepFailure.  The default accepts
    every attempt at zero iterations, as a run from rest does.  Returns
    the dt of every accepted step and the termination reason.
    """
    t, dt, streak, dts, attempt = 0.0, cfg.fixed_dt or cfg.dt0, 0, [], 0
    while t < cfg.t_final - 1e-12 * max(cfg.t_final, 1.0):
        outcome = schedule(attempt)
        attempt += 1
        step = min(dt, cfg.t_final - t)
        if isinstance(outcome, phsystem.StepFailure):
            if cfg.fixed_dt is not None:
                return dts, outcome.reason
            streak = 0
            dt *= integrator.DT_SHRINK
            if dt < cfg.dt_min:
                return dts, "dt_underflow"
            continue
        t = cfg.t_final if dt >= cfg.t_final - t else t + step
        dts.append(step)
        if cfg.fixed_dt is None:
            streak = streak + 1 if outcome <= integrator.GROWTH_ITER_LIMIT else 0
            if streak >= integrator.GROWTH_STREAK:
                dt = min(dt * integrator.DT_GROWTH, cfg.dt_cap)
                streak = 0
    return dts, "completed"


def test_adaptive_advance_records_accepted_step():
    # one step from rest on a horizon of exactly dt0: accepted at dt0 with
    # zero Newton iterations and recorded as the ledger's second row
    cfg = integrator.RunConfig(h=0.1)
    cfg = dataclasses.replace(cfg, t_final=cfg.dt0)
    run = integrator.run_simulation(cfg, profile=lambda x: np.zeros_like(x))
    assert run.termination_reason == "completed" and run.n_steps == 1
    assert len(run.ledger) == 2
    first = dict(zip(diagnostics.PowerLedger.COLUMNS, run.ledger.rows()[1]))
    assert first["dt"] == pytest.approx(cfg.dt0)
    assert first["t"] == pytest.approx(cfg.dt0)
    assert first["newton_iters"] == 0
    assert run.t_reached == pytest.approx(cfg.dt0)


def test_rest_run_follows_controller_arithmetic():
    # v = 0 accepts every step with zero iterations, so the step count is
    # pure controller arithmetic: 5 steps at dt0, growth by 1.5 after each
    # streak of five, final clamp onto t_final.  For dt0 = 1e-2, t_final
    # = 0.4 that gives 20 accepted steps.
    cfg = integrator.RunConfig(h=1e-2, t_final=0.4)
    run = integrator.run_simulation(cfg, profile=lambda x: np.zeros_like(x))
    assert run.termination_reason == "completed"
    assert run.t_reached == cfg.t_final
    dts, _ = replay_controller(cfg)
    assert run.n_steps == len(dts) == 20
    np.testing.assert_array_equal(run.ledger.column("dt")[1:], dts)
    assert np.all(run.ledger.column("newton_iters") == 0)
    assert np.all(run.ledger.column("H") == 0.0)
    assert run.var == 0.0
    assert run.flags == ()


def test_rest_run_reaches_dt_cap():
    cfg = integrator.RunConfig(h=1e-2, t_final=2.0)
    run = integrator.run_simulation(cfg, profile=lambda x: np.zeros_like(x))
    dts, _ = replay_controller(cfg)
    np.testing.assert_array_equal(run.ledger.column("dt")[1:], dts)
    assert np.max(dts) == cfg.dt_cap


FAIL = phsystem.StepFailure("newton_divergence")


@pytest.mark.parametrize("cfg, schedule, termination", [
    # a failure and an expensive acceptance each reset the streak; the
    # failure halves dt, later streaks grow it again
    (integrator.RunConfig(h=0.1, t_final=2.0),
     lambda k: {4: FAIL, 8: FAIL, 10: 4, 17: 4}.get(k, 0), "completed"),
    # every attempt from the third on fails: dt halves down to its floor
    (integrator.RunConfig(h=0.1, t_final=2.0),
     lambda k: FAIL if k >= 2 else 0, "dt_underflow"),
    # with a fixed dt the first failure ends the run with its own reason
    (integrator.RunConfig(h=0.1, t_final=2.0, fixed_dt=0.05),
     lambda k: {6: 4, 9: phsystem.StepFailure("singular_weighted_mass")}.get(k, 0),
     "singular_weighted_mass"),
], ids=["shrink_and_reset", "dt_underflow", "fixed_dt"])
def test_step_loop_follows_scripted_outcomes(monkeypatch, cfg, schedule, termination):
    # a scripted newton_solve decides every attempt, so the ledger's dt
    # column is the controller arithmetic alone
    attempts = []

    def scripted_solve(ops, state, dt):
        outcome = schedule(len(attempts))
        attempts.append(dt)
        if isinstance(outcome, phsystem.StepFailure):
            raise outcome
        return dataclasses.replace(state, t=state.t + dt), outcome

    monkeypatch.setattr(integrator, "newton_solve", scripted_solve)
    run = integrator.run_simulation(cfg)
    dts, replayed = replay_controller(cfg, schedule)
    np.testing.assert_array_equal(run.ledger.column("dt")[1:], dts)
    assert run.n_steps == len(dts) > 0
    assert run.termination_reason == replayed == termination
    assert (termination == "completed") == (run.t_reached == cfg.t_final)
    assert len(attempts) > run.n_steps


# -------------------------------------------------------- run_simulation


def test_zero_horizon_run():
    run = integrator.run_simulation(integrator.RunConfig(h=0.05, t_final=0.0))
    assert run.n_steps == 0 and run.t_reached == 0.0
    assert len(run.ledger) == 1 and len(run.snapshots) == 1
    assert run.var == 0.0
    assert run.termination_reason == "completed"


def test_snapshot_times_cover_run():
    cfg = integrator.RunConfig(h=1e-2, t_final=0.1)
    run = integrator.run_simulation(cfg)
    times = [s.t for s in run.snapshots]
    assert times[0] == 0.0 and times[-1] == cfg.t_final
    assert all(b > a for a, b in zip(times, times[1:]))
    assert len(times) <= cfg.n_snapshots + 1


def test_inviscid_fixed_dt_is_second_order():
    # halving dt divides the time error by about four in the smooth regime
    cfg = dict(h=1e-2, beta=0.0, t_final=0.1, n_snapshots=2)
    runs = {dt: integrator.run_simulation(
        integrator.RunConfig(fixed_dt=dt, **cfg)) for dt in (4e-3, 2e-3, 1e-3)}
    assert all(r.termination_reason == "completed" for r in runs.values())
    ops = make_ops(100)

    def mdist(a, b):
        d = a.snapshots[-1].v - b.snapshots[-1].v
        return float(np.sqrt(d @ (ops.mass @ d)))

    d1 = mdist(runs[4e-3], runs[2e-3])
    d2 = mdist(runs[2e-3], runs[1e-3])
    assert 3.0 <= d1 / d2 <= 5.0
    assert runs[1e-3].var <= 1e-5


def test_boundary_cell_dies_early_and_is_flagged():
    # the steep-viscosity coarse-mesh cell loses weight positivity near the
    # walls; dt underflows and the run reports the early termination
    cfg = integrator.RunConfig(h=1e-2, alpha=0.5, beta=5.0)
    run = integrator.run_simulation(cfg)
    assert run.termination_reason == "dt_underflow"
    assert run.t_reached < cfg.t_final
    assert "early_termination" in run.flags


def test_wall_zone_sign_change_is_flagged():
    # the semi-discrete flow of this cell drives the wall-adjacent velocity
    # through zero at t = 0.0015; the Crank-Nicolson run steps over it and
    # completes, so only the sign flag tells that W(v) went indefinite
    run = integrator.run_simulation(integrator.RunConfig(h=1e-2, alpha=1.0, beta=5.0))
    assert run.termination_reason == "completed"
    assert run.flags == ("negative_velocity",)
    assert np.min(run.snapshots[-1].v) < 0.0


def test_failed_attempts_report_their_newton_matrix_count(monkeypatch):
    # each failed attempt of this cell reports how many Newton matrices it
    # built, which for some attempts is fewer than the iteration limit
    built = [0]
    failures = []
    newton_matrix, newton_solve = integrator._newton_matrix, integrator.newton_solve

    def counting_matrix(*args):
        built[0] += 1
        return newton_matrix(*args)

    def recording_solve(*args):
        built[0] = 0
        try:
            return newton_solve(*args)
        except phsystem.StepFailure as fail:
            failures.append((built[0], fail.newton_iters))
            raise

    monkeypatch.setattr(integrator, "_newton_matrix", counting_matrix)
    monkeypatch.setattr(integrator, "newton_solve", recording_solve)
    run = integrator.run_simulation(integrator.RunConfig(h=1e-2, alpha=0.5, beta=5.0))
    assert run.termination_reason == "dt_underflow"
    assert failures and all(count == reported for count, reported in failures)
    assert min(count for count, _ in failures) < integrator.NEWTON_MAX_ITER


def test_fixed_dt_stops_on_first_failure():
    cfg = integrator.RunConfig(h=1e-2, alpha=0.5, beta=5.0, fixed_dt=5e-3)
    run = integrator.run_simulation(cfg)
    assert run.termination_reason in ("newton_divergence", "singular_weighted_mass")
    assert run.t_reached < cfg.t_final
    assert "early_termination" in run.flags


def test_runs_are_deterministic():
    cfg = integrator.RunConfig(h=1e-2, beta=1.0, t_final=0.05)
    a = integrator.run_simulation(cfg)
    b = integrator.run_simulation(cfg)
    assert a.n_steps == b.n_steps and a.var == b.var
    for name in diagnostics.PowerLedger.COLUMNS:
        np.testing.assert_array_equal(a.ledger.column(name), b.ledger.column(name))
    for sa, sb in zip(a.snapshots, b.snapshots):
        np.testing.assert_array_equal(sa.v, sb.v)
