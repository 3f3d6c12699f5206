"""End-to-end acceptance battery.

One test per shipped claim, each reporting a single `AC## PASS/FAIL`
line (collected into the terminal summary so the run log always shows
all ten) before asserting.  Two criteria are red on purpose: at coarse
resolution the semi-discrete viscous flow itself drives the wall-adjacent
velocity through zero and the weighted constitutive operator W(v) turns
singular.  Integrated by RK45 (rtol 1e-10, atol 1e-14) the flow stalls at
t = 0.0255 on the AC04 cell (h = 5e-3) and at t = 0.0075 on the AC06 cell
(h = 1e-2); the Crank-Nicolson runs stop later only because their steps
jump over the singular instant.  The affected tests document the observed
failure instead of relaxing the claim.  See README.md for the analysis.
"""

import functools

import numpy as np
import pytest
import scipy.integrate

from conftest import dense_projection_oracle, record_line
from phburgers import diagnostics, fem1d, integrator, phsystem


def report(number, ok, detail):
    line = f"AC{number:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    record_line(line)
    assert ok, line


def make_ops(n_elems):
    return fem1d.assemble_operators(fem1d.build_mesh(n_elems))


@functools.lru_cache(maxsize=None)
def study_run(beta):
    """Shared fine-mesh study runs (h = 1e-3, alpha = 1, to t = 0.4)."""
    cfg = integrator.RunConfig(h=1e-3, alpha=1.0, beta=float(beta), t_final=0.4)
    return integrator.run_simulation(cfg)


# ---------------------------------------------------------------------- 1


def test_ac01_structural_exactness():
    worst = 0.0
    for n in (1, 2, 7, 100):
        ops = make_ops(n)
        d = ops.convection.toarray()
        r = ops.gradient.toarray()
        scale = np.abs(d).max()
        assert np.abs(d + d.T).max() <= 1e-14 * scale
        assert np.abs(r - d.T).max() <= 1e-14 * scale
        ops.mass_cholesky()  # raises if M is not SPD
        if scale:
            worst = max(worst, np.abs(d + d.T).max() / scale,
                        np.abs(r - d.T).max() / scale)
    report(1, True, f"skew/transpose defects at most {worst:.1e} relative, "
                    "mass Cholesky succeeded on all four meshes")


# ---------------------------------------------------------------------- 2


def test_ac02_projection_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (3, 10):
        ops = make_ops(n)
        for _ in range(20):
            v = rng.standard_normal(ops.mesh.n_interior)
            e = phsystem.project_costate(ops, v)
            ref = dense_projection_oracle(n, v)
            rel = np.linalg.norm(e - ref) / max(np.linalg.norm(ref), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-12
    report(2, True, f"40 random states on two meshes, worst relative "
                    f"deviation {worst:.1e} (bound 1e-12)")


# ---------------------------------------------------------------------- 3


def test_ac03_semi_discrete_power_balance():
    ops = make_ops(12)
    mesh = ops.mesh
    rng = np.random.default_rng(31)
    worst_inv = worst_visc = 0.0
    for _ in range(25):
        st = phsystem.make_state(ops, rng.standard_normal(mesh.n_interior))
        w = phsystem.rhs(ops, st)
        val = float(st.e @ (ops.mass @ w))
        scale = max(np.linalg.norm(st.e) * np.linalg.norm(ops.mass @ w), 1e-300)
        worst_inv = max(worst_inv, abs(val) / scale)
        assert abs(val) <= 1e-12 * scale
    nu = 1e-2
    for _ in range(25):
        st = phsystem.make_state(ops, rng.uniform(0.2, 1.2, mesh.n_interior), nu=nu)
        w = phsystem.rhs(ops, st)
        val = float(st.e @ (ops.mass @ w))
        vq = fem1d.quadrature_values(mesh, st.v)
        rq = fem1d.quadrature_values(mesh, st.e_r)
        diss = fem1d.integrate(mesh, vq * rq**2) / nu
        scale = max(abs(val), abs(diss), 1e-300)
        worst_visc = max(worst_visc, abs(val + diss) / scale)
        assert abs(val + diss) <= 1e-10 * scale
    report(3, True, f"50 consistent states: inviscid rate defect {worst_inv:.1e} "
                    f"(1e-12), viscous balance defect {worst_visc:.1e} (1e-10)")


# ---------------------------------------------------------------------- 4


def test_ac04_time_order_of_viscous_step():
    # Expected red: the semi-discrete flow on this cell drives the
    # wall-adjacent velocity through zero at t = 0.0252 and stalls at
    # t = 0.0255 (RK45, rtol 1e-10, atol 1e-14), where W(v) is singular.
    # The fixed-step runs jump over that instant and Newton fails later,
    # at t = 0.036-0.076, before the t = 0.1 horizon.
    dts = (2e-3, 1e-3, 5e-4)
    runs = {dt: integrator.run_simulation(
        integrator.RunConfig(h=5e-3, beta=1.0, t_final=0.1, fixed_dt=dt,
                             n_snapshots=2)) for dt in dts}
    stopped = {dt: r for dt, r in runs.items() if r.termination_reason != "completed"}
    if stopped:
        detail = "; ".join(
            f"dt={dt:g} stopped at t={r.t_reached:.3f} ({r.termination_reason})"
            for dt, r in stopped.items())
        report(4, False, "fixed-step viscous runs did not reach t=0.1: " + detail)
    ops = make_ops(200)

    def mdist(a, b):
        d = a.snapshots[-1].v - b.snapshots[-1].v
        return float(np.sqrt(d @ (ops.mass @ d)))

    d1 = mdist(runs[2e-3], runs[1e-3])
    d2 = mdist(runs[1e-3], runs[5e-4])
    ratio = d1 / d2
    report(4, 3.0 <= ratio <= 5.0,
           f"end-state M-norm difference ratio {ratio:.2f} (want [3, 5])")


# ---------------------------------------------------------------------- 5


def test_ac05_pre_shock_accuracy():
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        cfg = integrator.RunConfig(h=h, beta=0.0, t_final=0.1, n_snapshots=2)
        run = integrator.run_simulation(cfg)
        assert run.termination_reason == "completed", f"h={h:g}: {run.termination_reason}"
        mesh = fem1d.build_mesh(cfg.mesh_elems)
        errs.append(diagnostics.characteristics_l2_error(
            mesh, run.snapshots[-1].v, 0.1))
    ok = errs[0] > errs[1] > errs[2]
    report(5, ok, "inviscid L2 errors against characteristics at t=0.1: "
           + " > ".join(f"{e:.3e}" for e in errs)
           + (" strictly decreasing" if ok else " NOT strictly decreasing"))


# ---------------------------------------------------------------------- 6


def test_ac06_stability_table_reproduction():
    # Leg (b) is expected red: the viscous h = 1e-2 run satisfies both Var
    # bounds but ends at t = 0.066, short of the t >= 0.39 completion
    # requirement.  Its semi-discrete flow crosses zero next to the wall at
    # t = 0.0073 and stalls at t = 0.0075 (RK45, rtol 1e-10, atol 1e-14);
    # the adaptive run only gets further by stepping over that instant.
    failures = []
    details = []

    run_a = integrator.run_simulation(integrator.RunConfig(h=1e-2, beta=0.0))
    details.append(f"(b=0,h=1e-2) Var={run_a.var:.3e}")
    if not 1e-2 <= run_a.var <= 3e-1:
        failures.append(f"(b=0,h=1e-2) Var={run_a.var:.3e} outside [1e-2, 3e-1]")

    run_b = integrator.run_simulation(integrator.RunConfig(h=1e-2, beta=1.0))
    details.append(f"(b=1,h=1e-2) Var={run_b.var:.3e} t={run_b.t_reached:.3f}")
    if not run_b.var <= 5e-3:
        failures.append(f"(b=1,h=1e-2) Var={run_b.var:.3e} above 5e-3")
    if not run_b.var <= 0.1 * run_a.var:
        failures.append("(b=1,h=1e-2) Var not a decade below the inviscid cell")
    if run_b.t_reached < 0.39:
        failures.append(f"(b=1,h=1e-2) viscous run stopped at t={run_b.t_reached:.3f}"
                        f" < 0.39 ({run_b.termination_reason})")

    run_c = integrator.run_simulation(integrator.RunConfig(h=5e-3, beta=0.0))
    details.append(f"(b=0,h=5e-3) Var={run_c.var:.3e}")
    if not 1e-2 <= run_c.var <= 3e-1:
        failures.append(f"(b=0,h=5e-3) Var={run_c.var:.3e} outside [1e-2, 3e-1]")

    detail = "; ".join(details)
    if failures:
        detail += " | " + "; ".join(failures)
    report(6, not failures, detail)


# ---------------------------------------------------------------------- 7


def test_ac07_front_speed_consistency():
    run = study_run(1.0)
    assert run.termination_reason == "completed", run.termination_reason
    cfg = run.config
    mesh = fem1d.build_mesh(cfg.mesh_elems)
    window = [s for s in run.snapshots if 0.25 <= s.t <= 0.35]
    assert len(window) >= 3, f"only {len(window)} snapshots in the window"
    ts, xs, vls, vrs = [], [], [], []
    for s in window:
        x_f, v_l, v_r = diagnostics.detect_front(mesh, s.v, cfg.nu)
        ts.append(s.t)
        xs.append(x_f)
        vls.append(v_l)
        vrs.append(v_r)
    speed = float(np.polyfit(ts, xs, 1)[0])
    rh = diagnostics.rankine_hugoniot_speed(float(np.mean(vls)), float(np.mean(vrs)))
    rel = abs(speed - rh) / abs(rh)
    report(7, rel <= 0.05,
           f"front speed {speed:.4f} over t in [0.25, 0.35] vs "
           f"Rankine-Hugoniot {rh:.4f} from sampled edges: {100 * rel:.2f}% apart")


# ---------------------------------------------------------------------- 8


def test_ac08_shock_dissipation_consistency():
    t_star = diagnostics.shock_formation_time()
    totals = {}
    for beta in (5.0, 2.0, 1.0):
        run = study_run(beta)
        assert run.termination_reason == "completed", (
            f"beta={beta:g}: {run.termination_reason}")
        t = run.ledger.column("t")
        qh = run.ledger.column("QH")
        totals[beta] = float(qh[-1] - np.interp(t_star, t, qh))
    changes = [abs(totals[2.0] - totals[5.0]) / abs(totals[5.0]),
               abs(totals[1.0] - totals[2.0]) / abs(totals[2.0])]
    ok = all(c < 0.25 for c in changes)
    report(8, ok, "cumulative post-shock dissipation "
           + ", ".join(f"beta={b:g}: {totals[b]:.3e}" for b in (5.0, 2.0, 1.0))
           + f"; consecutive changes {100 * changes[0]:.1f}%, {100 * changes[1]:.1f}%"
           " (want < 25%)")


# ---------------------------------------------------------------------- 9


def test_ac09_initial_functionals():
    mesh = fem1d.build_mesh(1000)
    v0 = fem1d.interpolate(mesh, diagnostics.gaussian_pulse)
    H = diagnostics.hamiltonian(mesh, v0)
    E = diagnostics.kinetic_energy(mesh, v0)
    H_ref, _ = scipy.integrate.quad(lambda x: diagnostics.gaussian_pulse(x) ** 3 / 6.0,
                                    0.0, 1.0, epsabs=1e-13)
    E_ref, _ = scipy.integrate.quad(lambda x: diagnostics.gaussian_pulse(x) ** 2 / 2.0,
                                    0.0, 1.0, epsabs=1e-13)
    ok = abs(H - H_ref) <= 1e-6 and abs(E - E_ref) <= 1e-6
    report(9, ok, f"H(0) = {H:.6e} vs quadrature {H_ref:.6e}, "
                  f"E(0) = {E:.6e} vs {E_ref:.6e} (1e-6 absolute)")


# --------------------------------------------------------------------- 10


def test_ac10_jacobian_finite_difference_slope():
    ops = make_ops(16)
    rng = np.random.default_rng(77)
    dt = 1e-3
    slopes = []
    for k in range(10):
        if k < 5:
            st = phsystem.make_state(ops, rng.standard_normal(ops.mesh.n_interior))
        else:
            st = phsystem.make_state(ops, rng.uniform(0.2, 1.2, ops.mesh.n_interior),
                                     nu=1e-2)
        # the matrix SuperLU factors, against the residual it linearizes
        F = integrator.step_residual(ops, st, dt)
        z = np.concatenate([st.v, st.e, st.f_r, st.e_r])
        d = rng.standard_normal(z.size)
        jd = integrator._newton_matrix(ops, st, dt) @ d
        f0 = F(z)
        eps = np.array([1e-4, 1e-5, 1e-6])
        errs = []
        for e in eps:
            fd = (F(z + e * d) - f0) / e
            errs.append(np.linalg.norm(fd - jd))
        slope = float(np.polyfit(np.log(eps), np.log(errs), 1)[0])
        slopes.append(slope)
        assert abs(slope - 1.0) <= 0.2, f"state {k}: slope {slope:.3f}"
    report(10, True, "finite-difference defect slopes on 10 random states in "
                     f"[{min(slopes):.3f}, {max(slopes):.3f}] (want 1 +/- 0.2)")
