r"""Fast build verification: structural identities and oracle spot checks.

Each check returns (name, passed, detail) and runs in well under a
second, so the whole battery is cheap enough to gate a fresh install.
The reference pulse functionals are the closed-form integrals of the
initial profile exp(-50 (x - 1/2)^2) over (0, 1).
"""

from __future__ import annotations

import math

import numpy as np

from . import diagnostics, fem1d, integrator, phsystem

# int v0^3/6 and int v0^2/2 over (0, 1)
PULSE_HAMILTONIAN = math.sqrt(math.pi / 150) / 6 * math.erf(math.sqrt(150) / 2)
PULSE_KINETIC_ENERGY = math.sqrt(math.pi) / 20 * math.erf(5)

Check = tuple[str, bool, str]


def _check_structure() -> Check:
    worst = 0.0
    for n in (1, 2, 7, 100):
        ops = fem1d.assemble_operators(fem1d.build_mesh(n))
        d = ops.convection.toarray()
        scale = max(np.abs(d).max(), 1e-300)
        worst = max(worst, np.abs(d + d.T).max() / scale)
        ops.mass_cholesky()  # raises if M is not SPD
    return ("structure: D skew, M SPD", worst <= 1e-14,
            f"worst relative defect {worst:.2e}")


def _check_projection(rng: np.random.Generator) -> Check:
    worst = 0.0
    for n in (3, 10):
        ops = fem1d.assemble_operators(fem1d.build_mesh(n))
        for _ in range(10):
            v = rng.standard_normal(ops.mesh.n_interior)
            e = phsystem.project_costate(ops, v)
            load = fem1d.assemble_quadratic_load(ops.mesh, v)
            res = np.linalg.norm(ops.mass @ e - load)
            worst = max(worst, res / max(np.linalg.norm(load), 1e-300))
    return ("projection: M e = N(v) residual", worst <= 1e-12, f"worst {worst:.2e}")


def _check_power_balance(rng: np.random.Generator) -> Check:
    ops = fem1d.assemble_operators(fem1d.build_mesh(16))
    mesh = ops.mesh
    worst_inv = worst_visc = 0.0
    for _ in range(20):
        v = rng.standard_normal(mesh.n_interior)
        st = phsystem.make_state(ops, v)
        rate = float(st.e @ (ops.mass @ phsystem.rhs(ops, st)))
        scale = max(np.linalg.norm(st.e) * np.linalg.norm(st.v), 1e-300)
        worst_inv = max(worst_inv, abs(rate) / scale)
    for _ in range(20):
        v = rng.uniform(0.2, 1.2, mesh.n_interior)
        st = phsystem.make_state(ops, v, nu=0.05)
        rate = float(st.e @ (ops.mass @ phsystem.rhs(ops, st)))
        qh, _ = diagnostics.dissipation_rates(mesh, st)
        worst_visc = max(worst_visc, abs(rate + qh) / max(abs(qh), 1e-300))
    ok = worst_inv <= 1e-12 and worst_visc <= 1e-10
    return ("power balance: inviscid exact, viscous chained", ok,
            f"inviscid {worst_inv:.2e}, viscous {worst_visc:.2e}")


def _check_initial_functionals() -> Check:
    mesh = fem1d.build_mesh(1000)
    v0 = fem1d.interpolate(mesh, diagnostics.gaussian_pulse)
    dh = abs(diagnostics.hamiltonian(mesh, v0) - PULSE_HAMILTONIAN)
    de = abs(diagnostics.kinetic_energy(mesh, v0) - PULSE_KINETIC_ENERGY)
    ok = dh <= 1e-6 and de <= 1e-6
    return ("pulse functionals: H(0), E(0)", ok, f"|dH| {dh:.2e}, |dE| {de:.2e}")


def _check_jacobian(rng: np.random.Generator) -> Check:
    ops = fem1d.assemble_operators(fem1d.build_mesh(8))
    v = rng.uniform(0.3, 1.0, ops.mesh.n_interior)
    dt = 2e-3
    worst_slope = 1.0
    for nu in (0.0, 0.02):
        st = phsystem.make_state(ops, v, nu=nu)
        F = integrator.step_residual(ops, st, dt)
        z = np.concatenate([st.v, st.e, st.f_r, st.e_r])
        d = rng.standard_normal(z.size)
        jd = integrator._newton_matrix(ops, st, dt) @ d
        base = F(z)
        eps_list = (1e-3, 1e-4, 1e-5, 1e-6)
        errs = []
        for eps in eps_list:
            fd = (F(z + eps * d) - base) / eps
            errs.append(np.linalg.norm(fd - jd))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        if abs(slope - 1.0) > abs(worst_slope - 1.0):
            worst_slope = slope
    ok = abs(worst_slope - 1.0) <= 0.2
    return ("jacobian: Newton matrix vs finite differences", ok,
            f"worst slope {worst_slope:.3f}")


def _check_characteristics() -> Check:
    t = 0.1
    xs = np.linspace(0.0, 1.0, 201)
    vals = diagnostics.characteristics_solution(t, xs)
    feet = xs - t * vals  # invert the straight-line characteristics
    res = np.max(np.abs(feet + t * diagnostics.gaussian_pulse(feet) - xs))
    # at t* the map's slope 1 + t* v0' first reaches zero, at xi* = 0.6
    stretch = 1.0 + diagnostics.shock_formation_time() * diagnostics.gaussian_pulse_slope(
        np.append(np.linspace(0.0, 1.0, 2001), diagnostics.PULSE_STEEPEST_POINT))
    ok = res <= 1e-12 and stretch.min() >= -1e-15 and abs(stretch[-1]) <= 1e-15
    return ("characteristics: residual and first crossing at t*", ok,
            f"residual {res:.2e}, min 1 + t* v0' {stretch.min():.2e}, at xi* {stretch[-1]:.2e}")


def _check_shock_formulas() -> Check:
    speed = diagnostics.rankine_hugoniot_speed(1.0, 0.0)
    de, dh = diagnostics.shock_dissipation(1.0, 0.0)
    ok = (abs(speed - 0.5) <= 1e-15
          and abs(de + 1.0 / 12.0) <= 1e-15
          and abs(dh + 1.0 / 24.0) <= 1e-15)
    return ("shock formulas: speed and jump dissipation", ok,
            f"speed {speed}, dE {de:.6g}, dH {dh:.6g}")


def run_checks() -> list[Check]:
    """Run every check; deterministic, the random ones draw from a fixed seed."""
    rng = np.random.default_rng(20240314)
    return [
        _check_structure(),
        _check_projection(rng),
        _check_power_balance(rng),
        _check_initial_functionals(),
        _check_jacobian(rng),
        _check_characteristics(),
        _check_shock_formulas(),
    ]
