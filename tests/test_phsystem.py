"""Constitutive solves and power balance."""

import numpy as np
import pytest

from conftest import dense_projection_oracle, full_assembly_operators
from phburgers import fem1d, phsystem


@pytest.mark.parametrize("n_elems", [3, 10])
def test_costate_matches_dense_oracle(n_elems):
    ops = fem1d.assemble_operators(fem1d.build_mesh(n_elems))
    rng = np.random.default_rng(100 + n_elems)
    for _ in range(5):
        v = rng.standard_normal(ops.mesh.n_interior)
        e = phsystem.project_costate(ops, v)
        ref = dense_projection_oracle(n_elems, v)
        assert np.linalg.norm(e - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)


def test_make_state_satisfies_constitutive_relations():
    ops = fem1d.assemble_operators(fem1d.build_mesh(8))
    rng = np.random.default_rng(7)
    v = rng.uniform(0.2, 1.2, ops.mesh.n_interior)
    nu = 3e-3
    st = phsystem.make_state(ops, v, nu=nu, t=0.25)
    assert st.viscous and st.t == 0.25
    n = fem1d.assemble_quadratic_load(ops.mesh, v)
    assert np.linalg.norm(ops.mass @ st.e - n) <= 1e-12 * np.linalg.norm(n)
    flow = full_assembly_operators(ops.mesh)[2].T @ st.e  # R^T e, R the paper's
    assert np.linalg.norm(ops.mass @ st.f_r - flow) <= 1e-12 * np.linalg.norm(flow)
    W = fem1d.assemble_weighted_mass(ops.mesh, v)
    lhs = W @ st.e_r
    rhs_vec = nu * (ops.mass @ st.f_r)
    assert np.linalg.norm(lhs - rhs_vec) <= 1e-12 * max(np.linalg.norm(rhs_vec), 1e-300)


def test_make_state_inviscid_has_empty_ports():
    ops = fem1d.assemble_operators(fem1d.build_mesh(4))
    st = phsystem.make_state(ops, np.ones(ops.mesh.n_interior))
    assert not st.viscous
    assert st.f_r.size == 0 and st.e_r.size == 0


def test_inviscid_power_balance_is_zero():
    """e^T M (dv/dt) = e^T D e vanishes by skew-symmetry, state by state."""
    ops = fem1d.assemble_operators(fem1d.build_mesh(10))
    rng = np.random.default_rng(42)
    for _ in range(25):
        v = rng.standard_normal(ops.mesh.n_interior)
        st = phsystem.make_state(ops, v)
        power = float(st.e @ phsystem.structure_apply(ops, st))
        scale = max(float(np.abs(st.e).max()) ** 2, 1.0)
        assert abs(power) <= 1e-12 * scale


def test_viscous_power_balance_matches_dissipation_integral():
    """e^T M (dv/dt) = -(1/nu) int v_d e_rd^2 dx on every consistent state."""
    ops = fem1d.assemble_operators(fem1d.build_mesh(10))
    mesh = ops.mesh
    rng = np.random.default_rng(43)
    nu = 2e-2
    for _ in range(25):
        v = rng.uniform(0.2, 1.2, mesh.n_interior)
        st = phsystem.make_state(ops, v, nu=nu)
        power = float(st.e @ phsystem.structure_apply(ops, st))
        vq = fem1d.quadrature_values(mesh, v)
        rq = fem1d.quadrature_values(mesh, st.e_r)
        expected = -fem1d.integrate(mesh, vq * rq**2) / nu
        assert power == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_zero_velocity_weight_raises_step_failure():
    ops = fem1d.assemble_operators(fem1d.build_mesh(5))
    v = np.zeros(ops.mesh.n_interior)
    e = np.zeros(ops.mesh.n_interior)
    with pytest.raises(phsystem.StepFailure) as exc:
        phsystem.solve_viscous_ports(ops, v, e, nu=1e-2)
    assert exc.value.reason == "singular_weighted_mass"


def test_odd_weight_trips_relative_pivot_check():
    # an odd weight about x = 1/2 makes W singular by symmetry; the LU
    # completes with a rounding-level pivot, which the relative threshold
    # must still classify as singular
    ops = fem1d.assemble_operators(fem1d.build_mesh(2))
    v = np.array([-0.25, 0.0, 0.25])
    with pytest.raises(phsystem.StepFailure) as exc:
        phsystem.weighted_mass_factor(ops, v)
    assert exc.value.reason == "singular_weighted_mass"


def test_uniform_scaling_does_not_trip_pivot_check():
    # the threshold is relative, so a tiny positive weight stays regular
    ops = fem1d.assemble_operators(fem1d.build_mesh(2))
    phsystem.weighted_mass_factor(ops, np.full(3, 1e-18))


def test_solve_viscous_ports_rejects_nonpositive_nu():
    ops = fem1d.assemble_operators(fem1d.build_mesh(3))
    v = np.ones(ops.mesh.n_interior)
    with pytest.raises(ValueError):
        phsystem.solve_viscous_ports(ops, v, v, nu=0.0)


def test_rhs_solves_dynamics_row():
    ops = fem1d.assemble_operators(fem1d.build_mesh(6))
    st = phsystem.make_state(ops, np.random.default_rng(1).standard_normal(ops.mesh.n_interior))
    w = phsystem.rhs(ops, st)
    g = phsystem.structure_apply(ops, st)
    assert np.linalg.norm(ops.mass @ w - g) <= 1e-12 * max(np.linalg.norm(g), 1e-300)
