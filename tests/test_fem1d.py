"""Assembly-level checks: frozen local blocks, exact structure, quadrature."""

import numpy as np
import pytest

from conftest import (FIELD_KINDS, assert_bitwise_equal, coo_interior, einsum_quadratic_load,
                      einsum_weighted_mass, full_assembly_operators, sample_field)
from phburgers import fem1d

# Local 3x3 blocks on one element of width h, frozen from hand calculus
# with the P2 shapes (1-x)(1-2x), 4x(1-x), x(2x-1) on the unit element:
#   M_loc = (h/30) * [[4, 2, -1], [2, 16, 2], [-1, 2, 4]]
#   D_loc[a, b] = int phi_a' phi_b  (h-independent)
M_LOC_30 = np.array([[4.0, 2.0, -1.0], [2.0, 16.0, 2.0], [-1.0, 2.0, 4.0]])
D_LOC = np.array([
    [-0.5, -2.0 / 3.0, 1.0 / 6.0],
    [2.0 / 3.0, 0.0, -2.0 / 3.0],
    [-1.0 / 6.0, 2.0 / 3.0, 0.5],
])


def assemble_reference(n_elems, local):
    """Scatter a constant local block over the mesh, then cut boundary rows."""
    n = 2 * n_elems + 1
    full = np.zeros((n, n))
    for k in range(n_elems):
        sl = slice(2 * k, 2 * k + 3)
        full[sl, sl] += local
    return full[1:-1, 1:-1]


def test_mesh_layout():
    mesh = fem1d.build_mesh(4)
    assert mesh.n_nodes == 9
    assert mesh.n_interior == 7
    assert mesh.h == pytest.approx(0.25)
    np.testing.assert_allclose(mesh.nodes, np.linspace(0.0, 1.0, 9))
    np.testing.assert_array_equal(mesh.cells[0], [0, 1, 2])
    np.testing.assert_array_equal(mesh.cells[-1], [6, 7, 8])
    assert mesh.cells is mesh.cells and not mesh.cells.flags.writeable


def test_mesh_for_width_rejects_non_divisor():
    with pytest.raises(ValueError):
        fem1d.mesh_for_width(0.3)
    assert fem1d.mesh_for_width(0.25).n_elems == 4


def test_build_mesh_rejects_nonpositive():
    with pytest.raises(ValueError):
        fem1d.build_mesh(0)


@pytest.mark.parametrize("n_elems", [1, 2, 5])
def test_assembled_blocks_match_frozen_locals(n_elems):
    ops = fem1d.assemble_operators(fem1d.build_mesh(n_elems))
    h = ops.mesh.h
    np.testing.assert_allclose(
        ops.mass.toarray(), assemble_reference(n_elems, h * M_LOC_30 / 30.0),
        rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(
        ops.convection.toarray(), assemble_reference(n_elems, D_LOC),
        rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n_elems", [1, 2, 7, 100])
def test_structure_identities_exact(n_elems):
    """D skew and the paper's R = D^T hold bitwise; M admits a Cholesky factor."""
    ops = fem1d.assemble_operators(fem1d.build_mesh(n_elems))
    D = ops.convection
    R = full_assembly_operators(ops.mesh)[2]
    d = D.toarray()
    assert np.abs(d + d.T).max() == 0.0
    assert np.abs(R.toarray() - d.T).max() == 0.0
    ops.mass_cholesky()
    # the solver applies R^T as D and g - R x as g + D x, for g a D matvec
    # as in every residual: both agree to the bit, signed zeros included
    rng = np.random.default_rng(n_elems)
    for kind in FIELD_KINDS:
        x, y = (sample_field(kind, rng, ops.mesh.n_interior) for _ in range(2))
        np.testing.assert_array_equal((R.T @ x).view(np.int64), (D @ x).view(np.int64))
        np.testing.assert_array_equal((D @ y - R @ x).view(np.int64),
                                      (D @ y + D @ x).view(np.int64))


def test_quadrature_exact_to_degree_nine():
    mesh = fem1d.build_mesh(3)
    xq = fem1d.quadrature_points(mesh)
    for p in range(10):
        exact = 1.0 / (p + 1)
        assert fem1d.integrate(mesh, xq**p) == pytest.approx(exact, rel=1e-14)


def test_interpolate_reproduces_quadratics():
    # a quadratic with zero boundary values lies in the interior P2 space
    mesh = fem1d.build_mesh(6)
    coeffs = fem1d.interpolate(mesh, lambda x: x * (1.0 - x))
    xs = np.linspace(0.0, 1.0, 97)
    np.testing.assert_allclose(fem1d.evaluate(mesh, coeffs, xs), xs * (1.0 - xs),
                               rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(fem1d.evaluate_derivative(mesh, coeffs, xs),
                               1.0 - 2.0 * xs, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("evaluate", [fem1d.evaluate, fem1d.evaluate_derivative])
def test_evaluate_keeps_array_input_an_array(evaluate):
    mesh = fem1d.build_mesh(4)
    coeffs = fem1d.interpolate(mesh, lambda x: x * (1.0 - x))
    one = evaluate(mesh, coeffs, np.array([0.3]))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    scalar = evaluate(mesh, coeffs, 0.3)
    assert np.ndim(scalar) == 0 and scalar == one[0]
    np.testing.assert_array_equal(evaluate(mesh, coeffs, [0.3, 0.7])[:1], one)


def test_embed_and_restrict_roundtrip():
    mesh = fem1d.build_mesh(5)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(mesh.n_interior)
    full = fem1d.embed_interior(mesh, v)
    assert full[0] == full[-1] == 0.0
    np.testing.assert_array_equal(full[mesh.interior_to_global], v)
    with pytest.raises(ValueError):
        fem1d.embed_interior(mesh, v[:-1])


def test_weighted_mass_is_symmetric_trilinear_form():
    """u^T W(w) z equals the integral of u_d w_d z_d, fully symmetric."""
    mesh = fem1d.build_mesh(7)
    rng = np.random.default_rng(11)
    u, w, z = (rng.standard_normal(mesh.n_interior) for _ in range(3))
    ref = fem1d.integrate(
        mesh,
        fem1d.quadrature_values(mesh, u)
        * fem1d.quadrature_values(mesh, w)
        * fem1d.quadrature_values(mesh, z),
    )
    for a, b, c in [(u, w, z), (u, z, w), (w, u, z), (z, w, u)]:
        val = float(a @ (fem1d.assemble_weighted_mass(mesh, b) @ c))
        assert val == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("n_elems", [1, 2, 9, 100])
def test_operators_are_bitwise_the_full_assembly(n_elems):
    mesh = fem1d.build_mesh(n_elems)
    ops = fem1d.assemble_operators(mesh)
    M, D, R = full_assembly_operators(mesh)
    assert_bitwise_equal(ops.mass, M)
    assert_bitwise_equal(ops.convection, D)
    # the paper's R is D^T bit for bit, and -D except for the signs of the
    # stored diagonal zeros: +0 in R, -0 in -D
    assert_bitwise_equal(R, D.T.tocsr())
    minus_d = -D
    np.testing.assert_array_equal(R.indices, minus_d.indices)
    diagonal = R.indices == np.repeat(np.arange(mesh.n_interior), np.diff(R.indptr))
    assert np.all(R.data[diagonal] == 0.0) and not np.any(np.signbit(R.data[diagonal]))
    assert np.all(minus_d.data[diagonal] == 0.0) and np.all(np.signbit(minus_d.data[diagonal]))
    np.testing.assert_array_equal(R.data[~diagonal].view(np.int64),
                                  minus_d.data[~diagonal].view(np.int64))


@pytest.mark.parametrize("kind", FIELD_KINDS)
@pytest.mark.parametrize("n_elems", [1, 2, 9, 100])
def test_weighted_mass_is_bitwise_the_reference_assembly(n_elems, kind):
    # SuperLU must factor the very same matrices: the wall-zone cells are
    # decided by rounding, so any last-bit change moves their fingerprints
    mesh = fem1d.build_mesh(n_elems)
    rng = np.random.default_rng(n_elems)
    for _ in range(3):
        w = sample_field(kind, rng, mesh.n_interior)
        assert_bitwise_equal(fem1d.assemble_weighted_mass(mesh, w),
                             einsum_weighted_mass(mesh, w))


@pytest.mark.parametrize("kind", FIELD_KINDS)
@pytest.mark.parametrize("n_elems", [1, 2, 9, 100, 1000])
def test_step_kernels_are_bitwise_the_einsum_oracles(n_elems, kind):
    # the per-q sums and the two-term vertex sums must round exactly like
    # einsum and np.add.at, overflow and signed zeros included
    mesh = fem1d.build_mesh(n_elems)
    rng = np.random.default_rng(n_elems)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            w = sample_field(kind, rng, mesh.n_interior)
            assert (fem1d.assemble_quadratic_load(mesh, w).tobytes()
                    == einsum_quadratic_load(mesh, w).tobytes())
            assert (fem1d.weighted_mass_data(mesh, w).tobytes()
                    == einsum_weighted_mass(mesh, w).data.tobytes())


def test_quadratic_load_matches_weighted_mass_identity():
    # N(v) . u = int (v_d^2 / 2) u_d = u^T W(v) v / 2
    mesh = fem1d.build_mesh(9)
    rng = np.random.default_rng(21)
    v = rng.standard_normal(mesh.n_interior)
    u = rng.standard_normal(mesh.n_interior)
    lhs = float(u @ fem1d.assemble_quadratic_load(mesh, v))
    rhs = 0.5 * float(u @ (fem1d.assemble_weighted_mass(mesh, v) @ v))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_solve_mass_inverts_mass():
    ops = fem1d.assemble_operators(fem1d.build_mesh(12))
    rng = np.random.default_rng(5)
    b = rng.standard_normal(ops.mesh.n_interior)
    x = ops.solve_mass(b)
    assert np.linalg.norm(ops.mass @ x - b) <= 1e-12 * np.linalg.norm(b)
