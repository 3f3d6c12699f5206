"""Shared pytest wiring (an always-visible acceptance report section),
the field samples, bitwise comparison and einsum kernel oracles the
assembly guard tests share, the full-assembly oracle of M, D and the
paper's R, the bmat stack of block patterns, the op-by-op step residual,
and the dense co-state oracle of the projection tests."""

import numpy as np
import scipy.sparse

from phburgers import fem1d, phsystem

_ac_lines = []


def record_line(line: str) -> None:
    """Queue a line for the end-of-run acceptance summary."""
    _ac_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ac_lines:
        terminalreporter.section("acceptance criteria")
        for line in _ac_lines:
            terminalreporter.write_line(line)


FIELD_KINDS = ("random", "zero", "negative", "subnormal", "tiny", "huge", "large", "underflow")


def sample_field(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """A coefficient vector of one kind.

    "subnormal" puts squares in the subnormal range, where scaled sums
    underflow to signed zeros; "huge" keeps squares finite near the top
    of the range, "large" overflows them to inf (and inf - inf to nan),
    and "underflow" makes every product a signed zero.
    """
    return {
        "random": lambda: rng.standard_normal(n),
        "zero": lambda: np.zeros(n),
        "negative": lambda: -rng.uniform(0.1, 2.0, n),
        "subnormal": lambda: 1e-160 * rng.standard_normal(n),
        "tiny": lambda: 1e-300 * rng.standard_normal(n),
        "huge": lambda: 1e150 * rng.standard_normal(n),
        "large": lambda: 1e200 * rng.standard_normal(n),
        "underflow": lambda: np.full(n, -5e-324),
    }[kind]()


def assert_bitwise_equal(a, b) -> None:
    """Same sparse format, shape, indptr, indices and data bits."""
    assert a.format == b.format and a.shape == b.shape
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data.view(np.int64), b.data.view(np.int64))


def coo_interior(mesh, local):
    """Reference scatter: COO sum of the element blocks over all nodes, np.ix_ interior cut."""
    cells = mesh.cells
    rows = np.repeat(cells, 3, axis=1).ravel()
    cols = np.tile(cells, (1, 3)).ravel()
    n = mesh.n_nodes
    full = scipy.sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    idx = np.arange(1, n - 1)
    return full[np.ix_(idx, idx)].tocsr()


def full_assembly_operators(mesh):
    """Reference M, D, R: the constant local blocks tiled over the mesh, then coo_interior.

    R = int phi_j' phi_i dx is the paper's gradient matrix, assembled from
    the transposed convection block; the package applies it as -D.
    """
    mass_loc = mesh.h * np.einsum("q,aq,bq->ab", fem1d._QW, fem1d._PHI, fem1d._PHI)
    conv_q = np.einsum("q,aq,bq->ab", fem1d._QW, fem1d._DPHI, fem1d._PHI)
    conv_loc = 0.5 * (conv_q - conv_q.T) + np.diag([-0.5, 0.0, 0.5])
    return tuple(coo_interior(mesh, np.tile(local.ravel(), mesh.n_elems))
                 for local in (mass_loc, conv_loc, conv_loc.T.copy()))


def einsum_weighted_mass(mesh, weight):
    """Reference assembly of W(w), a fresh CSR: einsum element blocks, then coo_interior."""
    wq = fem1d.quadrature_values(mesh, weight)
    local = mesh.h * np.einsum("q,aq,bq,eq->eab", fem1d._QW, fem1d._PHI, fem1d._PHI, wq)
    return coo_interior(mesh, local)


def einsum_quadratic_load(mesh, v):
    """Reference load N(v): einsum element vectors, summed node by node with np.add.at."""
    vq = fem1d.quadrature_values(mesh, v)
    local = 0.5 * mesh.h * np.einsum("q,aq,eq->ea", fem1d._QW, fem1d._PHI, vq**2)
    full = np.zeros(mesh.n_nodes)
    np.add.at(full, mesh.cells.ravel(), local.ravel())
    return full[1:-1]


def bmat_block_pattern(n_elems, layout, transposed=False):
    """Reference stacked pattern: blocks of running ids on the interior pattern, stacked by bmat.

    Block row r holds blocks in block columns ``layout[r]``, or, if
    ``transposed``, block column r holds blocks in block rows ``layout[r]``,
    read in CSC.  Returns ``(indptr, indices, source)``: entry j holds id
    ``source[j]`` + 1, counted through the blocks in ``layout`` order.
    """
    mesh = fem1d.build_mesh(n_elems)
    nnz = mesh._interior_pattern[1].size
    grid = [[None] * (1 + max(max(cols) for cols in layout)) for _ in layout]
    start = 1  # ids start at 1 so that none is a zero
    for row, cols in zip(grid, layout):
        for c in cols:
            row[c] = fem1d._interior_matrix(mesh, np.arange(start, start + nnz, dtype=float))
            start += nnz
    if transposed:
        grid = [list(col) for col in zip(*grid)]
    A = scipy.sparse.bmat(grid, format="csc" if transposed else "csr")
    return A.indptr, A.indices, A.data.astype(np.intp) - 1


def op_by_op_residual(ops, state_n, dt, z):
    """Reference step residual: each product its own scipy call, each kernel its own quadrature.

    The rows of the integrator's module docstring, evaluated one operation
    at a time: M (v - v_n), D e, D e_r, M e, M f_r and W(v) e_r as separate
    products, and N(v) and W(v) each from their own quadrature values.
    """
    M, D, mesh = ops.mass, ops.convection, ops.mesh
    g_n = phsystem.structure_apply(ops, state_n)
    if not state_n.viscous:
        v, e = np.split(z, 2)
        return np.concatenate([M @ (v - state_n.v) - 0.5 * dt * (D @ e + g_n),
                               M @ e - fem1d.assemble_quadratic_load(mesh, v)])
    v, e, f, r = np.split(z, 4)
    De, Mf = D @ e, M @ f
    W = fem1d.assemble_weighted_mass(mesh, v)
    return np.concatenate([M @ (v - state_n.v) - 0.5 * dt * ((De + D @ r) + g_n),
                           M @ e - fem1d.assemble_quadratic_load(mesh, v),
                           Mf - De,
                           W @ r - state_n.nu * Mf])


def dense_projection_oracle(n_elems, v):
    """Project v_d^2/2 onto the interior P2 space with dense numpy only.

    Rebuilds the shape functions and an 8-point Gauss rule from scratch so
    the check shares nothing with the assembly code under test.
    """
    shapes = [
        lambda s: (1.0 - s) * (1.0 - 2.0 * s),
        lambda s: 4.0 * s * (1.0 - s),
        lambda s: s * (2.0 * s - 1.0),
    ]
    pts, wts = np.polynomial.legendre.leggauss(8)
    pts = 0.5 * (pts + 1.0)
    wts = 0.5 * wts
    h = 1.0 / n_elems
    n_nodes = 2 * n_elems + 1
    full = np.zeros(n_nodes)
    full[1:-1] = v
    M = np.zeros((n_nodes, n_nodes))
    N = np.zeros(n_nodes)
    for k in range(n_elems):
        idx = [2 * k, 2 * k + 1, 2 * k + 2]
        for q, w in zip(pts, wts):
            phi = np.array([s(q) for s in shapes])
            vq = float(full[idx] @ phi)
            M[np.ix_(idx, idx)] += h * w * np.outer(phi, phi)
            N[idx] += h * w * phi * 0.5 * vq * vq
    return np.linalg.solve(M[1:-1, 1:-1], N[1:-1])
