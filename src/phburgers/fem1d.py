r"""Uniform P2 Lagrange finite elements on the unit interval.

The velocity and all port variables are expanded in the quadratic Lagrange
basis associated with a uniform partition of (0, 1) into ``n_elems``
elements of width ``h = 1/n_elems``.  Each element carries three nodes
(left vertex, midpoint, right vertex), giving ``2*n_elems + 1`` global
nodes of which the ``N = 2*n_elems - 1`` interior ones span the
homogeneous-Dirichlet subspace used for the dynamics.

This module assembles the constant matrices of the discrete
interconnection structure,

    M[i, j] = int phi_j phi_i dx        (mass, symmetric positive definite)
    D[i, j] = int phi_j phi_i' dx       (convection, skew-symmetric)

together with the state-dependent operators of the nonlinear constitutive
relations,

    W(w)[i, j] = int w_d phi_j phi_i dx     (weighted mass, linear in w)
    N(v)[i]    = int phi_i v_d^2 / 2 dx     (quadratic load),

where ``w_d`` and ``v_d`` are the interior expansions of the coefficient
vectors.  All integrals use a fixed 5-point Gauss-Legendre rule per
element, exact for polynomials of degree <= 9; every integrand above has
degree <= 6, so quadrature introduces no consistency error.  M, D and W
share one interior sparsity pattern, stated in closed form on the (N, 5)
band (``Mesh1D._interior_band``): that band layout is the one source of
every interior and stacked pattern.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

def _reference_basis(xi: np.ndarray) -> np.ndarray:
    """Values of the three P2 shape functions at reference coordinates."""
    return np.array([
        (1.0 - xi) * (1.0 - 2.0 * xi),
        4.0 * xi * (1.0 - xi),
        xi * (2.0 * xi - 1.0),
    ])


def _reference_basis_deriv(xi: np.ndarray) -> np.ndarray:
    """Reference derivatives d(phi)/d(xi) of the three P2 shape functions."""
    return np.array([
        4.0 * xi - 3.0,
        4.0 - 8.0 * xi,
        4.0 * xi - 1.0,
    ])


def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """5-point Gauss-Legendre points/weights mapped from [-1, 1] to [0, 1]."""
    pts, wts = np.polynomial.legendre.leggauss(5)
    return 0.5 * (pts + 1.0), 0.5 * wts


_QP, _QW = _gauss_rule()
_PHI = _reference_basis(_QP)          # (3, 5)
_DPHI = _reference_basis_deriv(_QP)   # (3, 5)
# (quadrature weight * phi_a) * phi_b at each Gauss point, shape (5, 9) over (q, 3a + b)
_WEIGHTED_MASS_TERMS = ((_QW * _PHI)[:, None, :] * _PHI[None, :, :]).reshape(9, -1).T
# quadrature weight * phi_a at each Gauss point, shape (5, 3) over (q, a)
_LOAD_TERMS = (_QW * _PHI).T


@dataclass(frozen=True)
class Mesh1D:
    """Uniform P2 mesh of (0, 1).

    ``nodes`` holds all vertex and midpoint coordinates in increasing
    order; ``interior_to_global[k]`` maps interior rank k = 0..N-1 to the
    global node index of the k-th interior basis function; ``cells`` holds
    the read-only global node triplets (left, mid, right) per element,
    shape (n_elems, 3).
    """

    n_elems: int
    h: float
    nodes: np.ndarray
    interior_to_global: np.ndarray
    cells: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def n_interior(self) -> int:
        return self.interior_to_global.size

    @functools.cached_property
    def _interior_band(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(mask, column, position)`` of the interior pattern on the (N, 5) band.

        ``mask[k, 2 + d]`` marks entry (k, k + d): a vertex row (k odd) couples
        columns k-2..k+2, a midpoint row k-1..k+1.  ``column[k, 2 + d]`` is
        k + d, and ``position`` is a marked entry's index in CSR data order.
        """
        k, d = np.ogrid[:self.n_interior, -2:3]
        mask = (0 <= k + d) & (k + d < self.n_interior) & ((k % 2 == 1) | (abs(d) <= 1))
        band = (mask, k + d, np.cumsum(mask).reshape(mask.shape) - 1)
        for a in band:
            a.setflags(write=False)
        return band

    @functools.cached_property
    def _interior_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices, source)`` of every interior matrix (M, D, W).

        Data entry j is entry ``source[j]`` of the flattened (n_elems, 9) element blocks.
        """
        mask, column, _ = self._interior_band
        ids = np.arange(9 * self.n_elems).reshape(-1, 9)
        source = np.zeros(mask.shape, dtype=np.intp)
        source[0::2, 1:4] = ids[:, 3:6]   # midpoint: its element's row 1
        source[1::2, :3] = ids[:-1, 6:]   # vertex: left element's row 2
        source[1::2, 3:] = ids[1:, 1:3]   # vertex, right of the diagonal: right element's row 0
        indptr = np.r_[0, np.cumsum(mask.sum(axis=1))].astype(np.int32)
        pattern = (indptr, column[mask].astype(np.int32), source[mask])
        for a in pattern:
            a.setflags(write=False)
        return pattern


def build_mesh(n_elems: int) -> Mesh1D:
    """Partition (0, 1) into ``n_elems`` equal elements with P2 node layout."""
    if n_elems < 1:
        raise ValueError(f"n_elems must be a positive integer, got {n_elems}")
    nodes = np.linspace(0.0, 1.0, 2 * n_elems + 1)
    e = np.arange(n_elems)
    cells = np.column_stack((2 * e, 2 * e + 1, 2 * e + 2))
    cells.setflags(write=False)
    return Mesh1D(
        n_elems=n_elems,
        h=1.0 / n_elems,
        nodes=nodes,
        interior_to_global=np.arange(1, 2 * n_elems),
        cells=cells,
    )


# 50 times the finest study grid (h = 5e-4).  Two viscous steps peak at 79 MiB RSS at
# h = 1e-3, 174 MiB at 1e-4 and 856 MiB at 1e-5 (about 8 KB per element), and the int32
# indices of the largest stacked pattern (about 80 entries per element) stay far in range.
MAX_ELEMENTS = 100_000


def elements_for_width(h: float) -> int:
    """Element count 1/h of width ``h``'s mesh; ValueError unless integral and <= MAX_ELEMENTS."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"element width must be positive and finite, got {h}")
    if not 1.0 / h < math.inf:
        raise ValueError(f"element width {h} is too small: 1/h is not finite")
    n = round(1.0 / h)
    if n > MAX_ELEMENTS:
        raise ValueError(f"element width {h} is too small: more than {MAX_ELEMENTS} elements")
    if n < 1 or abs(n * h - 1.0) > 1e-9:
        raise ValueError(f"element width {h} does not divide the unit interval")
    return n


def mesh_for_width(h: float) -> Mesh1D:
    """Build the mesh whose element width is ``h``; 1/h must be integral."""
    return build_mesh(elements_for_width(h))


@dataclass(frozen=True)
class FeOperators:
    """Assembled constant matrices of the discrete structure.

    ``mass`` (M) and ``convection`` (D) act on interior coefficient
    vectors.  Everything is immutable and safe to share read-only.
    """

    mesh: Mesh1D
    mass: scipy.sparse.csr_matrix
    convection: scipy.sparse.csr_matrix
    mass_banded: np.ndarray

    def solve_mass(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs with the banded Cholesky of the SPD mass matrix."""
        return scipy.linalg.solveh_banded(self.mass_banded, rhs, lower=True)

    def mass_cholesky(self) -> np.ndarray:
        """Banded Cholesky factor of M; raises LinAlgError if M is not SPD."""
        return scipy.linalg.cholesky_banded(self.mass_banded, lower=True)


def _banded_lower(a: scipy.sparse.spmatrix, bandwidth: int) -> np.ndarray:
    """Lower diagonal-ordered storage of a symmetric banded sparse matrix."""
    ab = np.zeros((bandwidth + 1, a.shape[0]))
    for k in range(bandwidth + 1):
        ab[k, : a.shape[0] - k] = a.diagonal(-k)
    return ab


def assemble_operators(mesh: Mesh1D) -> FeOperators:
    """Assemble M and D for ``mesh``.

    The local blocks are computed once by quadrature on the reference
    element; D picks up no h factor because the derivative scaling
    1/h cancels the element width in dx = h d(xi).
    """
    # local blocks: M_loc[a, b] = h * sum_q w_q phi_a phi_b, etc.
    mass_loc = mesh.h * np.einsum("q,aq,bq->ab", _QW, _PHI, _PHI)
    conv_q = np.einsum("q,aq,bq->ab", _QW, _DPHI, _PHI)   # row a is the test derivative
    # split off the exact boundary part: int phi_a' phi_b + int phi_b' phi_a
    # = [phi_a phi_b] = diag(-1, 0, 1) on the reference element.  Keeping
    # the skew part exactly antisymmetric makes the assembled interior D
    # bitwise skew (the corner halves cancel pairwise at shared vertices),
    # so the structural identities hold to the last bit on every mesh.
    conv_loc = 0.5 * (conv_q - conv_q.T) + np.diag([-0.5, 0.0, 0.5])
    mass, convection = (
        _interior_matrix(mesh, _interior_data(mesh, np.tile(local.ravel(), (mesh.n_elems, 1))))
        for local in (mass_loc, conv_loc))
    return FeOperators(mesh=mesh, mass=mass, convection=convection,
                       mass_banded=_banded_lower(mass, 2))


def embed_interior(mesh: Mesh1D, coeffs: np.ndarray) -> np.ndarray:
    """Extend an interior coefficient vector by zero boundary values."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (mesh.n_interior,):
        raise ValueError(
            f"expected {mesh.n_interior} interior coefficients, got shape {coeffs.shape}"
        )
    full = np.zeros(mesh.n_nodes)
    full[mesh.interior_to_global] = coeffs
    return full


def quadrature_values(mesh: Mesh1D, coeffs: np.ndarray) -> np.ndarray:
    """Values of the interior expansion at every quadrature point, shape (n_elems, 5)."""
    full = embed_interior(mesh, coeffs)
    return np.einsum("ea,aq->eq", full[mesh.cells], _PHI)


def quadrature_derivatives(mesh: Mesh1D, coeffs: np.ndarray) -> np.ndarray:
    """Spatial derivative of the interior expansion at every quadrature point."""
    full = embed_interior(mesh, coeffs)
    return np.einsum("ea,aq->eq", full[mesh.cells], _DPHI) / mesh.h


def quadrature_points(mesh: Mesh1D) -> np.ndarray:
    """Global quadrature points, shape (n_elems, 5); :func:`integrate` applies the weights."""
    left = mesh.nodes[: -1 : 2]
    return left[:, None] + mesh.h * _QP[None, :]


def integrate(mesh: Mesh1D, values: np.ndarray) -> float:
    """Integrate quadrature-point values (n_elems, 5) over (0, 1)."""
    return float(np.einsum("eq,q->", values, _QW) * mesh.h)


def _interior_data(mesh: Mesh1D, local: np.ndarray) -> np.ndarray:
    """Data array, on the interior pattern, of the (n_elems, 9) element blocks' sum.

    The blocks overlap only on the vertex diagonals: the left element's entry
    plus the right one's, bitwise the COO-to-CSR sum.
    """
    data = local.ravel()[mesh._interior_pattern[2]]
    data[3::8] += local[1:, 0]  # the vertex diagonals: every 8th entry from entry 3
    return data


def _interior_matrix(mesh: Mesh1D, data: np.ndarray) -> scipy.sparse.csr_matrix:
    """Interior CSR matrix with the data array ``data`` on the interior pattern."""
    indptr, indices, _ = mesh._interior_pattern
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(mesh.n_interior,) * 2)


@functools.lru_cache(maxsize=None)
def _block_pattern(n_elems: int, layout: tuple, transposed: bool = False) -> tuple:
    """Read-only CSR ``(indptr, indices, source)`` of interior blocks stacked by ``layout``.

    Block row r holds blocks in block columns ``layout[r]``, numbered in that
    order row after row; data entry j is entry ``source[j]`` of the blocks'
    concatenated CSR data.  ``transposed`` puts entry (k + d, k) of each block
    at band slot (k, 2 + d): the pattern is symmetric, so the arrays are then
    the CSC arrays of the matrix whose block column r holds ``layout[r]``'s blocks.
    """
    mask, column, position = build_mesh(n_elems)._interior_band
    n, nnz = mask.shape[0], int(mask.sum())
    if transposed:
        position = position[np.clip(column, 0, n - 1), 4 - np.arange(5)]
    # axes (block row, band row, block, band slot); a -1 pads each block row to the widest
    width = max(map(len, layout))
    cols = np.array([c + (-1,) * (width - len(c)) for c in layout])[:, None, :, None]
    ids = np.cumsum(cols >= 0).reshape(cols.shape) - 1
    entry = (cols >= 0) & mask[:, None, :]
    pattern = (np.r_[0, np.cumsum(entry.sum(axis=(2, 3)))].astype(np.int32),
               (column[:, None, :] + n * cols)[entry].astype(np.int32),
               (position[:, None, :] + nnz * ids)[entry])
    for a in pattern:
        a.setflags(write=False)
    return pattern


def weighted_mass_data(mesh: Mesh1D, weight: np.ndarray, wq: np.ndarray | None = None
                       ) -> np.ndarray:
    """Data array of W(w) (:func:`assemble_weighted_mass`) on the interior pattern.

    ``wq``, if given, is ``quadrature_values(mesh, weight)``, computed once
    by a caller that also needs it elsewhere.  The element sums run over
    the quadrature points in increasing order from a zero start, bitwise
    what numpy's einsum("q,aq,bq,eq->eab") gives: W(v) is nearly singular
    in the wall zones, where the step controller's decisions turn on the
    last bits of the factored matrices.
    """
    if wq is None:
        wq = quadrature_values(mesh, weight)
    local = np.zeros((mesh.n_elems, 9))
    for q, terms in enumerate(_WEIGHTED_MASS_TERMS):
        local += terms * wq[:, q, None]
    local *= mesh.h
    return _interior_data(mesh, local)


def assemble_weighted_mass(mesh: Mesh1D, weight: np.ndarray) -> scipy.sparse.csr_matrix:
    """Interior weighted mass matrix W(w)[i, j] = int w_d phi_j phi_i dx.

    Linear in the weight; symmetric for any weight; positive definite only
    when the weight function keeps a positive sign.  The pattern is per mesh.
    """
    return _interior_matrix(mesh, weighted_mass_data(mesh, weight))


def assemble_quadratic_load(mesh: Mesh1D, v: np.ndarray, vq: np.ndarray | None = None
                            ) -> np.ndarray:
    """Interior load vector N(v)[i] = int phi_i v_d^2 / 2 dx.

    The integrand has degree 6, within the exactness of the 5-point rule,
    so N is homogeneous of degree 2 to rounding: N(a v) = a^2 N(v).  Summed as
    in W, each vertex adding its left, then right share to zero, as np.add.at does.
    ``vq``, if given, is ``quadrature_values(mesh, v)``, as in :func:`weighted_mass_data`.
    """
    if vq is None:
        vq = quadrature_values(mesh, v)
    v2 = vq**2
    local = np.zeros((mesh.n_elems, 3))
    for q, terms in enumerate(_LOAD_TERMS):
        local += terms * v2[:, q, None]
    local *= 0.5 * mesh.h
    out = np.empty(mesh.n_interior)
    out[0::2] = 0.0 + local[:, 1]  # midpoints
    out[1::2] = (0.0 + local[:-1, 2]) + local[1:, 0]  # interior vertices
    return out


def _evaluate(mesh: Mesh1D, coeffs: np.ndarray, x, basis):
    """The expansion with reference shape functions ``basis``, at x in [0, 1].

    An array x, even of length 1, gives an array; a scalar x a scalar.
    Points outside [0, 1], NaN included, are a ValueError.
    """
    full = embed_interior(mesh, coeffs)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError(f"evaluation points must lie in [0, 1], got {x}")
    elem = np.clip((xs / mesh.h).astype(int), 0, mesh.n_elems - 1)
    xi = xs / mesh.h - elem
    vals = np.einsum("pa,ap->p", full[mesh.cells[elem]], basis(xi))
    return vals if np.ndim(x) else vals[0]


def evaluate(mesh: Mesh1D, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the P2 expansion at arbitrary points of [0, 1]."""
    return _evaluate(mesh, coeffs, x, _reference_basis)


def evaluate_derivative(mesh: Mesh1D, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the spatial derivative of the P2 expansion at points of [0, 1]."""
    return _evaluate(mesh, coeffs, x, _reference_basis_deriv) / mesh.h


def interpolate(mesh: Mesh1D, profile) -> np.ndarray:
    """Interior coefficients of the nodal interpolant of ``profile``.

    Boundary values of the profile are dropped by the homogeneous
    expansion; for the pulse data used in the experiments they are below
    every tolerance in play (~4e-6).
    """
    return np.asarray(profile(mesh.nodes[mesh.interior_to_global]), dtype=float)
