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
share one fixed interior sparsity pattern, built once per mesh.
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
    def _interior_pattern(self) -> _ScatterPattern:
        """Fixed CSR pattern of every interior matrix (M, D, W), built on first use."""
        return _scatter_pattern(self)


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


def elements_for_width(h: float) -> int:
    """Element count of the mesh of width ``h``; raises ValueError unless 1/h is integral."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"element width must be positive and finite, got {h}")
    n = round(1.0 / h)
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
        _interior_matrix(mesh, _interior_data(mesh, np.tile(local.ravel(), mesh.n_elems)))
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


@dataclass(frozen=True)
class _ScatterPattern:
    """CSR pattern of an interior matrix assembled from 3x3 element blocks.

    Entry k of the data array is ``local[first[k]]``, where ``local`` is
    the flattened (n_elems, 9) array of element blocks; entries
    ``shared`` (the vertex diagonals, the only entries two elements
    share) add ``local[second]``.  A two-term sum does not depend on its
    order, so the result is bitwise the COO-to-CSR sum of the blocks.
    """

    indptr: np.ndarray
    indices: np.ndarray
    first: np.ndarray
    shared: np.ndarray
    second: np.ndarray


def _scatter_pattern(mesh: Mesh1D) -> _ScatterPattern:
    """Pattern of the interior rows and columns of the element blocks' sum."""
    n = mesh.n_interior
    rank = np.full(mesh.n_nodes, -1)
    rank[mesh.interior_to_global] = np.arange(n)
    rows = rank[np.repeat(mesh.cells, 3, axis=1).ravel()]
    cols = rank[np.tile(mesh.cells, (1, 3)).ravel()]
    src = np.flatnonzero((rows >= 0) & (cols >= 0))
    key = rows[src] * n + cols[src]
    order = np.argsort(key, kind="stable")
    src, key = src[order], key[order]
    new = np.r_[True, key[1:] != key[:-1]]
    key = key[new]
    # let scipy pick the index dtype once, so no later matrix converts it
    template = scipy.sparse.csr_matrix(
        (np.zeros(key.size), key % n, np.searchsorted(key, np.arange(n + 1) * n)),
        shape=(n, n))
    arrays = (template.indptr, template.indices, src[new],
              np.cumsum(new)[~new] - 1, src[~new])
    for a in arrays:
        a.setflags(write=False)
    return _ScatterPattern(*arrays)


def _interior_data(mesh: Mesh1D, local: np.ndarray) -> np.ndarray:
    """Data array, on the interior pattern, of the flattened (n_elems, 9) element blocks' sum."""
    p = mesh._interior_pattern
    data = local[p.first]
    data[p.shared] += local[p.second]
    return data


def _interior_matrix(mesh: Mesh1D, data: np.ndarray) -> scipy.sparse.csr_matrix:
    """Interior CSR matrix with the data array ``data`` on the interior pattern."""
    p = mesh._interior_pattern
    return scipy.sparse.csr_matrix((data, p.indices, p.indptr), shape=(mesh.n_interior,) * 2)


def weighted_mass_data(mesh: Mesh1D, weight: np.ndarray) -> np.ndarray:
    """Data array of W(w) (:func:`assemble_weighted_mass`) on the interior pattern.

    The element sums run over the quadrature points in increasing order
    from a zero start, bitwise what numpy's einsum("q,aq,bq,eq->eab")
    gives: W(v) is nearly singular in the wall zones, where the step
    controller's decisions turn on the last bits of the factored matrices.
    """
    wq = quadrature_values(mesh, weight)
    local = np.zeros((mesh.n_elems, 9))
    for q, terms in enumerate(_WEIGHTED_MASS_TERMS):
        local += terms * wq[:, q, None]
    local *= mesh.h
    return _interior_data(mesh, local.ravel())


def assemble_weighted_mass(mesh: Mesh1D, weight: np.ndarray) -> scipy.sparse.csr_matrix:
    """Interior weighted mass matrix W(w)[i, j] = int w_d phi_j phi_i dx.

    Linear in the weight; symmetric for any weight; positive definite only
    when the weight function keeps a positive sign.  The pattern is per mesh.
    """
    return _interior_matrix(mesh, weighted_mass_data(mesh, weight))


def assemble_quadratic_load(mesh: Mesh1D, v: np.ndarray) -> np.ndarray:
    """Interior load vector N(v)[i] = int phi_i v_d^2 / 2 dx.

    The integrand has degree 6, within the exactness of the 5-point rule,
    so N is homogeneous of degree 2 to rounding: N(a v) = a^2 N(v).  Summed as
    in W, each vertex adding its left, then right share to zero, as np.add.at does.
    """
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
    """
    full = embed_interior(mesh, coeffs)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
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
