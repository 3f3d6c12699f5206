r"""Discrete port-Hamiltonian realization of the Burgers' system.

The semi-discrete model keeps the interconnection structure constant and
pushes all nonlinearity into constitutive relations:

    M dv/dt = D e + D e_r        (dynamics)
    M e     = N(v)               (co-state: e_d ~ v_d^2/2)
    M f_r   = D e                (dissipative flow)
    W(v) e_r = nu M f_r          (dissipative effort)

with the inviscid case dropping the port rows and the D e_r term.  The
paper's gradient matrix R = D^T is -D, because D is skew (see fem1d).
The co-state solve is the L2 projection of v_d^2/2 onto the P2 space; the
port solves realize f_r ~ d(e_d)/dx and v e_r = nu f_r weakly.  Chaining
the relations gives the discrete power balances

    inviscid:  e^T M dv/dt = e^T D e = 0            (D skew-symmetric)
    viscous:   e^T M dv/dt = -(1/nu) int v_d e_rd^2 dx

which hold to solver precision, independently of the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import fem1d
from .fem1d import FeOperators

# Relative pivot threshold below which W(v) counts as singular.
W_PIVOT_RTOL = 1e-14


class StepFailure(Exception):
    """A constitutive or nonlinear solve could not proceed.

    Carries a machine-readable ``reason`` so the adaptive controller can
    log why a step was rejected, and ``newton_iters``, the number of
    Newton matrices built before the failure (0 when none was).
    """

    def __init__(self, reason: str, newton_iters: int = 0):
        super().__init__(reason)
        self.reason = reason
        self.newton_iters = newton_iters


@dataclass(frozen=True)
class State:
    """Discrete state at one time instant.

    ``v`` is the interior coefficient vector of the velocity; ``e`` the
    co-state; ``f_r``/``e_r`` the dissipative port pair (empty arrays in
    inviscid mode).  ``nu == 0`` marks the inviscid system.  Consistent
    states satisfy the constitutive solves to solver precision; use
    :func:`make_state` to build one.
    """

    t: float
    v: np.ndarray
    e: np.ndarray
    f_r: np.ndarray
    e_r: np.ndarray
    nu: float = 0.0

    @property
    def viscous(self) -> bool:
        return self.nu > 0.0


def project_costate(ops: FeOperators, v: np.ndarray) -> np.ndarray:
    """Co-state coefficients e solving M e = N(v).

    This is the Galerkin projection of v_d^2/2 onto the interior space.
    """
    return ops.solve_mass(fem1d.assemble_quadratic_load(ops.mesh, v))


def weighted_mass_factor(ops: FeOperators, w: np.ndarray):
    """Factor W(w) by sparse LU, rejecting an exactly singular W or a tiny pivot.

    Returns its SuperLU factorization.  Raises
    StepFailure("singular_weighted_mass") for the time-step controller
    when SuperLU finds W exactly singular or an LU pivot is smaller than
    ``W_PIVOT_RTOL * max absolute row sum``.  This is a pivot test, not a
    conditioning test, and it misses a W that is singular to rounding:
    along the RK45 trajectory of the semi-discrete flow at (h=1e-2,
    beta=1) it never fired, not even at the stall where the smallest
    |eigenvalue| of W is about 1e-16 against a largest of 5.7e-3.
    """
    W = fem1d.assemble_weighted_mass(ops.mesh, w)
    row_scale = float(np.max(np.abs(W).sum(axis=1))) if W.nnz else 0.0
    try:
        lu = scipy.sparse.linalg.splu(W.tocsc())
    except RuntimeError as exc:
        raise StepFailure("singular_weighted_mass") from exc
    if row_scale == 0.0 or np.min(np.abs(lu.U.diagonal())) < W_PIVOT_RTOL * row_scale:
        raise StepFailure("singular_weighted_mass")
    return lu


def solve_viscous_ports(
    ops: FeOperators, v: np.ndarray, e: np.ndarray, nu: float
) -> tuple[np.ndarray, np.ndarray]:
    """Dissipative port pair (f_r, e_r) for a given (v, e).

    Solves M f_r = D e, then W(v) e_r = nu M f_r.  Raises StepFailure
    when weighted_mass_factor rejects W(v).
    """
    if nu <= 0.0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    f_r = ops.solve_mass(ops.convection @ e)
    lu = weighted_mass_factor(ops, v)
    e_r = lu.solve(nu * (ops.mass @ f_r))
    return f_r, e_r


def make_state(
    ops: FeOperators, v: np.ndarray, nu: float = 0.0, t: float = 0.0
) -> State:
    """Build a consistent State from velocity coefficients.

    Runs the constitutive solves so the invariants M e = N(v) and, in
    viscous mode, M f_r = D e, W(v) e_r = nu M f_r hold on the result.
    Raises ValueError unless 0 <= nu < inf.
    """
    if not 0.0 <= nu < np.inf:  # NaN fails too
        raise ValueError(f"nu must be finite and non-negative, got {nu}")
    v = np.asarray(v, dtype=float)
    e = project_costate(ops, v)
    if nu > 0.0:
        f_r, e_r = solve_viscous_ports(ops, v, e, nu)
    else:
        f_r = np.empty(0)
        e_r = np.empty(0)
    return State(t=t, v=v, e=e, f_r=f_r, e_r=e_r, nu=nu)


def structure_apply(ops: FeOperators, state: State) -> np.ndarray:
    """Right-hand side g = D e + D e_r of the dynamics row before the mass solve."""
    g = ops.convection @ state.e
    if state.viscous:
        g = g + ops.convection @ state.e_r
    return g


def rhs(ops: FeOperators, state: State) -> np.ndarray:
    """Velocity rate w solving M w = D e + D e_r."""
    return ops.solve_mass(structure_apply(ops, state))
