r"""Crank-Nicolson integration with Newton and adaptive time steps.

One step drives the coupled residual of the dynamics row and the
constitutive rows to zero at the end of the step.  step_residual
builds it, the package's only step residual:

    F(v, e, f, e_r) = [ M (v - v_n) - (dt/2) (D e + D e_r + g_n) ]
                      [ M e - N(v)                               ]
                      [ M f - D e                                ]
                      [ W(v) e_r - nu M f                        ]

with g_n = (D e + D e_r) evaluated at the stored start-of-step state.
Newton updates all four fields together; its Jacobian, assembled by
_newton_matrix and factored by SuperLU, is the sparse block matrix

    [ M        -(dt/2) D   0       -(dt/2) D ]
    [ -W(v)     M          0       0         ]
    [ 0        -D          M       0         ]
    [ W(e_r)    0         -nu M    W(v)      ]

(the inviscid step is its leading 2x2 block, in (v, e) alone).  The
linearization of the weighted mass uses the symmetry of the underlying
trilinear form: W(dv) e_r = W(e_r) dv.  Working on the coupled residual keeps
every evaluation polynomial in the unknowns; no weighted-mass solve
sits on the iteration path, which matters because W(v) is nearly
singular wherever v_d nearly vanishes (the boundary zones of the pulse
data).  Eliminating e, f_r and e_r by the constitutive solves gives a
one-field residual in v with the same solution set.

The step loop of run_simulation scales dt by DT_SHRINK on any failure
(Newton stagnation, non-finite residual, singular W) and by DT_GROWTH
after GROWTH_STREAK acceptances in a row of at most GROWTH_ITER_LIMIT
Newton iterations each, capped at DT_CAP_FACTOR dt0; runs end early
when dt falls below its floor DT_MIN_FACTOR dt0, which is how the
inviscid fine-mesh configurations die at the shock.  Newton declares
convergence at NEWTON_TOL relative to the residual scale (see
newton_solve).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import diagnostics, fem1d, phsystem
from .diagnostics import PowerLedger
from .fem1d import FeOperators
from .phsystem import State, StepFailure

NEWTON_MAX_ITER = 12
NEWTON_TOL = 1e-8
DT_MIN_FACTOR = 2.0**-12
DT_SHRINK = 0.5
DT_GROWTH = 1.5
DT_CAP_FACTOR = 8.0
GROWTH_STREAK = 5
GROWTH_ITER_LIMIT = 3


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation needs; all experiments set alpha, beta, h.

    The mesh is the partition of (0, 1) into elements of width ``h``,
    so 1/h must be integral.  Time stepping starts at dt0 = alpha h and
    the viscosity is nu = beta h / alpha, recomputed on demand; beta = 0
    selects the inviscid system.  ``fixed_dt`` disables adaptivity for
    order studies.  The float fields must be finite; the comparisons
    are written so that NaN fails them.
    """

    h: float
    alpha: float = 1.0
    beta: float = 0.0
    t_final: float = 0.4
    n_snapshots: int = 50
    fixed_dt: float | None = None

    def __post_init__(self):
        fem1d.elements_for_width(self.h)
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be nonnegative and finite, got {self.beta}")
        if not 0.0 < self.dt0 < math.inf:
            raise ValueError(f"dt0 = alpha * h must be positive and finite, got {self.dt0}")
        if not self.nu < math.inf:
            raise ValueError(f"nu = beta * h / alpha must be finite, got {self.nu}")
        if not 0.0 <= self.t_final < math.inf:
            raise ValueError(f"t_final must be nonnegative and finite, got {self.t_final}")
        if self.fixed_dt is not None and not 0.0 < self.fixed_dt < math.inf:
            raise ValueError(f"fixed_dt must be positive and finite, got {self.fixed_dt}")
        if self.n_snapshots < 2:
            raise ValueError("n_snapshots counts the initial and final states and must be"
                             f" at least 2, got {self.n_snapshots}")

    @property
    def mesh_elems(self) -> int:
        return fem1d.elements_for_width(self.h)

    @property
    def width(self) -> float:
        return 1.0 / self.mesh_elems

    @property
    def nu(self) -> float:
        return self.beta * self.width / self.alpha

    @property
    def dt0(self) -> float:
        return self.alpha * self.width

    @property
    def dt_cap(self) -> float:
        return DT_CAP_FACTOR * self.dt0

    @property
    def dt_min(self) -> float:
        return DT_MIN_FACTOR * self.dt0


def step_residual(ops: FeOperators, state_n: State, dt: float):
    """The coupled residual F(z) of one step from ``state_n``.

    Returns F as a function of the stacked fields z = (v, e, f_r, e_r),
    or z = (v, e) in the inviscid case, with the rows of the module
    docstring; g_n is computed once, here.  Every evaluation is
    polynomial in z, so F stays finite where W(v) is singular.

    An evaluation makes one quadrature pass over v, shared by N(v) and
    W(v), and one sparse product: with x = (v - v_n, e, f_r, e_r), the
    row blocks of B x are M (v - v_n), D e, D e_r, M e, M f_r and W(v) e_r,
    or M (v - v_n), D e and M e when inviscid.  Each row of B keeps the
    entries of its block's row in order, so every product is bitwise
    the separate one.  W(v)'s slice of B's data is refilled per evaluation.
    """
    M, D, mesh = ops.mass, ops.convection, ops.mesh
    v_n, nu, n, viscous = state_n.v, state_n.nu, mesh.n_interior, state_n.viscous
    g_n = phsystem.structure_apply(ops, state_n)
    # the last viscous block is W(v): M's data until the first evaluation refills it
    blocks, layout = (((M, D, D, M, M, M), ((0,), (1,), (3,), (1,), (2,), (3,))) if viscous
                      else ((M, D, M), ((0,), (1,), (1,))))
    indptr, indices, _ = fem1d._block_pattern(mesh.n_elems, layout)
    B = scipy.sparse.csr_matrix((np.concatenate([b.data for b in blocks]), indices, indptr),
                                shape=(len(layout) * n, (4 if viscous else 2) * n))
    W = B.data[5 * M.nnz:]  # empty when inviscid

    def residual(z):
        v = z[:n]
        vq = fem1d.quadrature_values(mesh, v)
        load = fem1d.assemble_quadratic_load(mesh, v, vq=vq)
        if viscous:
            W[:] = fem1d.weighted_mass_data(mesh, v, wq=vq)
        y = (B @ np.concatenate([v - v_n, z[n:]])).reshape(-1, n)
        if not viscous:
            Mv, De, Me = y
            return np.concatenate([Mv - 0.5 * dt * (De + g_n), Me - load])
        Mv, De, Dr, Me, Mf, Wr = y
        return np.concatenate([Mv - 0.5 * dt * ((De + Dr) + g_n), Me - load, Mf - De,
                               Wr - nu * Mf])
    return residual


def _stacked_state(z: np.ndarray, nu: float, t: float) -> State:
    """The State whose fields are the stacked fields z of step_residual."""
    n = z.size // (4 if nu > 0.0 else 2)
    v, e, f, r = z[:n], z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
    return State(t=t, v=v, e=e, f_r=f, e_r=r, nu=nu)


def _newton_matrix(ops: FeOperators, trial: State, dt: float) -> scipy.sparse.csc_matrix:
    """Sparse block system whose first row eliminates to dF/dv.

    The blocks of the module docstring's matrix are listed by block column,
    with the block rows they stand in; its leading 2x2 block if inviscid.
    Only the data array is computed here, scaled the way scipy scales a
    sparse matrix by a scalar, so the result is bitwise the block matrix
    that scipy.sparse stacks from the scaled blocks.
    """
    M, D = ops.mass.data, ops.convection.data
    Wv = fem1d.weighted_mass_data(ops.mesh, trial.v)
    dh = D * (-0.5 * dt)
    if trial.viscous:
        Wr = fem1d.weighted_mass_data(ops.mesh, trial.e_r)
        layout = ((0, 1, 3), (0, 1, 2), (2, 3), (0, 3))
        blocks = (M, -Wv, Wr, dh, M, -D, M, M * (-trial.nu), dh, Wv)
    else:
        layout, blocks = ((0, 1), (0, 1)), (M, -Wv, dh, M)
    indptr, indices, source = fem1d._block_pattern(ops.mesh.n_elems, layout, transposed=True)
    return scipy.sparse.csc_matrix((np.concatenate(blocks)[source], indices, indptr),
                                   shape=(indptr.size - 1,) * 2)


def newton_solve(ops: FeOperators, state_n: State, dt: float) -> tuple[State, int]:
    """Solve the step equations starting from the stored state.

    Iterates on the stacked fields (v, e, f_r, e_r) with step_residual;
    convergence is declared when its norm falls below NEWTON_TOL *
    max(initial residual, |M v_n|).  At the consistent starting point
    the constitutive rows vanish, so the initial residual equals the
    Crank-Nicolson dynamics residual.  Full Newton steps are damped by
    a backtracking line search on |F|: the constitutive relation
    degenerates wherever v_d nearly vanishes (the boundary zones of the
    pulse data), and an undamped update can overshoot through that
    region even though the Jacobian is exact.  Returns the end-of-step
    state and the iteration count.  Raises
    StepFailure("newton_divergence") on stagnation, non-finite
    residuals, or running out of iterations, and
    StepFailure("singular_weighted_mass") when the block Jacobian
    cannot be factored (its only degeneracy source is W); either
    carries the number of Newton matrices built before giving up.
    """
    residual = step_residual(ops, state_n, dt)
    z = np.concatenate([state_n.v, state_n.e, state_n.f_r, state_n.e_r])
    t = state_n.t + dt
    F = residual(z)
    res = float(np.linalg.norm(F))
    if not np.isfinite(res):
        raise StepFailure("newton_divergence")
    tol = NEWTON_TOL * max(res, float(np.linalg.norm(ops.mass @ state_n.v)), 1e-300)
    for iters in range(NEWTON_MAX_ITER + 1):
        if res <= tol:
            return _stacked_state(z, state_n.nu, t), iters
        if iters == NEWTON_MAX_ITER:
            break
        A = _newton_matrix(ops, _stacked_state(z, state_n.nu, t), dt)
        try:
            lu = scipy.sparse.linalg.splu(A)
        except RuntimeError as exc:
            raise StepFailure("singular_weighted_mass", iters + 1) from exc
        delta = lu.solve(-F)
        if not np.all(np.isfinite(delta)):
            raise StepFailure("newton_divergence", iters + 1)
        lam = 1.0
        for _ in range(30):
            z_cand = z + lam * delta
            F_cand = residual(z_cand)
            res_cand = float(np.linalg.norm(F_cand))
            if np.isfinite(res_cand) and res_cand <= (1.0 - 1e-4 * lam) * res:
                z, F, res = z_cand, F_cand, res_cand
                break
            lam *= 0.5
        else:
            raise StepFailure("newton_divergence", iters + 1)
    raise StepFailure("newton_divergence", NEWTON_MAX_ITER)


# a balance excursion larger than the initial Hamiltonian itself marks
# a run that left the regime the energetic bookkeeping is meant for
VAR_ANOMALY_THRESHOLD = 1.0


@dataclass(frozen=True)
class RunResult:
    """Everything a finished run reports.

    ``flags`` lists detected anomalies: "early_termination" when the run
    stopped before t_final (dt underflow), "anomalous_variation" when
    Var exceeds VAR_ANOMALY_THRESHOLD, "negative_velocity" when a viscous
    run accepted a state with a negative velocity coefficient, where
    W(v) has left its positive-definite regime.  Stability-boundary
    cells show up through one of these.
    """

    config: RunConfig
    snapshots: list
    ledger: PowerLedger
    var: float
    t_reached: float
    n_steps: int
    termination_reason: str
    flags: tuple = ()


def run_simulation(config: RunConfig, profile=diagnostics.gaussian_pulse) -> RunResult:
    """Integrate the pulse data to t_final (or until dt underflows).

    The initial velocity is the nodal interpolant of ``profile`` at the
    interior P2 nodes; its boundary values are dropped by the
    homogeneous expansion.  Snapshots are taken at the first accepted
    step past each of ``n_snapshots`` uniform target times.

    A failed attempt retries from the same state with a smaller dt
    (module docstring); with ``fixed_dt`` set, it ends the run with the
    failure's own reason.  The last step lands on t_final exactly.
    """
    mesh = fem1d.build_mesh(config.mesh_elems)
    ops = fem1d.assemble_operators(mesh)
    v0 = fem1d.interpolate(mesh, profile)
    state = phsystem.make_state(ops, v0, nu=config.nu, t=0.0)

    ledger = PowerLedger()
    ledger.record(mesh, state, 0.0, 0)
    snapshots = [state]
    targets = np.linspace(0.0, config.t_final, config.n_snapshots)[1:]
    next_target = 0

    dt = config.fixed_dt or config.dt0
    streak = 0
    termination = "completed"
    negative = False
    t_tol = 1e-12 * max(config.t_final, 1.0)
    while state.t < config.t_final - t_tol:
        remaining = config.t_final - state.t
        step = min(dt, remaining)
        try:
            state, iters = newton_solve(ops, state, step)
        except StepFailure as fail:
            if config.fixed_dt is not None:
                termination = fail.reason
                break
            streak = 0
            dt *= DT_SHRINK
            if dt < config.dt_min:
                termination = "dt_underflow"
                break
            continue
        if dt >= remaining:
            state = dataclasses.replace(state, t=config.t_final)
        ledger.record(mesh, state, step, iters)
        if config.fixed_dt is None:
            streak = streak + 1 if iters <= GROWTH_ITER_LIMIT else 0
            if streak >= GROWTH_STREAK:
                dt = min(dt * DT_GROWTH, config.dt_cap)
                streak = 0
        negative = negative or (state.viscous and np.min(state.v) < 0.0)
        while next_target < targets.size and state.t >= targets[next_target] - t_tol:
            next_target += 1
            if snapshots[-1] is not state:
                snapshots.append(state)
    if snapshots[-1] is not state:
        snapshots.append(state)

    var = diagnostics.balance_variation(ledger)
    flags = []
    if termination != "completed":
        flags.append("early_termination")
    if var > VAR_ANOMALY_THRESHOLD:
        flags.append("anomalous_variation")
    if negative:
        flags.append("negative_velocity")
    return RunResult(
        config=config,
        snapshots=snapshots,
        ledger=ledger,
        var=var,
        t_reached=state.t,
        n_steps=len(ledger) - 1,
        termination_reason=termination,
        flags=tuple(flags),
    )
