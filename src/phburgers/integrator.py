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
import functools
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
        if not 0.0 <= self.t_final < math.inf:
            raise ValueError(f"t_final must be nonnegative and finite, got {self.t_final}")
        if self.fixed_dt is not None and not 0.0 < self.fixed_dt < math.inf:
            raise ValueError(f"fixed_dt must be positive and finite, got {self.fixed_dt}")
        if self.n_snapshots < 0:
            raise ValueError(f"n_snapshots must be nonnegative, got {self.n_snapshots}")

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
    """
    M, D, mesh = ops.mass, ops.convection, ops.mesh
    v_n, nu, n, viscous = state_n.v, state_n.nu, mesh.n_interior, state_n.viscous
    g_n = phsystem.structure_apply(ops, state_n)
    W = M.copy() if viscous else None  # W(v) on M's pattern, refilled per evaluation

    def residual(z):
        v, e, f, r = z[:n], z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
        De = D @ e
        rows = [M @ (v - v_n) - 0.5 * dt * ((De + D @ r if viscous else De) + g_n),
                M @ e - fem1d.assemble_quadratic_load(mesh, v)]
        if viscous:
            Mf = M @ f
            W.data = fem1d.weighted_mass_data(mesh, v)
            rows += [Mf - De, W @ r - nu * Mf]
        return np.concatenate(rows)
    return residual


def _stacked_state(z: np.ndarray, nu: float, t: float) -> State:
    """The State whose fields are the stacked fields z of step_residual."""
    n = z.size // (4 if nu > 0.0 else 2)
    v, e, f, r = z[:n], z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
    return State(t=t, v=v, e=e, f_r=f, e_r=r, nu=nu)


def _newton_layout(m, dh, minus_d, minus_wv, wr, m_nu, wv, viscous: bool) -> list:
    """Block rows of the module docstring's Newton matrix; its leading 2x2 block if inviscid."""
    rows = [[m, dh, None, dh],
            [minus_wv, m, None, None],
            [None, minus_d, m, None],
            [wr, None, m_nu, wv]]
    return rows if viscous else [row[:2] for row in rows[:2]]


@functools.lru_cache(maxsize=None)
def _newton_pattern(n_elems: int, viscous: bool):
    """CSC pattern of the Newton matrix and, per entry, its source.

    Returns ``(indptr, indices, source)``: entry k of the matrix is entry
    ``source[k]`` of the concatenated data arrays of the blocks, taken in
    row-major order.  Built once per mesh and mode, by one
    ``scipy.sparse.bmat`` call on blocks that hold running ids on the
    interior pattern, which every block shares.
    """
    mesh = fem1d.build_mesh(n_elems)
    nnz = mesh._interior_pattern.indices.size
    rows = _newton_layout(*[mesh] * 7, viscous)  # any non-None value marks a block
    start = 1  # ids start at 1 so that none is a zero
    for row in rows:
        for j, block in enumerate(row):
            if block is not None:
                row[j] = fem1d._interior_matrix(mesh, np.arange(start, start + nnz, dtype=float))
                start += nnz
    A = scipy.sparse.bmat(rows, format="csc")
    pattern = (A.indptr, A.indices, A.data.astype(np.intp) - 1)
    for a in pattern:
        a.setflags(write=False)
    return pattern


def _newton_matrix(ops: FeOperators, trial: State, dt: float) -> scipy.sparse.csc_matrix:
    """Sparse block system whose first row eliminates to dF/dv.

    Only the data array is computed here, scaled the way scipy scales a
    sparse matrix by a scalar, so the result is bitwise the matrix that
    ``scipy.sparse.bmat`` builds from the scaled blocks.
    """
    M, D = ops.mass.data, ops.convection.data
    Wv = fem1d.weighted_mass_data(ops.mesh, trial.v)
    Wr = fem1d.weighted_mass_data(ops.mesh, trial.e_r) if trial.viscous else None
    rows = _newton_layout(M, D * (-0.5 * dt), -D, -Wv, Wr, M * (-trial.nu), Wv,
                          trial.viscous)
    data = np.concatenate([block for row in rows for block in row if block is not None])
    indptr, indices, source = _newton_pattern(ops.mesh.n_elems, trial.viscous)
    n = indptr.size - 1
    return scipy.sparse.csc_matrix((data[source], indices, indptr), shape=(n, n))


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
    for iters in range(NEWTON_MAX_ITER):
        if res <= tol:
            return _stacked_state(z, state_n.nu, t), iters
        A = _newton_matrix(ops, _stacked_state(z, state_n.nu, t), dt)
        try:
            lu = scipy.sparse.linalg.splu(A)
        except RuntimeError as exc:
            raise StepFailure("singular_weighted_mass", iters + 1) from exc
        delta = lu.solve(-F)
        if not np.all(np.isfinite(delta)):
            raise StepFailure("newton_divergence", iters + 1)
        lam = 1.0
        accepted = False
        for _ in range(30):
            F_cand = residual(z + lam * delta)
            res_cand = float(np.linalg.norm(F_cand))
            if np.isfinite(res_cand) and res_cand <= (1.0 - 1e-4 * lam) * res:
                z = z + lam * delta
                F, res = F_cand, res_cand
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            raise StepFailure("newton_divergence", iters + 1)
    if res <= tol:
        return _stacked_state(z, state_n.nu, t), NEWTON_MAX_ITER
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
    if config.n_snapshots > 1 and config.t_final > 0.0:
        targets = np.linspace(0.0, config.t_final, config.n_snapshots)[1:]
    else:
        targets = np.empty(0)
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
