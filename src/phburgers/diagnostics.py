r"""Energy functionals, power bookkeeping, and analytic shock oracles.

Two kinds of tools live here.  The first kind evaluates discrete
functionals of the finite element solution: the Hamiltonian
H = int v_d^3/6 dx, the kinetic energy E = int v_d^2/2 dx, the two
dissipation rates

    qH = (1/nu) int v_d e_rd^2 dx      (rate at which H leaves the state)
    qE = nu int (dx v_d)^2 dx          (classical viscous dissipation)

and the per-run ledger that accumulates them along with the balance
residual bal(t) = H(t) + QH(t) - H(0), whose maximum relative size is
the stability indicator Var.

The second kind is exact reference material for the smooth regime of the
inviscid equation: the method of characteristics (v constant along
x = xi + t v0(xi)), the shock formation time t* = -1/min v0', the
Rankine-Hugoniot front speed (v_l + v_r)/2, and the jump contributions
to the energy budgets,

    dE_shock = (v_r - v_l)^3 / 12,
    dH_shock = (v_r - v_l)^3 (v_r + v_l) / 24,

all of which the viscous runs should approach as the viscosity shrinks.
"""

from __future__ import annotations

import numpy as np

from . import fem1d
from .fem1d import Mesh1D
from .phsystem import State


class NoShockError(ValueError):
    """The initial profile never steepens into a shock."""


class NoFrontError(ValueError):
    """No developed front is present in the sampled solution."""


def gaussian_pulse(x):
    """Initial velocity profile of all shipped experiments."""
    return np.exp(-50.0 * (np.asarray(x, dtype=float) - 0.5) ** 2)


def gaussian_pulse_slope(x):
    """Exact derivative of :func:`gaussian_pulse`."""
    x = np.asarray(x, dtype=float)
    return -100.0 * (x - 0.5) * np.exp(-50.0 * (x - 0.5) ** 2)


def hamiltonian(mesh: Mesh1D, v: np.ndarray) -> float:
    """H = int v_d^3 / 6 dx, integrated exactly by the element rule.

    H is exactly odd in v: hamiltonian(mesh, -v) == -hamiltonian(mesh, v)
    bitwise. Quadrature and integration are linear and flip sign exactly,
    and the cube is written as the product vq * vq * vq, which is exactly
    odd; numpy's vectorised ``vq**3`` is not (on numpy 2.4, (-x)**3 and
    -(x**3) can differ by one ulp). Do not simplify the product back to a
    power.
    """
    vq = fem1d.quadrature_values(mesh, v)
    return fem1d.integrate(mesh, vq * vq * vq) / 6.0


def kinetic_energy(mesh: Mesh1D, v: np.ndarray) -> float:
    """E = int v_d^2 / 2 dx >= 0."""
    vq = fem1d.quadrature_values(mesh, v)
    return 0.5 * fem1d.integrate(mesh, vq**2)


def dissipation_rates(mesh: Mesh1D, state: State) -> tuple[float, float]:
    """Instantaneous rates (qH, qE); both zero in inviscid mode.

    qH is the exact rate at which the discrete power balance drains H;
    qE = nu int (dx v_d)^2 is nonnegative by construction, while qH has
    the sign of v_d on the internal layer (positive for the pulse data).
    """
    if not state.viscous:
        return 0.0, 0.0
    vq = fem1d.quadrature_values(mesh, state.v)
    rq = fem1d.quadrature_values(mesh, state.e_r)
    qh = fem1d.integrate(mesh, vq * rq**2) / state.nu
    dvq = fem1d.quadrature_derivatives(mesh, state.v)
    qe = state.nu * fem1d.integrate(mesh, dvq**2)
    return qh, qe


class PowerLedger:
    """Row-per-accepted-step record of the energy bookkeeping.

    Columns: t, dt, newton_iters, H, E, qH, qE, QH, QE, bal.  QH and QE
    integrate the rates by the trapezoidal rule on the (possibly
    adaptive) time grid, matching the integrator's order; bal is
    H(t) + QH(t) - H(t0), which an exact-in-time integration would keep
    at zero.
    """

    COLUMNS = ("t", "dt", "newton_iters", "H", "E", "qH", "qE", "QH", "QE", "bal")

    def __init__(self):
        self._rows: list[tuple] = []

    def __len__(self) -> int:
        return len(self._rows)

    def append(self, t, dt, newton_iters, H, E, qH, qE) -> None:
        """Add one accepted step; times must strictly increase."""
        if self._rows:
            t_prev = self._rows[-1][0]
            if t <= t_prev:
                raise ValueError(f"ledger time {t} does not increase past {t_prev}")
            half = 0.5 * (t - t_prev)
            QH = self._rows[-1][7] + half * (self._rows[-1][5] + qH)
            QE = self._rows[-1][8] + half * (self._rows[-1][6] + qE)
            H0 = self._rows[0][3]
        else:
            QH = QE = 0.0
            H0 = H
        bal = H + QH - H0
        self._rows.append((t, dt, int(newton_iters), H, E, qH, qE, QH, QE, bal))

    def record(self, mesh: Mesh1D, state: State, dt: float, newton_iters: int) -> None:
        """Evaluate the functionals of ``state`` and append a row."""
        qh, qe = dissipation_rates(mesh, state)
        self.append(
            state.t, dt, newton_iters,
            hamiltonian(mesh, state.v), kinetic_energy(mesh, state.v), qh, qe,
        )

    def column(self, name: str) -> np.ndarray:
        idx = self.COLUMNS.index(name)
        return np.array([row[idx] for row in self._rows])

    def rows(self) -> list[tuple]:
        return list(self._rows)

    @property
    def initial_hamiltonian(self) -> float:
        if not self._rows:
            raise ValueError("empty ledger")
        return self._rows[0][3]


def balance_variation(ledger: PowerLedger) -> float:
    """Var = max |H + QH - H(t0)| / max(|H(t0)|, 1e-300)."""
    if len(ledger) == 0:
        raise ValueError("empty ledger")
    bal = ledger.column("bal")
    return float(np.max(np.abs(bal)) / max(abs(ledger.initial_hamiltonian), 1e-300))


def _slope(v0, v0_slope):
    """``v0_slope`` if given, else the pulse's exact slope or a central difference of v0."""
    if v0_slope is not None:
        return v0_slope
    if v0 is gaussian_pulse:
        return gaussian_pulse_slope
    eps = 1e-7

    def fd_slope(x):
        return (v0(np.asarray(x) + eps) - v0(np.asarray(x) - eps)) / (2.0 * eps)

    return fd_slope


def shock_formation_time(v0=gaussian_pulse, v0_slope=None) -> float:
    """First crossing time of characteristics, t* = -1 / min v0'.

    The minimizing slope is located by dense sampling over [0, 1]
    followed by a bounded local refinement.  Profiles with nowhere
    negative slope never shock; that raises NoShockError.
    """
    # scipy.optimize, a quarter of the package import, loads on first use in the shock oracles
    from scipy.optimize import minimize_scalar
    v0_slope = _slope(v0, v0_slope)
    xs = np.linspace(0.0, 1.0, 2001)
    slopes = np.asarray(v0_slope(xs))
    k = int(np.argmin(slopes))
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, xs.size - 1)]
    res = minimize_scalar(lambda x: float(v0_slope(x)), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    s_min = min(float(res.fun), float(slopes[k]))
    if s_min >= 0.0:
        raise NoShockError("initial slope is nowhere negative; no shock forms")
    return -1.0 / s_min


@np.errstate(over="ignore")
def characteristics_solution(t: float, x, v0=gaussian_pulse, v0_slope=None):
    """Exact smooth solution v(t, x) before the shock time.

    Inverts x = xi + t v0(xi) for the foot point xi by bracketed root
    finding (the map is strictly increasing while t < t*), then returns
    v0(xi).  Accepts scalar or array x.  Both must be finite, and the
    comparisons are written so that NaN fails them.  Overflow is not
    reported: where the pulse's square overflows, exp(-inf) = 0 is exact.
    """
    from scipy.optimize import brentq
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not (0.0 <= t < np.inf and np.all(np.abs(x_arr) < np.inf)):
        raise ValueError(f"need a finite t >= 0 and finite x, got t = {t}, x = {x}")
    t_star = shock_formation_time(v0, v0_slope)
    if t >= t_star:
        raise ValueError(f"characteristics cross at t* = {t_star:.6g}; got t = {t}")
    if t == 0.0:
        vals = np.asarray(v0(x_arr), dtype=float)
        return vals if np.ndim(x) else float(vals[0])

    probe = np.asarray(v0(np.linspace(0.0, 1.0, 2001)))
    v_lo, v_hi = float(np.min(probe)), float(np.max(probe))
    pad = 1e-9 + 1e-3 * t * (v_hi - v_lo + 1.0)

    vals = np.empty_like(x_arr)
    for i, xi_target in enumerate(x_arr):
        def depart(xi):
            return xi + t * float(v0(xi)) - xi_target

        lo = xi_target - t * v_hi - pad
        hi = xi_target - t * v_lo + pad
        # widen until the root is bracketed (profiles may overshoot the
        # [0, 1] probe range when evaluated outside it)
        for _ in range(60):
            if depart(lo) <= 0.0 <= depart(hi):
                break
            lo -= pad + 0.1 * t
            hi += pad + 0.1 * t
        xi = brentq(depart, lo, hi, xtol=1e-14)
        vals[i] = float(v0(xi))
    return vals if np.ndim(x) else float(vals[0])


def characteristics_l2_error(mesh: Mesh1D, v: np.ndarray, t: float, v0=gaussian_pulse) -> float:
    """L2 distance between the FE expansion and the exact smooth solution."""
    xq = fem1d.quadrature_points(mesh)
    exact = characteristics_solution(t, xq.ravel(), v0).reshape(xq.shape)
    vq = fem1d.quadrature_values(mesh, v)
    return float(np.sqrt(fem1d.integrate(mesh, (vq - exact) ** 2)))


def rankine_hugoniot_speed(v_l: float, v_r: float) -> float:
    """Shock speed (v_l + v_r) / 2 of the quadratic flux."""
    return 0.5 * (v_l + v_r)


def shock_dissipation(v_l: float, v_r: float) -> tuple[float, float]:
    """Instantaneous jump contributions (dE_shock, dH_shock).

    dE_shock = (v_r - v_l)^3 / 12 is nonpositive for admissible fronts
    (v_l > v_r); dH_shock = (v_r - v_l)^3 (v_r + v_l) / 24 also drains H
    when the states are positive.
    """
    jump = v_r - v_l
    cube = jump * jump * jump  # overflows to inf where ** raises, and is exactly odd
    return cube / 12.0, cube * (v_r + v_l) / 24.0


# a developed front must steepen well past the initial profile
FRONT_SLOPE_FACTOR = 10.0
# sampling offset for edge states, in units of nu / max|v|; the inner
# profile varies on the scale 4 nu / jump, so 15 of these units put the
# sample points past three inner widths for a near-unit jump
FRONT_EDGE_OFFSET = 15.0


def detect_front(mesh: Mesh1D, v: np.ndarray, nu: float,
                 slope_threshold: float | None = None):
    """Locate the viscous front and sample its edge states.

    The slope of v_d is sampled on a grid 10x finer than the P2 nodes;
    the front sits at the most negative sample.  Edge states are read
    off at 15 nu / max|v| to either side, where the inner layer has
    flattened out.  Raises NoFrontError when the steepest slope does
    not exceed ``slope_threshold`` (default: ten times the steepest
    initial slope of the pulse data).
    """
    if slope_threshold is None:
        slope_threshold = FRONT_SLOPE_FACTOR * float(
            np.max(np.abs(gaussian_pulse_slope(np.linspace(0.0, 1.0, 2001))))
        )
    xs = np.linspace(0.0, 1.0, 20 * mesh.n_elems + 1)
    slopes = fem1d.evaluate_derivative(mesh, v, xs)
    k = int(np.argmin(slopes))
    if -float(slopes[k]) <= slope_threshold:
        raise NoFrontError(
            f"steepest slope {-float(slopes[k]):.3g} below threshold {slope_threshold:.3g}"
        )
    x_front = float(xs[k])
    vmax = float(np.max(np.abs(fem1d.embed_interior(mesh, v))))
    layer = FRONT_EDGE_OFFSET * nu / max(vmax, 1e-300)
    x_l = min(max(x_front - layer, 0.0), 1.0)
    x_r = min(max(x_front + layer, 0.0), 1.0)
    v_l = float(fem1d.evaluate(mesh, v, x_l))
    v_r = float(fem1d.evaluate(mesh, v, x_r))
    return x_front, v_l, v_r


def shock_curve(t_values, v0=gaussian_pulse, v0_slope=None):
    """Post-shock front trajectory predicted by characteristics.

    Integrates the Rankine-Hugoniot speed along the fitted shock path of
    a single-hump profile: at each time the left/right states are the
    characteristics branches meeting the front from either side.
    Returns arrays (x_s, v_l, v_r, dH_rate) sampled at ``t_values``,
    which must start at or after the shock time and increase.
    """
    from scipy.optimize import brentq, minimize_scalar
    v0_slope = _slope(v0, v0_slope)
    t_star = shock_formation_time(v0, v0_slope)
    t_values = np.asarray(t_values, dtype=float)
    if t_values[0] < t_star - 1e-12:
        raise ValueError(f"shock path starts at t* = {t_star:.6g}")
    xs = np.linspace(0.0, 1.0, 2001)
    xi_star = float(xs[np.argmin(np.asarray(v0_slope(xs)))])
    res = minimize_scalar(lambda x: float(v0_slope(x)),
                          bounds=(xi_star - 1e-3, xi_star + 1e-3),
                          method="bounded", options={"xatol": 1e-12})
    xi_star = float(res.x)

    def fold_bounds(t):
        # foot points where the characteristic map loses monotonicity
        def crit(xi):
            return 1.0 + t * float(v0_slope(xi))

        if crit(xi_star) >= 0.0:
            return xi_star, xi_star
        lo = brentq(crit, xi_star - 0.5, xi_star, xtol=1e-13)
        hi = brentq(crit, xi_star, xi_star + 0.5, xtol=1e-13)
        return lo, hi

    def edge_states(t, x):
        lo, hi = fold_bounds(t)

        def depart(xi):
            return xi + t * float(v0(xi)) - x

        xi_l = brentq(depart, lo - 2.0 - t, lo, xtol=1e-14)
        xi_r = brentq(depart, hi, hi + 2.0 + t, xtol=1e-14)
        return float(v0(xi_l)), float(v0(xi_r))

    x_now = xi_star + t_star * float(v0(xi_star))
    t_now = t_star
    out_x = np.empty_like(t_values)
    out_l = np.empty_like(t_values)
    out_r = np.empty_like(t_values)
    out_q = np.empty_like(t_values)
    for i, t_target in enumerate(t_values):
        # explicit midpoint march of x_s' = (v_l + v_r)/2 up to the target
        while t_now < t_target - 1e-15:
            dt = min(2e-4, t_target - t_now)
            if t_now > t_star:
                vl, vr = edge_states(t_now, x_now)
            else:
                vl = vr = float(v0(xi_star))
            x_mid = x_now + 0.5 * dt * rankine_hugoniot_speed(vl, vr)
            vl_m, vr_m = edge_states(t_now + 0.5 * dt, x_mid)
            x_now += dt * rankine_hugoniot_speed(vl_m, vr_m)
            t_now += dt
        if t_now > t_star:
            vl, vr = edge_states(t_now, x_now)
        else:
            vl = vr = float(v0(xi_star))
        out_x[i], out_l[i], out_r[i] = x_now, vl, vr
        out_q[i] = shock_dissipation(vl, vr)[1]
    return out_x, out_l, out_r, out_q
