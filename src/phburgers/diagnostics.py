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

The second kind is exact reference material for the inviscid equation
with the pulse data v0: the method of characteristics (v constant along
x = xi + t v0(xi)), the shock time t* = 1/max|v0'| = e^{1/2}/10 (at
xi* = 0.6, front born at x = 0.7), the Rankine-Hugoniot front speed
(v_l + v_r)/2, and the jump contributions to the energy budgets,

    dE_shock = (v_r - v_l)^3 / 12,
    dH_shock = (v_r - v_l)^3 (v_r + v_l) / 24,

all of which the viscous runs should approach as the viscosity shrinks.
"""

from __future__ import annotations

import math

import numpy as np

from . import fem1d
from .fem1d import Mesh1D
from .phsystem import State


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
        """Add one accepted step; times must be finite and strictly increase."""
        t_prev = self._rows[-1][0] if self._rows else -math.inf
        if not t_prev < t < math.inf:
            raise ValueError(f"ledger time {t} is not finite or does not increase past {t_prev}")
        if self._rows:
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


# the pulse is steepest at xi* = 0.6, where v0'(xi*) = -10 e^{-1/2}
PULSE_STEEPEST_POINT = 0.6
PULSE_MAX_SLOPE = 10.0 * math.exp(-0.5)


def shock_formation_time() -> float:
    """First crossing time t* = 1 / max|v0'| = e^{1/2}/10 of the pulse's characteristics."""
    # the double nearest t*; 1 / PULSE_MAX_SLOPE rounds to the next one up
    return math.exp(0.5) / 10.0


def _bisect(g, lo, hi):
    """Elementwise root of g by 64 halvings of [lo, hi] (either order), g(lo) < 0 <= g(hi)."""
    for _ in range(64):
        mid = lo + 0.5 * (hi - lo)  # lo + hi overflows for |x| near 1e308
        right = g(mid) >= 0.0
        lo = np.where(right, lo, mid)
        hi = np.where(right, mid, hi)
    return lo + 0.5 * (hi - lo)


@np.errstate(over="ignore")
def characteristics_solution(t: float, x):
    """Exact smooth solution v(t, x) of the pulse before the shock time.

    Inverts x = xi + t v0(xi) for the foot point xi and returns v0(xi).
    As 0 <= v0 <= 1, xi lies in [x - t, x], where the map increases while
    t < t*; one bisection for all x halves that bracket below 1e-20.
    Accepts scalar or array x.  Both must be finite, and the comparisons
    are written so that NaN fails them.  Overflow is not reported: where
    the pulse's square overflows, exp(-inf) = 0 is exact.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not (0.0 <= t < np.inf and np.all(np.abs(x_arr) < np.inf)):
        raise ValueError(f"need a finite t >= 0 and finite x, got t = {t}, x = {x}")
    t_star = shock_formation_time()
    if t >= t_star:
        raise ValueError(f"characteristics cross at t* = {t_star:.6g}; got t = {t}")
    xi = x_arr if t == 0.0 else _bisect(
        lambda xi: xi + t * gaussian_pulse(xi) - x_arr, x_arr - t - 1e-9, x_arr + 1e-9)
    vals = gaussian_pulse(xi)
    return vals if np.ndim(x) else float(vals[0])


def characteristics_l2_error(mesh: Mesh1D, v: np.ndarray, t: float) -> float:
    """L2 distance between the FE expansion and the exact smooth solution."""
    xq = fem1d.quadrature_points(mesh)
    exact = characteristics_solution(t, xq.ravel()).reshape(xq.shape)
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


def detect_front(mesh: Mesh1D, v: np.ndarray, nu: float):
    """Locate the viscous front and sample its edge states.

    The slope of v_d is sampled on a grid 10x finer than the P2 nodes;
    the front sits at the most negative sample.  Edge states are read
    off at 15 nu / max|v| to either side, where the inner layer has
    flattened out.  Raises NoFrontError when the steepest slope does
    not exceed FRONT_SLOPE_FACTOR times the pulse's steepest initial
    slope.
    """
    threshold = FRONT_SLOPE_FACTOR * PULSE_MAX_SLOPE
    xs = np.linspace(0.0, 1.0, 20 * mesh.n_elems + 1)
    slopes = fem1d.evaluate_derivative(mesh, v, xs)
    k = int(np.argmin(slopes))
    if -float(slopes[k]) <= threshold:
        raise NoFrontError(
            f"steepest slope {-float(slopes[k]):.3g} below threshold {threshold:.3g}"
        )
    x_front = float(xs[k])
    vmax = float(np.max(np.abs(v)))
    layer = FRONT_EDGE_OFFSET * nu / max(vmax, 1e-300)
    x_l = min(max(x_front - layer, 0.0), 1.0)
    x_r = min(max(x_front + layer, 0.0), 1.0)
    v_l = float(fem1d.evaluate(mesh, v, x_l))
    v_r = float(fem1d.evaluate(mesh, v, x_r))
    return x_front, v_l, v_r


def shock_curve(t_values):
    """Post-shock front trajectory of the pulse, by the equal-area rule.

    The front x_s is where the Hopf-Lax values of the two outer branches
    of characteristics tie.  Their feet xi_l < xi_r then satisfy
    int_{xi_l}^{xi_r} v0 = t (v_l^2 - v_r^2) / 2, and the difference of the
    two sides rises with x at the rate v_l - v_r > 0, so one bisection
    over the fold region finds x_s for all times at once.  Returns arrays
    (x_s, v_l, v_r, dH_rate) sampled at ``t_values``, which must be
    finite, non-decreasing and start at or after t*.
    """
    from scipy.special import erf  # loads on first use, off the package import
    t_star = shock_formation_time()
    t = np.asarray(t_values, dtype=float)
    if not (t.ndim == 1 and t.size
            and np.all(np.abs(t) < np.inf) and np.all(np.diff(t) >= 0.0)):
        raise ValueError(f"need finite, non-decreasing times, got {t}")
    if t[0] < t_star - 1e-12:
        raise ValueError(f"shock path starts at t* = {t_star:.6g}")

    def depart(xi):
        return xi + t * gaussian_pulse(xi)

    # depart falls between the fold bounds, either side of xi*, and rises outside them
    fold_l, fold_r = _bisect(lambda xi: 1.0 + t * gaussian_pulse_slope(xi),
                             PULSE_STEEPEST_POINT, np.array([[0.5], [1.5]]))

    def feet(x):  # on the rising branches: xi_l in [x - t, fold_l], xi_r in [fold_r, x]
        return _bisect(lambda xi: depart(xi) - x, np.stack([x - t, fold_r]),
                       np.stack([fold_l, x]))

    def excess(x):
        xi = feet(x)  # int v0 = sqrt(pi/200) erf(sqrt(50) (xi - 1/2))
        (v_l, v_r), (a_l, a_r) = gaussian_pulse(xi), erf(math.sqrt(50.0) * (xi - 0.5))
        return 0.5 * t * (v_l * v_l - v_r * v_r) - math.sqrt(math.pi / 200.0) * (a_r - a_l)

    x_s = _bisect(excess, depart(fold_r), depart(fold_l))
    v_l, v_r = gaussian_pulse(feet(x_s))
    # up to t* the birth point: depart(xi) - x ~ (xi - xi*)^3 would leave ~1e-5 in v
    born = t <= t_star
    v_star = gaussian_pulse(PULSE_STEEPEST_POINT)
    x_s[born], v_l[born], v_r[born] = PULSE_STEEPEST_POINT + t_star * v_star, v_star, v_star
    return x_s, v_l, v_r, shock_dissipation(v_l, v_r)[1]
