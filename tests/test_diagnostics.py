"""Energy functionals, ledger arithmetic, and the analytic shock oracles."""

import numpy as np
import pytest

from phburgers import diagnostics, fem1d, phsystem

# Discrete functionals of the interpolated pulse on the fine study mesh,
# frozen from quadrature of the closed-form profile.
PULSE_HAMILTONIAN = 0.024120041818608922
PULSE_KINETIC_ENERGY = 0.08862269254513955
PULSE_SHOCK_TIME = 0.16487212707001281


def make_ops(n_elems):
    return fem1d.assemble_operators(fem1d.build_mesh(n_elems))


# ------------------------------------------------------------ functionals


def test_energy_functionals_on_exact_quadratic():
    # v = x (1 - x) lies in the space: H = int v^3/6 = 1/840, E = 1/60
    mesh = fem1d.build_mesh(6)
    v = fem1d.interpolate(mesh, lambda x: x * (1.0 - x))
    assert diagnostics.hamiltonian(mesh, v) == pytest.approx(1.0 / 840.0, rel=1e-13)
    assert diagnostics.kinetic_energy(mesh, v) == pytest.approx(1.0 / 60.0, rel=1e-13)


def test_energy_functional_symmetries():
    mesh = fem1d.build_mesh(9)
    v = np.random.default_rng(3).standard_normal(mesh.n_interior)
    assert diagnostics.hamiltonian(mesh, -v) == -diagnostics.hamiltonian(mesh, v)
    assert diagnostics.kinetic_energy(mesh, 2.0 * v) == pytest.approx(
        4.0 * diagnostics.kinetic_energy(mesh, v), rel=1e-13)
    assert diagnostics.kinetic_energy(mesh, v) >= 0.0


def test_pulse_functionals_on_study_mesh():
    mesh = fem1d.build_mesh(1000)
    v = fem1d.interpolate(mesh, diagnostics.gaussian_pulse)
    assert diagnostics.hamiltonian(mesh, v) == pytest.approx(PULSE_HAMILTONIAN, abs=1e-9)
    assert diagnostics.kinetic_energy(mesh, v) == pytest.approx(
        PULSE_KINETIC_ENERGY, abs=1e-9)


def test_pulse_slope_is_derivative():
    x = np.linspace(0.0, 1.0, 11)
    eps = 1e-6
    fd = (diagnostics.gaussian_pulse(x + eps) - diagnostics.gaussian_pulse(x - eps)) / (2 * eps)
    np.testing.assert_allclose(diagnostics.gaussian_pulse_slope(x), fd, atol=1e-7)


def test_dissipation_rates_inviscid_are_zero():
    ops = make_ops(5)
    st = phsystem.make_state(ops, np.ones(ops.mesh.n_interior))
    assert diagnostics.dissipation_rates(ops.mesh, st) == (0.0, 0.0)


def test_dissipation_rates_match_fine_trapezoid():
    ops = make_ops(10)
    rng = np.random.default_rng(8)
    v = rng.uniform(0.2, 1.2, ops.mesh.n_interior)
    nu = 5e-2
    st = phsystem.make_state(ops, v, nu=nu)
    qh, qe = diagnostics.dissipation_rates(ops.mesh, st)
    xs = np.linspace(0.0, 1.0, 20001)
    vx = fem1d.evaluate(ops.mesh, v, xs)
    rx = fem1d.evaluate(ops.mesh, st.e_r, xs)
    assert qh == pytest.approx(np.trapezoid(vx * rx**2, xs) / nu, rel=1e-6)
    # the derivative jumps at element boundaries, so integrate per element
    qe_ref = 0.0
    h = ops.mesh.h
    for k in range(ops.mesh.n_elems):
        xe = k * h + h * np.linspace(1e-10, 1.0 - 1e-10, 4001)
        qe_ref += np.trapezoid(fem1d.evaluate_derivative(ops.mesh, v, xe) ** 2, xe)
    assert qe == pytest.approx(nu * qe_ref, rel=1e-6)
    assert qe >= 0.0


# ----------------------------------------------------------------- ledger


def test_ledger_trapezoidal_bookkeeping():
    led = diagnostics.PowerLedger()
    led.append(0.0, 0.0, 0, 2.0, 3.0, 1.0, 0.5)
    led.append(0.5, 0.5, 2, 1.8, 2.9, 0.6, 0.3)
    led.append(1.0, 0.5, 3, 1.5, 2.8, 0.2, 0.1)
    assert len(led) == 3
    np.testing.assert_allclose(led.column("QH"), [0.0, 0.4, 0.6])
    np.testing.assert_allclose(led.column("QE"), [0.0, 0.2, 0.3])
    np.testing.assert_allclose(led.column("bal"), [0.0, 0.2, 0.1])
    assert led.initial_hamiltonian == 2.0
    assert diagnostics.balance_variation(led) == pytest.approx(0.1)
    assert led.column("newton_iters").tolist() == [0, 2, 3]
    assert led.rows()[1][0] == 0.5


def test_ledger_times_must_increase():
    led = diagnostics.PowerLedger()
    led.append(0.0, 0.0, 0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        led.append(0.0, 0.1, 1, 1.0, 1.0, 0.0, 0.0)


def test_empty_ledger_raises():
    led = diagnostics.PowerLedger()
    with pytest.raises(ValueError):
        diagnostics.balance_variation(led)
    with pytest.raises(ValueError):
        led.initial_hamiltonian


def test_single_row_variation_is_zero():
    led = diagnostics.PowerLedger()
    led.append(0.0, 0.0, 0, 0.7, 1.0, 0.0, 0.0)
    assert diagnostics.balance_variation(led) == 0.0


def test_record_evaluates_state_functionals():
    ops = make_ops(8)
    v = np.random.default_rng(4).uniform(0.2, 1.2, ops.mesh.n_interior)
    st = phsystem.make_state(ops, v, nu=1e-2, t=0.0)
    led = diagnostics.PowerLedger()
    led.record(ops.mesh, st, 0.0, 0)
    row = led.rows()[0]
    assert row[3] == diagnostics.hamiltonian(ops.mesh, v)
    assert row[4] == diagnostics.kinetic_energy(ops.mesh, v)
    assert row[5:7] == diagnostics.dissipation_rates(ops.mesh, st)


# ------------------------------------------------------- exact references


def test_shock_time_of_linear_ramp():
    # v0 = 1 - x has slope -1 everywhere: characteristics cross at t = 1
    t = diagnostics.shock_formation_time(lambda x: 1.0 - np.asarray(x),
                                         v0_slope=lambda x: -np.ones_like(np.asarray(x, dtype=float)))
    assert t == pytest.approx(1.0, rel=1e-12)
    # finite-difference slope fallback agrees
    t_fd = diagnostics.shock_formation_time(lambda x: 1.0 - np.asarray(x))
    assert t_fd == pytest.approx(1.0, rel=1e-6)


def test_pulse_shock_time_frozen():
    assert diagnostics.shock_formation_time() == pytest.approx(PULSE_SHOCK_TIME, rel=1e-9)


def test_no_shock_for_nondecreasing_profile():
    with pytest.raises(diagnostics.NoShockError):
        diagnostics.shock_formation_time(lambda x: np.asarray(x),
                                         v0_slope=lambda x: np.ones_like(np.asarray(x, dtype=float)))


def test_characteristics_identity_at_start():
    x = np.linspace(0.0, 1.0, 7)
    np.testing.assert_array_equal(
        diagnostics.characteristics_solution(0.0, x), diagnostics.gaussian_pulse(x))
    v = diagnostics.characteristics_solution(0.0, 0.5)
    assert isinstance(v, float) and v == 1.0


def test_characteristics_of_linear_ramp():
    # v0 = 1 - x gives the rarefaction-free exact solution (1 - x)/(1 - t)
    v0 = lambda x: 1.0 - np.asarray(x, dtype=float)
    slope = lambda x: -np.ones_like(np.asarray(x, dtype=float))
    for t in (0.25, 0.5, 0.75):
        x = np.linspace(0.0, 1.0, 9)
        expected = (1.0 - x) / (1.0 - t)
        got = diagnostics.characteristics_solution(t, x, v0, slope)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_characteristics_satisfy_implicit_relation():
    # v(t, x) must reproduce itself through its foot point: v = v0(x - t v)
    t = 0.1
    x = np.linspace(0.0, 1.0, 1000)
    v = diagnostics.characteristics_solution(t, x)
    feet = x - t * v
    np.testing.assert_allclose(v, diagnostics.gaussian_pulse(feet), rtol=0, atol=1e-12)


def test_characteristics_reject_bad_times():
    with pytest.raises(ValueError):
        diagnostics.characteristics_solution(-0.1, 0.5)
    with pytest.raises(ValueError):
        diagnostics.characteristics_solution(PULSE_SHOCK_TIME, 0.5)
    # NaN passes both range comparisons unless they are written to fail it
    NAN, INF = float("nan"), float("inf")
    for t, x in [(NAN, 0.5), (INF, 0.5), (-INF, 0.5), (0.1, NAN), (0.1, INF),
                 (0.1, np.array([0.5, -INF])), (0.0, NAN)]:
        with pytest.raises(ValueError, match=rf"need a finite t >= 0 and finite x, got t = {t}, "):
            diagnostics.characteristics_solution(t, x)


def test_characteristics_l2_error_is_interpolation_error_at_start():
    mesh = fem1d.build_mesh(100)
    v = fem1d.interpolate(mesh, diagnostics.gaussian_pulse)
    err = diagnostics.characteristics_l2_error(mesh, v, 0.0)
    assert 0.0 < err < 1e-4


def test_rankine_hugoniot_speed():
    assert diagnostics.rankine_hugoniot_speed(1.0, 0.0) == 0.5
    assert diagnostics.rankine_hugoniot_speed(0.3, 0.3) == pytest.approx(0.3)
    rng = np.random.default_rng(6)
    for _ in range(10):
        vl, vr = rng.standard_normal(2)
        flux_quotient = (0.5 * vr**2 - 0.5 * vl**2) / (vr - vl)
        assert diagnostics.rankine_hugoniot_speed(vl, vr) == pytest.approx(flux_quotient)


def test_shock_dissipation_formulas():
    de, dh = diagnostics.shock_dissipation(1.0, 0.0)
    assert de == pytest.approx(-1.0 / 12.0)
    assert dh == pytest.approx(-1.0 / 24.0)
    assert diagnostics.shock_dissipation(0.4, 0.4) == (0.0, 0.0)
    rng = np.random.default_rng(9)
    for _ in range(10):
        vl, vr = rng.uniform(0.0, 1.0, 2)
        de, dh = diagnostics.shock_dissipation(vl, vr)
        assert de == pytest.approx((vr - vl) ** 3 / 12.0)
        assert dh == pytest.approx((vr - vl) ** 3 * (vr + vl) / 24.0)
    # admissible fronts (v_l > v_r) drain the kinetic energy
    assert diagnostics.shock_dissipation(1.0, 0.2)[0] < 0.0


# ------------------------------------------------------- front detection


def test_detect_front_rejects_gentle_profiles():
    mesh = fem1d.build_mesh(50)
    v = fem1d.interpolate(mesh, lambda x: x * (1.0 - x))
    with pytest.raises(diagnostics.NoFrontError):
        diagnostics.detect_front(mesh, v, nu=1e-3)


def test_detect_front_locates_synthetic_layer():
    # steep tanh step at x = 0.6 with inner width matching nu; the left
    # plateau is eased down to zero at the wall so the homogeneous
    # expansion does not manufacture a boundary layer of its own
    nu = 4e-3
    mesh = fem1d.build_mesh(500)
    v = fem1d.interpolate(
        mesh,
        lambda x: 0.5 * (1.0 - np.tanh((x - 0.6) / nu)) * (1.0 - np.exp(-x / 0.05)),
    )
    x_front, v_l, v_r = diagnostics.detect_front(mesh, v, nu)
    assert x_front == pytest.approx(0.6, abs=5e-3)
    assert v_l == pytest.approx(1.0, abs=1e-2)
    assert v_r == pytest.approx(0.0, abs=1e-2)
    assert v_l > v_r


def test_detect_front_honors_custom_threshold():
    mesh = fem1d.build_mesh(50)
    v = fem1d.interpolate(mesh, lambda x: x * (1.0 - x))
    x_front, v_l, v_r = diagnostics.detect_front(mesh, v, nu=1e-3, slope_threshold=0.5)
    assert v_l > v_r  # slope -1 at the right end now counts as a front


# ------------------------------------------------------------ shock curve


def test_shock_curve_consistency():
    t_star = diagnostics.shock_formation_time()
    ts = np.array([t_star, 0.25, 0.32, 0.4])
    x_s, v_l, v_r, dh = diagnostics.shock_curve(ts)
    # starts at the first-crossing point with equal edge states
    assert v_l[0] == pytest.approx(v_r[0], abs=1e-9)
    assert np.all(np.diff(x_s) > 0.0)
    assert np.all(v_l[1:] > v_r[1:])
    assert np.all(v_r >= 0.0)
    # reported dissipation rate matches the jump formula row by row
    for k in range(ts.size):
        assert dh[k] == pytest.approx(diagnostics.shock_dissipation(v_l[k], v_r[k])[1])
    # the path moves at the Rankine-Hugoniot speed of its edge states
    speed_fd = (x_s[2] - x_s[1]) / (ts[2] - ts[1])
    speed_rh = diagnostics.rankine_hugoniot_speed(
        0.5 * (v_l[1] + v_l[2]), 0.5 * (v_r[1] + v_r[2]))
    assert speed_fd == pytest.approx(speed_rh, rel=2e-2)


def test_shock_curve_rejects_pre_shock_start():
    with pytest.raises(ValueError):
        diagnostics.shock_curve(np.array([0.1, 0.2]))
