"""Observer checks: filter response, bounds, and the derivative-free interface.

The auxiliary observer is exercised through the engine's RK4 kernel
(sim.build_stepper), which integrates it together with the plant.
"""

import inspect
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hgdosim.disturbances import CompositeSinusoid, derivative_l1, white_noise
from hgdosim.integrate import NonFinite, rk4_step
from hgdosim.observers import (
    DerivativeFilter,
    NonPositiveEpsilon,
    hgdo_init,
    naive_hgdo_step,
)
from hgdosim.quad import MICRO_QUAD
from hgdosim.sim import ScenarioConfig, build_stepper

G = MICRO_QUAD.g


def hover_kernel(eps, dt, channel, d_fn):
    """step(y, H, t): the engine's kernel with the hgdo observer on, one RK4
    substep per step of dt, and d_fn as the deterministic disturbance of one
    channel (0-2 force, 3-5 torque), fed as the three grid rows of the step
    at t, t + dt/2 and t + dt, the times of its RK4 stages."""
    cfg = ScenarioConfig(epsilon1=eps, epsilon2=eps, observer="hgdo", dt=dt, substeps=1)
    advance = build_stepper(cfg, MICRO_QUAD, 1, dt, None)

    def step(y, H, t):
        rows = [[0.0] * 6 for _ in range(3)]
        for row, tt in zip(rows, (t, t + 0.5 * dt, t + dt)):
            row[channel] = d_fn(tt)
        return advance(y, H, rows, 0)

    return step


def run_coupled(d_fn, eps, dt, t_end, v0=0.0):
    """Integrate plant and observer together in the engine's kernel,
    disturbance on z.

    Zero attitude and a held thrust acceleration H[0] = g balance gravity,
    so the plant's vertical velocity obeys v' = d(t). Returns (ts, d_hat_z,
    d_true_z).
    """
    step = hover_kernel(eps, dt, 2, d_fn)
    y = (0.0, 0.0, 0.0, 0.0, 0.0, v0) + (0.0,) * 6 + hgdo_init((0.0, 0.0, v0), eps) + (0.0,) * 3
    H = [G] + [0.0] * 15
    n = int(round(t_end / dt))
    ts = np.zeros(n + 1)
    dhat = np.zeros(n + 1)
    dtrue = np.zeros(n + 1)
    dhat[0] = y[14] + y[5] / eps
    dtrue[0] = d_fn(0.0)
    for k in range(n):
        t = k * dt
        y = step(y, H, t)
        ts[k + 1] = t + dt
        dhat[k + 1] = y[14] + y[5] / eps
        dtrue[k + 1] = d_fn(t + dt)
    return ts, dhat, dtrue


class TestInit:
    def test_gamma_cancels_state(self):
        gamma = hgdo_init(np.array([1.0, 2.0, 3.0]), 0.01)
        assert_allclose(gamma, [-100.0, -200.0, -300.0], rtol=1e-15)
        assert_allclose(np.array(gamma) + np.array([1.0, 2.0, 3.0]) / 0.01, np.zeros(3),
                        atol=1e-12)

    def test_nonzero_prior(self):
        prior = np.array([0.1, -0.2, 0.3])
        gamma = hgdo_init(np.zeros(3), 0.04, d_hat0=prior)
        assert type(gamma) is tuple and all(type(v) is float for v in gamma)
        assert_allclose(np.array(gamma) + np.zeros(3) / 0.04, prior, rtol=0)

    def test_epsilon_must_be_positive(self):
        for bad in (0.0, -0.01):
            with pytest.raises(NonPositiveEpsilon):
                hgdo_init(np.zeros(3), bad)
        with pytest.raises(NonPositiveEpsilon):
            naive_hgdo_step(np.zeros(3), np.zeros(3), np.zeros(3), -1.0, 0.002)


class TestStepResponse:
    def test_63_percent_at_one_time_constant(self):
        eps = 0.01
        _, dhat, _ = run_coupled(lambda t: 0.8, eps, eps / 20.0, eps)
        assert_allclose(dhat[-1], 0.8 * (1.0 - math.exp(-1.0)), rtol=1e-6)

    @pytest.mark.parametrize("eps", [0.01, 0.04, 0.08])
    def test_exponential_decay_at_rk4_accuracy(self, eps):
        # |dtilde(t)| = |dtilde(0)| e^(-t/eps) to within the RK4 order budget
        d0 = -0.37
        dt = eps / 20.0
        ts, dhat, dtrue = run_coupled(lambda t: d0, eps, dt, 5.0 * eps)
        dtilde = dtrue - dhat
        expected = d0 * np.exp(-ts / eps)
        tol = 5.0 * (dt / eps) ** 4
        err = np.abs(dtilde - expected) / abs(d0)
        assert err.max() < tol, f"eps={eps}: max rel err {err.max():.3e} vs {tol:.3e}"

    def test_zero_disturbance_stays_zero(self):
        _, dhat, _ = run_coupled(lambda t: 0.0, 0.01, 5e-4, 0.05)
        assert np.abs(dhat).max() < 1e-12

    def test_rotational_loop_mirrors_translational(self):
        eps = 0.02
        dt = eps / 20.0
        d0 = 0.3
        step = hover_kernel(eps, dt, 3, lambda t: d0)
        y = (0.0,) * 12 + hgdo_init(np.zeros(3), eps) + hgdo_init(np.zeros(3), eps)
        H = [G] + [0.0] * 15
        for k in range(20):
            y = step(y, H, k * dt)
        dhat = y[15] + y[9] / eps
        assert_allclose(dhat, d0 * (1.0 - math.exp(-1.0)), rtol=1e-6)


class TestNaiveVariant:
    def test_matches_auxiliary_with_exact_derivative(self):
        # both forms solve the same filter ODE when the derivative is exact
        eps, d0 = 0.01, 0.8
        dt = eps / 20.0
        _, dhat_aux, _ = run_coupled(lambda t: d0, eps, dt, 5.0 * eps)
        dhat = np.zeros(3)
        naive = [0.0]
        for _ in range(len(dhat_aux) - 1):
            dhat = naive_hgdo_step(dhat, np.array([0.0, 0.0, d0]), np.zeros(3), eps, dt)
            naive.append(dhat[2])
        assert np.abs(np.array(naive) - dhat_aux).max() < 1e-6

    def test_noise_feedthrough_dominates_filtered_difference(self):
        # Identical measurement stream. The auxiliary reconstruction passes raw
        # measurement noise at gain 1/eps (it is the exact-derivative form of
        # the same filter), while the finite-difference path is smoothed and
        # then attenuated by the filter pole, so the auxiliary output jitters
        # far more. Derived numerically from both realizations; the ratio is
        # ~25x at these rates.
        eps, dt, d0, power = 0.01, 0.002, 0.5, 0.01
        n = 5000
        rng = np.random.default_rng(314)
        noise = white_noise(power, dt, rng, size=n + 1)

        # the engine's kernel: the true velocity ramps at d0, and the
        # observer sees it through the noise held over each step (H[6])
        step = hover_kernel(eps, dt, 2, lambda t: d0)
        y = (0.0,) * 12 + hgdo_init(np.array([0.0, 0.0, noise[0]]), eps) + (0.0,) * 3
        H = [G] + [0.0] * 15
        vm = np.zeros(n + 1)  # measured velocity
        vm[0] = noise[0]
        aux = np.zeros(n + 1)
        for k in range(n):
            H[6] = noise[k]
            y = step(y, H, k * dt)
            vm[k + 1] = y[5] + noise[k + 1]
            aux[k + 1] = y[14] + vm[k + 1] / eps
        assert_allclose(vm - noise, d0 * dt * np.arange(n + 1), rtol=1e-9, atol=1e-12)

        dfilt = DerivativeFilter(tau=5.0 * dt)
        dhat = np.zeros(3)
        naive = np.zeros(n + 1)
        for k in range(n):
            est = dfilt.step(np.array([0.0, 0.0, vm[k + 1]]), dt)
            dhat = naive_hgdo_step(dhat, est, np.zeros(3), eps, dt)
            naive[k + 1] = dhat[2]

        lo = n // 2
        var_aux = aux[lo:].var()
        var_naive = naive[lo:].var()
        assert var_aux > 10.0 * var_naive, \
            f"aux {var_aux:.3g} not >> naive {var_naive:.3g}"


@pytest.fixture(scope="module")
def composite_runs():
    sig = CompositeSinusoid()
    runs = {}
    for eps in (0.01, 0.04, 0.08):
        dt = eps / 20.0
        ts, dhat, dtrue = run_coupled(sig.value, eps, dt, 6.0)
        runs[eps] = (ts, dtrue - dhat)
    return runs


class TestTracking:
    def test_rms_error_monotone_in_epsilon(self, composite_runs):
        rms = {}
        for eps, (ts, dtilde) in composite_runs.items():
            sel = ts >= 3.0
            rms[eps] = float(np.sqrt(np.mean(dtilde[sel] ** 2)))
        assert rms[0.01] < rms[0.04] < rms[0.08], rms

    def test_l1_error_bound(self, composite_runs):
        delta = derivative_l1(CompositeSinusoid(), 0.0, 6.0)
        for eps, (ts, dtilde) in composite_runs.items():
            lhs = np.trapezoid(np.abs(dtilde), ts)
            rhs = eps * abs(dtilde[0]) + eps * delta + 1e-3
            assert lhs <= rhs, f"eps={eps}: {lhs:.5f} > {rhs:.5f}"


class TestInterface:
    def test_auxiliary_steps_take_no_derivative_input(self):
        # the engine's observer: its start, its kernel and the kernel's step
        advance = build_stepper(ScenarioConfig(), MICRO_QUAD, 1, 0.002, None)
        for fn in (hgdo_init, build_stepper, advance):
            names = set(inspect.signature(fn).parameters)
            assert not any("dot" in n or "deriv" in n for n in names), fn.__name__

    def test_naive_step_does(self):
        names = set(inspect.signature(naive_hgdo_step).parameters)
        assert "x_dot" in names


class TestDerivativeFilter:
    def test_ramp_converges_to_slope(self):
        f = DerivativeFilter(tau=0.05)
        dt = 0.01
        for k in range(60):
            est = f.step(np.array([2.5, -1.0, 0.0]) * (k * dt), dt)
        assert_allclose(est, [2.5, -1.0, 0.0], rtol=1e-3)

    def test_first_call_returns_zero(self):
        f = DerivativeFilter(tau=0.05)
        assert_allclose(f.step(np.ones(3), 0.01), np.zeros(3), atol=0)


def _naive_array_oracle(d_hat, x_dot, model_term, eps, dt):
    """The array form naive_hgdo_step replaced: the generic RK4 on 3-vectors."""
    forcing = np.asarray(x_dot, dtype=float) + np.asarray(model_term, dtype=float)
    return rk4_step(lambda _t, dh: (forcing - dh) / eps, 0.0,
                    np.asarray(d_hat, dtype=float), dt)


class _ArrayDerivativeFilter:
    """The array form DerivativeFilter replaced."""

    def __init__(self, tau, size):
        self.tau = tau
        self.prev = None
        self.est = np.zeros(size)

    def step(self, x, dt):
        x = np.asarray(x, dtype=float)
        raw = np.zeros_like(self.est) if self.prev is None else (x - self.prev) / dt
        self.prev = x.copy()
        alpha = self.tau / (self.tau + dt)
        self.est = alpha * self.est + (1.0 - alpha) * raw
        return self.est.copy()


class TestScalarFormsMatchArrayForms:
    """The float-tuple observers give the same bits as the array formulas."""

    def test_naive_step(self, awkward):
        rng = np.random.default_rng(2024)
        finite = 0
        for _ in range(1000):
            d_hat, x_dot, model_term = awkward(rng, (3, 3))
            eps = 10.0 ** rng.uniform(-4.0, 0.0)
            dt = 10.0 ** rng.uniform(-5.0, -1.0)
            try:
                with np.errstate(all="ignore"):
                    want = _naive_array_oracle(d_hat, x_dot, model_term, eps, dt)
            except NonFinite:
                with pytest.raises(NonFinite):
                    naive_hgdo_step(list(d_hat), tuple(x_dot), model_term, eps, dt)
                continue
            got = naive_hgdo_step(list(d_hat), tuple(x_dot), model_term, eps, dt)
            assert type(got) is tuple and all(type(v) is float for v in got)
            assert np.array(got).tobytes() == want.tobytes()
            finite += 1
        assert finite > 500

    def test_derivative_filter_sequences(self, awkward):
        rng = np.random.default_rng(99)
        for _ in range(20):
            tau = 10.0 ** rng.uniform(-4.0, 0.0)
            scalar = DerivativeFilter(tau=tau)
            array = _ArrayDerivativeFilter(tau, 3)
            xs = awkward(rng, (50, 3))
            dts = 10.0 ** rng.uniform(-4.0, -1.0, size=50)
            for x, dt in zip(xs, dts):
                with np.errstate(all="ignore"):
                    want = array.step(x, dt)
                got = scalar.step(tuple(x.tolist()), float(dt))
                assert type(got) is tuple and all(type(v) is float for v in got)
                assert np.array(got).tobytes() == want.tobytes()
