"""Disturbance signal checks: frozen values, statistics, and the L1 oracle."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hgdosim.disturbances import (
    COMPOSITE_BOUND,
    CompositeSinusoid,
    Constant,
    DrydenFilter,
    DrydenGust,
    GroundEffect,
    NonDifferentiable,
    Scaled,
    Signal,
    Sum,
    WhiteNoise,
    Zero,
    derivative_l1,
    white_noise,
)
from hgdosim.sim import ScenarioConfig, run_scenario
from hgdosim.trajectories import HoverRamp


class Sine(Signal):
    """Plain sinusoid, used only to exercise the derivative oracle."""

    def __init__(self, freq_hz):
        self.w = 2.0 * math.pi * freq_hz

    def value(self, t):
        return np.sin(self.w * t) if isinstance(t, np.ndarray) else math.sin(self.w * t)

    def derivative(self, t):
        return self.w * (np.cos(self.w * t) if isinstance(t, np.ndarray)
                         else math.cos(self.w * t))


class TestComposite:
    # frozen from a 50-digit term-by-term evaluation
    def test_frozen_values(self):
        sig = CompositeSinusoid()
        assert_allclose(sig.value(0.0), 0.37524419457791788, rtol=1e-12)
        assert_allclose(sig.value(1.7), 0.19719027236883390, rtol=1e-12)
        assert_allclose(sig.value(12.34), 0.23909555182865317, rtol=1e-12)

    def test_bounded(self):
        sig = CompositeSinusoid()
        ts = np.linspace(0.0, 200.0, 400001)
        vals = sig.value(ts)
        assert np.abs(vals).max() <= COMPOSITE_BOUND + 1e-12

    def test_mean_offset(self):
        sig = CompositeSinusoid()
        ts = np.linspace(0.0, 400.0, 400001)
        assert abs(sig.value(ts).mean() - 0.2) < 0.01

    def test_scalar_and_array_paths_agree(self):
        sig = CompositeSinusoid()
        ts = np.array([0.0, 0.123, 7.7, 39.999])
        arr = sig.value(ts)
        for t, v in zip(ts, arr):
            assert_allclose(sig.value(float(t)), v, rtol=1e-15)

    def test_pure(self):
        sig = CompositeSinusoid()
        assert sig.value(3.21) == sig.value(3.21)


def test_constant_and_zero():
    assert Constant(-0.3).value(12.0) == -0.3
    assert Zero().value(5.0) == 0.0
    assert_allclose(Constant(2.0).value(np.zeros(4)), np.full(4, 2.0), rtol=0)


class TestWhiteNoise:
    def test_zero_power(self):
        rng = np.random.default_rng(0)
        assert white_noise(0.0, 0.002, rng) == 0.0

    def test_variance_matches_power_over_dt(self):
        rng = np.random.default_rng(42)
        draws = white_noise(0.01, 0.002, rng, size=1_000_000)
        assert abs(draws.var() - 5.0) / 5.0 < 0.02

    def test_seeded_reproducibility(self):
        a = white_noise(0.1, 0.01, np.random.default_rng(7), size=100)
        b = white_noise(0.1, 0.01, np.random.default_rng(7), size=100)
        assert np.array_equal(a, b)

    def test_signal_wrapper(self):
        vals = WhiteNoise(0.01).draw(10, 0.002, np.random.default_rng(1))
        assert len(set(vals.tolist())) == 10
        want = white_noise(0.01, 0.002, np.random.default_rng(1), size=10)
        assert vals.tobytes() == want.tobytes()

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            WhiteNoise(-1.0)


class TestDryden:
    def test_zero_wind_is_silent(self):
        f = DrydenFilter("w", wind_speed=0.0, altitude=0.5, airspeed=2.0, dt=0.002)
        assert not f.run(np.random.default_rng(0).standard_normal(100)).any()

    def test_seeded_determinism(self):
        out = []
        for _ in range(2):
            f = DrydenFilter("v", wind_speed=1.11, altitude=0.5, airspeed=2.0, dt=0.002)
            out.append(f.run(np.random.default_rng(99).standard_normal(500)))
        assert out[0].tobytes() == out[1].tobytes()

    @pytest.mark.parametrize("axis", ["u", "v"])
    def test_run_is_the_state_space_recurrence(self, axis):
        # x <- ad x + bd w, y = c x, with w = z / sqrt(dt), from rest
        f = DrydenFilter(axis, wind_speed=1.11, altitude=0.5, airspeed=2.0, dt=0.002)
        z = np.random.default_rng(3).standard_normal(200)
        x = np.zeros(f.ad.shape[0])
        want = []
        for zk in z:
            x = f.ad @ x + f.bd * (zk * math.sqrt(f.drive_var))
            want.append(f.c @ x)
        assert_allclose(f.run(z), want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("axis", ["u", "w"])
    def test_sample_variance_matches_coefficients(self, axis):
        # Monte-Carlo variance against the discrete-Lyapunov value implied by
        # the shipped (ad, bd, c) coefficients.
        f = DrydenFilter(axis, wind_speed=1.11, altitude=0.5, airspeed=2.0, dt=0.002)
        target = f.stationary_variance()
        assert target > 0.0
        var = f.run(np.random.default_rng(2024).standard_normal(1_000_000)).var()
        assert abs(var - target) / target < 0.10, f"{axis}: {var} vs {target}"

    def test_stable_discretization(self):
        for axis in "uvw":
            f = DrydenFilter(axis, 1.11, 0.5, 2.0, 0.002)
            assert np.abs(np.linalg.eigvals(f.ad)).max() < 1.0

    def test_gust_signal_scales_by_accel_gain(self):
        a = DrydenGust("u", accel_gain=0.5).draw(50, 0.002, np.random.default_rng(5))
        b = DrydenGust("u", accel_gain=1.0).draw(50, 0.002, np.random.default_rng(5))
        assert_allclose(a * 2.0, b, rtol=1e-12)

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            DrydenFilter("q", 1.0, 0.5, 2.0, 0.002)
        with pytest.raises(ValueError):
            DrydenGust("q")


class TestPositionShaping:
    def test_ground_effect_profile(self):
        # the engine adds strength * clamp(1 - z/z_ref, 0, 1) to force z at
        # the vehicle's height: row 0 of d1z_true reads it at the start
        sig = GroundEffect(strength=0.3, z_ref=0.3)
        for z, want in ((0.0, 0.3), (0.15, 0.15), (0.5, 0.0), (5.0, 0.0)):
            pos = np.array([0.0, 0.0, z])
            cfg = ScenarioConfig(duration=0.01, pos0=pos, trajectory=HoverRamp(target=pos),
                                 force_signals=(None, None, sig))
            assert_allclose(run_scenario(cfg).col("d1z_true")[0], want, rtol=1e-12, atol=0)
        assert sig == GroundEffect(0.3, 0.3) and sig != GroundEffect(0.3, 0.4)
        with pytest.raises(ValueError):
            GroundEffect(z_ref=0.0)


class TestAlgebra:
    def test_scaled_and_sum_are_pointwise(self):
        rng = np.random.default_rng(8)
        a, b = CompositeSinusoid(), Constant(-0.4)
        both = Sum([Scaled(a, 2.5), b])
        for t in rng.uniform(0.0, 50.0, 200):
            assert_allclose(both.value(t), 2.5 * a.value(t) + b.value(t), rtol=1e-14)

    def test_sum_rejects_stochastic_parts(self):
        for part in (WhiteNoise(0.1), DrydenGust("u"), GroundEffect()):
            with pytest.raises(ValueError, match="pure-time"):
                Sum([Constant(1.0), part])

    def test_scaled_rejects_stochastic_inner(self):
        for inner in (WhiteNoise(0.1, seed=9), DrydenGust("u"), GroundEffect()):
            with pytest.raises(ValueError, match="pure-time"):
                Scaled(inner, 1.0)


PURE_TIME = {
    "zero": Zero(),
    "constant": Constant(-0.4),
    "composite": CompositeSinusoid(),
    "scaled": Scaled(CompositeSinusoid(), 1.5),
    "sum": Sum([Scaled(CompositeSinusoid(), 2.5), Constant(-0.4), Zero()]),
}


class TestAnalyticDerivative:
    @pytest.mark.parametrize("name", PURE_TIME)
    def test_matches_central_difference(self, name):
        sig, h = PURE_TIME[name], 1e-4
        ts = np.linspace(0.0, 60.0, 600001)
        central = (sig.value(ts + h) - sig.value(ts - h)) / (2.0 * h)
        scale = np.abs(central).max()
        assert_allclose(sig.derivative(ts), central, rtol=1e-6, atol=1e-6 * scale)

    @pytest.mark.parametrize("name", PURE_TIME)
    def test_scalar_and_array_paths_agree(self, name):
        sig = PURE_TIME[name]
        ts = np.array([0.0, 0.123, 7.7, 39.999])
        for t, d in zip(ts, sig.derivative(ts)):
            assert_allclose(sig.derivative(float(t)), d, rtol=1e-14, atol=1e-14)

    def test_base_signal_has_none(self):
        with pytest.raises(NonDifferentiable, match="Sine"):
            Signal.derivative(Sine(1.0), 0.0)


class TestSpecEquality:
    def test_equal_fields_compare_and_hash_equal(self):
        a = Sum([Scaled(CompositeSinusoid(), 1.5), Constant(1)])
        b = Sum((Scaled(CompositeSinusoid(), 1.5), Constant(1.0)))
        assert a == b and hash(a) == hash(b)
        assert Zero() == Zero() and CompositeSinusoid() == CompositeSinusoid()

    @pytest.mark.parametrize("a, b", [
        (Constant(0.0), Constant(-0.0)),
        (Scaled(CompositeSinusoid(), 0.0), Scaled(CompositeSinusoid(), -0.0)),
        (Sum([Constant(0.0)]), Sum([Constant(-0.0)])),
        (Constant(0.1), Constant(0.1 + 2**-56)),
        (Zero(), Constant(0.0)),
        (CompositeSinusoid(), Scaled(CompositeSinusoid(), 1.0)),
        (Sum([Zero(), Constant(1.0)]), Sum([Constant(1.0), Zero()])),
    ])
    def test_equality_is_bit_exact(self, a, b):
        assert a != b and b != a

    def test_specs_are_frozen(self):
        with pytest.raises(AttributeError):
            Constant(1.0).level = 2.0

    @pytest.mark.parametrize("sig, attr", [
        (WhiteNoise(0.1), "power"), (WhiteNoise(0.1), "seed"),
        (DrydenGust("u"), "accel_gain"), (DrydenGust("u"), "filter"),
    ], ids=["noise-power", "noise-seed", "gust-gain", "gust-filter"])
    def test_stochastic_specs_are_frozen(self, sig, attr):
        with pytest.raises(AttributeError):
            setattr(sig, attr, 1.0)


class TestDerivativeL1:
    def test_constant_is_flat(self):
        assert derivative_l1(Constant(3.0), 0.0, 10.0) == pytest.approx(0.0, abs=1e-9)

    def test_sine_total_variation(self):
        # one period of sin(2 pi t) swings through 4
        got = derivative_l1(Sine(1.0), 0.0, 1.0)
        assert abs(got - 4.0) < 1e-3

    def test_scales_linearly(self):
        base = derivative_l1(CompositeSinusoid(), 0.0, 5.0)
        double = derivative_l1(Scaled(CompositeSinusoid(), 2.0), 0.0, 5.0)
        assert_allclose(double, 2.0 * base, rtol=1e-9)

    def test_composite_over_forty_seconds(self):
        # frozen from adaptive quadrature of |d/dt| at high precision
        got = derivative_l1(CompositeSinusoid(), 0.0, 40.0)
        assert_allclose(got, 34.0425738524, rtol=1e-6)

    def test_empty_interval(self):
        assert derivative_l1(CompositeSinusoid(), 3.0, 3.0) == 0.0

    def test_signal_without_derivative_rejected(self):
        class ValueOnly(Signal):
            def value(self, t):
                return 0.5 * t

        with pytest.raises(NonDifferentiable, match="ValueOnly"):
            derivative_l1(ValueOnly(), 0.0, 1.0)

    def test_stochastic_rejected(self):
        for sig in (WhiteNoise(0.1), DrydenGust("u"), GroundEffect()):
            with pytest.raises(NonDifferentiable):
                derivative_l1(sig, 0.0, 1.0)
