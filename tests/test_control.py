import math

import numpy as np
import pytest

from hgdosim.control import (
    DEFAULT_GAINS,
    AttitudeSetpoint,
    SmcGains,
    ThrustSingularity,
    extract_attitude,
    gain_check,
    inner_loop,
    outer_loop,
    sat,
    sliding_surface,
    wrap_angle,
)
from hgdosim.quad import MICRO_QUAD, f2, thrust_direction

P = MICRO_QUAD
G = DEFAULT_GAINS


class TestPrimitives:
    def test_wrap_identity_in_range(self):
        for a in (0.0, 1.0, -1.0, 3.14, -3.1):
            assert wrap_angle(a) == pytest.approx(a, abs=1e-15)

    def test_wrap_half_open(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(1.5 * math.pi) == pytest.approx(-0.5 * math.pi)
        assert wrap_angle(-6.2) == pytest.approx(2.0 * math.pi - 6.2)

    def test_sat_linear_inside_layer(self):
        assert sat(0.02, 0.05) == pytest.approx(0.4)
        assert sat(-0.02, 0.05) == pytest.approx(-0.4)

    def test_sat_clips(self):
        assert sat(0.2, 0.05) == 1.0
        assert sat(-7.0, 0.05) == -1.0

    def test_sat_vector(self):
        out = sat(np.array([0.025, -0.1, 0.0]), 0.05)
        assert np.allclose(out, [0.5, -1.0, 0.0])

    def test_sat_rejects_bad_layer(self):
        with pytest.raises(ValueError):
            sat(0.1, 0.0)

    def test_surface(self):
        s = sliding_surface([0.1, 0.0, 0.0], np.zeros(3), G.lam1)
        assert s[0] == pytest.approx(0.0358, abs=1e-15)
        assert s[1] == 0.0 and s[2] == 0.0

    def test_surface_rate_term(self):
        s = sliding_surface(np.zeros(3), [0.0, 2.0, 0.0], G.lam1)
        assert np.allclose(s, [0.0, 2.0, 0.0])


class TestOuterLoop:
    def test_hover_equilibrium_commands_gravity(self):
        z = np.zeros(3)
        u, clamped = outer_loop(z, z, z, z, z, z, G, P)
        assert np.allclose(u, [0.0, 0.0, P.g])
        assert not clamped

    def test_single_channel_frozen(self):
        # e_x = 0.1: s = 0.0358, sat = 0.716, u_x = k*0.716 + l*0.0358
        z = np.zeros(3)
        u, clamped = outer_loop(z, z, [0.1, 0.0, 0.0], z, z, z, G, P)
        assert u[0] == pytest.approx(3.86090112, rel=1e-12)
        assert u[1] == 0.0
        assert u[2] == pytest.approx(P.g)
        assert not clamped

    def test_estimate_feeds_through(self):
        z = np.zeros(3)
        d1 = np.array([0.3, -0.2, 0.5])
        u0, _ = outer_loop(z, z, z, z, z, z, G, P)
        u1, _ = outer_loop(z, z, z, z, z, d1, G, P)
        u0, u1 = np.asarray(u0), np.asarray(u1)
        assert np.allclose(u0 - u1, d1)

    def test_clamp_bounds_thrust(self):
        cap = G.thrust_cap(P) / (P.m * math.sqrt(3.0))
        rng = np.random.default_rng(11)
        z = np.zeros(3)
        for _ in range(200):
            target = rng.uniform(-50.0, 50.0, 3)
            u, clamped = outer_loop(z, z, target, z, z, z, G, P)
            assert np.all(np.abs(u) <= cap + 1e-12)
            assert P.m * np.linalg.norm(u) <= G.thrust_cap(P) + 1e-12
            if np.abs(u).max() == pytest.approx(cap):
                assert clamped

    def test_feedforward_cancels_exactly(self):
        # zero tracking error and a perfect estimate leave acc_d untouched
        pos = np.array([0.2, -0.1, 0.5])
        vel = np.array([0.3, 0.0, -0.1])
        acc_d = np.array([0.4, 0.1, -0.2])
        d = np.array([0.25, -0.5, 0.1])
        u, _ = outer_loop(pos, vel, pos, vel, acc_d, d, G, P)
        accel = -np.array([0.0, 0.0, P.g]) + u + d
        assert np.allclose(accel, acc_d, atol=1e-14)


class TestAttitudeExtraction:
    def test_vertical_demand_is_level(self):
        sp = extract_attitude([0.0, 0.0, P.g], 0.0, G, P)
        assert np.allclose(sp.angles, 0.0)
        assert sp.thrust == pytest.approx(P.m * P.g)
        assert np.all(np.asarray(sp.rates) == 0.0) and np.all(np.asarray(sp.accels) == 0.0)

    def test_diagonal_demand_frozen(self):
        sp = extract_attitude([3.0, 0.0, 3.0], 0.0, G, P)
        assert sp.angles[1] == pytest.approx(math.pi / 4.0, rel=1e-14)
        assert sp.angles[0] == pytest.approx(0.0, abs=1e-15)
        assert sp.thrust == pytest.approx(0.11879393923933998, rel=1e-12)

    def test_floor_raises(self):
        with pytest.raises(ThrustSingularity):
            extract_attitude([1.0, 1.0, 1.9], 0.0, G, P)

    def test_inverts_thrust_direction_map(self):
        # m * u1vec must equal thrust times the body z axis at the
        # extracted angles, for any yaw and any feasible demand
        rng = np.random.default_rng(7)
        for _ in range(300):
            u = rng.uniform([-8, -8, 2.0], [8, 8, 12.0])
            psi = rng.uniform(-math.pi, math.pi)
            sp = extract_attitude(u, psi, G, P)
            b = thrust_direction(np.array([sp.angles[0], sp.angles[1], psi]))
            assert np.allclose(sp.thrust * b / P.m, u, atol=1e-12)
            assert abs(sp.angles[0]) < math.pi / 2
            assert abs(sp.angles[1]) < math.pi / 2


class TestInnerLoop:
    def test_zero_error_passthrough(self):
        att = np.array([0.1, -0.2, 0.3])
        rate = np.array([0.4, 0.0, -0.1])
        accels = np.array([1.0, -2.0, 0.5])
        d2 = np.array([0.2, 0.1, -0.3])
        sp = AttitudeSetpoint(att.copy(), 0.3, rate.copy(), accels)
        f2val = f2(rate, P)
        u2 = inner_loop(att, rate, sp, d2, f2val, G)
        assert np.allclose(u2, accels - f2val - d2, atol=1e-14)

    def test_single_channel_frozen(self):
        # e_phi = 0.1: s = 0.0358, sat = 0.716, u = 8.0568*0.716 + 4.0284*0.0358
        sp = AttitudeSetpoint(np.array([0.1, 0.0, 0.0]), 0.3)
        u2 = inner_loop(np.zeros(3), np.zeros(3), sp, np.zeros(3), np.zeros(3), G)
        assert u2[0] == pytest.approx(5.91288552, rel=1e-12)
        assert u2[1] == 0.0 and u2[2] == 0.0

    def test_yaw_error_wraps(self):
        sp = AttitudeSetpoint(np.array([0.0, 0.0, -3.1]), 0.3)
        u2 = inner_loop([0.0, 0.0, 3.1], np.zeros(3), sp, np.zeros(3), np.zeros(3), G)
        e = 2.0 * math.pi - 6.2
        s = G.lam2[2] * e
        expect = G.k2[2] * min(s / G.mu, 1.0) + G.l2[2] * s
        assert u2[2] == pytest.approx(expect, rel=1e-12)
        assert u2[2] > 0.0


class TestGainCondition:
    def test_threshold_example(self):
        ok, thr = gain_check(G, 0.01, 0.01, np.ones(6), np.full(6, 5.0))
        assert np.allclose(thr, 0.06)
        assert ok.all()

    def test_detects_weak_gain(self):
        weak = SmcGains(k1=np.array([0.05, 5.0, 5.0]))
        ok, thr = gain_check(weak, 0.01, 0.01, np.ones(6), np.full(6, 5.0))
        assert not ok[0]
        assert ok[1:].all()

    def test_scales_with_epsilon(self):
        _, thr_small = gain_check(G, 0.01, 0.01, np.ones(6), np.ones(6))
        _, thr_big = gain_check(G, 0.08, 0.08, np.ones(6), np.ones(6))
        assert np.allclose(thr_big, 8.0 * thr_small)


class TestDefaults:
    def test_caps(self):
        assert G.thrust_cap(P) == pytest.approx(2.0 * P.m * P.g)
        assert np.allclose(G.torque_cap(P), [8.28e-3, 8.28e-3, 2.2625e-3], rtol=1e-12)

    def test_overrides_win(self):
        g = SmcGains(u1_max=1.0, tau_max=np.array([1e-3, 1e-3, 1e-3]))
        assert g.thrust_cap(P) == 1.0
        assert np.allclose(g.torque_cap(P), 1e-3)

    def test_positive(self):
        for v in (G.lam1, G.lam2, G.k1, G.k2, G.l1, G.l2):
            assert np.all(v > 0.0)
        assert G.mu == 0.05 and G.uz_min == 2.0


def _outer_array_oracle(pos, vel, pos_d, vel_d, acc_d, d1_hat, gains, p):
    """The 3-vector formula outer_loop computes, in numpy."""
    e = np.asarray(pos_d, dtype=float) - np.asarray(pos, dtype=float)
    e_dot = np.asarray(vel_d, dtype=float) - np.asarray(vel, dtype=float)
    s = e_dot + gains.lam1 * e
    sw = np.clip(s / gains.mu, -1.0, 1.0)
    u = (np.asarray(acc_d, dtype=float) + np.array([0.0, 0.0, p.g])
         - np.asarray(d1_hat, dtype=float)
         + gains.lam1 * e_dot + gains.k1 * sw + gains.l1 * s)
    cap = gains.thrust_cap(p) / (p.m * math.sqrt(3.0))
    clamped = bool(np.any((u > cap) | (u < -cap)))
    return np.clip(u, -cap, cap), clamped


def _inner_array_oracle(att, rate, sp, d2_hat, f2val, gains):
    """The 3-vector formula inner_loop computes, in numpy."""
    e = np.asarray(sp.angles, dtype=float) - np.asarray(att, dtype=float)
    e[2] = wrap_angle(e[2])
    e_dot = np.asarray(sp.rates, dtype=float) - np.asarray(rate, dtype=float)
    s = e_dot + gains.lam2 * e
    sw = np.clip(s / gains.mu, -1.0, 1.0)
    return (np.asarray(sp.accels, dtype=float) - np.asarray(f2val, dtype=float)
            - np.asarray(d2_hat, dtype=float)
            + gains.lam2 * e_dot + gains.k2 * sw + gains.l2 * s)


class TestScalarFormsMatchArrayForms:
    """The float-tuple loops give the same bits as the array formulas."""

    def test_outer_loop(self, awkward):
        rng = np.random.default_rng(31)
        for i in range(1000):
            # small errors exercise the boundary layer, awkward ones the rest
            pos, vel, pos_d, vel_d, acc_d, d1 = (
                awkward(rng, (6, 3)) if i % 2 else rng.normal(scale=0.02, size=(6, 3)))
            with np.errstate(all="ignore"):
                want, want_clamped = _outer_array_oracle(pos, vel, pos_d, vel_d,
                                                         acc_d, d1, G, P)
            got, clamped = outer_loop(tuple(pos), list(vel), pos_d, vel_d, acc_d,
                                      tuple(d1), G, P)
            assert type(got) is tuple and all(type(v) is float for v in got)
            assert np.array(got).tobytes() == want.tobytes()
            assert clamped == want_clamped

    def test_outer_loop_adds_gravity_on_every_axis(self):
        # -0.0 references make every later term -0.0, so only the explicit
        # acc_d + 0.0 on x and y turns the command into +0.0
        z, nz = (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)
        u, _ = outer_loop(z, z, nz, nz, nz, z, G, P)
        assert np.array(u).tobytes() == np.array([0.0, 0.0, P.g]).tobytes()

    def test_inner_loop(self, awkward):
        rng = np.random.default_rng(37)
        for i in range(1000):
            att, rate, angles, rates, accels, d2, f2val = (
                awkward(rng, (7, 3)) if i % 2 else rng.normal(scale=0.02, size=(7, 3)))
            sp = AttitudeSetpoint(tuple(angles), 0.3, tuple(rates), tuple(accels))
            with np.errstate(all="ignore"):
                want = _inner_array_oracle(att, rate, sp, d2, f2val, G)
            got = inner_loop(tuple(att), rate, sp, list(d2), tuple(f2val), G)
            assert type(got) is tuple and all(type(v) is float for v in got)
            assert np.array(got).tobytes() == want.tobytes()
