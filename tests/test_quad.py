"""Model-level checks: kinematic maps, rotor maps, canonical/full dynamics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hgdosim.quad import (
    MICRO_QUAD,
    GimbalLock,
    RigidState,
    RotorSpeeds,
    VehicleParams,
    WrenchCommand,
    allocate_rotors,
    canonical_deriv,
    euler_rate_matrix,
    f2,
    full_nonlinear_deriv,
    rotation_matrix,
    rotor_wrench,
    thrust_direction,
)

# Reference DCM at (0.1, 0.2, 0.3), evaluated term by term at 50 digits.
R_REF = np.array([
    [0.93629336358419924111, -0.27509584731824374939, 0.21835066314633443251],
    [0.28962947762551557629, 0.95642508584923244444, -0.036957013524625075332],
    [-0.19866933079506121546, 0.097843395007255711399, 0.97517032720181589287],
])


class TestRotation:
    def test_identity_at_zero(self):
        assert_allclose(rotation_matrix((0.0, 0.0, 0.0)), np.eye(3), atol=1e-15)

    def test_pure_yaw(self):
        psi = 0.7
        r = rotation_matrix((0.0, 0.0, psi))
        expect = np.array([
            [np.cos(psi), -np.sin(psi), 0.0],
            [np.sin(psi), np.cos(psi), 0.0],
            [0.0, 0.0, 1.0],
        ])
        assert_allclose(r, expect, atol=1e-15)

    def test_reference_entries(self):
        assert_allclose(rotation_matrix((0.1, 0.2, 0.3)), R_REF, rtol=1e-14)

    def test_orthonormal_over_random_angles(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            att = rng.uniform(-np.pi, np.pi, 3)
            r = rotation_matrix(att)
            assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_thrust_direction_is_third_column(self):
        att = (0.2, -0.4, 1.1)
        assert_allclose(thrust_direction(att), rotation_matrix(att)[:, 2], rtol=0, atol=0)


class TestEulerRateMatrix:
    def test_identity_at_zero(self):
        assert_allclose(euler_rate_matrix((0.0, 0.0, 0.0)), np.eye(3), atol=1e-15)

    def test_quarter_roll(self):
        h = euler_rate_matrix((np.pi / 4, 0.0, 0.0))
        c = np.sqrt(2) / 2
        expect = np.array([[1.0, 0.0, 0.0], [0.0, c, -c], [0.0, c, c]])
        assert_allclose(h, expect, atol=1e-15)

    def test_gimbal_lock_raises(self):
        with pytest.raises(GimbalLock):
            euler_rate_matrix((0.0, np.pi / 2, 0.0))

    def test_invertible_away_from_singularity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            att = rng.uniform(-1.0, 1.0, 3)  # |theta| < 1 keeps cos(theta) > 0.54
            h = euler_rate_matrix(att)
            assert abs(np.linalg.det(h)) > 0.5


class TestRotorMaps:
    def test_equal_speeds_give_pure_thrust(self):
        w = rotor_wrench(np.full(4, 1000.0), MICRO_QUAD)
        assert_allclose(w.thrust, MICRO_QUAD.kt * 4e6, rtol=1e-15)
        assert_allclose(w.torque, np.zeros(3), atol=1e-20)

    def test_zero_speeds(self):
        w = rotor_wrench(np.zeros(4), MICRO_QUAD)
        assert w.thrust == 0.0
        assert_allclose(w.torque, np.zeros(3), atol=0)

    def test_hover_thrust_value(self):
        # om^2 = 2.38437e6 on each rotor carries just about the vehicle weight
        w = rotor_wrench(np.full(4, np.sqrt(2.38437e6)), MICRO_QUAD)
        assert_allclose(w.thrust, 0.274679424, rtol=1e-12)
        assert abs(w.thrust - MICRO_QUAD.hover_thrust) < 1e-5

    def test_hover_allocation(self):
        s = allocate_rotors(WrenchCommand(0.27468, np.zeros(3)), MICRO_QUAD)
        assert not s.saturated
        omega = np.asarray(s.omega)
        assert_allclose(omega**2, np.full(4, 2384375.0), rtol=1e-12)
        assert_allclose(omega, np.full(4, 1544.1421566682259), rtol=1e-12)
        assert (omega < MICRO_QUAD.omega_max).all()

    def test_zero_wrench_allocates_zero(self):
        s = allocate_rotors(WrenchCommand(0.0, np.zeros(3)), MICRO_QUAD)
        assert_allclose(s.omega, np.zeros(4), atol=0)
        assert not s.saturated

    def test_round_trip_identity(self):
        # allocation followed by the wrench map recovers the command exactly
        rng = np.random.default_rng(5)
        p = MICRO_QUAD
        for _ in range(1000):
            cmd = WrenchCommand(
                rng.uniform(0.1, 0.5),
                np.array([
                    rng.uniform(-1e-3, 1e-3),
                    rng.uniform(-1e-3, 1e-3),
                    rng.uniform(-5e-4, 5e-4),
                ]),
            )
            s = allocate_rotors(cmd, p)
            assert not s.saturated
            back = rotor_wrench(s, p)
            assert_allclose(back.thrust, cmd.thrust, rtol=1e-9)
            assert_allclose(back.torque, cmd.torque, rtol=1e-9, atol=1e-15)

    def test_infeasible_wrench_flags_saturation(self):
        s = allocate_rotors(WrenchCommand(0.0, np.array([1e-3, 0.0, 0.0])), MICRO_QUAD)
        assert s.saturated
        assert (np.asarray(s.omega) >= 0.0).all()
        big = allocate_rotors(WrenchCommand(5.0, np.zeros(3)), MICRO_QUAD)
        assert big.saturated
        assert (np.asarray(big.omega) <= MICRO_QUAD.omega_max).all()


class TestDynamics:
    def test_f2_zero_rates(self):
        assert_allclose(f2(np.zeros(3), MICRO_QUAD), np.zeros(3), atol=0)

    def test_f2_pitch_yaw_coupling(self):
        out = f2(np.array([0.0, 1.0, 1.0]), MICRO_QUAD)
        assert_allclose(out, [-0.55, 0.0, 0.0], rtol=1e-12, atol=1e-15)

    def test_hover_equilibrium(self):
        p = MICRO_QUAD
        s = RigidState(pos=np.array([0.0, 0.0, 0.5]))
        u1vec = np.array([0.0, 0.0, p.g])
        ds = canonical_deriv(s, u1vec, np.zeros(3), np.zeros(3), np.zeros(3), p)
        assert_allclose(ds.as_vector(), np.zeros(12), atol=1e-15)

    def test_free_fall(self):
        ds = canonical_deriv(RigidState(), np.zeros(3), np.zeros(3),
                             np.zeros(3), np.zeros(3), MICRO_QUAD)
        assert_allclose(ds.vel, [0.0, 0.0, -MICRO_QUAD.g], rtol=0)

    def test_inputs_enter_linearly(self):
        rng = np.random.default_rng(17)
        p = MICRO_QUAD
        s = RigidState(rng.normal(size=3), rng.normal(size=3),
                       rng.uniform(-0.5, 0.5, 3), rng.normal(size=3))
        u1a, u1b = rng.normal(size=3), rng.normal(size=3)
        d1 = rng.normal(size=3)
        base = canonical_deriv(s, u1a, np.zeros(3), d1, np.zeros(3), p)
        summed = canonical_deriv(s, u1a + u1b, np.zeros(3), d1, np.zeros(3), p)
        assert_allclose(summed.vel - base.vel, u1b, rtol=1e-12, atol=1e-12)
        u2a, u2b = rng.normal(size=3), rng.normal(size=3)
        base = canonical_deriv(s, u1a, u2a, d1, np.zeros(3), p)
        summed = canonical_deriv(s, u1a, u2a + u2b, d1, np.zeros(3), p)
        assert_allclose(summed.rate - base.rate, u2b, rtol=1e-12, atol=1e-12)

    def test_full_model_hover(self):
        p = MICRO_QUAD
        w = WrenchCommand(p.hover_thrust, np.zeros(3))
        _, acc, att_dot, om_dot = full_nonlinear_deriv(
            RigidState(), np.zeros(3), w, np.zeros(3), np.zeros(3), p)
        assert_allclose(acc, np.zeros(3), atol=1e-15)
        assert_allclose(att_dot, np.zeros(3), atol=0)
        assert_allclose(om_dot, np.zeros(3), atol=0)

    def test_full_model_free_fall(self):
        p = MICRO_QUAD
        w = WrenchCommand(0.0, np.zeros(3))
        _, acc, _, _ = full_nonlinear_deriv(
            RigidState(att=np.array([0.4, -0.3, 1.0])), np.zeros(3), w,
            np.zeros(3), np.zeros(3), p)
        assert_allclose(acc, [0.0, 0.0, -p.g], atol=1e-15)

    def test_full_matches_canonical_at_small_angles(self):
        # with body rates standing in for Euler rates the two accelerations agree
        p = MICRO_QUAD
        rng = np.random.default_rng(23)
        for _ in range(50):
            att = rng.uniform(-0.05, 0.05, 3)
            rate = rng.uniform(-0.3, 0.3, 3)
            thrust = rng.uniform(0.2, 0.35)
            torque = rng.uniform(-1e-4, 1e-4, 3)
            s = RigidState(att=att, rate=rate)
            u1vec = thrust_direction(att) * thrust / p.m
            u2vec = torque / p.j
            dc = canonical_deriv(s, u1vec, u2vec, np.zeros(3), np.zeros(3), p)
            _, acc, att_dot, om_dot = full_nonlinear_deriv(
                s, rate, WrenchCommand(thrust, torque), np.zeros(3), np.zeros(3), p)
            assert_allclose(acc, dc.vel, rtol=1e-2, atol=1e-12)
            assert_allclose(om_dot, dc.rate, rtol=1e-2, atol=1e-12)
            assert_allclose(att_dot, rate, atol=0.05 * np.linalg.norm(rate) + 1e-12)

    def test_state_vector_round_trip(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=12)
        assert_allclose(RigidState.from_vector(y).as_vector(), y, rtol=0, atol=0)


def test_vehicle_params_defaults():
    p = VehicleParams()
    assert p.m == 0.028 and p.arm == 0.092
    assert_allclose(p.j, [1.4e-5, 1.4e-5, 2.17e-5], rtol=0)
    assert_allclose(p.hover_thrust, 0.27468, rtol=1e-12)


def _allocate_array_oracle(w, p):
    """The squared-speed inversion allocate_rotors computes, in numpy."""
    torque = np.asarray(w.torque, dtype=float)
    t4 = w.thrust / (4.0 * p.kt)
    rx, ry, rz = torque / np.array([2.0 * p.arm * p.kt, 2.0 * p.arm * p.kt, 4.0 * p.kq])
    sq = np.array([t4 - ry - rz, t4 + rx + rz, t4 + ry - rz, t4 - rx + rz])
    om = np.sqrt(np.where(sq < 0.0, 0.0, sq))
    saturated = bool((sq < 0.0).any() or (om > p.omega_max).any())
    return np.where(om > p.omega_max, p.omega_max, om), saturated


def _wrench_array_oracle(omega, p):
    """The rotor wrench map rotor_wrench computes, in numpy. The squares are
    float ** 2, as they always were: C pow and x * x (numpy's square) differ
    in the last bit on about one input in a thousand."""
    s = np.array([float(o) ** 2 for o in omega])
    thrust = p.kt * (s[0] + s[1] + s[2] + s[3])
    torque = np.array([p.arm * p.kt * (s[1] - s[3]), p.arm * p.kt * (s[2] - s[0]),
                       p.kq * (s[1] + s[3] - s[0] - s[2])])
    return thrust, torque


class TestScalarFormsMatchArrayForms:
    """The float-tuple rotor maps give the same bits as the array formulas."""

    def test_allocate_rotors(self, awkward):
        rng = np.random.default_rng(41)
        p = MICRO_QUAD
        for i in range(1000):
            if i % 2:
                thrust, *torque = awkward(rng, 4)
            else:  # near hover, where most of the engine's calls land
                thrust = rng.uniform(0.0, 0.6)
                torque = rng.normal(scale=[3e-3, 3e-3, 1e-3])
            w = WrenchCommand(float(thrust), tuple(torque))
            with np.errstate(all="ignore"):
                want, want_sat = _allocate_array_oracle(w, p)
            got = allocate_rotors(w, p)
            assert type(got.omega) is tuple and all(type(v) is float for v in got.omega)
            assert np.array(got.omega).tobytes() == want.tobytes()
            assert got.saturated == want_sat

    def test_rotor_wrench(self, awkward):
        rng = np.random.default_rng(43)
        p = MICRO_QUAD
        for i in range(4000):
            # many in-range speeds, so a square taken as x * x shows up too
            omega = awkward(rng, 4) if i % 4 == 0 else rng.uniform(0.0, p.omega_max, 4)
            try:
                with np.errstate(all="ignore"):
                    thrust, torque = _wrench_array_oracle(omega, p)
            except OverflowError:
                with pytest.raises(OverflowError):
                    rotor_wrench(tuple(omega), p)
                continue
            got = rotor_wrench(tuple(omega), p)
            assert type(got.thrust) is float
            assert type(got.torque) is tuple and all(type(v) is float for v in got.torque)
            assert np.array([got.thrust, *got.torque]).tobytes() == \
                np.array([thrust, *torque]).tobytes()
