"""Sliding-mode tracking control in two cascaded loops.

The outer loop turns position error into a virtual acceleration command,
which attitude extraction converts into a thrust magnitude and roll/pitch
setpoints for the commanded yaw. The inner loop tracks those angles with
torque-level accelerations. Both loops use the surface s = e_dot + lam*e,
a boundary-layer switch k*sat(s/mu) instead of a hard sign, linear surface
feedback L*s, and subtract the observer's disturbance estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quad import VehicleParams


class ThrustSingularity(ValueError):
    """Vertical acceleration demand too small to define a tilt attitude."""


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    r = math.fmod(a + math.pi, 2.0 * math.pi)
    if r < 0.0:
        r += 2.0 * math.pi
    r -= math.pi
    return math.pi if r == -math.pi else r


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """wrap_angle elementwise on a float array, bit for bit."""
    r = np.fmod(a + math.pi, 2.0 * math.pi)
    r = np.where(r < 0.0, r + 2.0 * math.pi, r) - math.pi
    return np.where(r == -math.pi, math.pi, r)


@dataclass
class SmcGains:
    """Per-axis controller gains; lam/k/l vectors run (x, y, z) or (phi, theta, psi)."""

    lam1: np.ndarray = field(default_factory=lambda: np.array([0.3580, 0.5058, 0.3405]))
    lam2: np.ndarray = field(default_factory=lambda: np.array([0.3580, 0.5058, 0.3405]))
    k1: np.ndarray = field(default_factory=lambda: np.array([5.2608, 5.0176, 5.4351]))
    k2: np.ndarray = field(default_factory=lambda: np.array([8.0568, 13.6547, 1.8914]))
    l1: np.ndarray = field(default_factory=lambda: np.array([2.6304, 2.5088, 2.7176]))
    l2: np.ndarray = field(default_factory=lambda: np.array([4.0284, 6.8274, 0.9457]))
    mu: float = 0.05          # boundary-layer half width
    uz_min: float = 2.0       # minimum vertical virtual acceleration [m/s^2]
    u1_max: float | None = None   # thrust ceiling [N]; None = twice hover weight
    tau_max: np.ndarray | None = None  # torque ceiling [N m]; None = from omega_max

    def __post_init__(self):
        # float arrays, so outer_floats and inner_floats read them as floats
        # with tolist()
        for name in ("lam1", "lam2", "k1", "k2", "l1", "l2"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    def _mu(self) -> float:
        mu = float(self.mu)
        if mu <= 0.0:
            raise ValueError("boundary layer mu must be positive")
        return mu

    def outer_floats(self, p: VehicleParams) -> tuple:
        """outer_loop's constants as floats: lam1, k1 and l1 per axis, mu,
        the componentwise cap u1_max/(m*sqrt(3)) and g. Read once per run."""
        return (*self.lam1.tolist(), *self.k1.tolist(), *self.l1.tolist(), self._mu(),
                self.thrust_cap(p) / (p.m * math.sqrt(3.0)), p.g)

    def inner_floats(self) -> tuple:
        """inner_loop's constants as floats: lam2, k2 and l2 per axis, and mu.
        Read once per run."""
        return (*self.lam2.tolist(), *self.k2.tolist(), *self.l2.tolist(), self._mu())

    def thrust_cap(self, p: VehicleParams) -> float:
        return 2.0 * p.m * p.g if self.u1_max is None else float(self.u1_max)

    def torque_cap(self, p: VehicleParams) -> np.ndarray:
        if self.tau_max is not None:
            return np.asarray(self.tau_max, dtype=float)
        # half the torque each axis pair could produce at the rotor speed limit
        xy = 0.5 * p.arm * p.kt * p.omega_max**2
        z = 0.5 * p.kq * p.omega_max**2
        return np.array([xy, xy, z])


DEFAULT_GAINS = SmcGains()


@dataclass
class AttitudeSetpoint:
    """Inner-loop reference: angles (phi_d, theta_d, psi_d), thrust, and the
    filtered angle-rate/acceleration estimates the inner loop feeds forward.
    The three vectors are float tuples."""

    angles: tuple
    thrust: float
    rates: tuple = (0.0, 0.0, 0.0)
    accels: tuple = (0.0, 0.0, 0.0)


def _switching_law(e, e_dot, ff, lam, k, l, mu):
    """One channel of both loops: ff + lam*e_dot + k*sat(s/mu) + l*s, with
    the surface s = e_dot + lam*e. ff is the feedforward net of the
    disturbance estimate. The traces depend on every bit of this operation
    order."""
    s = e_dot + lam * e
    sw = s / mu
    if sw > 1.0:
        sw = 1.0
    elif sw < -1.0:
        sw = -1.0
    return ff + lam * e_dot + k * sw + l * s


def outer_loop(pos, vel, pos_d, vel_d, acc_d, d1_hat, k: tuple):
    """Virtual acceleration command from position tracking error.

    Componentwise clamp at u1_max/(m*sqrt(3)) guarantees the extracted thrust
    m*||u|| never exceeds u1_max, whatever the direction (peaking guard).
    The vectors are float 3-sequences and k is SmcGains.outer_floats(p);
    returns (u1vec, clamped) with u1vec a tuple of floats. Plain float
    arithmetic, one call per axis: this runs once per control tick and array
    temporaries would dominate its cost.
    """
    lx, ly, lz, kx, ky, kz, mx, my, mz, mu, cap, g = k
    x, y, z = pos
    vx, vy, vz = vel
    rx, ry, rz = pos_d
    rvx, rvy, rvz = vel_d
    ax, ay, az = acc_d
    dx, dy, dz = d1_hat
    # x and y add g_i = 0.0 too: that maps a -0.0 command to +0.0, and the
    # trace keeps the sign of zero
    u = []
    clamped = False
    for ui in (
        _switching_law(rx - x, rvx - vx, ax + 0.0 - dx, lx, kx, mx, mu),
        _switching_law(ry - y, rvy - vy, ay + 0.0 - dy, ly, ky, my, mu),
        _switching_law(rz - z, rvz - vz, az + g - dz, lz, kz, mz, mu),
    ):
        if ui > cap:
            ui = cap
            clamped = True
        elif ui < -cap:
            ui = -cap
            clamped = True
        u.append(ui)
    return tuple(u), clamped


def extract_attitude(u1vec, psi_d: float, gains: SmcGains, p: VehicleParams) -> AttitudeSetpoint:
    """Tilt angles and thrust that realize a virtual acceleration command.

    theta_d = atan((ux c_psi + uy s_psi) / uz)
    phi_d   = atan(cos(theta_d) (ux s_psi - uy c_psi) / uz)
    u1      = m uz / (cos(phi_d) cos(theta_d))

    Exact inverse of the thrust-direction map for uz > 0; raises
    ThrustSingularity when uz < uz_min (the engine clamps and flags instead).
    Takes any 3-sequence; the setpoint's angles are a float tuple.
    """
    ux, uy, uz = (float(v) for v in u1vec)
    if uz < gains.uz_min:
        raise ThrustSingularity(f"uz={uz:.3f} below floor {gains.uz_min}")
    psi_d = float(psi_d)
    cps, sps = math.cos(psi_d), math.sin(psi_d)
    theta_d = math.atan((ux * cps + uy * sps) / uz)
    phi_d = math.atan(math.cos(theta_d) * (ux * sps - uy * cps) / uz)
    thrust = p.m * uz / (math.cos(phi_d) * math.cos(theta_d))
    return AttitudeSetpoint((phi_d, theta_d, psi_d), thrust)


def inner_loop(att, rate, sp: AttitudeSetpoint, d2_hat, f2val, k: tuple) -> tuple:
    """Angular acceleration command tracking the attitude setpoint.

    Yaw error is wrapped to (-pi, pi] so the loop never unwinds through a
    full turn. The vectors are float 3-sequences and k is
    SmcGains.inner_floats(); returns u2vec as a tuple of floats, which the
    engine maps to torques and clamps. Plain float arithmetic for the same
    reason as outer_loop (runs every base step).
    """
    lx, ly, lz, kx, ky, kz, mx, my, mz, mu = k
    a0, a1, a2 = att
    w0, w1, w2 = rate
    r0, r1, r2 = sp.angles
    rr0, rr1, rr2 = sp.rates
    c0, c1, c2 = sp.accels
    f0, f1, f2 = f2val
    d0, d1, d2 = d2_hat
    return (
        _switching_law(r0 - a0, rr0 - w0, c0 - f0 - d0, lx, kx, mx, mu),
        _switching_law(r1 - a1, rr1 - w1, c1 - f1 - d1, ly, ky, my, mu),
        _switching_law(wrap_angle(r2 - a2), rr2 - w2, c2 - f2 - d2, lz, kz, mz, mu),
    )


def gain_check(gains: SmcGains, eps1: float, eps2: float, d_tilde0, delta):
    """Switching-gain condition k > eps * (|dtilde(0)| + delta), per channel.

    d_tilde0 and delta are 6-vectors over (x, y, z, phi, theta, psi).
    Returns (ok, threshold) with ok a boolean 6-vector.
    """
    d_tilde0 = np.abs(np.asarray(d_tilde0, dtype=float))
    delta = np.asarray(delta, dtype=float)
    eps = np.array([eps1] * 3 + [eps2] * 3)
    threshold = eps * (d_tilde0 + delta)
    k = np.concatenate([gains.k1, gains.k2])
    return k > threshold, threshold
