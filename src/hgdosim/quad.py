"""Rigid-body quadrotor model.

Vehicle constants, the ZYX Euler rotation and the rotor thrust/torque maps.
The equations of motion themselves (canonical and full plant) are written
out once, in the engine's RK4 kernel (sim.build_stepper). Angles are (phi, theta, psi) = roll, pitch, yaw; the inertial frame is
z-up, so gravity enters the translational dynamics as (0, 0, -g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class VehicleParams:
    """Physical constants of the vehicle and its rotors."""

    m: float = 0.028          # mass [kg]
    jx: float = 1.4e-5        # roll inertia [kg m^2]
    jy: float = 1.4e-5        # pitch inertia [kg m^2]
    jz: float = 2.17e-5       # yaw inertia [kg m^2]
    kt: float = 2.88e-8       # rotor thrust coefficient [N s^2]
    kq: float = 7.24e-10      # rotor drag-torque coefficient [N m s^2]
    arm: float = 0.092        # rotor arm length [m]
    g: float = 9.81           # gravitational acceleration [m/s^2]
    omega_max: float = 2500.0  # rotor speed limit [rad/s]

    @property
    def hover_thrust(self) -> float:
        return self.m * self.g


#: Default 28 g micro-quadrotor used throughout the shipped scenarios.
MICRO_QUAD = VehicleParams()


@dataclass
class RotorSpeeds:
    """Rotor speed magnitudes [rad/s] as a float tuple, plus a flag set when
    the limit clipped them."""

    omega: tuple
    saturated: bool = False


@dataclass
class WrenchCommand:
    """Collective thrust [N] and body torques [N m], any 3-sequence
    (a float tuple when rotor_wrench builds it)."""

    thrust: float
    torque: tuple


def rotation_matrix(att) -> np.ndarray:
    """Body-to-inertial DCM for ZYX Euler angles (phi, theta, psi)."""
    phi, theta, psi = att
    cph, sph = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    cps, sps = np.cos(psi), np.sin(psi)
    return np.array([
        [cth * cps, sph * sth * cps - cph * sps, cph * sth * cps + sph * sps],
        [cth * sps, sph * sth * sps + cph * cps, cph * sth * sps - sph * cps],
        [-sth, sph * cth, cph * cth],
    ])


def thrust_direction(att) -> np.ndarray:
    """Inertial unit vector along the body thrust axis (third DCM column)."""
    return rotation_matrix(att)[:, 2]


def rotor_wrench(speeds, p: VehicleParams) -> WrenchCommand:
    """Thrust and body torques produced by the four rotor speeds.

    T     = kt * sum(om_i^2)
    tau_x = arm * kt * (om2^2 - om4^2)
    tau_y = arm * kt * (om3^2 - om1^2)
    tau_z = kq * (om2^2 + om4^2 - om1^2 - om3^2)

    Rotors 1..4 sit on the +x, +y, -x, -y body arms; 1 and 3 spin opposite
    to 2 and 4, so their drag torques fight each other about z.

    speeds is a RotorSpeeds or any 4-sequence; the torque is a float tuple.
    """
    om = speeds.omega if isinstance(speeds, RotorSpeeds) else speeds
    o0, o1, o2, o3 = om
    s0 = float(o0) ** 2
    s1 = float(o1) ** 2
    s2 = float(o2) ** 2
    s3 = float(o3) ** 2
    thrust = p.kt * (s0 + s1 + s2 + s3)
    torque = (
        p.arm * p.kt * (s1 - s3),
        p.arm * p.kt * (s2 - s0),
        p.kq * (s1 + s3 - s0 - s2),
    )
    return WrenchCommand(thrust, torque)


def allocate_rotors(w: WrenchCommand, p: VehicleParams) -> RotorSpeeds:
    """Invert the wrench map: squared rotor speeds from thrust and torques.

    Negative squared speeds (infeasible demand) clip to zero and speeds
    clip to omega_max; either sets the saturated flag. The speeds are a
    tuple of four floats.
    """
    tx, ty, tz = w.torque
    t4 = w.thrust / (4.0 * p.kt)
    rx = float(tx) / (2.0 * p.arm * p.kt)
    ry = float(ty) / (2.0 * p.arm * p.kt)
    rz = float(tz) / (4.0 * p.kq)
    omax = p.omega_max
    saturated = False
    om = []
    for sq in (t4 - ry - rz, t4 + rx + rz, t4 + ry - rz, t4 - rx + rz):
        if sq < 0.0:
            saturated = True
            sq = 0.0
        o = math.sqrt(sq)
        if o > omax:
            saturated = True
            o = float(omax)
        om.append(o)
    return RotorSpeeds(tuple(om), saturated)
