"""Closed-loop simulation engine.

One run couples the full rigid-body plant with the auxiliary-state observer
in a single ODE, integrated by classical RK4. Control runs on two zero-order
holds: the attitude loop at the base rate 1/dt, the position loop every
outer_divisor base steps. Each base step is split into enough sub-steps to
keep the observer's fast mode resolved (sub-step <= epsilon/20), so the
estimation-error dynamics stay at integrator accuracy rather than hold
accuracy.

Deterministic disturbances are evaluated at the RK4 stage times. Stochastic
ones, like measurement noise, are drawn for the whole run before the first
step (held_table), one sample per base step held over it. The
observer is forced by the thrust and torques actually applied to the plant
(after clamping and, when enabled, rotor allocation), evaluated with the
same stage attitude the plant sees, so the estimate converges to the
injected disturbance and not to an allocation residual.

run_scenario sets a run up once (pregrid, held_table, differentiators),
then moves each base step with one call of the tick (build_tick: observer,
controller, allocation, trace row) and one of the kernel (build_stepper:
the RK4 substeps of plant and observer).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .control import (
    DEFAULT_GAINS,
    AttitudeSetpoint,
    SmcGains,
    extract_attitude,
    inner_loop,
    outer_loop,
    wrap_angle,
)
from .disturbances import Zero
from .observers import DerivativeFilter, hgdo_init, naive_hgdo_step
from .quad import MICRO_QUAD, VehicleParams, WrenchCommand, allocate_rotors, rotor_wrench
from .trajectories import HoverRamp, Trajectory

FLAG_OUTER_CLAMP = 1    # virtual acceleration hit its componentwise cap
FLAG_UZ_FLOOR = 2       # vertical demand raised to the extraction floor
FLAG_TORQUE_CLAMP = 4   # commanded torque clipped to the per-axis limit
FLAG_ROTOR_SAT = 8      # allocation clipped a rotor speed
FLAG_PITCH_CLAMP = 16   # pitch pulled back from the kinematic singularity

PITCH_LIMIT = math.pi / 2.0 - 0.02

_DIVERGE_POS = 100.0
_DIVERGE_VEL = 50.0
_DIVERGE_RATE = 500.0

OBSERVERS = ("hgdo", "naive", "none")

# base steps whose disturbance-grid and held-table rows the step loop
# converts to Python floats at a time; the float64 arrays stay whole for the run
_BLOCK = 256


class Diverged(RuntimeError):
    """State left the plausible flight envelope; carries the partial trace."""

    def __init__(self, message: str, trace: "SimTrace"):
        super().__init__(message)
        self.trace = trace


def _zero3():
    return np.zeros(3)


@dataclass
class ScenarioConfig:
    """Everything one run needs besides vehicle constants and gains."""

    name: str = "scenario"
    duration: float = 10.0
    dt: float = 0.002
    outer_divisor: int = 5
    seed: int = 0
    epsilon1: float = 0.01
    epsilon2: float = 0.01
    observer: str = "hgdo"
    trajectory: Trajectory = field(default_factory=HoverRamp)
    force_signals: tuple = (None, None, None)    # per-axis accel disturbances
    torque_signals: tuple = (None, None, None)   # per-axis ang. accel disturbances
    pos0: np.ndarray = field(default_factory=_zero3)
    vel0: np.ndarray = field(default_factory=_zero3)
    att0: np.ndarray = field(default_factory=_zero3)
    rate0: np.ndarray = field(default_factory=_zero3)
    d_hat0_force: np.ndarray = field(default_factory=_zero3)
    d_hat0_torque: np.ndarray = field(default_factory=_zero3)
    noise_power: float = 0.0
    allocate: bool = True
    plant: str = "canonical"      # or "full": body-rate dynamics + Euler kinematics
    substeps: int | None = None   # None: ceil(dt / (epsilon/20)) for the hgdo run
    vehicle: VehicleParams | None = None
    gains: SmcGains | None = None

    def __post_init__(self):
        if self.duration <= 0.0 or self.dt <= 0.0:
            raise ValueError("duration and dt must be positive")
        if self.outer_divisor < 1:
            raise ValueError("outer_divisor must be at least 1")
        if self.epsilon1 <= 0.0 or self.epsilon2 <= 0.0:
            raise ValueError("observer epsilon must be positive")
        if self.observer not in OBSERVERS:
            raise ValueError(f"unknown observer {self.observer!r}")
        if self.noise_power < 0.0:
            raise ValueError("noise power must be non-negative")
        if self.plant not in ("canonical", "full"):
            raise ValueError(f"unknown plant model {self.plant!r}")
        if self.substeps is not None and self.substeps < 1:
            raise ValueError("substeps must be at least 1")
        self.force_signals = tuple(s if s is not None else Zero() for s in self.force_signals)
        self.torque_signals = tuple(s if s is not None else Zero() for s in self.torque_signals)
        if len(self.force_signals) != 3 or len(self.torque_signals) != 3:
            raise ValueError("need one signal per axis")

    def n_substeps(self) -> int:
        if self.substeps is not None:
            return self.substeps
        if self.observer != "hgdo":
            return 1
        eps = min(self.epsilon1, self.epsilon2)
        return max(1, math.ceil(self.dt / (eps / 20.0)))


TRACE_COLUMNS = (
    ["t"]
    + ["x", "y", "z", "vx", "vy", "vz", "phi", "theta", "psi", "p", "q", "r"]
    + ["x_ref", "y_ref", "z_ref", "phi_ref", "theta_ref", "psi_ref"]
    + ["ex", "ey", "ez", "evx", "evy", "evz"]
    + ["ephi", "etheta", "epsi", "ep", "eq", "er"]
    + ["s1x", "s1y", "s1z", "s2x", "s2y", "s2z"]
    + ["d1x_true", "d1y_true", "d1z_true", "d2x_true", "d2y_true", "d2z_true"]
    + ["d1x_hat", "d1y_hat", "d1z_hat", "d2x_hat", "d2y_hat", "d2z_hat"]
    + ["u1x", "u1y", "u1z", "u2x", "u2y", "u2z"]
    + ["thrust", "tau_x", "tau_y", "tau_z"]
    + ["w1", "w2", "w3", "w4"]
    + ["vx_meas", "vy_meas", "vz_meas", "p_meas", "q_meas", "r_meas"]
    + ["sat_flags", "lyapunov"]
)


class SimTrace:
    """Column-named record of one run, one row per base step plus the final state."""

    def __init__(self, data: np.ndarray, meta: dict, config: ScenarioConfig | None = None):
        if data.ndim != 2 or data.shape[1] != len(TRACE_COLUMNS):
            raise ValueError("trace data shape does not match the column list")
        self.columns = list(TRACE_COLUMNS)
        self.data = data
        self.meta = dict(meta)
        self.config = config
        self._idx = {name: i for i, name in enumerate(self.columns)}

    def __len__(self) -> int:
        return self.data.shape[0]

    def col(self, name: str) -> np.ndarray:
        return self.data[:, self._idx[name]]

    def cols(self, *names: str) -> np.ndarray:
        return self.data[:, [self._idx[n] for n in names]]

    @property
    def t(self) -> np.ndarray:
        return self.col("t")


def pregrid(cfg: ScenarioConfig, n_sub: int, n_base: int):
    """The run's deterministic disturbances as (grid, slow).

    Every RK4 stage lands on the half-substep grid, so pure-time signals
    are evaluated for the whole run in one vectorized pass: grid holds the
    six channels on 2 * n_sub * n_base + 1 rows, equal signals sharing the
    first one's column. If any deterministic signal needs the position,
    there is no grid and slow holds every deterministic channel's
    Signal.value, called per stage. Other slow entries are None.
    """
    det_all = cfg.force_signals + cfg.torque_signals
    det = [j for j, s in enumerate(det_all) if not (s.stochastic or isinstance(s, Zero))]
    slow = [None] * 6
    if any(det_all[j].needs_position for j in det):
        for j in det:
            slow[j] = det_all[j].value
        return None, slow
    if not det:
        return None, slow
    tgrid = np.arange(2 * n_sub * n_base + 1) * (0.5 * (cfg.dt / n_sub))
    grid = np.zeros((tgrid.size, 6))
    for j in det:
        first = det_all.index(det_all[j])
        grid[:, j] = det_all[j].value(tgrid) if first == j else grid[:, first]
    return grid, slow


def held_table(cfg: ScenarioConfig, n_base: int):
    """What H[4:16] holds over each recorded step, as an (n_base + 1, 12)
    array, or None when the run has no noise and no stochastic signal.

    Columns 0-5 are the (vx, vy, vz, p, q, r) measurement noise: noise_power
    is the sample variance, not a spectral density, and channel ch is seeded
    by [seed, 97, ch]. Columns 6-11 are the stochastic force and torque
    signals' draws at the run's dt; the signal on axis a of domain d (0
    force, 1 torque) is seeded by [seed, its seed or a, a, d]. Other columns
    are +0.0, which is still added to the measured states and the held
    disturbances: -0.0 + 0.0 is +0.0, and the trace records the sign.
    """
    signals = cfg.force_signals + cfg.torque_signals
    if not (cfg.noise_power > 0.0 or any(s.stochastic for s in signals)):
        return None
    n = n_base + 1
    table = np.zeros((n, 12))
    if cfg.noise_power > 0.0:
        sigma = math.sqrt(cfg.noise_power)
        for ch in range(6):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 97, ch]))
            table[:, ch] = rng.normal(0.0, sigma, n)
    for j, sig in enumerate(signals):
        if sig.stochastic:
            axis, domain = j % 3, j // 3
            stream = getattr(sig, "seed", None)
            stream = axis if stream is None else int(stream)
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, stream, axis, domain]))
            table[:, 6 + j] = sig.draw(n, cfg.dt, rng)
    return table


def differentiators(cfg: ScenarioConfig):
    """The naive observer's velocity and rate differentiators, then the
    outer tick's reference velocity and acceleration and setpoint rate and
    acceleration ones; the reference pair is warmed up on the pre-t=0
    stretch of the trajectory, so the feedforward is settled at the first
    tick."""
    dt_outer = cfg.dt * cfg.outer_divisor
    ref_vel, ref_acc, sp_rate, sp_acc = (
        DerivativeFilter(tau=4.0 * dt_outer) for _ in range(4))
    for j in range(-25, 0):
        pd = cfg.trajectory.position(j * dt_outer)
        ref_acc.step(ref_vel.step(pd, dt_outer), dt_outer)
    return (DerivativeFilter(tau=5.0 * cfg.dt), DerivativeFilter(tau=5.0 * cfg.dt),
            ref_vel, ref_acc, sp_rate, sp_acc)


def build_stepper(cfg: ScenarioConfig, p: VehicleParams, n_sub: int, h: float, slow):
    """Return advance(y, H, rows, ib, t): state y moved on by the base step from t.

    y is the 18-float state (pos, vel, att, rate, gamma1, gamma2). H holds
    what is held over the step: [a_thrust, tau_x/jx, tau_y/jy, tau_z/jz,
    6x noise, 3x stoch force, 3x stoch torque]. Deterministic disturbances
    come from rows, a block of the run's pre-evaluated grid as lists of six
    floats on the half-substep grid (2 * n_sub rows per base step), read
    from rows[ib] (time t) to rows[ib + 2 * n_sub] (time t + dt). With
    rows None they come from slow instead: per channel a Signal.value called
    at every stage with the stage position, or None. The kernel keeps no
    reference to rows, so a run holds only the block it is stepping through.

    One call runs all n_sub classical RK4 substeps of length h, the four
    stages written out on local floats. Every operation keeps its grouping
    in RK4 on the model's right-hand side, so traces are bit-identical to
    it. The gamma states are integrated only for the hgdo observer; nothing
    else reads them.
    """
    g = p.g
    c1 = (p.jy - p.jz) / p.jx
    c2 = (p.jz - p.jx) / p.jy
    c3 = (p.jx - p.jy) / p.jz
    ie1 = 1.0 / cfg.epsilon1
    ie2 = 1.0 / cfg.epsilon2
    nie1 = -ie1
    nie2 = -ie2
    full = cfg.plant == "full"
    hgdo = cfg.observer == "hgdo"
    live = [(i, f) for i, f in enumerate(slow) if f is not None]
    has_slow = bool(live)
    h2 = 0.5 * h
    h6 = h / 6.0
    sin = math.sin
    cos = math.cos

    def stage_sums(base, tt, pos):
        out = list(base)
        for i, f in live:
            out[i] += f(tt, pos)
        return out

    def advance(y, H, rows, ib, t):
        (z0, z1, z2, z3, z4, z5, z6, z7, z8, z9, z10, z11,
         z12, z13, z14, z15, z16, z17) = y
        (a, u1, u2, u3, nv0, nv1, nv2, nw0, nw1, nw2,
         hf0, hf1, hf2, ht0, ht1, ht2) = H
        # held plus deterministic disturbance per channel at a substep's
        # start (a), midpoint (b) and end (c); c carries over to the next a
        if rows is None:
            fxa = fxb = fxc = hf0 + 0.0; fya = fyb = fyc = hf1 + 0.0
            fza = fzb = fzc = hf2 + 0.0; txa = txb = txc = ht0 + 0.0
            tya = tyb = tyc = ht1 + 0.0; tza = tzb = tzc = ht2 + 0.0
            base = (fxa, fya, fza, txa, tya, tza)
        else:
            d0, d1, d2, d3, d4, d5 = rows[ib]
            fxc = hf0 + d0; fyc = hf1 + d1; fzc = hf2 + d2
            txc = ht0 + d3; tyc = ht1 + d4; tzc = ht2 + d5
        tt = t
        for _ in range(n_sub):
            if rows is not None:
                fxa, fya, fza = fxc, fyc, fzc
                txa, tya, tza = txc, tyc, tzc
                d0, d1, d2, d3, d4, d5 = rows[ib + 1]
                fxb = hf0 + d0; fyb = hf1 + d1; fzb = hf2 + d2
                txb = ht0 + d3; tyb = ht1 + d4; tzb = ht2 + d5
                d0, d1, d2, d3, d4, d5 = rows[ib + 2]
                fxc = hf0 + d0; fyc = hf1 + d1; fzc = hf2 + d2
                txc = ht0 + d3; tyc = ht1 + d4; tzc = ht2 + d5
                ib += 2

            # stage 1 at z, time tt
            sph = sin(z6); cph = cos(z6); sth = sin(z7)
            cth = cos(z7); sps = sin(z8); cps = cos(z8)
            cs = cph * sth; abz = a * (cph * cth)
            abx = a * (cs * cps + sph * sps); aby = a * (cs * sps - sph * cps)
            if has_slow:
                fxa, fya, fza, txa, tya, tza = stage_sums(base, tt, (z0, z1, z2))
            ka3 = abx + fxa; ka4 = aby + fya; ka5 = abz - g + fza
            ka6, ka7, ka8 = z9, z10, z11
            if full:  # body rates through the Euler kinematics
                if -1e-6 < cth < 1e-6: cth = 1e-6 if cth >= 0.0 else -1e-6
                swq = sph * z10 + cph * z11
                ka6 = z9 + sth / cth * swq; ka7 = cph * z10 - sph * z11; ka8 = swq / cth
            ka9 = c1 * z10 * z11 + u1 + txa; ka10 = c2 * z9 * z11 + u2 + tya
            ka11 = c3 * z9 * z10 + u3 + tza
            sb3 = z3 + h2 * ka3; sb4 = z4 + h2 * ka4; sb5 = z5 + h2 * ka5
            sb6 = z6 + h2 * ka6; sb7 = z7 + h2 * ka7; sb8 = z8 + h2 * ka8
            sb9 = z9 + h2 * ka9; sb10 = z10 + h2 * ka10; sb11 = z11 + h2 * ka11
            if hgdo:
                mp = z9 + nw0; mq = z10 + nw1; mr = z11 + nw2
                ka12 = nie1 * (z12 + (z3 + nv0) * ie1 + abx)
                ka13 = nie1 * (z13 + (z4 + nv1) * ie1 + aby)
                ka14 = nie1 * (z14 + (z5 + nv2) * ie1 + abz - g)
                ka15 = nie2 * (z15 + mp * ie2 + c1 * mq * mr + u1)
                ka16 = nie2 * (z16 + mq * ie2 + c2 * mp * mr + u2)
                ka17 = nie2 * (z17 + mr * ie2 + c3 * mp * mq + u3)
                sb12 = z12 + h2 * ka12; sb13 = z13 + h2 * ka13; sb14 = z14 + h2 * ka14
                sb15 = z15 + h2 * ka15; sb16 = z16 + h2 * ka16; sb17 = z17 + h2 * ka17

            # stage 2 at sb, time tt + h/2
            sph = sin(sb6); cph = cos(sb6); sth = sin(sb7)
            cth = cos(sb7); sps = sin(sb8); cps = cos(sb8)
            cs = cph * sth; abz = a * (cph * cth)
            abx = a * (cs * cps + sph * sps); aby = a * (cs * sps - sph * cps)
            if has_slow:
                fxb, fyb, fzb, txb, tyb, tzb = stage_sums(
                    base, tt + h2, (z0 + h2 * z3, z1 + h2 * z4, z2 + h2 * z5))
            kb3 = abx + fxb; kb4 = aby + fyb; kb5 = abz - g + fzb
            kb6, kb7, kb8 = sb9, sb10, sb11
            if full:
                if -1e-6 < cth < 1e-6: cth = 1e-6 if cth >= 0.0 else -1e-6
                swq = sph * sb10 + cph * sb11
                kb6 = sb9 + sth / cth * swq; kb7 = cph * sb10 - sph * sb11; kb8 = swq / cth
            kb9 = c1 * sb10 * sb11 + u1 + txb; kb10 = c2 * sb9 * sb11 + u2 + tyb
            kb11 = c3 * sb9 * sb10 + u3 + tzb
            sc3 = z3 + h2 * kb3; sc4 = z4 + h2 * kb4; sc5 = z5 + h2 * kb5
            sc6 = z6 + h2 * kb6; sc7 = z7 + h2 * kb7; sc8 = z8 + h2 * kb8
            sc9 = z9 + h2 * kb9; sc10 = z10 + h2 * kb10; sc11 = z11 + h2 * kb11
            if hgdo:
                mp = sb9 + nw0; mq = sb10 + nw1; mr = sb11 + nw2
                kb12 = nie1 * (sb12 + (sb3 + nv0) * ie1 + abx)
                kb13 = nie1 * (sb13 + (sb4 + nv1) * ie1 + aby)
                kb14 = nie1 * (sb14 + (sb5 + nv2) * ie1 + abz - g)
                kb15 = nie2 * (sb15 + mp * ie2 + c1 * mq * mr + u1)
                kb16 = nie2 * (sb16 + mq * ie2 + c2 * mp * mr + u2)
                kb17 = nie2 * (sb17 + mr * ie2 + c3 * mp * mq + u3)
                sc12 = z12 + h2 * kb12; sc13 = z13 + h2 * kb13; sc14 = z14 + h2 * kb14
                sc15 = z15 + h2 * kb15; sc16 = z16 + h2 * kb16; sc17 = z17 + h2 * kb17

            # stage 3 at sc, time tt + h/2
            sph = sin(sc6); cph = cos(sc6); sth = sin(sc7)
            cth = cos(sc7); sps = sin(sc8); cps = cos(sc8)
            cs = cph * sth; abz = a * (cph * cth)
            abx = a * (cs * cps + sph * sps); aby = a * (cs * sps - sph * cps)
            if has_slow:
                fxb, fyb, fzb, txb, tyb, tzb = stage_sums(
                    base, tt + h2, (z0 + h2 * sb3, z1 + h2 * sb4, z2 + h2 * sb5))
            kc3 = abx + fxb; kc4 = aby + fyb; kc5 = abz - g + fzb
            kc6, kc7, kc8 = sc9, sc10, sc11
            if full:
                if -1e-6 < cth < 1e-6: cth = 1e-6 if cth >= 0.0 else -1e-6
                swq = sph * sc10 + cph * sc11
                kc6 = sc9 + sth / cth * swq; kc7 = cph * sc10 - sph * sc11; kc8 = swq / cth
            kc9 = c1 * sc10 * sc11 + u1 + txb; kc10 = c2 * sc9 * sc11 + u2 + tyb
            kc11 = c3 * sc9 * sc10 + u3 + tzb
            sd3 = z3 + h * kc3; sd4 = z4 + h * kc4; sd5 = z5 + h * kc5
            sd6 = z6 + h * kc6; sd7 = z7 + h * kc7; sd8 = z8 + h * kc8
            sd9 = z9 + h * kc9; sd10 = z10 + h * kc10; sd11 = z11 + h * kc11
            if hgdo:
                mp = sc9 + nw0; mq = sc10 + nw1; mr = sc11 + nw2
                kc12 = nie1 * (sc12 + (sc3 + nv0) * ie1 + abx)
                kc13 = nie1 * (sc13 + (sc4 + nv1) * ie1 + aby)
                kc14 = nie1 * (sc14 + (sc5 + nv2) * ie1 + abz - g)
                kc15 = nie2 * (sc15 + mp * ie2 + c1 * mq * mr + u1)
                kc16 = nie2 * (sc16 + mq * ie2 + c2 * mp * mr + u2)
                kc17 = nie2 * (sc17 + mr * ie2 + c3 * mp * mq + u3)
                sd12 = z12 + h * kc12; sd13 = z13 + h * kc13; sd14 = z14 + h * kc14
                sd15 = z15 + h * kc15; sd16 = z16 + h * kc16; sd17 = z17 + h * kc17

            # stage 4 at sd, time tt + h
            sph = sin(sd6); cph = cos(sd6); sth = sin(sd7)
            cth = cos(sd7); sps = sin(sd8); cps = cos(sd8)
            cs = cph * sth; abz = a * (cph * cth)
            abx = a * (cs * cps + sph * sps); aby = a * (cs * sps - sph * cps)
            if has_slow:
                fxc, fyc, fzc, txc, tyc, tzc = stage_sums(
                    base, tt + h, (z0 + h * sc3, z1 + h * sc4, z2 + h * sc5))
            kd3 = abx + fxc; kd4 = aby + fyc; kd5 = abz - g + fzc
            kd6, kd7, kd8 = sd9, sd10, sd11
            if full:
                if -1e-6 < cth < 1e-6: cth = 1e-6 if cth >= 0.0 else -1e-6
                swq = sph * sd10 + cph * sd11
                kd6 = sd9 + sth / cth * swq; kd7 = cph * sd10 - sph * sd11; kd8 = swq / cth
            kd9 = c1 * sd10 * sd11 + u1 + txc; kd10 = c2 * sd9 * sd11 + u2 + tyc
            kd11 = c3 * sd9 * sd10 + u3 + tzc
            if hgdo:
                mp = sd9 + nw0; mq = sd10 + nw1; mr = sd11 + nw2
                kd12 = nie1 * (sd12 + (sd3 + nv0) * ie1 + abx)
                kd13 = nie1 * (sd13 + (sd4 + nv1) * ie1 + aby)
                kd14 = nie1 * (sd14 + (sd5 + nv2) * ie1 + abz - g)
                kd15 = nie2 * (sd15 + mp * ie2 + c1 * mq * mr + u1)
                kd16 = nie2 * (sd16 + mq * ie2 + c2 * mp * mr + u2)
                kd17 = nie2 * (sd17 + mr * ie2 + c3 * mp * mq + u3)

            # positions first: they read the old velocities
            z0 += h6 * (z3 + 2.0 * (sb3 + sc3) + sd3)
            z1 += h6 * (z4 + 2.0 * (sb4 + sc4) + sd4)
            z2 += h6 * (z5 + 2.0 * (sb5 + sc5) + sd5)
            z3 += h6 * (ka3 + 2.0 * (kb3 + kc3) + kd3)
            z4 += h6 * (ka4 + 2.0 * (kb4 + kc4) + kd4)
            z5 += h6 * (ka5 + 2.0 * (kb5 + kc5) + kd5)
            z6 += h6 * (ka6 + 2.0 * (kb6 + kc6) + kd6)
            z7 += h6 * (ka7 + 2.0 * (kb7 + kc7) + kd7)
            z8 += h6 * (ka8 + 2.0 * (kb8 + kc8) + kd8)
            z9 += h6 * (ka9 + 2.0 * (kb9 + kc9) + kd9)
            z10 += h6 * (ka10 + 2.0 * (kb10 + kc10) + kd10)
            z11 += h6 * (ka11 + 2.0 * (kb11 + kc11) + kd11)
            if hgdo:
                z12 += h6 * (ka12 + 2.0 * (kb12 + kc12) + kd12)
                z13 += h6 * (ka13 + 2.0 * (kb13 + kc13) + kd13)
                z14 += h6 * (ka14 + 2.0 * (kb14 + kc14) + kd14)
                z15 += h6 * (ka15 + 2.0 * (kb15 + kc15) + kd15)
                z16 += h6 * (ka16 + 2.0 * (kb16 + kc16) + kd16)
                z17 += h6 * (ka17 + 2.0 * (kb17 + kc17) + kd17)
            tt += h
        return (z0, z1, z2, z3, z4, z5, z6, z7, z8, z9, z10, z11,
                z12, z13, z14, z15, z16, z17)

    return advance


def build_tick(cfg: ScenarioConfig, p: VehicleParams, gn: SmcGains, data: np.ndarray,
               slow, filters):
    """Return (tick, state0): the control work of one base step, and the
    state the first step starts from.

    tick(k, t, y, H, rows, ib, flags, state) -> state runs base step k on
    the 18-float state y: observer, outer loop on every outer_divisor-th
    step, inner loop, torque clamps and allocation. It reads the held noise
    and stochastic draws from H[4:16], writes row k of data, and puts the
    applied thrust and torques per unit mass and inertia in H[0:4] for the
    kernel. flags carry over from the step before; the d*_true columns
    read rows[ib], or slow when rows is None. state is (d1_naive, d2_naive,
    mt, mf, outer_flags, pos_d, vel_d, u1, sp): the naive observer's
    estimates and raw and low-passed model terms, then what the outer loop
    holds between its ticks. The six filters of differentiators() are
    stepped in place.
    """
    dt = cfg.dt
    outer_div = cfg.outer_divisor
    dt_outer = dt * outer_div
    m, g = p.m, p.g
    jx, jy, jz = p.jx, p.jy, p.jz
    c1 = (jy - jz) / jx
    c2 = (jz - jx) / jy
    c3 = (jx - jy) / jz
    eps1, eps2 = cfg.epsilon1, cfg.epsilon2
    ie1 = 1.0 / eps1
    ie2 = 1.0 / eps2
    use_hgdo = cfg.observer == "hgdo"
    use_naive = cfg.observer == "naive"
    capx, capy, capz = (float(v) for v in gn.torque_cap(p))
    thrust_cap = gn.thrust_cap(p)
    lam10, lam11, lam12 = (float(v) for v in gn.lam1)
    lam20, lam21, lam22 = (float(v) for v in gn.lam2)
    trajectory = cfg.trajectory
    allocate = cfg.allocate
    sfx, sfy, sfz, stx, sty, stz = slow
    fd_vel, fd_rate, ref_vel, ref_acc, sp_rate, sp_acc = filters
    # the model terms go through the same low-pass as the finite differences;
    # without the matched lag, fast angular-acceleration content fails to
    # cancel between the two forcing paths and feeds back into the torque
    # (mt* are the raw terms, mf* the filtered ones: a * mf + (1 - a) * mt)
    alpha = 5.0 / 6.0
    beta = 1.0 - alpha
    sin = math.sin
    cos = math.cos

    def tick(k, t, y, H, rows, ib, flags, state):
        d1_naive, d2_naive, mt, mf, outer_flags, pos_d, vel_d, u1, sp = state
        px, py, pz, vx, vy, vz, ph, th, ps, wp, wq, wr = y[0:12]
        _, _, _, _, n0, n1, n2, n3, n4, n5, hf0, hf1, hf2, ht0, ht1, ht2 = H
        vmx = vx + n0
        vmy = vy + n1
        vmz = vz + n2
        rmp = wp + n3
        rmq = wq + n4
        rmr = wr + n5
        f2x = c1 * rmq * rmr
        f2y = c2 * rmp * rmr
        f2z = c3 * rmp * rmq

        if use_hgdo:
            d1_hat = (y[12] + vmx * ie1, y[13] + vmy * ie1, y[14] + vmz * ie1)
            d2_hat = (y[15] + rmp * ie2, y[16] + rmq * ie2, y[17] + rmr * ie2)
        elif use_naive:
            mt1x, mt1y, mt1z, mt2x, mt2y, mt2z = mt
            mf1x, mf1y, mf1z, mf2x, mf2y, mf2z = mf
            mf1x = alpha * mf1x + beta * mt1x
            mf1y = alpha * mf1y + beta * mt1y
            mf1z = alpha * mf1z + beta * mt1z
            mf2x = alpha * mf2x + beta * mt2x
            mf2y = alpha * mf2y + beta * mt2y
            mf2z = alpha * mf2z + beta * mt2z
            mf = (mf1x, mf1y, mf1z, mf2x, mf2y, mf2z)
            d1_hat = d1_naive = naive_hgdo_step(
                d1_naive, fd_vel.step((vmx, vmy, vmz), dt), (mf1x, mf1y, mf1z), eps1, dt)
            d2_hat = d2_naive = naive_hgdo_step(
                d2_naive, fd_rate.step((rmp, rmq, rmr), dt), (mf2x, mf2y, mf2z), eps2, dt)
        else:
            d1_hat = d2_hat = (0.0, 0.0, 0.0)

        if k % outer_div == 0:
            outer_flags = 0
            pos_d = tuple(map(float, trajectory.position(t)))
            psi_d = trajectory.yaw(t)
            vel_d = ref_vel.step(pos_d, dt_outer)
            acc_d = ref_acc.step(vel_d, dt_outer)
            u1, clamped = outer_loop((px, py, pz), (vmx, vmy, vmz),
                                     pos_d, vel_d, acc_d, d1_hat, gn, p)
            if clamped:
                outer_flags |= FLAG_OUTER_CLAMP
            if u1[2] < gn.uz_min:
                u1 = (u1[0], u1[1], float(gn.uz_min))
                outer_flags |= FLAG_UZ_FLOOR
            sp = extract_attitude(u1, psi_d, gn, p)
            sp.rates = sp_rate.step(sp.angles, dt_outer)
            sp.accels = sp_acc.step(sp.rates, dt_outer)
            assert sp.thrust <= thrust_cap * (1.0 + 1e-9) + 1e-12
        flags |= outer_flags
        pd0, pd1, pd2 = pos_d
        vd0, vd1, vd2 = vel_d
        spa0, spa1, spa2 = sp.angles
        sr0, sr1, sr2 = sp.rates
        thrust_cmd = sp.thrust

        u20, u21, u22 = inner_loop((ph, th, ps), (rmp, rmq, rmr), sp, d2_hat,
                                   (f2x, f2y, f2z), gn)
        tcx = jx * u20
        tcy = jy * u21
        tcz = jz * u22
        if tcx > capx: tcx = capx; flags |= FLAG_TORQUE_CLAMP
        elif tcx < -capx: tcx = -capx; flags |= FLAG_TORQUE_CLAMP
        if tcy > capy: tcy = capy; flags |= FLAG_TORQUE_CLAMP
        elif tcy < -capy: tcy = -capy; flags |= FLAG_TORQUE_CLAMP
        if tcz > capz: tcz = capz; flags |= FLAG_TORQUE_CLAMP
        elif tcz < -capz: tcz = -capz; flags |= FLAG_TORQUE_CLAMP
        rotors = allocate_rotors(WrenchCommand(thrust_cmd, (tcx, tcy, tcz)), p)
        om0, om1, om2, om3 = rotors.omega
        if allocate:
            if rotors.saturated:
                flags |= FLAG_ROTOR_SAT
            applied = rotor_wrench(rotors.omega, p)
            thrust_act = applied.thrust
            ta0, ta1, ta2 = applied.torque
        else:
            thrust_act = thrust_cmd
            ta0, ta1, ta2 = tcx, tcy, tcz

        if use_naive:
            # forcing the next naive update integrates over [t, t+dt]
            sph, cph = sin(ph), cos(ph)
            sth, cth = sin(th), cos(th)
            sps, cps = sin(ps), cos(ps)
            a_act = thrust_act / m
            mt = (-a_act * (cph * sth * cps + sph * sps),
                  -a_act * (cph * sth * sps - sph * cps),
                  g - a_act * cph * cth,
                  -f2x - ta0 / jx, -f2y - ta1 / jy, -f2z - ta2 / jz)

        e1x = pd0 - px
        e1y = pd1 - py
        e1z = pd2 - pz
        ed1x = vd0 - vmx
        ed1y = vd1 - vmy
        ed1z = vd2 - vmz
        s1x = ed1x + lam10 * e1x
        s1y = ed1y + lam11 * e1y
        s1z = ed1z + lam12 * e1z
        e2x = spa0 - ph
        e2y = spa1 - th
        e2z = wrap_angle(spa2 - ps)
        ed2x = sr0 - rmp
        ed2y = sr1 - rmq
        ed2z = sr2 - rmr
        s2x = ed2x + lam20 * e2x
        s2y = ed2y + lam21 * e2y
        s2z = ed2z + lam22 * e2z

        if rows is not None:
            d0, d1, d2, d3, d4, d5 = rows[ib]
            d1tx = hf0 + d0
            d1ty = hf1 + d1
            d1tz = hf2 + d2
            d2tx = ht0 + d3
            d2ty = ht1 + d4
            d2tz = ht2 + d5
        else:
            pos = (px, py, pz)
            d1tx = hf0 + (sfx(t, pos) if sfx is not None else 0.0)
            d1ty = hf1 + (sfy(t, pos) if sfy is not None else 0.0)
            d1tz = hf2 + (sfz(t, pos) if sfz is not None else 0.0)
            d2tx = ht0 + (stx(t, pos) if stx is not None else 0.0)
            d2ty = ht1 + (sty(t, pos) if sty is not None else 0.0)
            d2tz = ht2 + (stz(t, pos) if stz is not None else 0.0)
        dd1x = d1tx - d1_hat[0]
        dd1y = d1ty - d1_hat[1]
        dd1z = d1tz - d1_hat[2]
        dd2x = d2tx - d2_hat[0]
        dd2y = d2ty - d2_hat[1]
        dd2z = d2tz - d2_hat[2]
        lyap = 0.5 * ((s1x * s1x + s1y * s1y + s1z * s1z)
                      + (s2x * s2x + s2y * s2y + s2z * s2z)
                      + (dd1x * dd1x + dd1y * dd1y + dd1z * dd1z)
                      + (dd2x * dd2x + dd2y * dd2y + dd2z * dd2z))

        data[k] = (
            t, px, py, pz, vx, vy, vz, ph, th, ps, wp, wq, wr,
            pd0, pd1, pd2, spa0, spa1, spa2,
            e1x, e1y, e1z, ed1x, ed1y, ed1z,
            e2x, e2y, e2z, ed2x, ed2y, ed2z,
            s1x, s1y, s1z, s2x, s2y, s2z,
            d1tx, d1ty, d1tz, d2tx, d2ty, d2tz,
            d1_hat[0], d1_hat[1], d1_hat[2], d2_hat[0], d2_hat[1], d2_hat[2],
            u1[0], u1[1], u1[2], u20, u21, u22,
            thrust_act, ta0, ta1, ta2, om0, om1, om2, om3,
            vmx, vmy, vmz, rmp, rmq, rmr,
            float(flags), lyap,
        )
        H[0] = thrust_act / m
        H[1] = ta0 / jx
        H[2] = ta1 / jy
        H[3] = ta2 / jz
        return d1_naive, d2_naive, mt, mf, outer_flags, pos_d, vel_d, u1, sp

    state = (tuple(float(v) for v in cfg.d_hat0_force),
             tuple(float(v) for v in cfg.d_hat0_torque),
             (0.0,) * 6, (0.0,) * 6, 0, (0.0,) * 3, (0.0,) * 3, (0.0, 0.0, g),
             AttitudeSetpoint((0.0, 0.0, 0.0), p.hover_thrust))
    return tick, state


def run_scenario(cfg: ScenarioConfig, params: VehicleParams | None = None,
                 gains: SmcGains | None = None) -> SimTrace:
    """Simulate one scenario and return its trace.

    Raises Diverged (with the rows recorded so far attached) if the state
    leaves the flight envelope or stops being finite.

    Besides the settings of the run, trace.meta carries wall_time and the
    work counters: base_steps, rk4_substeps, rhs_calls (4 per substep),
    outer_ticks and pregrid_rows (rows of the deterministic disturbance
    grid, 2 * n_sub * base_steps + 1, or 0 when the run builds none). On a
    Diverged trace they count the steps taken, the diverging one included;
    pregrid_rows still counts the whole grid, built before the first step.

    Everything that runs once per tick (observer, controller, allocation)
    works on Python floats and float tuples, in a fixed operation order:
    the traces depend on every bit of it.

    Besides the trace, a run holds its pre-evaluated disturbance grid and
    its held table (measurement noise and stochastic draws) as float64
    arrays, and as Python floats only the rows of the block of _BLOCK (256)
    base steps it is stepping through; adjacent grid blocks share their
    boundary row. The config is only read.
    """
    p = params or cfg.vehicle or MICRO_QUAD
    gn = gains or cfg.gains or DEFAULT_GAINS
    wall_start = time.perf_counter()

    dt = cfg.dt
    n_base = int(round(cfg.duration / dt))
    n_sub = cfg.n_substeps()
    outer_div = cfg.outer_divisor

    held = held_table(cfg, n_base)
    grid, slow = pregrid(cfg, n_sub, n_base)
    advance = build_stepper(cfg, p, n_sub, dt / n_sub, slow)
    data = np.empty((n_base + 1, len(TRACE_COLUMNS)))
    tick, state = build_tick(cfg, p, gn, data, slow, differentiators(cfg))

    # state tuple: pos, vel, att, rate, gamma1, gamma2
    g1 = hgdo_init(cfg.vel0, cfg.epsilon1, cfg.d_hat0_force)
    g2 = hgdo_init(cfg.rate0, cfg.epsilon2, cfg.d_hat0_torque)
    y = tuple(float(v) for v in (*cfg.pos0, *cfg.vel0, *cfg.att0, *cfg.rate0, *g1, *g2))
    # held across one base step for the RK4 stages:
    # [a_thrust, tau_x/jx, tau_y/jy, tau_z/jz, 6x noise, 3x stoch force, 3x stoch torque]
    H = [0.0] * 16

    meta = {
        "name": cfg.name, "seed": cfg.seed, "dt": dt, "duration": cfg.duration,
        "outer_divisor": outer_div, "substeps": n_sub, "epsilon1": cfg.epsilon1,
        "epsilon2": cfg.epsilon2, "observer": cfg.observer, "plant": cfg.plant,
        "noise_power": cfg.noise_power, "allocate": cfg.allocate,
    }

    def finish(steps, rows):
        """Stamp wall time and work counters on meta. An outer tick ran on
        every outer_div-th recorded row, starting at row 0."""
        meta["wall_time"] = time.perf_counter() - wall_start
        meta["counters"] = {
            "base_steps": steps, "rk4_substeps": steps * n_sub,
            "rhs_calls": 4 * n_sub * steps,
            "outer_ticks": (rows + outer_div - 1) // outer_div,
            "pregrid_rows": len(grid) if grid is not None else 0,
        }

    def partial(k, message):
        # rows 0..k-1 are recorded and the step out of row k-1 was taken
        finish(k, k)
        return Diverged(message, SimTrace(data[:k].copy(), meta, cfg))

    carry = 0
    twon = 2 * n_sub
    k_next = 0    # first base step of the next block
    for k in range(n_base + 1):
        t = k * dt
        if k == k_next:
            rows = held_rows = None    # free one block before converting the next
            k0 = k
            k_next = k + _BLOCK
            if grid is not None:
                rows = grid[k * twon:k_next * twon + 1].tolist()
            if held is not None:
                held_rows = held[k:k_next].tolist()
        ib = (k - k0) * twon
        if held is not None:
            H[4:16] = held_rows[k - k0]
        state = tick(k, t, y, H, rows, ib, carry, state)
        if k == n_base:
            break

        y = advance(y, H, rows, ib, t)

        total = math.fsum(y[0:12])
        if not math.isfinite(total):
            raise partial(k + 1, f"non-finite state at t={t + dt:.3f}")
        if (abs(y[0]) > _DIVERGE_POS or abs(y[1]) > _DIVERGE_POS
                or abs(y[2]) > _DIVERGE_POS):
            raise partial(k + 1, f"position left the envelope at t={t + dt:.3f}")
        if (abs(y[3]) > _DIVERGE_VEL or abs(y[4]) > _DIVERGE_VEL
                or abs(y[5]) > _DIVERGE_VEL):
            raise partial(k + 1, f"velocity left the envelope at t={t + dt:.3f}")
        if (abs(y[9]) > _DIVERGE_RATE or abs(y[10]) > _DIVERGE_RATE
                or abs(y[11]) > _DIVERGE_RATE):
            raise partial(k + 1, f"body rate left the envelope at t={t + dt:.3f}")

        ph, th, ps = y[6], y[7], y[8]
        carry = 0
        if abs(th) > PITCH_LIMIT:
            th = PITCH_LIMIT if th > 0.0 else -PITCH_LIMIT
            carry = FLAG_PITCH_CLAMP
        if abs(ph) > math.pi or abs(ps) > math.pi:
            ph = wrap_angle(ph)
            ps = wrap_angle(ps)
        if ph != y[6] or th != y[7] or ps != y[8]:
            y = y[0:6] + (ph, th, ps) + y[9:18]

    finish(n_base, n_base + 1)
    return SimTrace(data, meta, cfg)
