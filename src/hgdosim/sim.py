"""Closed-loop simulation engine.

One run couples the full rigid-body plant with the auxiliary-state observer
in a single ODE, integrated by classical RK4. Control runs on two zero-order
holds: the attitude loop at the base rate 1/dt, the position loop every
outer_divisor base steps. Each base step is split into enough sub-steps to
keep the observer's fast mode resolved (sub-step <= epsilon/20), so the
estimation-error dynamics stay at integrator accuracy rather than hold
accuracy.

Deterministic disturbances are evaluated at the RK4 stage times; stochastic
ones draw once per base step and hold, as does measurement noise. The
observer is forced by the thrust and torques actually applied to the plant
(after clamping and, when enabled, rotor allocation), evaluated with the
same stage attitude the plant sees, so the estimate converges to the
injected disturbance and not to an allocation residual.
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
from .disturbances import Signal, Zero
from .integrate import NonFinite, rk4_step  # re-exported for callers
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


def lyapunov_value(s1, s2, d1_err, d2_err):
    """Half the summed squares of both surfaces and both estimate errors."""
    parts = [np.asarray(a, dtype=float) for a in (s1, s2, d1_err, d2_err)]
    return 0.5 * sum((a * a).sum(axis=-1) for a in parts)


def _signal_closure(sig: Signal):
    """Callable (t, pos) -> float for a deterministic signal, or None for Zero."""
    if isinstance(sig, Zero):
        return None
    if sig.needs_position:
        return lambda t, pos, s=sig: s.value(t, pos)
    return lambda t, pos, s=sig: s.value(t)


def _bind_stochastic(signals, seed: int, domain: int):
    for axis, sig in enumerate(signals):
        if sig.stochastic:
            stream_seed = getattr(sig, "seed", None)
            if stream_seed is None:
                stream_seed = axis
            sig.bind(np.random.default_rng(
                np.random.SeedSequence([seed, int(stream_seed), axis, domain])))


def run_scenario(cfg: ScenarioConfig, params: VehicleParams | None = None,
                 gains: SmcGains | None = None) -> SimTrace:
    """Simulate one scenario and return its trace.

    Raises Diverged (with the rows recorded so far attached) if the state
    leaves the flight envelope or stops being finite.

    Besides the settings of the run, trace.meta carries wall_time and the
    work counters: base_steps, rk4_substeps, rhs_calls (4 per substep) and
    outer_ticks. On a Diverged trace they count the steps taken, the
    diverging one included.

    Everything that runs once per tick (observer, controller, allocation)
    works on Python floats and float tuples, in a fixed operation order:
    the traces depend on every bit of it.
    """
    p = params or cfg.vehicle or MICRO_QUAD
    gn = gains or cfg.gains or DEFAULT_GAINS
    wall_start = time.perf_counter()

    dt = cfg.dt
    n_base = int(round(cfg.duration / dt))
    n_sub = cfg.n_substeps()
    h = dt / n_sub
    outer_div = cfg.outer_divisor
    dt_outer = dt * outer_div

    m, g = p.m, p.g
    jx, jy, jz = p.jx, p.jy, p.jz
    c1 = (jy - jz) / jx
    c2 = (jz - jx) / jy
    c3 = (jx - jy) / jz
    ie1 = 1.0 / cfg.epsilon1
    ie2 = 1.0 / cfg.epsilon2
    use_hgdo = cfg.observer == "hgdo"
    use_naive = cfg.observer == "naive"
    tau_cap = gn.torque_cap(p)
    capx, capy, capz = (float(v) for v in tau_cap)
    thrust_cap = gn.thrust_cap(p)

    _bind_stochastic(cfg.force_signals, cfg.seed, 0)
    _bind_stochastic(cfg.torque_signals, cfg.seed, 1)
    stoch_f = [s if s.stochastic else None for s in cfg.force_signals]
    stoch_t = [s if s.stochastic else None for s in cfg.torque_signals]
    have_stoch = any(s is not None for s in stoch_f + stoch_t)

    lam10, lam11, lam12 = (float(v) for v in gn.lam1)
    lam20, lam21, lam22 = (float(v) for v in gn.lam2)

    if cfg.noise_power > 0.0:
        # sample variance, not spectral density: each held sensor sample has
        # variance noise_power regardless of the base rate
        sigma = math.sqrt(cfg.noise_power)
        noise = np.empty((n_base + 1, 6))
        for ch in range(6):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 97, ch]))
            noise[:, ch] = rng.normal(0.0, sigma, n_base + 1)
    else:
        noise = np.zeros((n_base + 1, 6))
    noise_rows = noise.tolist()

    # state tuple: pos, vel, att, rate, gamma1, gamma2
    g1 = hgdo_init(cfg.vel0, cfg.epsilon1, cfg.d_hat0_force).gamma
    g2 = hgdo_init(cfg.rate0, cfg.epsilon2, cfg.d_hat0_torque, loop="rotational").gamma
    y = tuple(float(v) for v in (*cfg.pos0, *cfg.vel0, *cfg.att0, *cfg.rate0, *g1, *g2))

    d1_naive = tuple(float(v) for v in cfg.d_hat0_force)
    d2_naive = tuple(float(v) for v in cfg.d_hat0_torque)
    fd_vel = DerivativeFilter(tau=5.0 * dt, size=3)
    fd_rate = DerivativeFilter(tau=5.0 * dt, size=3)
    # the model terms go through the same low-pass as the finite differences;
    # without the matched lag, fast angular-acceleration content fails to
    # cancel between the two forcing paths and feeds back into the torque
    # (mt* are the raw terms, mf* the filtered ones: a * mf + (1 - a) * mt)
    mt1x = mt1y = mt1z = mt2x = mt2y = mt2z = 0.0
    mf1x = mf1y = mf1z = mf2x = mf2y = mf2z = 0.0
    naive_alpha = 5.0 / 6.0
    naive_beta = 1.0 - naive_alpha

    ref_vel_filter = DerivativeFilter(tau=4.0 * dt_outer, size=3)
    ref_acc_filter = DerivativeFilter(tau=4.0 * dt_outer, size=3)
    sp_rate_filter = DerivativeFilter(tau=4.0 * dt_outer, size=3)
    sp_acc_filter = DerivativeFilter(tau=4.0 * dt_outer, size=3)
    # warm up the reference differentiators on the pre-t=0 stretch of the
    # trajectory so the feedforward is already settled at the first tick
    for j in range(-25, 0):
        pd = cfg.trajectory.position(j * dt_outer)
        ref_acc_filter.step(ref_vel_filter.step(pd, dt_outer), dt_outer)

    # held between outer ticks, which start at k = 0 (the scalars feed the
    # trace and the error math on the base steps in between)
    sp = AttitudeSetpoint((0.0, 0.0, 0.0), p.hover_thrust)
    outer_flags = 0
    pd0 = pd1 = pd2 = vd0 = vd1 = vd2 = 0.0
    spa0 = spa1 = spa2 = sr0 = sr1 = sr2 = 0.0
    u10, u11, u12 = 0.0, 0.0, g
    thrust_cmd = p.hover_thrust

    # held across one base step for the RK4 stages:
    # [a_thrust, tau_x/jx, tau_y/jy, tau_z/jz, 6x noise, 3x stoch force, 3x stoch torque]
    H = [0.0] * 16

    sin = math.sin
    cos = math.cos
    full_plant = cfg.plant == "full"

    # Every RK4 stage lands on the half-substep grid, so pure-time
    # deterministic signals are evaluated for the whole run in one
    # vectorized pass. Position-dependent ones (ground effect) fall back
    # to per-stage closures; the two paths never mix per signal.
    det_all = list(cfg.force_signals) + list(cfg.torque_signals)
    slow = [None] * 6
    grid = None
    if any((not s.stochastic) and s.needs_position for s in det_all):
        for j, s in enumerate(det_all):
            if not s.stochastic:
                slow[j] = _signal_closure(s)
    else:
        cols = None
        for j, s in enumerate(det_all):
            if s.stochastic or isinstance(s, Zero):
                continue
            if cols is None:
                tgrid = np.arange(2 * n_sub * n_base + 1) * (0.5 * h)
                cols = np.zeros((tgrid.size, 6))
            cols[:, j] = s.value(tgrid)
        if cols is not None:
            grid = cols.tolist()
    sfx, sfy, sfz, stx_, sty_, stz_ = slow
    has_slow = any(c is not None for c in slow)
    ZERO6 = (0.0,) * 6

    def rhs(tt, s, dv):
        (px, py, pz, vx, vy, vz, ph, th, ps,
         wp, wq, wr, g1x, g1y, g1z, g2x, g2y, g2z) = s
        sph = sin(ph); cph = cos(ph)
        sth = sin(th); cth = cos(th)
        sps = sin(ps); cps = cos(ps)
        bx = cph * sth * cps + sph * sps
        by = cph * sth * sps - sph * cps
        bz = cph * cth
        a = H[0]
        dfx = H[10] + dv[0]
        dfy = H[11] + dv[1]
        dfz = H[12] + dv[2]
        dtx = H[13] + dv[3]
        dty = H[14] + dv[4]
        dtz = H[15] + dv[5]
        if has_slow:
            pos = (px, py, pz)
            if sfx is not None: dfx += sfx(tt, pos)
            if sfy is not None: dfy += sfy(tt, pos)
            if sfz is not None: dfz += sfz(tt, pos)
            if stx_ is not None: dtx += stx_(tt, pos)
            if sty_ is not None: dty += sty_(tt, pos)
            if stz_ is not None: dtz += stz_(tt, pos)
        vxd = a * bx + dfx
        vyd = a * by + dfy
        vzd = a * bz - g + dfz
        if full_plant:
            # wp..wr are body rates mapped through the Euler kinematics
            if -1e-6 < cth < 1e-6:
                cth = 1e-6 if cth >= 0.0 else -1e-6
            swq = sph * wq + cph * wr
            phd = wp + sth / cth * swq
            thd = cph * wq - sph * wr
            psd = swq / cth
        else:
            phd = wp
            thd = wq
            psd = wr
        wpd = c1 * wq * wr + H[1] + dtx
        wqd = c2 * wp * wr + H[2] + dty
        wrd = c3 * wp * wq + H[3] + dtz
        if use_hgdo:
            mvx = vx + H[4]; mvy = vy + H[5]; mvz = vz + H[6]
            g1xd = -ie1 * (g1x + mvx * ie1 + a * bx)
            g1yd = -ie1 * (g1y + mvy * ie1 + a * by)
            g1zd = -ie1 * (g1z + mvz * ie1 + a * bz - g)
            mwp = wp + H[7]; mwq = wq + H[8]; mwr = wr + H[9]
            g2xd = -ie2 * (g2x + mwp * ie2 + c1 * mwq * mwr + H[1])
            g2yd = -ie2 * (g2y + mwq * ie2 + c2 * mwp * mwr + H[2])
            g2zd = -ie2 * (g2z + mwr * ie2 + c3 * mwp * mwq + H[3])
        else:
            g1xd = g1yd = g1zd = g2xd = g2yd = g2zd = 0.0
        return (vx, vy, vz, vxd, vyd, vzd, phd, thd, psd, wpd, wqd, wrd,
                g1xd, g1yd, g1zd, g2xd, g2yd, g2zd)

    data = np.empty((n_base + 1, len(TRACE_COLUMNS)))
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
        }

    def partial(k, message):
        # rows 0..k-1 are recorded and the step out of row k-1 was taken
        finish(k, k)
        return Diverged(message, SimTrace(data[:k].copy(), meta, cfg))

    carry_flags = 0
    twon = 2 * n_sub
    h2 = 0.5 * h
    h6 = h / 6.0
    trajectory = cfg.trajectory
    allocate = cfg.allocate
    for k in range(n_base + 1):
        t = k * dt
        nk = noise_rows[k]
        px, py, pz, vx, vy, vz, ph, th, ps, wp, wq, wr = y[0:12]
        if have_stoch:
            pos_now = (px, py, pz)
            for ax in range(3):
                H[10 + ax] = stoch_f[ax].advance(t, dt, pos_now) if stoch_f[ax] is not None else 0.0
                H[13 + ax] = stoch_t[ax].advance(t, dt, pos_now) if stoch_t[ax] is not None else 0.0
        H[4:10] = nk

        vmx = vx + nk[0]
        vmy = vy + nk[1]
        vmz = vz + nk[2]
        rmp = wp + nk[3]
        rmq = wq + nk[4]
        rmr = wr + nk[5]
        f2x = c1 * rmq * rmr
        f2y = c2 * rmp * rmr
        f2z = c3 * rmp * rmq

        if use_hgdo:
            d1_hat = (y[12] + vmx * ie1, y[13] + vmy * ie1, y[14] + vmz * ie1)
            d2_hat = (y[15] + rmp * ie2, y[16] + rmq * ie2, y[17] + rmr * ie2)
        elif use_naive:
            mf1x = naive_alpha * mf1x + naive_beta * mt1x
            mf1y = naive_alpha * mf1y + naive_beta * mt1y
            mf1z = naive_alpha * mf1z + naive_beta * mt1z
            mf2x = naive_alpha * mf2x + naive_beta * mt2x
            mf2y = naive_alpha * mf2y + naive_beta * mt2y
            mf2z = naive_alpha * mf2z + naive_beta * mt2z
            d1_hat = d1_naive = naive_hgdo_step(
                d1_naive, fd_vel.step((vmx, vmy, vmz), dt), (mf1x, mf1y, mf1z),
                cfg.epsilon1, dt)
            d2_hat = d2_naive = naive_hgdo_step(
                d2_naive, fd_rate.step((rmp, rmq, rmr), dt), (mf2x, mf2y, mf2z),
                cfg.epsilon2, dt)
        else:
            d1_hat = d2_hat = (0.0, 0.0, 0.0)

        flags = carry_flags
        carry_flags = 0
        if k % outer_div == 0:
            outer_flags = 0
            pd0, pd1, pd2 = pos_d = tuple(map(float, trajectory.position(t)))
            psi_d = trajectory.yaw(t)
            vd0, vd1, vd2 = vel_d = ref_vel_filter.step(pos_d, dt_outer)
            acc_d = ref_acc_filter.step(vel_d, dt_outer)
            (u10, u11, u12), clamped = outer_loop((px, py, pz), (vmx, vmy, vmz),
                                                  pos_d, vel_d, acc_d, d1_hat, gn, p)
            if clamped:
                outer_flags |= FLAG_OUTER_CLAMP
            if u12 < gn.uz_min:
                u12 = float(gn.uz_min)
                outer_flags |= FLAG_UZ_FLOOR
            sp = extract_attitude((u10, u11, u12), psi_d, gn, p)
            sp.rates = sp_rate_filter.step(sp.angles, dt_outer)
            sp.accels = sp_acc_filter.step(sp.rates, dt_outer)
            spa0, spa1, spa2 = sp.angles
            sr0, sr1, sr2 = sp.rates
            thrust_cmd = sp.thrust
            assert thrust_cmd <= thrust_cap * (1.0 + 1e-9) + 1e-12
        flags |= outer_flags

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
            mt1x = -a_act * (cph * sth * cps + sph * sps)
            mt1y = -a_act * (cph * sth * sps - sph * cps)
            mt1z = g - a_act * cph * cth
            mt2x = -f2x - ta0 / jx
            mt2y = -f2y - ta1 / jy
            mt2z = -f2z - ta2 / jz

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

        if grid is not None:
            gr = grid[k * twon]
            d1tx = H[10] + gr[0]
            d1ty = H[11] + gr[1]
            d1tz = H[12] + gr[2]
            d2tx = H[13] + gr[3]
            d2ty = H[14] + gr[4]
            d2tz = H[15] + gr[5]
        else:
            pos_now = (px, py, pz)
            d1tx = H[10] + (sfx(t, pos_now) if sfx is not None else 0.0)
            d1ty = H[11] + (sfy(t, pos_now) if sfy is not None else 0.0)
            d1tz = H[12] + (sfz(t, pos_now) if sfz is not None else 0.0)
            d2tx = H[13] + (stx_(t, pos_now) if stx_ is not None else 0.0)
            d2ty = H[14] + (sty_(t, pos_now) if sty_ is not None else 0.0)
            d2tz = H[15] + (stz_(t, pos_now) if stz_ is not None else 0.0)
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
            u10, u11, u12, u20, u21, u22,
            thrust_act, ta0, ta1, ta2, om0, om1, om2, om3,
            vmx, vmy, vmz, rmp, rmq, rmr,
            float(flags), lyap,
        )
        if k == n_base:
            break

        H[0] = thrust_act / m
        H[1] = ta0 / jx
        H[2] = ta1 / jy
        H[3] = ta2 / jz

        # classical RK4, unrolled: the tuple comprehensions this replaces
        # cost about a third of a run
        kg = k * twon
        tt = t
        for j in range(n_sub):
            if grid is not None:
                ib = kg + 2 * j
                dva = grid[ib]
                dvb = grid[ib + 1]
                dvc = grid[ib + 2]
            else:
                dva = dvb = dvc = ZERO6
            (z0, z1, z2, z3, z4, z5, z6, z7, z8, z9,
             z10, z11, z12, z13, z14, z15, z16, z17) = y
            (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9,
             a10, a11, a12, a13, a14, a15, a16, a17) = rhs(tt, y, dva)
            sb = (z0 + h2 * a0, z1 + h2 * a1, z2 + h2 * a2, z3 + h2 * a3,
                  z4 + h2 * a4, z5 + h2 * a5, z6 + h2 * a6, z7 + h2 * a7,
                  z8 + h2 * a8, z9 + h2 * a9, z10 + h2 * a10, z11 + h2 * a11,
                  z12 + h2 * a12, z13 + h2 * a13, z14 + h2 * a14,
                  z15 + h2 * a15, z16 + h2 * a16, z17 + h2 * a17)
            tm = tt + h2
            (b0, b1, b2, b3, b4, b5, b6, b7, b8, b9,
             b10, b11, b12, b13, b14, b15, b16, b17) = rhs(tm, sb, dvb)
            sc = (z0 + h2 * b0, z1 + h2 * b1, z2 + h2 * b2, z3 + h2 * b3,
                  z4 + h2 * b4, z5 + h2 * b5, z6 + h2 * b6, z7 + h2 * b7,
                  z8 + h2 * b8, z9 + h2 * b9, z10 + h2 * b10, z11 + h2 * b11,
                  z12 + h2 * b12, z13 + h2 * b13, z14 + h2 * b14,
                  z15 + h2 * b15, z16 + h2 * b16, z17 + h2 * b17)
            (c0, c1_, c2_, c3_, c4, c5, c6, c7, c8, c9,
             c10, c11, c12, c13, c14, c15, c16, c17) = rhs(tm, sc, dvb)
            sd = (z0 + h * c0, z1 + h * c1_, z2 + h * c2_, z3 + h * c3_,
                  z4 + h * c4, z5 + h * c5, z6 + h * c6, z7 + h * c7,
                  z8 + h * c8, z9 + h * c9, z10 + h * c10, z11 + h * c11,
                  z12 + h * c12, z13 + h * c13, z14 + h * c14,
                  z15 + h * c15, z16 + h * c16, z17 + h * c17)
            (e0, e1_, e2_, e3, e4, e5, e6, e7, e8, e9,
             e10, e11, e12, e13, e14, e15, e16, e17) = rhs(tt + h, sd, dvc)
            y = (z0 + h6 * (a0 + 2.0 * (b0 + c0) + e0),
                 z1 + h6 * (a1 + 2.0 * (b1 + c1_) + e1_),
                 z2 + h6 * (a2 + 2.0 * (b2 + c2_) + e2_),
                 z3 + h6 * (a3 + 2.0 * (b3 + c3_) + e3),
                 z4 + h6 * (a4 + 2.0 * (b4 + c4) + e4),
                 z5 + h6 * (a5 + 2.0 * (b5 + c5) + e5),
                 z6 + h6 * (a6 + 2.0 * (b6 + c6) + e6),
                 z7 + h6 * (a7 + 2.0 * (b7 + c7) + e7),
                 z8 + h6 * (a8 + 2.0 * (b8 + c8) + e8),
                 z9 + h6 * (a9 + 2.0 * (b9 + c9) + e9),
                 z10 + h6 * (a10 + 2.0 * (b10 + c10) + e10),
                 z11 + h6 * (a11 + 2.0 * (b11 + c11) + e11),
                 z12 + h6 * (a12 + 2.0 * (b12 + c12) + e12),
                 z13 + h6 * (a13 + 2.0 * (b13 + c13) + e13),
                 z14 + h6 * (a14 + 2.0 * (b14 + c14) + e14),
                 z15 + h6 * (a15 + 2.0 * (b15 + c15) + e15),
                 z16 + h6 * (a16 + 2.0 * (b16 + c16) + e16),
                 z17 + h6 * (a17 + 2.0 * (b17 + c17) + e17))
            tt += h

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
        if abs(th) > PITCH_LIMIT:
            th = PITCH_LIMIT if th > 0.0 else -PITCH_LIMIT
            carry_flags |= FLAG_PITCH_CLAMP
        if abs(ph) > math.pi or abs(ps) > math.pi:
            ph = wrap_angle(ph)
            ps = wrap_angle(ps)
        if ph != y[6] or th != y[7] or ps != y[8]:
            y = y[0:6] + (ph, th, ps) + y[9:18]

    finish(n_base, n_base + 1)
    return SimTrace(data, meta, cfg)
