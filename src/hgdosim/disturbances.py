"""Disturbance signal library.

Deterministic test signals (constant, composite sinusoid), stochastic ones
(band-limited white noise, Dryden gusts), a position-dependent
ground-effect proxy, and the derivative L1 integral used by the
estimation-bound check. Deterministic signals evaluate on scalars or arrays.
Stochastic signals hold no run state: draw(n, dt, rng) returns a run's n
samples, one per simulation step, each held over its step. Every signal but
the ground effect is an immutable value; the pure-time deterministic ones
(zero, constant, composite, and their scaled and summed forms) have an
analytic derivative.
"""

from __future__ import annotations

import math
import struct

import numpy as np

FT_PER_M = 3.281


class NonDifferentiable(ValueError):
    """Raised when a derivative integral is requested for a signal without one."""


class Signal:
    """Base class. Subclasses are deterministic unless they say otherwise."""

    stochastic = False
    needs_position = False

    def value(self, t, pos=None):
        raise NotImplementedError

    def derivative(self, t):
        """d/dt of a pure-time signal, on scalars or arrays."""
        raise NonDifferentiable(f"{type(self).__name__} defines no derivative")


def _exact(v):
    # floats compare by their bits, so 0.0 and -0.0 differ
    return struct.pack("<d", v) if isinstance(v, float) else v


class _Spec(Signal):
    """A signal that is a value: immutable, and equal to another of its type
    whose fields are bit-identical, so equal signals can share one evaluation."""

    _fields = ()

    def __init__(self, *values):
        for name, v in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, v)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def _key(self):
        return tuple(_exact(getattr(self, f)) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((type(self), self._key()))


def _zero(t):
    return np.zeros_like(t, dtype=float) if isinstance(t, np.ndarray) else 0.0


class Zero(_Spec):
    def value(self, t, pos=None):
        return _zero(t)

    def derivative(self, t):
        return _zero(t)


class Constant(_Spec):
    _fields = ("level",)

    def __init__(self, level: float):
        super().__init__(float(level))

    def value(self, t, pos=None):
        if isinstance(t, np.ndarray):
            return np.full_like(t, self.level, dtype=float)
        return self.level

    def derivative(self, t):
        return _zero(t)


# (amplitude, angular frequency, time offset) triples of the composite test
# signal, plus a 4.0 offset term; the whole sum is scaled by 0.05. Peak
# magnitude is 0.05 * 12.5 = 0.625.
_COMPOSITE_TERMS = (
    (1.0, 8.0 * math.pi, 0.0),
    (1.0, 2.5 * math.pi, -3.0),
    (1.5, 2.0 * math.pi, 7.0),
    (2.0, 0.4 * math.pi, -9.0),
    (1.0, 0.2 * math.pi, 0.0),
    (0.5, 0.08 * math.pi, 1.0),
    (1.0, 0.07 * math.pi, 1.5),
    (0.5, 0.05 * math.pi, 2.0),
)

COMPOSITE_BOUND = 0.625


class CompositeSinusoid(_Spec):
    """Eight incommensurate sinusoids plus a constant offset, scaled by 0.05.

    Mixes fast terms (4 Hz) down to ~100 s periods so an estimator sees both
    edges of its bandwidth; the offset alone contributes 0.2.
    """

    def value(self, t, pos=None):
        if isinstance(t, np.ndarray):
            acc = np.full_like(t, 4.0, dtype=float)
            for a, w, t0 in _COMPOSITE_TERMS:
                acc = acc + a * np.sin(w * (t + t0))
            return 0.05 * acc
        acc = 4.0
        for a, w, t0 in _COMPOSITE_TERMS:
            acc += a * math.sin(w * (t + t0))
        return 0.05 * acc

    def derivative(self, t):
        if isinstance(t, np.ndarray):
            acc = np.zeros_like(t, dtype=float)
            for a, w, t0 in _COMPOSITE_TERMS:
                acc += (a * w) * np.cos(w * (t + t0))
            return 0.05 * acc
        return 0.05 * sum(a * w * math.cos(w * (t + t0)) for a, w, t0 in _COMPOSITE_TERMS)


class Scaled(_Spec):
    """Pointwise gain on another signal."""

    _fields = ("inner", "gain")

    def __init__(self, inner: Signal, gain: float):
        super().__init__(inner, float(gain))

    @property
    def stochastic(self):
        return self.inner.stochastic

    @property
    def needs_position(self):
        return self.inner.needs_position

    def value(self, t, pos=None):
        return self.gain * self.inner.value(t, pos)

    def derivative(self, t):
        return self.gain * self.inner.derivative(t)

    def draw(self, n, dt, rng):
        return self.gain * self.inner.draw(n, dt, rng)


class Sum(_Spec):
    """Pointwise sum of deterministic signals."""

    _fields = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if any(p.stochastic for p in parts):
            raise ValueError("Sum composes deterministic signals only")
        super().__init__(parts)

    @property
    def needs_position(self):
        return any(p.needs_position for p in self.parts)

    def value(self, t, pos=None):
        return sum(p.value(t, pos) for p in self.parts)

    def derivative(self, t):
        return sum(p.derivative(t) for p in self.parts)


def white_noise(power: float, dt: float, rng, size=None):
    """Band-limited white noise sample(s): N(0, power/dt)."""
    if power < 0.0:
        raise ValueError("noise power must be non-negative")
    if power == 0.0:
        return 0.0 if size is None else np.zeros(size)
    return rng.normal(0.0, math.sqrt(power / dt), size)


class _Stochastic(_Spec):
    """A stochastic signal's spec. seed picks its random stream (None: the
    stream of the channel it drives). It compares by identity, since its
    draws depend on that channel as well as on its fields."""

    stochastic = True
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class WhiteNoise(_Stochastic):
    """Band-limited white noise held over each simulation step."""

    _fields = ("power", "seed")

    def __init__(self, power: float, seed: int | None = None):
        if power < 0.0:
            raise ValueError("noise power must be non-negative")
        super().__init__(float(power), seed)

    def draw(self, n, dt, rng):
        return white_noise(self.power, dt, rng, n)


def _mil_low_altitude(altitude_m: float, wind_speed: float):
    """Low-altitude turbulence scale lengths [m] and intensities [m/s].

    Standard low-altitude forms with the altitude in feet:
    Lw = h, Lu = Lv = h / (0.177 + 0.000823 h)^1.2,
    sigma_w = 0.1 W20, sigma_u = sigma_v = sigma_w / (0.177 + 0.000823 h)^0.4,
    where W20 is the mean wind speed used as the intensity driver.
    """
    if altitude_m <= 0.0:
        raise ValueError("altitude must be positive")
    h = altitude_m * FT_PER_M
    base = 0.177 + 0.000823 * h
    lu = h / base**1.2 / FT_PER_M
    lw = altitude_m
    sigma_w = 0.1 * wind_speed
    sigma_u = sigma_w / base**0.4
    return (lu, lu, lw), (sigma_u, sigma_u, sigma_w)


class DrydenFilter:
    """One shaping filter of the Dryden gust model, discretized at dt.

    Axis 'u' is the one-pole longitudinal filter; 'v' and 'w' are the
    two-pole-one-zero lateral/vertical ones. Driven by unit-PSD white noise
    (discrete variance 1/dt); output is a gust velocity in m/s. The discrete
    (ad, bd, c) realization is exposed so a stationary-variance oracle can be
    computed from the coefficients alone.
    """

    def __init__(self, axis: str, wind_speed: float, altitude: float,
                 airspeed: float, dt: float):
        if axis not in ("u", "v", "w"):
            raise ValueError(f"unknown Dryden axis {axis!r}")
        if airspeed <= 0.0 or dt <= 0.0:
            raise ValueError("airspeed and dt must be positive")
        lengths, sigmas = _mil_low_altitude(altitude, wind_speed)
        idx = "uvw".index(axis)
        length, sigma = lengths[idx], sigmas[idx]
        a = airspeed / length
        self.drive_var = 1.0 / dt
        if axis == "u":
            ad = math.exp(-a * dt)
            self.ad = np.array([[ad]])
            self.bd = np.array([(1.0 - ad) / a])
            self.c = np.array([sigma * math.sqrt(2.0 * airspeed / (math.pi * length))])
        else:
            # A = [[0, 1], [-a^2, -2a]], B = [0, 1]; exact ZOH discretization
            # for the repeated eigenvalue -a.
            ead = math.exp(-a * dt)
            self.ad = ead * np.array([[1.0 + a * dt, dt], [-a * a * dt, 1.0 - a * dt]])
            self.bd = np.array([
                -2.0 / a * self.ad[0, 1] - (self.ad[1, 1] - 1.0) / (a * a),
                self.ad[0, 1],
            ])
            scale = sigma * math.sqrt(3.0 * airspeed / (math.pi * length))
            self.c = scale * np.array([a / math.sqrt(3.0), 1.0])

    def run(self, z) -> np.ndarray:
        """The gust velocities of the filter started at rest and driven by
        z, an array of standard normals, one per step."""
        w = (math.sqrt(self.drive_var) * z).tolist()
        out = []
        if self.ad.shape[0] == 1:
            a00, b0, c0 = float(self.ad[0, 0]), float(self.bd[0]), float(self.c[0])
            x0 = 0.0
            for wk in w:
                x0 = a00 * x0 + b0 * wk
                out.append(c0 * x0)
        else:
            (a00, a01), (a10, a11) = self.ad.tolist()
            b0, b1 = self.bd.tolist()
            c0, c1 = self.c.tolist()
            x0 = x1 = 0.0
            for wk in w:
                x0, x1 = a00 * x0 + a01 * x1 + b0 * wk, a10 * x0 + a11 * x1 + b1 * wk
                out.append(c0 * x0 + c1 * x1)
        return np.array(out)

    def stationary_variance(self) -> float:
        """Output variance implied by the coefficients (discrete Lyapunov sum)."""
        q = np.outer(self.bd, self.bd) * self.drive_var
        p = q.copy()
        m = self.ad.copy()
        for _ in range(200):
            dp = m @ p @ m.T
            p += dp
            m = m @ m
            if np.abs(dp).max() <= 1e-16 * max(1.0, np.abs(p).max()):
                break
        return float(self.c @ p @ self.c)


class DrydenGust(_Stochastic):
    """Dryden gust velocity mapped to an acceleration disturbance.

    accel_gain is the drag-over-mass coupling [1/s] from gust velocity to
    acceleration; zero wind speed gives an identically zero signal. draw
    discretizes the filter at the run's own step.
    """

    _fields = ("axis", "wind_speed", "altitude", "airspeed", "accel_gain", "seed")

    def __init__(self, axis: str, wind_speed: float = 1.11, altitude: float = 0.5,
                 airspeed: float = 2.0, accel_gain: float = 0.5, seed: int | None = None):
        DrydenFilter(axis, wind_speed, altitude, airspeed, 1.0)   # rejects bad parameters
        super().__init__(axis, float(wind_speed), float(altitude), float(airspeed),
                         float(accel_gain), seed)

    def draw(self, n, dt, rng):
        filt = DrydenFilter(self.axis, self.wind_speed, self.altitude, self.airspeed, dt)
        return self.accel_gain * filt.run(rng.standard_normal(n))


class GroundEffect(Signal):
    """Height-dependent upward push: strength * clamp(1 - z/z_ref, 0, 1).

    A synthetic stand-in for near-ground thrust augmentation, full strength at
    z = 0 and fading linearly to nothing at z_ref.
    """

    needs_position = True

    def __init__(self, strength: float = 0.3, z_ref: float = 0.3):
        if z_ref <= 0.0:
            raise ValueError("z_ref must be positive")
        self.strength = float(strength)
        self.z_ref = float(z_ref)

    def value(self, t, pos=None):
        if pos is None:
            raise ValueError("ground effect needs the vehicle position")
        frac = 1.0 - pos[2] / self.z_ref
        return self.strength * min(max(frac, 0.0), 1.0)


def derivative_l1(signal: Signal, t0: float, t1: float, dt: float = 1e-4) -> float:
    """Integral of |d/dt signal| over [t0, t1]: the trapezoid rule on a grid
    of step at most dt, over the signal's analytic derivative.

    Only defined for deterministic, position-free signals with a
    `derivative`; anything else raises NonDifferentiable.
    """
    if signal.stochastic or signal.needs_position:
        raise NonDifferentiable(f"{type(signal).__name__} has no pathwise derivative")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t1 == t0:
        return 0.0
    n = max(2, int(math.ceil((t1 - t0) / dt)))
    ts = np.linspace(t0, t1, n + 1)
    return float(np.trapezoid(np.abs(signal.derivative(ts)), ts))
