"""High-gain disturbance observers for the canonical quadrotor form.

The auxiliary-variable observer keeps gamma = d_hat - x/epsilon as its state,
so stepping it needs only the measured velocity-level state and the applied
input, never a state derivative:

    gamma_dot = -(1/eps) * (gamma + x/eps) + (1/eps) * (model terms)
    d_hat     = gamma + x/eps

Against the true disturbance this behaves as a first-order lag with time
constant epsilon. A derivative-based variant of the same filter is included
for comparison; it has to differentiate the measurement and amplifies its
noise accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .integrate import NonFinite, rk4_step


class NonPositiveEpsilon(ValueError):
    """Observer bandwidth parameter must be strictly positive."""


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise NonPositiveEpsilon(f"epsilon must be > 0, got {epsilon}")
    return epsilon


@dataclass
class HgdoState:
    """Auxiliary observer state for one loop (translational or rotational)."""

    gamma: np.ndarray = field(default_factory=lambda: np.zeros(3))
    epsilon: float = 0.01
    loop: str = "translational"


def hgdo_init(x, epsilon: float, d_hat0=None, loop: str = "translational") -> HgdoState:
    """Start the observer so its first reconstruction equals d_hat0 (default 0)."""
    epsilon = _check_epsilon(epsilon)
    x = np.asarray(x, dtype=float)
    if d_hat0 is None:
        d_hat0 = np.zeros_like(x)
    gamma = np.asarray(d_hat0, dtype=float) - x / epsilon
    return HgdoState(gamma, epsilon, loop)


def reconstruct(st: HgdoState, x) -> np.ndarray:
    """Disturbance estimate from the auxiliary state and the current measurement."""
    return st.gamma + np.asarray(x, dtype=float) / st.epsilon


def gamma_dot_trans(gamma, x2, u1vec, epsilon: float, g: float) -> np.ndarray:
    """Auxiliary-state derivative, translational loop."""
    inv = 1.0 / epsilon
    gvec = np.array([0.0, 0.0, g])
    return -inv * (gamma + np.asarray(x2, dtype=float) * inv) + inv * (gvec - np.asarray(u1vec, dtype=float))


def gamma_dot_rot(gamma, x4, f2val, u2vec, epsilon: float) -> np.ndarray:
    """Auxiliary-state derivative, rotational loop."""
    inv = 1.0 / epsilon
    forcing = -np.asarray(f2val, dtype=float) - np.asarray(u2vec, dtype=float)
    return -inv * (gamma + np.asarray(x4, dtype=float) * inv) + inv * forcing


def hgdo_step_trans(st: HgdoState, x2, u1vec, g: float, dt: float) -> HgdoState:
    """Advance the translational observer one step, inputs held over dt."""
    x2 = np.asarray(x2, dtype=float)
    u1vec = np.asarray(u1vec, dtype=float)
    gamma = rk4_step(lambda _t, gm: gamma_dot_trans(gm, x2, u1vec, st.epsilon, g),
                     0.0, st.gamma, dt)
    return HgdoState(gamma, st.epsilon, st.loop)


def hgdo_step_rot(st: HgdoState, x4, f2val, u2vec, dt: float) -> HgdoState:
    """Advance the rotational observer one step, inputs held over dt."""
    x4 = np.asarray(x4, dtype=float)
    f2val = np.asarray(f2val, dtype=float)
    u2vec = np.asarray(u2vec, dtype=float)
    gamma = rk4_step(lambda _t, gm: gamma_dot_rot(gm, x4, f2val, u2vec, st.epsilon),
                     0.0, st.gamma, dt)
    return HgdoState(gamma, st.epsilon, st.loop)


def naive_hgdo_step(d_hat, x_dot, model_term, epsilon: float, dt: float) -> tuple:
    """Derivative-based observer step: d_hat' = (x_dot + model_term - d_hat)/eps.

    model_term is (0,0,g) - u1vec for the translational loop and
    -f2 - u2vec for the rotational one. x_dot is an estimate of the
    velocity-level state derivative; when that estimate comes from finite
    differences of a noisy measurement, the noise passes straight into the
    filter (which is the point of keeping this variant around).

    Takes three equal-length sequences and returns a tuple of floats. Each
    component takes one classical RK4 step on Python floats, with the
    operation order of integrate.rk4_step, so the result is bit-identical to
    rk4_step on the same arrays; raises NonFinite on the same condition.
    """
    epsilon = _check_epsilon(epsilon)
    hdt = 0.5 * dt
    w = dt / 6.0
    out = []
    for y, xd, mt in zip(d_hat, x_dot, model_term):
        y = float(y)
        forcing = float(xd) + float(mt)
        k1 = (forcing - y) / epsilon
        k2 = (forcing - (y + hdt * k1)) / epsilon
        k3 = (forcing - (y + hdt * k2)) / epsilon
        k4 = (forcing - (y + dt * k3)) / epsilon
        y = y + w * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(y):
            raise NonFinite("non-finite state after step at t=0.0")
        out.append(y)
    return tuple(out)


class DerivativeFilter:
    """Finite-difference derivative smoothed by a first-order low-pass.

    The first call returns zero (no history yet). tau is the filter time
    constant; the engine uses 5x its measurement interval. step takes a
    sequence of `size` numbers and returns a tuple of floats; the state is
    kept as tuples. The low-pass weights are cached for the last dt and
    tau, and size 3 (every filter the engine runs) is written out, in the
    operation order of the general path.
    """

    def __init__(self, tau: float, size: int = 3):
        if tau <= 0.0:
            raise ValueError("tau must be positive")
        self.tau = float(tau)
        self._size = size
        self._zero = (0.0,) * size
        self._prev = None
        self._est = self._zero
        self._dt = self._tau = None   # the (dt, tau) the cached weights belong to

    def reset(self):
        self._prev = None
        self._est = self._zero

    def step(self, x, dt: float) -> tuple:
        if dt != self._dt or self.tau != self._tau:
            self._dt = dt
            self._tau = self.tau
            self._alpha = self.tau / (self.tau + dt)
            self._beta = 1.0 - self._alpha
        alpha = self._alpha
        beta = self._beta
        prev = self._prev
        if self._size == 3:
            x0, x1, x2 = x
            x0 = float(x0); x1 = float(x1); x2 = float(x2)
            self._prev = (x0, x1, x2)
            e0, e1, e2 = self._est
            if prev is None:  # no history: the raw difference is zero
                est = (alpha * e0 + beta * 0.0, alpha * e1 + beta * 0.0,
                       alpha * e2 + beta * 0.0)
            else:
                p0, p1, p2 = prev
                est = (alpha * e0 + beta * ((x0 - p0) / dt),
                       alpha * e1 + beta * ((x1 - p1) / dt),
                       alpha * e2 + beta * ((x2 - p2) / dt))
        else:
            self._prev = x = tuple(map(float, x))
            if prev is None:
                est = tuple(alpha * e + beta * 0.0 for e in self._est)
            else:
                est = tuple(alpha * e + beta * ((a - b) / dt)
                            for e, a, b in zip(self._est, x, prev))
        self._est = est
        return est
