"""High-gain disturbance observers for the canonical quadrotor form.

The auxiliary-variable observer keeps gamma = d_hat - x/epsilon as its state,
so stepping it needs only the measured velocity-level state and the applied
input, never a state derivative:

    gamma_dot = -(1/eps) * (gamma + x/eps) + (1/eps) * (model terms)
    d_hat     = gamma + x/eps

Against the true disturbance this behaves as a first-order lag with time
constant epsilon. The engine integrates gamma together with the plant, in
its RK4 kernel (sim.build_stepper); this module starts it. A
derivative-based variant of the same filter is included for comparison; it
has to differentiate the measurement and amplifies its noise accordingly.
"""

from __future__ import annotations

import math

from .integrate import NonFinite


class NonPositiveEpsilon(ValueError):
    """Observer bandwidth parameter must be strictly positive."""


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise NonPositiveEpsilon(f"epsilon must be > 0, got {epsilon}")
    return epsilon


def hgdo_init(x, epsilon: float, d_hat0=(0.0, 0.0, 0.0)) -> tuple:
    """Auxiliary state gamma = d_hat0 - x/epsilon as a tuple of floats, so
    the first estimate gamma + x/epsilon is d_hat0."""
    epsilon = _check_epsilon(epsilon)
    return tuple(float(d) - float(v) / epsilon for d, v in zip(d_hat0, x, strict=True))


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
    """Finite-difference derivative of a 3-vector smoothed by a first-order
    low-pass.

    The first call returns zero (no history yet). tau is the filter time
    constant; the engine uses 5x its measurement interval. step takes any
    3-sequence and returns a tuple of floats; the state is kept as tuples.
    The low-pass weights are cached for the last dt and tau.
    """

    def __init__(self, tau: float):
        if tau <= 0.0:
            raise ValueError("tau must be positive")
        self.tau = float(tau)
        self._prev = None
        self._est = (0.0, 0.0, 0.0)
        self._dt = self._tau = None   # the (dt, tau) the cached weights belong to

    def step(self, x, dt: float) -> tuple:
        if dt != self._dt or self.tau != self._tau:
            self._dt = dt
            self._tau = self.tau
            self._alpha = self.tau / (self.tau + dt)
            self._beta = 1.0 - self._alpha
        alpha = self._alpha
        beta = self._beta
        prev = self._prev
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
        self._est = est
        return est
