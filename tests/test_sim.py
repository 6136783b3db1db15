"""Closed-loop engine tests: determinism, equilibria, refinement, guards."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hgdosim.config import load_scenario
from hgdosim.control import DEFAULT_GAINS
from hgdosim.disturbances import (
    CompositeSinusoid,
    Constant,
    DrydenFilter,
    DrydenGust,
    GroundEffect,
    Signal,
    WhiteNoise,
)
from hgdosim.integrate import rk4_step
from hgdosim.observers import hgdo_init
from hgdosim.quad import MICRO_QUAD, VehicleParams
from hgdosim.sim import (
    FLAG_ROTOR_SAT,
    FLAG_UZ_FLOOR,
    TRACE_COLUMNS,
    Diverged,
    ScenarioConfig,
    SimTrace,
    build_stepper,
    build_tick,
    differentiators,
    noise_table,
    pregrid,
    run_scenario,
)
from hgdosim.trajectories import HoverRamp, Lemniscate

HOLD = np.array([0.0, 0.0, 0.5])
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def hold_cfg(**kw):
    base = dict(name="hold", duration=2.0, dt=0.002, outer_divisor=1,
                trajectory=HoverRamp(target=HOLD.copy()), pos0=HOLD.copy())
    base.update(kw)
    return ScenarioConfig(**base)


def lemniscate_cfg(**kw):
    w = 2.0 * math.pi / 40.0
    base = dict(name="lem", duration=4.0, dt=0.002, outer_divisor=1,
                trajectory=Lemniscate(),
                pos0=np.array([0.0, 0.0, 0.5]),
                vel0=np.array([0.5 * w, 0.5 * w, 0.0]))
    base.update(kw)
    return ScenarioConfig(**base)


class TestTraceShape:
    def test_row_count_and_grid(self):
        tr = run_scenario(hold_cfg(duration=2.0))
        assert len(tr) == 1001
        assert tr.data.shape == (1001, len(TRACE_COLUMNS))
        dt = np.diff(tr.t)
        assert np.allclose(dt, 0.002, rtol=0.0, atol=1e-12)
        assert np.isfinite(tr.data).all()

    def test_column_accessors(self):
        tr = run_scenario(hold_cfg())
        assert tr.col("z").shape == (len(tr),)
        block = tr.cols("ex", "ey", "ez")
        assert block.shape == (len(tr), 3)
        with pytest.raises(KeyError):
            tr.col("no_such_column")

    def test_meta_contents(self):
        tr = run_scenario(hold_cfg(seed=7))
        assert tr.meta["seed"] == 7
        assert tr.meta["observer"] == "hgdo"
        assert tr.meta["wall_time"] > 0.0
        assert tr.config is not None

    def test_work_counters(self):
        # 0.5 s at dt 0.002 is 250 base steps; 2 substeps per step, 4 rhs
        # calls per substep, an outer tick on rows 0, 3, ..., 249
        tr = run_scenario(hold_cfg(duration=0.5, substeps=2, outer_divisor=3))
        steps = len(tr) - 1
        assert steps == 250
        assert tr.meta["counters"] == {
            "base_steps": steps, "rk4_substeps": 2 * steps,
            "rhs_calls": 4 * 2 * steps, "outer_ticks": 84, "pregrid_rows": 0,
        }

    @pytest.mark.parametrize("signals, gridded", [
        ((None, None, Constant(0.5)), True),
        ((CompositeSinusoid(), None, None), True),
        ((None, None, None), False),
        ((None, None, GroundEffect()), False),          # evaluated per stage
        ((DrydenGust("u"), None, None), False),         # held per base step
        ((CompositeSinusoid(), None, GroundEffect()), False),
    ])
    def test_pregrid_rows(self, signals, gridded):
        # the grid holds every half substep: 2 * n_sub rows per base step,
        # plus the final instant
        tr = run_scenario(hold_cfg(duration=0.2, substeps=3, force_signals=signals))
        steps = len(tr) - 1
        want = 2 * 3 * steps + 1 if gridded else 0
        assert tr.meta["counters"]["pregrid_rows"] == want


class TestEquilibrium:
    def test_static_hover_is_preserved(self):
        # On-setpoint start, no disturbance: feedforward is exact and the
        # state should not move at all beyond rounding.
        tr = run_scenario(hold_cfg(duration=10.0))
        assert np.abs(tr.cols("ex", "ey", "ez")).max() <= 1e-6
        assert np.abs(tr.cols("phi", "theta", "psi")).max() <= 1e-9

    def test_hover_thrust_matches_weight(self):
        tr = run_scenario(hold_cfg())
        hover = MICRO_QUAD.m * MICRO_QUAD.g
        assert np.allclose(tr.col("thrust"), hover, rtol=1e-9)

    def test_heavier_vehicle_hovers_at_its_own_weight(self):
        heavy = VehicleParams(m=2.0 * MICRO_QUAD.m, jx=2.0 * MICRO_QUAD.jx,
                              jy=2.0 * MICRO_QUAD.jy, jz=2.0 * MICRO_QUAD.jz,
                              omega_max=2.0 * MICRO_QUAD.omega_max)
        tr = run_scenario(hold_cfg(vehicle=heavy))
        assert np.allclose(tr.col("thrust"), heavy.m * heavy.g, rtol=1e-9)


class TestDeterminism:
    def stochastic_cfg(self, seed):
        return hold_cfg(name="noisy", seed=seed, noise_power=0.01,
                        force_signals=(DrydenGust("u"), DrydenGust("v"), None),
                        outer_divisor=5)

    def test_same_seed_bit_identical(self):
        a = run_scenario(self.stochastic_cfg(3))
        b = run_scenario(self.stochastic_cfg(3))
        assert np.array_equal(a.data, b.data)

    def test_different_seed_differs(self):
        a = run_scenario(self.stochastic_cfg(3))
        b = run_scenario(self.stochastic_cfg(4))
        assert not np.array_equal(a.data, b.data)

    def test_deterministic_run_repeats(self):
        a = run_scenario(lemniscate_cfg())
        b = run_scenario(lemniscate_cfg())
        assert np.array_equal(a.data, b.data)


class TestObserverInLoop:
    def test_step_estimate_matches_filter_theory(self):
        # The observer is forced by the wrench the plant actually receives,
        # so a constant step converges exactly like the first-order filter.
        cfg = hold_cfg(duration=0.2, force_signals=(Constant(0.2), None, None))
        tr = run_scenario(cfg)
        for tk in (0.01, 0.05):
            i = int(round(tk / cfg.dt))
            exact = 0.2 * (1.0 - math.exp(-tr.t[i] / cfg.epsilon1))
            assert tr.col("d1x_hat")[i] == pytest.approx(exact, rel=1e-6)

    def test_none_observer_reports_zero_estimates(self):
        cfg = lemniscate_cfg(observer="none",
                             force_signals=(CompositeSinusoid(), None, None))
        tr = run_scenario(cfg)
        hat = tr.cols("d1x_hat", "d1y_hat", "d1z_hat",
                      "d2x_hat", "d2y_hat", "d2z_hat")
        assert np.all(hat == 0.0)

    def test_naive_observer_tracks_composite(self):
        cfg = lemniscate_cfg(observer="naive",
                             force_signals=(CompositeSinusoid(),
                                            CompositeSinusoid(),
                                            CompositeSinusoid()))
        tr = run_scenario(cfg)
        err = (tr.cols("d1x_true", "d1y_true", "d1z_true")
               - tr.cols("d1x_hat", "d1y_hat", "d1z_hat"))
        assert np.abs(err[-1]).max() < 0.05

    def test_ground_effect_estimated_through_position_path(self):
        cfg = hold_cfg(duration=6.0, trajectory=HoverRamp(target=np.array([0.0, 0.0, 0.2])),
                       pos0=np.array([0.0, 0.0, 0.2]),
                       force_signals=(None, None, GroundEffect()))
        tr = run_scenario(cfg)
        recon = 0.3 * np.clip(1.0 - tr.col("z") / 0.3, 0.0, 1.0)
        assert np.abs(tr.col("d1z_true") - recon).max() <= 1e-12
        assert tr.col("d1z_hat")[-1] == pytest.approx(0.1, abs=1e-4)


class TestRefinementAndAllocation:
    def test_substep_refinement_is_converged(self):
        coarse = run_scenario(lemniscate_cfg(substeps=4))
        fine = run_scenario(lemniscate_cfg(substeps=8))
        dpos = np.abs(coarse.cols("x", "y", "z")[-1] - fine.cols("x", "y", "z")[-1])
        assert dpos.max() <= 1e-5

    def test_allocation_roundtrip_is_transparent(self):
        direct = run_scenario(lemniscate_cfg(allocate=False))
        routed = run_scenario(lemniscate_cfg(allocate=True))
        flags = routed.col("sat_flags").astype(int)
        assert not np.any(flags & FLAG_ROTOR_SAT)
        diff = np.abs(direct.cols("x", "y", "z", "phi", "theta", "psi")
                      - routed.cols("x", "y", "z", "phi", "theta", "psi"))
        assert diff.max() <= 1e-9

    def test_full_plant_stays_close_to_canonical(self):
        kw = dict(name="ramp", duration=6.0, dt=0.002, outer_divisor=1,
                  trajectory=HoverRamp(target=np.array([0.5, 0.5, 0.5]),
                                       ramp_time=3.0),
                  force_signals=(Constant(0.2), Constant(-0.1), Constant(0.1)))
        ca = run_scenario(ScenarioConfig(plant="canonical", **kw))
        fu = run_scenario(ScenarioConfig(plant="full", **kw))
        dpos = np.abs(ca.cols("x", "y", "z") - fu.cols("x", "y", "z")).max()
        assert dpos <= 1e-4
        assert np.abs(fu.cols("ex", "ey", "ez")[-1]).max() <= 5e-3


class TestGuards:
    def test_divergence_returns_partial_trace(self):
        cfg = hold_cfg(duration=10.0, observer="none",
                       force_signals=(None, None, Constant(60.0)))
        with pytest.raises(Diverged) as exc:
            run_scenario(cfg)
        tr = exc.value.trace
        assert isinstance(tr, SimTrace)
        assert 0 < len(tr) < 5001
        assert np.all(np.diff(tr.t) > 0.0)
        assert "wall_time" in tr.meta
        # every recorded row stepped the state once; the last step diverged
        n_sub = tr.meta["substeps"]
        assert tr.meta["counters"] == {
            "base_steps": len(tr), "rk4_substeps": n_sub * len(tr),
            "rhs_calls": 4 * n_sub * len(tr), "outer_ticks": len(tr),
            "pregrid_rows": 2 * n_sub * 5000 + 1,  # built for the whole run
        }

    def test_uz_floor_flag_raised(self):
        # A large upward push drives the vertical demand below the extraction
        # floor once the estimate converges; the engine clamps and flags.
        cfg = hold_cfg(duration=3.0, force_signals=(None, None, Constant(14.0)))
        tr = run_scenario(cfg)
        flags = tr.col("sat_flags").astype(int)
        assert np.any(flags & FLAG_UZ_FLOOR)
        assert np.all(tr.col("thrust") > 0.0)

    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration=-1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(dt=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(outer_divisor=0)
        with pytest.raises(ValueError):
            ScenarioConfig(observer="kalman")
        with pytest.raises(ValueError):
            ScenarioConfig(plant="linear")
        with pytest.raises(ValueError):
            ScenarioConfig(substeps=0)
        with pytest.raises(ValueError):
            ScenarioConfig(noise_power=-0.1)
        with pytest.raises(ValueError):
            ScenarioConfig(epsilon1=0.0)


class TestLyapunov:
    def step_trace(self):
        cfg = hold_cfg(duration=2.0,
                       force_signals=(Constant(0.5), Constant(-0.3), None),
                       torque_signals=(Constant(2.0), None, None))
        return run_scenario(cfg)

    def test_column_matches_recomputation(self):
        tr = self.step_trace()
        s1 = tr.cols("s1x", "s1y", "s1z")
        s2 = tr.cols("s2x", "s2y", "s2z")
        d1 = tr.cols("d1x_true", "d1y_true", "d1z_true") - tr.cols("d1x_hat", "d1y_hat", "d1z_hat")
        d2 = tr.cols("d2x_true", "d2y_true", "d2z_true") - tr.cols("d2x_hat", "d2y_hat", "d2z_hat")
        v = 0.5 * ((s1 * s1).sum(axis=1) + (s2 * s2).sum(axis=1)
                   + (d1 * d1).sum(axis=1) + (d2 * d2).sum(axis=1))
        assert np.allclose(tr.col("lyapunov"), v, rtol=1e-12, atol=1e-15)

    def test_bounded_by_early_peak(self):
        tr = self.step_trace()
        v = tr.col("lyapunov")
        first_second = v[tr.t <= 1.0]
        assert np.all(v <= 10.0 * first_second.max() + 1e-15)

    def test_step_disturbance_energy_decays(self):
        tr = self.step_trace()
        v = tr.col("lyapunov")
        assert v[-1] <= 1e-8 * v.max()

    def test_quadratic_scaling(self):
        # at rest on the setpoint, row 0's only nonzero term is the initial
        # torque-estimate error: V = |d2_hat0|^2 / 2
        one, two = (run_scenario(hold_cfg(duration=0.01, d_hat0_torque=np.full(3, c)))
                    .col("lyapunov")[0] for c in (1.0, 2.0))
        assert one == pytest.approx(1.5)
        assert two == pytest.approx(4.0 * one)


class TestIntegratorOrder:
    def test_rk4_observed_order_on_linear_system(self):
        # Damped rotation with a closed-form solution; Richardson estimate
        # of the global order from successive halvings.
        a, w = 0.2, 1.0

        def f(t, y):
            return np.array([-a * y[0] + w * y[1], -w * y[0] - a * y[1]])

        def exact(t):
            return math.exp(-a * t) * np.array([math.cos(w * t), -math.sin(w * t)])

        def final_error(n):
            h = 1.0 / n
            y = np.array([1.0, 0.0])
            for i in range(n):
                y = rk4_step(f, i * h, y, h)
            return np.linalg.norm(y - exact(1.0))

        e1, e2 = final_error(16), final_error(32)
        order = math.log2(e1 / e2)
        assert order >= 3.8


def reference_rhs(y, H, dist, p, eps1, eps2, full, hgdo):
    """The model's right-hand side on numpy arrays, written from the
    equations: dist is the six-channel deterministic disturbance at the
    stage (force x, y, z, torque x, y, z), added to the held H[10:16]."""
    vel, att, rate = y[3:6], y[6:9], y[9:12]
    a, tau, nv, nw = H[0], H[1:4], H[4:7], H[7:10]
    d = H[10:16] + dist
    ph, th, ps = att
    b = np.array([math.cos(ph) * math.sin(th) * math.cos(ps) + math.sin(ph) * math.sin(ps),
                  math.cos(ph) * math.sin(th) * math.sin(ps) - math.sin(ph) * math.cos(ps),
                  math.cos(ph) * math.cos(th)])
    gvec = np.array([0.0, 0.0, p.g])
    c = np.array([(p.jy - p.jz) / p.jx, (p.jz - p.jx) / p.jy, (p.jx - p.jy) / p.jz])

    def cross_terms(w):
        return c * np.array([w[1] * w[2], w[0] * w[2], w[0] * w[1]])

    if full:
        euler = np.array([
            [1.0, math.sin(ph) * math.tan(th), math.cos(ph) * math.tan(th)],
            [0.0, math.cos(ph), -math.sin(ph)],
            [0.0, math.sin(ph) / math.cos(th), math.cos(ph) / math.cos(th)],
        ])
        att_dot = euler @ rate
    else:
        att_dot = rate
    out = np.concatenate([vel, a * b - gvec + d[:3], att_dot,
                          cross_terms(rate) + tau + d[3:], np.zeros(6)])
    if hgdo:
        mw = rate + nw
        out[12:15] = -(1.0 / eps1) * (y[12:15] + (vel + nv) / eps1 + a * b - gvec)
        out[15:18] = -(1.0 / eps2) * (y[15:18] + mw / eps2 + cross_terms(mw) + tau)
    return out


class TestStepperOracle:
    """One base step of the fused kernel against the generic RK4 over the
    reference right-hand side: the differential oracle for the engine."""

    @pytest.mark.parametrize("plant", ["canonical", "full"])
    @pytest.mark.parametrize("observer", ["hgdo", "none"])
    @pytest.mark.parametrize("disturbance", ["held", "grid", "per_stage"])
    def test_base_step_matches_rk4_reference(self, plant, observer, disturbance):
        rng = np.random.default_rng(11)
        p = MICRO_QUAD
        n_sub, dt, k = 3, 0.002, 4
        h = dt / n_sub
        t = k * dt
        cfg = ScenarioConfig(epsilon1=0.05, epsilon2=0.08, observer=observer,
                             plant=plant, substeps=n_sub)
        rows = slow = None
        ib = k * 2 * n_sub    # the step's first row in the block
        if disturbance == "grid":
            rows = rng.normal(0.0, 1.0, (ib + 2 * n_sub + 1, 6)).tolist()
        if disturbance == "per_stage":
            slow = [None, lambda tt, pos: 0.3 * pos[2] + math.sin(5.0 * tt),
                    None, None, None, lambda tt, pos: pos[0] * pos[1] - tt]
        advance = build_stepper(cfg, p, n_sub, h, slow or [None] * 6)

        def dist(tt, pos):
            if rows is not None:
                return np.array(rows[ib + round((tt - t) / (0.5 * h))])
            if slow is not None:
                return np.array([0.0 if f is None else f(tt, pos) for f in slow])
            return np.zeros(6)

        for _ in range(20):
            y = np.concatenate([rng.uniform(-1.0, 1.0, 6), rng.uniform(-0.5, 0.5, 3),
                                rng.uniform(-2.0, 2.0, 3), rng.uniform(-50.0, 50.0, 6)])
            H = np.concatenate([[rng.uniform(5.0, 15.0)], rng.normal(0.0, 1.0, 3),
                                rng.normal(0.0, 0.1, 6), rng.normal(0.0, 0.5, 6)])
            want = y.copy()
            for j in range(n_sub):
                want = rk4_step(lambda tt, s: reference_rhs(
                    s, H, dist(tt, s[:3]), p, cfg.epsilon1, cfg.epsilon2,
                    plant == "full", observer == "hgdo"), t + j * h, want, h)
            got = advance(tuple(y.tolist()), H.tolist(), rows, ib, t)
            assert type(got) is tuple and len(got) == 18
            assert all(type(v) is float for v in got)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            if observer != "hgdo":   # nothing reads gamma, so it is not integrated
                assert got[12:] == tuple(y[12:].tolist())


class TestSetup:
    """The once-per-run set-up: the disturbance pre-grid and the noise table."""

    def test_pregrid_equal_signals_share_the_first_column(self):
        calls = []

        class Counted(Signal):
            def __eq__(self, other):
                return isinstance(other, Counted)

            def value(self, t, pos=None):
                calls.append(t)
                return np.sin(3.0 * t)

        cfg = ScenarioConfig(force_signals=(Counted(), Constant(0.5), None),
                             torque_signals=(None, Constant(0.5), Counted()))
        grid, slow = pregrid(cfg, 2, 10)
        assert slow == [None] * 6
        assert grid.shape == (2 * 2 * 10 + 1, 6)
        assert len(calls) == 1
        t = np.arange(41) * (0.5 * (0.002 / 2))
        assert grid[:, 0].tobytes() == np.sin(3.0 * t).tobytes()
        assert grid[:, 5].tobytes() == grid[:, 0].tobytes()
        assert (grid[:, 1] == 0.5).all() and (grid[:, 4] == 0.5).all()
        assert not grid[:, 2:4].any()

    def test_pregrid_position_dependent_signal_sends_all_to_slow(self):
        const, ground, comp = Constant(0.5), GroundEffect(), CompositeSinusoid()
        cfg = ScenarioConfig(force_signals=(const, None, ground),
                             torque_signals=(comp, WhiteNoise(0.1), None))
        grid, slow = pregrid(cfg, 3, 10)
        assert grid is None
        assert slow == [const.value, None, ground.value, comp.value, None, None]

    def test_pregrid_without_deterministic_signal_has_no_grid(self):
        assert pregrid(ScenarioConfig(), 4, 10) == (None, [None] * 6)
        stoch = ScenarioConfig(force_signals=(WhiteNoise(0.1), None, None))
        assert pregrid(stoch, 4, 10) == (None, [None] * 6)

    def test_noise_table(self):
        assert noise_table(ScenarioConfig(), 20) is None
        table = noise_table(ScenarioConfig(noise_power=0.01, seed=5), 20)
        assert table.shape == (21, 6)
        for ch in range(6):
            rng = np.random.default_rng(np.random.SeedSequence([5, 97, ch]))
            assert table[:, ch].tobytes() == rng.normal(0.0, 0.1, 21).tobytes()


class TestTick:
    """One call of the per-step tick on a hand-built state gives the row the
    run records."""

    @pytest.mark.parametrize("observer", ["hgdo", "naive", "none"])
    @pytest.mark.parametrize("signal", [Constant(0.2), GroundEffect()])
    def test_tick_reproduces_trace_rows(self, observer, signal):
        cfg = lemniscate_cfg(observer=observer, duration=0.02, outer_divisor=2,
                             noise_power=1e-3, seed=4, force_signals=(signal, None, None))
        tr = run_scenario(cfg)
        n_sub, n_base = cfg.n_substeps(), 10
        grid, slow = pregrid(cfg, n_sub, n_base)
        rows = grid.tolist() if grid is not None else None
        noise = noise_table(cfg, n_base)
        data = np.zeros((2, len(TRACE_COLUMNS)))
        tick, state = build_tick(cfg, MICRO_QUAD, DEFAULT_GAINS, data, slow,
                                 differentiators(cfg))
        # row 0, with the outer loop, from the state the run starts in
        y = (tuple(float(v) for v in (*cfg.pos0, *cfg.vel0, *cfg.att0, *cfg.rate0))
             + hgdo_init(cfg.vel0, cfg.epsilon1, cfg.d_hat0_force)
             + hgdo_init(cfg.rate0, cfg.epsilon2, cfg.d_hat0_torque))
        H = [0.0] * 4 + noise[0].tolist() + [0.0] * 6
        state = tick(0, 0.0, y, H, rows, 0, 0, state)
        assert data[0].tobytes() == tr.data[0].tobytes()
        assert H[0] == tr.col("thrust")[0] / MICRO_QUAD.m
        # row 1, without it; the trace does not hold the hgdo gamma states
        if observer != "hgdo":
            y = tuple(tr.data[1, 1:13].tolist()) + (0.0,) * 6
            H[4:10] = noise[1].tolist()
            tick(1, 1 * cfg.dt, y, H, rows, 2 * n_sub, 0, state)
            assert data[1].tobytes() == tr.data[1].tobytes()


class TestDrydenFollowsRunDt:
    """A run discretizes its Dryden filters at its own dt, not at the dt the
    signal was built with."""

    def test_filter_rediscretized_when_dt_changes(self):
        cfg = load_scenario(SCENARIO_DIR / "dryden_lemniscate.json")
        fine = dataclasses.replace(cfg, dt=0.001, duration=0.01)
        run_scenario(fine)
        for sig in cfg.force_signals:
            ref = DrydenFilter(sig.filter.axis, 1.11, 0.5, 2.0, 0.001)
            assert sig.filter.dt == 0.001
            assert np.array_equal(sig.filter.ad, ref.ad)
            assert np.array_equal(sig.filter.bd, ref.bd)
            assert np.array_equal(sig.filter.c, ref.c)
        run_scenario(dataclasses.replace(cfg, duration=0.01))
        assert all(sig.filter.dt == 0.002 for sig in cfg.force_signals)

    @pytest.mark.parametrize("dt", [0.001, 0.002])
    def test_sample_variance_matches_stationary_variance(self, dt):
        cfg = load_scenario(SCENARIO_DIR / "dryden_lemniscate.json")
        run_scenario(dataclasses.replace(cfg, dt=dt, duration=0.01))
        gust = cfg.force_signals[2]          # the 'w' filter, bound by the run
        target = gust.accel_gain ** 2 * DrydenFilter("w", 1.11, 0.5, 2.0, dt).stationary_variance()
        n = 300_000
        acc = acc2 = 0.0
        advance = gust.advance
        for _ in range(n):
            v = advance(0.0, dt)
            acc += v
            acc2 += v * v
        var = acc2 / n - (acc / n) ** 2
        assert abs(var - target) / target < 0.05, f"{var} vs {target}"


class TestMemory:
    def test_held_rows_do_not_grow_with_duration(self):
        # Besides its trace and the float64 grid (6 doubles per row), a run
        # holds one block of rows as Python floats, whatever its length.
        # Holding the whole grid and a zero noise table as lists would add
        # about 0.8 kB per base step here: 0.6 MB between these durations.
        cfg = load_scenario(SCENARIO_DIR / "noise_study.json")
        extra = []
        for duration in (0.5, 2.0):       # 250 and 1000 base steps
            run = dataclasses.replace(cfg, duration=duration, noise_power=0.0)
            tracemalloc.start()
            try:
                tr = run_scenario(run)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            grid_bytes = 6 * 8 * tr.meta["counters"]["pregrid_rows"]
            assert grid_bytes > 0
            extra.append(peak - tr.data.nbytes - grid_bytes)
        assert extra[1] - extra[0] < 100_000, extra
