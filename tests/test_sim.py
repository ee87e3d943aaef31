import dataclasses
import hashlib
import math
import tracemalloc
import warnings
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arolc import controllers, sim
from arolc.controllers import ArolcConfig, PconConfig, ZeroController, uncertainty_residual
from arolc.delays import DelayBuffer, DelayProfile, blend, delay_at, interpolate
from arolc.plants import (
    PayloadSchedule,
    PlantModel,
    TwoLinkParams,
    WmrParams,
    _payload_phase,
    el_accel,
    oscillator_plant,
    point_mass_plant,
    reduced_wmr_dynamics,
    two_link_plant,
)
from arolc.scenario_io import apply_override, build_scenario, load_config
from arolc.sim import (
    Scenario,
    SimulationDiverged,
    Trace,
    _bind_block,
    _compile_block,
    _plan_periods,
    error_dynamics_residual,
    simulate,
    trace_to_csv,
)
from arolc.stability import GainSet
from arolc.trajectories import CircleTrajectory, SinusoidTrajectory

from coupled_plant import CoupledPlant, coupled_plant
from sampled_data import point_mass_states

ZERO_TRAJ = SinusoidTrajectory(amplitude=(1e-12,), frequency=(1.0,))


def free_scenario(**kwargs):
    defaults = dict(
        plant=point_mass_plant(1),
        trajectory=ZERO_TRAJ,
        delay=DelayProfile("none"),
        duration=2.0,
        dt=1e-3,
        dt_control=1e-2,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestFreeMotion:
    def test_constant_velocity(self):
        sc = free_scenario(q0=np.array([0.5]), qdot0=np.array([1.0]))
        trace = simulate(sc)
        np.testing.assert_allclose(trace.q[:, 0], 0.5 + trace.t, atol=1e-12)

    def test_row_count(self):
        trace = simulate(free_scenario(duration=2.0, dt_control=1e-2))
        assert len(trace) == 201


class TestOscillator:
    def make(self, dt):
        return Scenario(
            plant=oscillator_plant(stiffness=1.0, mass=1.0),
            trajectory=ZERO_TRAJ,
            delay=DelayProfile("none"),
            duration=5.0,
            dt=dt,
            dt_control=1e-2,
            q0=np.array([1.0]),
            qdot0=np.array([0.0]),
        )

    def test_energy_drift(self):
        trace = simulate(self.make(1e-4))
        energy = 0.5 * (trace.q_dot[:, 0] ** 2 + trace.q[:, 0] ** 2)
        assert np.abs(energy - energy[0]).max() < 1e-8

    def test_rk4_convergence_order(self):
        # analytic solution q = cos t
        errors = []
        for dt in (2e-3, 1e-3):
            trace = simulate(self.make(dt))
            errors.append(abs(trace.q[-1, 0] - np.cos(trace.t[-1])))
        ratio = errors[0] / errors[1]
        assert 8.0 < ratio < 32.0


class TestLinearClosedLoop:
    def test_matches_matrix_exponential(self):
        gains = GainSet.identity(1)
        cfg = ArolcConfig(gains, switching=False)
        traj = SinusoidTrajectory(amplitude=(0.5,), frequency=(0.8,))
        sc = Scenario(
            plant=point_mass_plant(1),
            trajectory=traj,
            delay=DelayProfile("none"),
            controller=cfg,
            duration=5.0,
            dt=1e-4,
            dt_control=1e-2,
            q0=np.array([traj(0.0)[0][0] - 1.0]),  # e1(0) = 1
            qdot0=np.array([traj(0.0)[1][0]]),     # e1_dot(0) = 0
        )
        trace = simulate(sc)
        expected = point_mass_states(traj, gains, np.concatenate([sc.q0, sc.qdot0]),
                                     sc.dt_control, len(trace) - 1)
        assert np.abs(np.hstack([trace.q, trace.q_dot]) - expected).max() < 1e-6


class TestDelayedClosedLoop:
    """The delay path against the exact discretization of its delayed
    first-order hold. The run starts on the reference at phase 0, so the
    first command is zero and the actuator's step up to it has height zero."""

    @pytest.mark.parametrize("dt", [1e-4, 1e-3])
    @pytest.mark.parametrize("d", [1, 6, 12])
    def test_matches_exact_discretization(self, d, dt):
        gains = GainSet.identity(1)
        traj = SinusoidTrajectory(amplitude=(0.5,), frequency=(0.8,))
        qd, qd_dot, _ = traj(0.0)
        sc = Scenario(
            plant=point_mass_plant(1), trajectory=traj,
            delay=DelayProfile("constant", h0=d * 1e-2),
            controller=ArolcConfig(gains, switching=False),
            duration=10.0, dt=dt, dt_control=1e-2, q0=qd, qdot0=qd_dot,
        )
        trace = simulate(sc)
        assert trace.tau_cmd[0, 0] == 0.0
        expected = point_mass_states(traj, gains, np.concatenate([qd, qd_dot]),
                                     sc.dt_control, len(trace) - 1, delay_periods=d)
        assert np.abs(np.hstack([trace.q, trace.q_dot]) - expected).max() <= 1e-9


class TestEnergyConservation:
    def test_two_link_kinetic_energy(self):
        # no friction, no gravity, zero input: kinetic energy is conserved
        params = TwoLinkParams(gravity=0.0, viscous=0.0)
        plant = two_link_plant(params)
        sc = Scenario(
            plant=plant,
            trajectory=SinusoidTrajectory(amplitude=(1e-12, 1e-12),
                                          frequency=(1.0, 1.0)),
            delay=DelayProfile("none"),
            duration=10.0,
            dt=1e-4,
            dt_control=1e-2,
            q0=np.array([0.3, -0.4]),
            qdot0=np.array([0.4, -0.2]),
        )
        trace = simulate(sc)
        energy = np.empty(len(trace))
        for k in range(len(trace)):
            m = plant.mass_matrix(trace.q[k])
            energy[k] = 0.5 * trace.q_dot[k] @ m @ trace.q_dot[k]
        assert np.abs(energy - energy[0]).max() < 1e-6


class TestZeroDelayDecay:
    def test_error_decays_with_exponential_envelope(self):
        # slowest mode of [[0, 1], [-1, -1]] decays like exp(-t/2):
        # at 5 s the best possible contraction is sigma_min(expm(5A)) ~ 0.06,
        # so the 1e-2 envelope is checked at 10 s
        gains = GainSet.identity(1)
        cfg = ArolcConfig(gains, switching=False)
        traj = SinusoidTrajectory(amplitude=(1e-12,), frequency=(1.0,))
        sc = Scenario(
            plant=point_mass_plant(1), trajectory=traj,
            delay=DelayProfile("none"), controller=cfg,
            duration=10.0, dt=1e-3, dt_control=1e-2,
            q0=np.array([-1.0]), qdot0=np.array([0.0]),
        )
        trace = simulate(sc)
        e1_dot0 = traj(0.0)[1][0] - sc.qdot0[0]
        e1_dot_end = traj(float(trace.t[-1]))[1][0] - trace.q_dot[-1, 0]
        norm0 = np.hypot(trace.e1[0, 0], e1_dot0)
        norm_end = np.hypot(trace.e1[-1, 0], e1_dot_end)
        assert norm_end < 1e-2 * norm0


class TestDeterminism:
    def make(self):
        gains = GainSet.identity(2)
        return Scenario(
            plant=two_link_plant(TwoLinkParams(viscous=0.2), mismatch=0.2,
                                 disturbance_amp=0.1),
            trajectory=SinusoidTrajectory(),
            delay=DelayProfile("S1"),
            controller=ArolcConfig(gains),
            duration=1.0,
            dt=1e-3,
            dt_control=1e-2,
        )

    def test_bit_identical(self):
        t1 = simulate(self.make())
        t2 = simulate(self.make())
        assert np.array_equal(t1.q, t2.q)
        assert np.array_equal(t1.tau_cmd, t2.tau_cmd)
        assert np.array_equal(t1.c_hat, t2.c_hat)


class TestCausality:
    def test_buffer_lookup_ignores_future_commands(self):
        profile = DelayProfile("S1")  # h >= 0.02
        rng = np.random.default_rng(0)
        commands = rng.standard_normal((60, 1))
        t_star = 0.30
        buf_a = DelayBuffer(dim=1)
        buf_b = DelayBuffer(dim=1)
        for k in range(60):
            t_k = 0.01 * k
            buf_a.push(t_k, commands[k])
            changed = commands[k] + (5.0 if t_k >= t_star else 0.0)
            buf_b.push(t_k, changed)
        for t in np.arange(0.0, t_star + 0.02, 0.001):
            theta = t - delay_at(profile, float(t))
            if t < t_star + 0.02:
                np.testing.assert_array_equal(buf_a.sample(theta), buf_b.sample(theta))

    def test_closed_loop_state_lags_command_change(self):
        gains = GainSet.identity(2)
        base = dict(
            plant=two_link_plant(TwoLinkParams(), mismatch=0.1),
            delay=DelayProfile("S1"),
            controller=ArolcConfig(gains),
            duration=1.0,
            dt=1e-3,
            dt_control=1e-2,
        )
        t_star = 0.5
        shifted = SinusoidTrajectory(amplitude=(0.5, 0.3), frequency=(0.5, 0.7))

        class SwitchedTraj:
            dim = 2
            diameter = 1.0

            def __call__(self, t):
                # a scalar or an array of times, row by row as the contract asks
                qd, qd_dot, qd_ddot = shifted(t)
                qd = np.where((np.asarray(t) >= t_star)[..., None], qd + 0.2, qd)
                return qd, qd_dot, qd_ddot

        tr_a = simulate(Scenario(trajectory=shifted, **base))
        tr_b = simulate(Scenario(trajectory=SwitchedTraj(), **base))
        rows_before = tr_a.t < t_star + 0.015  # min delay is 0.02
        np.testing.assert_array_equal(tr_a.q[rows_before], tr_b.q[rows_before])
        np.testing.assert_array_equal(
            tr_a.tau_applied[rows_before], tr_b.tau_applied[rows_before]
        )
        # the commands themselves do change right at t_star
        row_at = np.searchsorted(tr_b.t, t_star)
        assert not np.allclose(tr_a.tau_cmd[row_at], tr_b.tau_cmd[row_at])


class TestActuatorModel:
    """tau_applied is the stamped commands linearly interpolated at t - h,
    zero before the first command, for every controller kind."""

    @pytest.mark.parametrize("kind", ["arolc", "pcon"])
    def test_applied_is_interpolated_command(self, kind):
        gains = GainSet.identity(2)
        trace = simulate(Scenario(
            plant=two_link_plant(TwoLinkParams(viscous=0.1), mismatch=0.2),
            trajectory=SinusoidTrajectory(), delay=DelayProfile("S1"),
            controller={"arolc": ArolcConfig(gains),
                        "pcon": PconConfig(kappa=2.0, vartheta=np.eye(2), k_b=3.0)}[kind],
            duration=1.0, dt=1e-3, dt_control=1e-2,
        ))
        assert np.abs(trace.tau_cmd).max() > 0.1
        for i in range(trace.n):
            expected = np.interp(trace.t - trace.h, trace.t, trace.tau_cmd[:, i], left=0.0)
            np.testing.assert_allclose(trace.tau_applied[:, i], expected,
                                       rtol=1e-12, atol=1e-12)


class TestInputTable:
    @given(st.integers(0, 50_000), st.integers(1, 3), st.integers(1, 200),
           st.sampled_from([1e-4, 1e-3, 2.5e-4, 1.0 / 3.0e3]))
    def test_stage_times_round_as_rk4(self, k0, periods, steps, dt):
        dt_control = steps * dt
        k1 = k0 + periods
        stamps = np.arange(k1 + 1) * dt_control
        stage_t, *_ = _plan_periods(DelayProfile("S1"), stamps, k0, k1, steps, dt, 1)
        assert stage_t.shape == (periods, steps, 3)
        for p, k in enumerate(range(k0, k1)):
            t_k = k * dt_control  # as simulate stamps period k
            for i in range(steps):
                t = t_k + i * dt  # as simulate steps RK4 step i
                assert stage_t[p, i].tolist() == [t, t + dt / 2, t + dt]

    # presets; h = 0, where lookups fall at or after the period's own
    # command; b omega > 1, where t - h(t) is not monotone within a period;
    # an integer d, a constant delay of d control periods, whose lookups
    # land on stamps where dt is binary
    PROFILES = st.one_of(
        st.sampled_from([DelayProfile(kind) for kind in ("S1", "S2", "S3", "S4", "none")]),
        st.just(DelayProfile("constant", h0=0.0)),
        st.builds(lambda a, b, r: DelayProfile("custom", a=a, b=b, omega=r / b),
                  st.floats(0.0, 0.05), st.floats(0.01, 0.2), st.floats(1.1, 5.0)),
        st.integers(1, 3))

    @given(PROFILES, st.integers(2, 40), st.integers(1, 12), st.integers(1, 3),
           st.sampled_from([1e-3, 2.5e-3, 1.0 / 3.0e3, 2.0 ** -9]), st.integers(1, 8),
           st.data())
    def test_planned_blend_matches_interpolate(self, profile, n_rows, steps, n, dt,
                                               per_block, data):
        # every period from the first, so the lookups before the first
        # command of the delayed profiles are drawn too; each period's rows
        # are those of its group's blend, after the group's first command
        if isinstance(profile, int):
            profile = DelayProfile("constant", h0=profile * steps * dt)
        stamps = np.arange(n_rows) * (steps * dt)
        cmds = np.array(data.draw(st.lists(
            st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
            min_size=n_rows, max_size=n_rows)))
        for k0 in range(0, n_rows, per_block):
            k1 = min(k0 + per_block, n_rows)
            stage_t, stage_h, plans = _plan_periods(profile, stamps, k0, k1, steps, dt, n)
            assert np.array_equal(stage_h, delay_at(profile, stage_t))
            assert plans[0] is not None  # a block starts a group
            for p, k in enumerate(range(k0, k1)):
                if plans[p] is not None:
                    group, first = blend(cmds, k + 1, *plans[p]), p
                theta = (stage_t[p] - stage_h[p]).ravel()
                expected = interpolate(stamps[:k + 1], cmds[:k + 1], theta)
                table = group[p - first]
                assert np.array_equal(table.reshape(-1, n), expected)


class TestBlendGroups:
    """The block blends once per group of periods whose lookups read no
    command after the group's first (``sim._plan_periods``), handing each
    period its rows: one blend per period where each period reads its own
    command, and a non-finite command inside a group ends the run with the
    partial trace of a blend per period."""

    @staticmethod
    def count_blends(sc, monkeypatch):
        """The trace of a run of sc and the m of each of its blend calls
        (``_bind_block``'s blend)."""
        calls = []
        bind_block = sim._bind_block

        def counting(*args):
            calls.append(args[1])
            return blend(*args)

        monkeypatch.setattr(sim, "_bind_block", lambda kernel, law, n: bind_block(
            kernel, law, n, blend=counting))
        return simulate(sc), calls

    def test_fixed_delay_blends_once_per_group(self, monkeypatch):
        # 0.12 s: groups of about 11 periods, and a block's first period
        # starts one; each blend after its group's first command
        trace, calls = self.count_blends(TestPinnedTraces.shipped("wmr_s4_arolc", "40.0"),
                                         monkeypatch)
        assert len(trace) == 4001 and len(calls) <= 500
        assert calls[0] == 1 and calls == sorted(set(calls))

    def test_no_delay_blends_every_period(self, monkeypatch):
        # kind none: every lookup reaches the period's own command
        config = load_config("scenarios/wmr_s4_arolc.ini")
        apply_override(config, "sim.duration", "2.0")
        apply_override(config, "delay.kind", "none")
        trace, calls = self.count_blends(build_scenario(config), monkeypatch)
        assert calls == list(range(1, len(trace) + 1))

    # the predictor with a vartheta that makes each command orders of
    # magnitude larger than the last, before any reaches the arm: a
    # non-finite command at t (period k) inside the group from period
    # first, the block's first group under S4 and the second block's under a
    # constant 1 s delay; sha256 of every Trace and FineRecord array of the
    # partial trace, recorded with a blend per period
    NON_FINITE = {
        "S4": (1e70, DelayProfile("S4"), 0.05, 5, 0,
               "3e8ec33806686000936dbbd9326c6c57538b4d9973a9fb27366a597dfa09ccb3"),
        "constant-1s": (2e5, DelayProfile("constant", h0=1.0), 0.74, 74, 68,
                        "23c74240fb02a63f2aa887611fc839b2baadc28f006d260cf0ed3963e9b94d2c"),
    }

    @pytest.mark.parametrize("name", sorted(NON_FINITE))
    def test_non_finite_command_inside_a_group(self, name):
        vartheta, delay, time, k, first, digest = self.NON_FINITE[name]
        sc = Scenario(plant=two_link_plant(TwoLinkParams()), trajectory=SinusoidTrajectory(),
                      delay=delay, controller=PconConfig(vartheta=vartheta * np.eye(2)),
                      duration=1.5, dt=1e-3, dt_control=1e-2)
        block = sim._BLOCK_INSTANTS // (3 * 10)  # periods of 10 RK4 steps
        *_, plans = _plan_periods(delay, np.arange(151) * sc.dt_control, first,
                                  first + block, 10, sc.dt, 2)
        assert plans[0] is not None and plans[1:k - first + 1] == [None] * (k - first)
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate(sc, diagnostics=True)
        partial = excinfo.value.partial_trace
        assert excinfo.value.time == time and len(partial) == k + 1
        assert not np.isfinite(partial.tau_cmd[k]).any() and np.isfinite(partial.q).all()
        sha = hashlib.sha256()
        arrays = [getattr(partial, f.name) for f in dataclasses.fields(Trace) if f.name != "fine"]
        arrays += [getattr(partial.fine, f.name) for f in dataclasses.fields(sim.FineRecord)]
        for array in arrays:
            sha.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
        assert sha.hexdigest() == digest


class _NdarrayAccelPlant(PlantModel):
    """Coupled linear plant M qdd + D q_dot + K q = tau whose accel returns
    el_accel's ndarray, not a list."""

    def __init__(self, n, seed):
        self.dim = n
        super().__init__()
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        self.m = a @ a.T + n * np.eye(n)
        self.k = rng.normal(size=(n, n))
        self.d = rng.normal(size=(n, n))

    def mass_matrix(self, q, t=None):
        return self.m

    def bias_vector(self, q, q_dot, t):
        return self.k @ np.asarray(q, float) + self.d @ np.asarray(q_dot, float)

    def accel(self, q, q_dot, tau_applied, t):
        return el_accel(self, q, q_dot, tau_applied, t)


def ndarray_rk4(accel, instants, y, dt, inputs):
    """The reference RK4 step on float64 arrays; accel sees each stage state
    as lists of Python floats."""
    n = len(y) // 2

    def f(t, state, u):
        qdd = accel(state[:n].tolist(), state[n:].tolist(), u, t)
        return np.concatenate([state[n:], np.asarray(qdd, float)])

    t0, t_half, t1 = instants
    u0, u_half, u1 = inputs
    k1 = f(t0, y, u0)
    k2 = f(t_half, y + (dt / 2) * k1, u_half)
    k3 = f(t_half, y + (dt / 2) * k2, u_half)
    k4 = f(t1, y + dt * k3, u1)
    return y + (dt / 6) * (((k1 + 2 * k2) + 2 * k3) + k4)


def zero_law(n):
    """The zero controller's law for n coordinates."""
    return ZeroController(SimpleNamespace(plant=SimpleNamespace(dim=n)), None).kernel()


def _rk4_period(kernel, n):
    """The RK4 steps of one control period of the simulator's block
    (``sim._bind_block``), run under the zero law as a group of its own,
    whose blend hands the given inputs in place of the planned lookups:
    period(y, dt, inputs, instants, values, append) advances the 2n floats
    y one step per row of
    inputs (one flat row of 3n floats per step), row i of instants and
    values being step i's instants and schedule values, and hands append,
    if not None, the state after each step. Returns (y, m): the state after
    the m steps the period completed, y None where a step diverged."""
    def period(y, dt, inputs, instants, values, append):
        block = _bind_block(kernel, zero_law(n), n,
                            blend=lambda *plan: SimpleNamespace(tolist=lambda: [inputs]))
        states = [] if append is not None else None
        end, _, m = block(tuple(y), 0, -1, len(inputs) * dt, dt, np.zeros((1, n)),
                          [()], [([0.0] * n,) * 3], [instants], [values], None, [],
                          states, None)
        for i in range(0, len(states or ()), 2 * n):
            append(tuple(states[i:i + 2 * n]))
        return end, m

    return period


def one_step(kernel, instants, y, dt, inputs):
    """One RK4 step from y through the period of kernel, handed as simulate
    hands them its inputs at the step's instants as one flat row, the
    instants and the schedule's value at each (None without a schedule).
    Returns the period's (state, completed steps)."""
    values = None if kernel.schedule is None else [kernel.schedule(t) for t in instants]
    period = _rk4_period(kernel, len(y) // 2)
    return period(tuple(y), dt, [[x for row in inputs for x in row]], [instants], [values],
                  None)


class TestUnrolledStep:
    PLANTS = {
        "oscillator": lambda: oscillator_plant(stiffness=2.5, mass=0.7),
        "point-mass-3": lambda: point_mass_plant(3, mass=1.3),
        "point-mass-6": lambda: point_mass_plant(6, mass=0.9),
        "two-link": lambda: two_link_plant(
            TwoLinkParams(viscous=0.3), mismatch=0.1, disturbance_amp=0.5,
            disturbance_freq=2.0, phases=(0.1, -0.7)),
        "payload-wmr": lambda: reduced_wmr_dynamics(
            WmrParams(), mismatch=0.2, viscous=0.05,
            payload=PayloadSchedule(period_on=3.0, period_off=2.0,
                                    offsets=((0.05, 0.02), (-0.1, 0.0)))),
        "disturbed-wmr": lambda: reduced_wmr_dynamics(
            WmrParams(), mismatch=0.2, viscous=0.05, disturbance_amp=0.3,
            disturbance_freq=1.7, phases=(0.4, -1.2),
            payload=PayloadSchedule(period_on=3.0, period_off=2.0)),
        "bare-wmr": lambda: reduced_wmr_dynamics(WmrParams()),
        "ndarray-accel-3": lambda: _NdarrayAccelPlant(3, seed=3),
        "ndarray-accel-6": lambda: _NdarrayAccelPlant(6, seed=6),
        "coupled-3": coupled_plant,
    }

    @pytest.mark.parametrize("name", sorted(PLANTS))
    def test_matches_ndarray_reference_bit_for_bit(self, name):
        # through the plant's own kernel and through the call kernel, which
        # calls its accel
        plant = self.PLANTS[name]()
        rng = np.random.default_rng(sorted(self.PLANTS).index(name))
        for _ in range(200):
            dt = rng.uniform(1e-4, 2e-2)
            t = rng.uniform(0.0, 25.0)  # across the payload's phases
            self.assert_matches_reference(plant, t, dt, rng)

    @staticmethod
    def assert_matches_reference(plant, t, dt, rng):
        n = plant.dim
        instants = [t, t + 0.5 * dt, t + dt]  # as the planner rounds them
        y = np.concatenate([rng.uniform(-3.0, 3.0, n), rng.uniform(-5.0, 5.0, n)])
        inputs = rng.uniform(-20.0, 20.0, (3, n)).tolist()
        expected = ndarray_rk4(plant.accel, instants, y, dt, inputs)
        for kernel in (plant.kernel(), PlantModel.kernel(plant)):
            got, completed = one_step(kernel, instants, y.tolist(), dt, inputs)
            assert completed == 1
            assert np.array(got, dtype=float).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["payload-wmr", "disturbed-wmr"])
    @pytest.mark.parametrize("stage", [0, 1, 2], ids=["start", "half", "end"])
    @pytest.mark.parametrize("switch", [3.0, 5.0, 8.0])
    def test_matches_reference_on_a_payload_switch(self, name, stage, switch):
        # steps whose t, t + dt/2 or t + dt falls exactly on a switch of the
        # 3 s on, 2 s off schedule; dt = 2**-k keeps each landing exact
        plant = self.PLANTS[name]()
        rng = np.random.default_rng([stage, int(switch)])
        for k in range(4, 12):
            dt = 2.0 ** -k
            t = switch - stage * 0.5 * dt
            assert [t, t + 0.5 * dt, t + dt][stage] == switch
            self.assert_matches_reference(plant, t, dt, rng)

    def test_built_once_per_dimension(self):
        # compiled once per (kernel, law, n); a later run binds its constants
        def key(kernel, n):
            law = zero_law(n)
            return (kernel.source, tuple(kernel.constants), law.source, tuple(law.constants),
                    tuple(law.state), law.auxiliary, n)

        arm = two_link_plant(TwoLinkParams()).kernel()
        assert _compile_block(*key(arm, 2)) is _compile_block(*key(arm, 2))
        assert _compile_block(*key(arm, 2)) is not _compile_block(*key(arm, 3))
        robot = reduced_wmr_dynamics(WmrParams()).kernel()
        assert _compile_block(*key(arm, 2)) is not _compile_block(*key(robot, 2))

        def sc():
            return free_scenario(
                plant=two_link_plant(TwoLinkParams(viscous=0.1)), duration=0.05,
                trajectory=SinusoidTrajectory(amplitude=(1e-12, 1e-12), frequency=(1.0, 1.0)))

        simulate(sc())
        compiled = _compile_block.cache_info().misses
        simulate(sc())
        assert _compile_block.cache_info().misses == compiled

    @pytest.mark.parametrize("make", [
        lambda: two_link_plant(TwoLinkParams(viscous=0.3), disturbance_amp=0.5),
        lambda: reduced_wmr_dynamics(WmrParams(), viscous=0.05, disturbance_amp=0.5,
                                     payload=PayloadSchedule()),
    ], ids=["two-link", "wmr"])
    @pytest.mark.parametrize("y", [(0.3, 0.7, 1e8, -1e8), (1e8, -1e8, -1e8, 1e8),
                                   (0.3, 0.7, 1e8, 1e8), (0.3, 0.7, math.nan, 0.0),
                                   (0.3, 0.7, 1e200, 1.0)],
                             ids=["opposed-rates", "extreme-state", "equal-rates", "nan",
                                  "overflowing-rate"])
    def test_diverging_state_through_kernel_returns_none(self, make, y):
        # from the largest states the guard lets a step start from: the
        # stages overflow to inf and nan with no error and no warning, and
        # the guard stops the step. From a rate of 1e200 the arm's third
        # stage position is infinite, whose cos math rejects with
        # ValueError: the step returns None there too
        kernel = make().kernel()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert one_step(kernel, [1.0, 1.005, 1.01], y, 0.01,
                            [[0.1, -0.2]] * 3) == (None, 0)

    @pytest.mark.parametrize("name", ["oscillator", "two-link", "payload-wmr",
                                      "disturbed-wmr", "ndarray-accel-3"])
    def test_period_runs_its_steps_in_turn(self, name):
        # a period of several steps ends where its steps, taken one period
        # at a time, end, and hands append the state after each
        plant = self.PLANTS[name]()
        n = plant.dim
        rng = np.random.default_rng(11)
        dt, t = 1e-3, 2.9995  # across the payload switch at 3 s
        y = tuple(np.concatenate([rng.uniform(-1.0, 1.0, n), rng.uniform(-2.0, 2.0, n)]))
        instants = [[t + i * dt, t + i * dt + 0.5 * dt, t + (i + 1) * dt] for i in range(4)]
        inputs = rng.uniform(-5.0, 5.0, (4, 3, n)).tolist()
        for kernel in (plant.kernel(), PlantModel.kernel(plant)):
            schedule = kernel.schedule or (lambda t: None)
            values = [[schedule(x) for x in row] for row in instants]
            states, stepped = [], y
            end, completed = _rk4_period(kernel, n)(
                y, dt, [sum(row, []) for row in inputs], instants, values, states.append)
            assert completed == 4 and end == states[-1]
            for i in range(4):
                stepped, _ = one_step(kernel, instants[i], stepped, dt, inputs[i])
                assert states[i] == stepped

    @pytest.mark.parametrize("name", ["payload-wmr", "disturbed-wmr", "coupled-3"])
    def test_period_follows_a_changing_schedule(self, name):
        # a six-step period whose schedule value changes between steps,
        # inside a step (at its half and at its end stage) and back again,
        # and at last takes an equal value in a new object: bit for bit as
        # the steps taken one at a time, through the period and through the
        # ndarray reference on the plant's accel, which read the same values
        plant = self.PLANTS[name]()
        n = plant.dim
        a, b = plant._phases[:2]
        a_copy = tuple(a) if isinstance(a, tuple) else float(np.float64(a))
        dt, t = 1e-3, 1.0
        instants = [[t + i * dt, t + i * dt + 0.5 * dt, t + (i + 1) * dt] for i in range(6)]
        # the value at each of the 13 instants, in time order: steps (a, a,
        # a), (a, b, b), (b, b, a), (a, a, a), (a, b, a), (a, a', a')
        pattern = [a, a, a, b, b, b, a, a, a, b, a, a_copy, a_copy]
        at = dict(zip(sorted({x for row in instants for x in row}), pattern, strict=True))
        plant._schedule = at.__getitem__  # the kernel's and accel's schedule
        kernel = plant.kernel()
        rng = np.random.default_rng(23)
        y = np.concatenate([rng.uniform(-1.0, 1.0, n), rng.uniform(-2.0, 2.0, n)])
        inputs = rng.uniform(-5.0, 5.0, (6, 3, n)).tolist()
        period = _rk4_period(kernel, n)
        values = [[at[x] for x in row] for row in instants]
        states = []
        period(tuple(y), dt, [sum(row, []) for row in inputs], instants, values, states.append)
        for i in range(6):
            stepped, _ = one_step(kernel, instants[i], y.tolist(), dt, inputs[i])
            y = ndarray_rk4(plant.accel, instants[i], y, dt, inputs[i])
            assert np.array(states[i]).tobytes() == np.array(stepped).tobytes() == y.tobytes()
        # the values matter: under a alone, the period ends elsewhere
        held, _ = period(tuple(states[0]), dt, [sum(row, []) for row in inputs[1:]],
                         instants[1:], [[a] * 3] * 5, None)
        assert held != states[-1]

    def test_four_accel_calls_per_step(self):
        plant = point_mass_plant(2)
        calls = []
        inner = plant.accel

        def accel(*args):
            calls.append(args[3])
            return inner(*args)

        plant.accel = accel  # simulate reads the instance's accel
        sc = free_scenario(plant=plant, duration=0.05,
                           trajectory=SinusoidTrajectory(amplitude=(1e-12, 1e-12),
                                                         frequency=(1.0, 1.0)))
        simulate(sc)
        assert len(calls) == 4 * 50


class TestPlannedSchedule:
    def test_each_step_reads_the_phase_row_of_its_instants(self, monkeypatch):
        # a 26 s robot run through the payload switches at 5, 10, 15, 20 and
        # 25 s and all three offsets: every step gets, after its three
        # instants, the row of _phases at the float _payload_phase of each,
        # as the robot's accel reads it
        # (its instants, which its undisturbed kernel does not read, are
        # not handed to it: simulate stamps step i of period k at
        # t = k dt_control + i dt, which the planner rounds as TestInputTable
        # checks)
        sc = TestPinnedTraces.shipped("wmr_s1_arolc", "26.0")
        plant = sc.plant
        # the values of each period that steps (all but the last row's): a
        # block whose instants all share one value is handed that value
        # alone, the others each stage's
        seen = []
        shared_blocks = []
        bind_block = sim._bind_block

        def recording(kernel, law, n):
            block = bind_block(kernel, law, n)

            def recorded(y, k0, stop, dt_control, dt, tau_cmd, plans, reference, instants,
                         values, shared, *records):
                assert instants is None and (values is None) != (shared is None)
                if shared is not None:
                    shared_blocks.append(k0)
                    values = [[[shared] * 3] * 10] * len(plans)
                assert len(values) == len(plans) and all(len(rows) == 10 for rows in values)
                seen.extend(values[:stop - k0])
                return block(y, k0, stop, dt_control, dt, tau_cmd, plans, reference, instants,
                             None if shared is not None else values, shared, *records)

            return recorded

        monkeypatch.setattr(sim, "_bind_block", recording)
        simulate(sc)
        assert len(seen) == 2_600 and sum(map(len, seen)) == 26_000
        # the blocks through a switch at 5, 10, 15, 20 and 25 s take each
        # stage's value, and the rest the block's one value
        assert len(shared_blocks) == 39 - 5
        read = set()
        for k, values in enumerate(seen):
            for i, rows in enumerate(values):
                t = k * sc.dt_control + i * sc.dt
                assert rows == [plant._phases[int(_payload_phase(plant.payload, x)) + 1]
                                for x in (t, t + sc.dt / 2, t + sc.dt)]
                read.update(rows)
        assert read == set(plant._phases)


    def test_shared_value_steps_as_each_stage_value(self):
        # a kernel that reads p itself, not through a row, and t: the
        # coupled plant, its load switching every 2 s. Given windows, its
        # blocks inside one 2 s window take the schedule's one value, those
        # through a switch each stage's; the run is byte-identical to the
        # one whose every block takes each stage's value
        class Windowed(CoupledPlant):
            def _window(self, t):
                return t // 2.0

        def run(cls):
            plant = cls(0.2, True, CoupledPlant(), disturbance_amp=0.05)
            return simulate(free_scenario(
                plant=plant, delay=DelayProfile("S1"), duration=4.5,
                controller=ArolcConfig(GainSet.identity(3)),
                trajectory=SinusoidTrajectory(amplitude=(0.1,) * 3, frequency=(1.0,) * 3)),
                diagnostics=True)

        shared = Windowed(0.2, True).kernel().shared
        assert shared(2.1, 3.9) == 1.5 and shared(1.9, 2.1) is None
        each, windowed = run(CoupledPlant), run(Windowed)
        for name in ("q", "q_dot", "tau_cmd", "tau_applied", "c_hat"):
            assert getattr(each, name).tobytes() == getattr(windowed, name).tobytes()
        for name in ("t", "q", "q_dot", "cmd_u", "cmd_du"):
            assert getattr(each.fine, name).tobytes() == getattr(windowed.fine, name).tobytes()


class TestBlockSchedule:
    """The schedule on a block's stage instants, found at the block's first
    and last instant alone where they share a payload window, against the
    schedule at each instant; blocks that start or end exactly on a
    switch."""

    DT = 2.0 ** -10  # binary steps, on which the binary switches land exactly
    STEPS = 4

    # (schedule, whether its switches land on the binary stamps exactly)
    @pytest.mark.parametrize("sched, lands", [
        (PayloadSchedule(period_on=5.0, period_off=5.0,
                         offsets=((0.05, 0.02), (-0.03, 0.04))), True),
        (PayloadSchedule(period_on=2.0 ** -6, period_off=3 * 2.0 ** -7,
                         offsets=((0.05, 0.02), (-0.03, 0.04), (0.01, -0.02))), True),
        # 4 ms on and off with one offset: a block whose first and last
        # instants lie in on-windows of two cycles reads phase 1 at both
        (PayloadSchedule(period_on=0.004, period_off=0.004, offsets=((0.05, 0.02),)), False),
        (PayloadSchedule(period_on=0.004, period_off=0.006), False),
    ], ids=["shipped", "binary", "4ms-one-offset", "4ms"])
    def test_block_values_match_each_instant(self, sched, lands):
        plant = reduced_wmr_dynamics(WmrParams(), payload=sched)
        dt_control = self.STEPS * self.DT
        period = sched.period_on + sched.period_off
        switches = [c * period + x for c in range(1, 4) for x in (0.0, sched.period_on)]
        stamps = np.arange(round(switches[-1] / dt_control) + 200) * dt_control
        starts = ends = 0
        for switch in switches:
            k = int(switch // dt_control)
            for size in (1, 3, 68):
                for k0 in {max(k + j, 0) for j in (-size - 1, -size, -size + 1, -1, 0, 1)}:
                    stage_t, *_ = _plan_periods(DelayProfile("S1"), stamps, k0, k0 + size,
                                                self.STEPS, self.DT, 2)
                    starts += stage_t.min() == switch
                    ends += stage_t.max() == switch
                    expected = [[[plant._schedule(x) for x in step] for step in rows]
                                for rows in stage_t.tolist()]
                    assert plant._schedule(stage_t) == expected
        if lands:
            assert starts and ends  # blocks that start and end on a switch

    def test_cycles_sharing_a_phase_are_told_apart(self):
        # 4 ms on, 4 ms off, one offset: instants 0.001 and 0.009 both read
        # phase 1, of cycles 0 and 1, with the off-window between them
        plant = reduced_wmr_dynamics(WmrParams(), payload=PayloadSchedule(
            period_on=0.004, period_off=0.004, offsets=((0.05, 0.02),)))
        t = np.array([0.001, 0.005, 0.009])
        assert plant._phase(0.001) == plant._phase(0.009) == 1
        assert plant._schedule(t) == [plant._phases[1], plant._phases[0], plant._phases[1]]


class TestDivergenceGuard:
    """An entry at exactly +-1e8 passes the guard in any slot of q or q_dot;
    the next float beyond it stops the run at that step. With dt = 6 * 2**-12,
    dt / 6 is a power of two and every state below is exact: each case
    reaches its target in step STEP of the run's 128 and then holds it."""

    DT = 6.0 * 2.0 ** -12
    STEP = 61  # the sixth of the eighth period's eight steps

    class Kick(PlantModel):
        """Zero acceleration, but value in slot at the last stage of step."""

        def __init__(self, n, slot, value, step):
            self.dim = n
            super().__init__()
            self.slot, self.value, self.call = slot, value, 4 * step - 1
            self.calls = 0

        def accel(self, q, q_dot, tau_applied, t):
            qdd = [0.0] * self.dim
            if self.calls == self.call:
                qdd[self.slot] = self.value
            self.calls += 1
            return qdd

    def scenario(self, n, slot, target, periods=16):
        q0, qdot0 = np.zeros(n), np.zeros(n)
        sign = math.copysign(1.0, target)
        if slot < n:
            # q moves by 6 sign per step at the rate sign 2**12, which the
            # kick stops as q reaches the target
            q0[slot] = target - sign * 6.0 * self.STEP
            qdot0[slot] = sign * 2.0 ** 12
            plant = self.Kick(n, slot, -sign * 2.0 ** 24, self.STEP)
        else:
            # the kick sets q_dot to the target; q then grows to 0.1 target
            plant = self.Kick(n, slot - n, target * 2.0 ** 12, self.STEP)
        return free_scenario(
            plant=plant, q0=q0, qdot0=qdot0, dt=self.DT, dt_control=8 * self.DT,
            duration=periods * 8 * self.DT,
            trajectory=SinusoidTrajectory(amplitude=(1e-12,) * n, frequency=(1.0,) * n))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    @pytest.mark.parametrize("n, slot", [(1, 0), (1, 1)] + [(3, i) for i in range(6)])
    def test_limit_passes_and_next_float_stops(self, n, slot, sign):
        self.assert_limit_passes_and_next_float_stops(n, slot, sign, diagnostics=True)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    @pytest.mark.parametrize("n, slot", [(1, 0), (1, 1)] + [(3, i) for i in range(6)])
    def test_next_float_stops_without_diagnostics(self, n, slot, sign):
        # the time and the rows of a run that keeps no fine grid, which the
        # period's count of completed steps alone determines
        self.assert_limit_passes_and_next_float_stops(n, slot, sign, diagnostics=False)

    def assert_limit_passes_and_next_float_stops(self, n, slot, sign, diagnostics):
        limit = sign * 1e8
        full = simulate(self.scenario(n, slot, limit), diagnostics=True)
        rows = np.concatenate([full.fine.q, full.fine.q_dot], axis=1)
        assert (rows[self.STEP:, slot] == limit).all()
        assert (rows[:self.STEP, slot] != limit).all()

        beyond = sign * np.nextafter(1e8, math.inf)
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate(self.scenario(n, slot, beyond), diagnostics=diagnostics)
        exc = excinfo.value
        assert exc.time == full.fine.t[self.STEP]
        # the rows up to the failing step's period and the fine rows before it
        self.assert_head(exc.partial_trace, simulate(
            self.scenario(n, slot, beyond, periods=7), diagnostics=diagnostics), self.STEP)
        if diagnostics:
            assert np.array_equal(exc.partial_trace.fine.t, full.fine.t[:self.STEP])

    @pytest.mark.parametrize("diagnostics", [True, False], ids=["diagnostics", "plain"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    @pytest.mark.parametrize("n, slot", [(1, 0), (3, 0), (3, 2)])
    def test_closed_form_kernel_stops_past_the_limit(self, n, slot, sign, diagnostics):
        # a free point mass, whose closed-form kernel reads no time, moving
        # by 6 sign per step: q reaches the limit at step STEP and passes it
        # at the next, whose end is the divergence time
        def scenario(periods):
            q0, qdot0 = np.zeros(n), np.zeros(n)
            q0[slot] = sign * (1e8 - 6.0 * self.STEP)
            qdot0[slot] = sign * 2.0 ** 12
            return free_scenario(
                plant=point_mass_plant(n), q0=q0, qdot0=qdot0, dt=self.DT,
                dt_control=8 * self.DT, duration=periods * 8 * self.DT,
                trajectory=SinusoidTrajectory(amplitude=(1e-12,) * n, frequency=(1.0,) * n))

        with pytest.raises(SimulationDiverged) as excinfo:
            simulate(scenario(16), diagnostics=diagnostics)
        exc = excinfo.value
        assert exc.time == (self.STEP + 1) * self.DT
        partial = exc.partial_trace
        self.assert_head(partial, simulate(scenario(7), diagnostics=diagnostics), self.STEP + 1)
        if diagnostics:
            assert partial.fine.q[-1, slot] == sign * 1e8
            assert partial.fine.t[-1] == self.STEP * self.DT

    @staticmethod
    def assert_head(partial, short, fine_rows):
        """partial holds the 8 rows up to the failing step's period, the
        rows of the 7-period run short, and with diagnostics fine_rows fine
        rows, short's 57 first; without, no fine grid."""
        assert len(partial) == 8
        for f in dataclasses.fields(partial):
            if f.name != "fine":
                assert np.array_equal(getattr(partial, f.name), getattr(short, f.name))
        if short.fine is None:
            assert partial.fine is None
            return
        assert len(partial.fine.t) == fine_rows
        for name in ("t", "q", "q_dot"):
            assert np.array_equal(getattr(partial.fine, name)[:57], getattr(short.fine, name))


def _arm_overflow(duration):
    """A featherweight arm (1e-150 kg links) with stiff friction: a stage
    rate overflows once the delayed torque arrives, at 0.12 s, and the next
    stage's cos rejects the infinite position."""
    return Scenario(
        plant=two_link_plant(TwoLinkParams(m1=1e-150, m2=1e-150, I1=0.0, I2=0.0,
                                           viscous=1e10, gravity=0.0)),
        trajectory=SinusoidTrajectory(), delay=DelayProfile("S4"),
        controller=ArolcConfig(GainSet.identity(2)), duration=duration,
        dt=1e-3, dt_control=1e-2, qdot0=np.zeros(2))


def _gain_overflow():
    """A reference of amplitude 1e155: ||s|| overflows and the second
    period's adaptation drives c_hat to inf."""
    return Scenario(
        plant=two_link_plant(TwoLinkParams()),
        trajectory=SinusoidTrajectory(amplitude=(1e155, 1e155), frequency=(1.0, 1.0)),
        delay=DelayProfile("S4"), controller=ArolcConfig(GainSet.identity(2)),
        duration=1.0, dt=1e-3, dt_control=1e-2)


class TestCallPath:
    """A run whose law is wrapped (controllers.arolc_step or pcon_step
    replaced on the module) and whose plant has an accel set on the
    instance, as a tracer instruments both, calls them: one law call per
    period and four accel calls per RK4 step, with every Trace and
    FineRecord array byte-identical to the run that splices both."""

    RUNS = {
        "wmr_s1_arolc": lambda: TestPinnedTraces.shipped("wmr_s1_arolc", "1.0"),
        "wmr_s1_pcon": lambda: TestPinnedTraces.shipped("wmr_s1_pcon", "1.0"),
        "wmr_s4_pconf": lambda: TestPinnedTraces.shipped("wmr_s4_pconf", "1.0"),
        "wmr_none": lambda: dataclasses.replace(
            TestPinnedTraces.shipped("wmr_s1_arolc", "1.0"), controller=None),
        "two_link_s1_arolc": lambda: TestPinnedTraces.shipped("two_link_s1_arolc", "0.3"),
        "arm-overflow": lambda: _arm_overflow(0.5),
        "gain-overflow": _gain_overflow,
    }

    @staticmethod
    def run(sc, diagnostics):
        """The trace of sc, or the partial trace where it diverges."""
        try:
            return simulate(sc, diagnostics=diagnostics)
        except SimulationDiverged as exc:
            return exc.partial_trace

    @pytest.mark.parametrize("diagnostics", [True, False], ids=["diagnostics", "plain"])
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_wrapped_run_is_byte_identical(self, name, diagnostics, monkeypatch):
        spliced = self.run(self.RUNS[name](), diagnostics)
        laws, stages = [], []
        for law in ("arolc_step", "pcon_step"):
            def counted(*args, inner=getattr(controllers, law)):
                laws.append(args)
                return inner(*args)

            monkeypatch.setattr(controllers, law, counted)
        sc = self.RUNS[name]()
        accel = sc.plant.accel

        def counted_accel(*args):
            stages.append(args)
            return accel(*args)

        sc.plant.accel = counted_accel
        called = self.run(sc, diagnostics)
        for f in dataclasses.fields(Trace):
            if f.name != "fine":
                a, b = getattr(spliced, f.name), getattr(called, f.name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        assert (spliced.fine is None) == (called.fine is None) == (not diagnostics)
        for f in dataclasses.fields(sim.FineRecord) if diagnostics else ():
            a, b = getattr(spliced.fine, f.name), getattr(called.fine, f.name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        steps = round(sc.dt_control / sc.dt)
        assert len(laws) == (len(called) if sc.controller is not None else 0)
        if name == "arm-overflow":
            # the step that diverged called accel at its stages up to the one
            # whose position math rejects, in the last row's period
            done, last = (len(called.fine.t) - 1, 1) if diagnostics else ((len(called) - 1)
                                                                             * steps, steps)
            assert 4 * done < len(stages) <= 4 * (done + last)
        else:
            assert len(stages) == 4 * (len(called) - 1) * steps


class TestPinnedTraces:
    """sha256 over every Trace array of the first 2 s of four shipped robot
    runs, of the first 10.5 s of a fifth (through two payload switches), of
    the first 1 s of the shipped two-link run (with its fine-grid q and
    q_dot) and of a 2 s robot run through a payload switch (with every
    FineRecord array), and over the two-link run's error-dynamics residual.
    The digests pin the simulator's floating-point
    results (recorded with numpy 2 / OpenBLAS on x86-64), so a change that
    moves one bit of a trace fails here. The plants' accel and both control
    laws are plain float arithmetic, so no per-step or per-period operation
    depends on the BLAS build; what still does is the Lyapunov solve that
    sets P once per gain set and the residual's stacked solve. The three
    predictor runs cover its window kinds: the true delay of S1 (up to
    0.1 s) and S2 (0.005 to 0.029 s over these 2 s) and S4's fixed
    h_estimate (0.12 s, 12 or 13 knots); two more S4 runs take a window of
    zero length and one that starts before the first command. Three more
    robot runs hold the last command: their stage lookups fall at or after
    the period's own stamp."""

    DIGESTS = {
        "wmr_s1_arolc": "1f5e7f384e35941bf3d1bd09ca300e8441f8fd9bf25d6cc35abb2b1b851a1350",
        "wmr_s1_pcon": "6d3b739977c1ca46e77415ea011747325aa18bb6b9baa16c58fcc27a95f19034",
        "wmr_s2_pcon": "59ef087671babe56606def017c26dcb71287e2b5dd322ed1e65807bf60064820",
        "wmr_s4_pconf": "37b360da491a5e7ad33600ff2bc3289e608f1134d8c07402a54522570ce70ee7",
    }
    TWO_LINK_FINE_DIGEST = "b66cf96802ecba1dd2f670c2d134d6a05dae4e31e5bf77ced0651a579eefb149"
    # the first 10.5 s of wmr_s3_arolc, across the payload switches at 5 s
    # and 10 s
    SWITCHES_DIGEST = "511886e2a6fd41ce8c1d96ce5db7973c73cf0702c723ef6d62e9aba8b47bd2ad"
    TWO_LINK_RESIDUAL_DIGEST = (
        "cbdd88e8440bd2389bdbd9296ff98c7ec874e4966cb5e36167dc5d44f1e3957b")
    # every Trace array and every FineRecord array (t, q, q_dot, cmd_u and
    # cmd_du) of the first 2 s of wmr_s1_arolc with diagnostics, its payload
    # on for the first 1 s only, so that the run switches at 1 s: the
    # robot's fine grid, 10 steps per period, and its per-command records
    ROBOT_FINE_DIGEST = "73133d013d352f0f324a7524c1a0514e9672a797baa067110a363f6f4cf8d6c5"
    # runs whose kernel reads t, which no shipped scenario has: the shipped
    # robot and arm scenarios on the disturbed plants of TestUnrolledStep,
    # the robot for 6 s through its payload switches at 3 s and 5 s, the
    # arm for 1 s with its fine-grid q and q_dot
    DISTURBED_DIGESTS = {
        "disturbed-wmr": "7b85c10ff2dab0a103c3823a4db16a68d5da0444971052ef14efbaea9e1cc1a4",
        "two-link": "25a845fdfb1521e48b03a323f197033ffc7809c6fed9759cc25363749cfad7cb",
    }
    DISTURBED_RUNS = {"disturbed-wmr": ("wmr_s1_arolc", "6.0", False),
                      "two-link": ("two_link_s1_arolc", "1.0", True)}
    # the first 2 s of wmr_s4_pconf with other fixed windows: zero length
    # (every integral zero), and 0.5 s, which reaches back before the first
    # command for the first 50 periods
    WINDOW_DIGESTS = {
        "0": "f69736b35b8ff0dc4a316e20c774cde2e6b5b68bd94e20f2202921b2c5f22bad",
        "0.5": "8f307c078b366fddac16c968d5a19f2604cc2a4d8ce3ab10ba4743c5b99336f7",
    }

    # the first 2 s of wmr_s1_arolc under a delay (kind none, or constant
    # at h0 s) whose lookups fall in the last command's hold: on every
    # period at none and 4 ms, and at one control period, 10 ms, where an
    # end stage's lookup lands exactly on the period's own stamp
    HOLD_DIGESTS = {
        "none": "906771a6ae91501070214b09168a4ed6e3445aa9b7c8aca7873fbedab8f059ea",
        "0.004": "607658a650efe6487f781ad964a94ea4386483c1c8535645e3445dad63672e15",
        "0.01": "5b819e67a273c591c2243b257d29c482c2883337ea88923c93e6b38830742aec",
    }

    @staticmethod
    def digest(trace):
        digest = hashlib.sha256()
        arrays = [getattr(trace, name) for name in (
            "t", "q", "q_dot", "q_desired", "e1", "tau_cmd", "tau_applied",
            "c_hat", "s_norm", "h")]
        if trace.fine is not None:
            arrays += [trace.fine.q, trace.fine.q_dot]
        for array in arrays:
            digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
        return digest.hexdigest()

    @staticmethod
    def shipped(stem, duration):
        config = load_config(f"scenarios/{stem}.ini")
        apply_override(config, "sim.duration", duration)
        return build_scenario(config)

    @pytest.mark.parametrize("stem", sorted(DIGESTS))
    def test_digest(self, stem):
        trace = simulate(self.shipped(stem, "2.0"))
        assert self.digest(trace) == self.DIGESTS[stem]

    def test_digest_across_payload_switches(self):
        trace = simulate(self.shipped("wmr_s3_arolc", "10.5"))
        assert self.digest(trace) == self.SWITCHES_DIGEST

    def test_two_link_fine_grid_digest(self):
        trace = simulate(self.shipped("two_link_s1_arolc", "1.0"), diagnostics=True)
        assert self.digest(trace) == self.TWO_LINK_FINE_DIGEST

    def test_robot_fine_grid_digest(self):
        config = load_config("scenarios/wmr_s1_arolc.ini")
        apply_override(config, "sim.duration", "2.0")
        apply_override(config, "payload.period_on", "1.0")
        trace = simulate(build_scenario(config), diagnostics=True)
        digest = hashlib.sha256()
        arrays = [getattr(trace, f.name) for f in dataclasses.fields(trace) if f.name != "fine"]
        arrays += [getattr(trace.fine, f.name) for f in dataclasses.fields(trace.fine)]
        for array in arrays:
            digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
        assert digest.hexdigest() == self.ROBOT_FINE_DIGEST

    @pytest.mark.parametrize("name", sorted(DISTURBED_RUNS))
    def test_disturbed_digest(self, name):
        stem, duration, diagnostics = self.DISTURBED_RUNS[name]
        sc = dataclasses.replace(self.shipped(stem, duration),
                                 plant=TestUnrolledStep.PLANTS[name]())
        trace = simulate(sc, diagnostics=diagnostics)
        assert self.digest(trace) == self.DISTURBED_DIGESTS[name]

    @pytest.mark.parametrize("h_estimate", sorted(WINDOW_DIGESTS))
    def test_fixed_window_digest(self, h_estimate):
        config = load_config("scenarios/wmr_s4_pconf.ini")
        apply_override(config, "sim.duration", "2.0")
        apply_override(config, "controller.h_estimate", h_estimate)
        trace = simulate(build_scenario(config))
        assert self.digest(trace) == self.WINDOW_DIGESTS[h_estimate]

    @pytest.mark.parametrize("h0", sorted(HOLD_DIGESTS))
    def test_hold_digest(self, h0):
        config = load_config("scenarios/wmr_s1_arolc.ini")
        apply_override(config, "sim.duration", "2.0")
        apply_override(config, "delay.kind", "none" if h0 == "none" else "constant")
        if h0 != "none":
            apply_override(config, "delay.h0", h0)
        sc = build_scenario(config)
        steps = round(sc.dt_control / sc.dt)
        *_, plans = _plan_periods(sc.delay, np.arange(201) * sc.dt_control, 0, 201, steps,
                                  sc.dt, 2)
        # per period: a period whose lookups reach its own command starts a
        # group, whose last flag says so
        after = [plan is not None and plan[-1] for plan in plans]
        assert all(after) if h0 != "0.01" else any(after)
        assert self.digest(simulate(sc)) == self.HOLD_DIGESTS[h0]

    def test_two_link_residual_digest(self):
        # sha256 over the (times, residual 2-norms) error_dynamics_residual
        # returns on the same 1 s run
        sc = self.shipped("two_link_s1_arolc", "1.0")
        times, resid = error_dynamics_residual(simulate(sc, diagnostics=True), sc)
        digest = hashlib.sha256()
        for array in (times, resid):
            digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
        assert digest.hexdigest() == self.TWO_LINK_RESIDUAL_DIGEST


def reference_residual(trace, sc, warmup=0.5):
    """The error-dynamics residual by its per-instant definition: for each
    checked instant, rhs from ``uncertainty_residual`` on the two bracketing
    command records, blended with the actuator's weight (the last record
    after the last command)."""
    fine = trace.fine
    cfg = sc.controller
    times = fine.t
    dt = times[1] - times[0]
    qd_dot_d = np.array([sc.trajectory(float(t))[1] for t in times])
    qd_ddot_d = np.array([sc.trajectory(float(t))[2] for t in times])
    e1_dot = qd_dot_d - fine.q_dot
    e1_ddot = (e1_dot[2:] - e1_dot[:-2]) / (2.0 * dt)
    cmd_t = trace.t

    def rhs_for(j, i, t):
        _, qd_dot_j, qd_ddot_j = sc.trajectory(float(cmd_t[j]))
        sigma = uncertainty_residual(
            fine.q[i], fine.q_dot[i], trace.q[j], trace.q_dot[j],
            fine.cmd_u[j], qd_ddot_d[i], qd_ddot_j, sc.plant, sc.plant, t=t,
        )
        e1_dot_j = qd_dot_j - trace.q_dot[j]
        return -cfg.gains.K2 @ e1_dot_j - cfg.gains.K1 @ trace.e1[j] + sigma - fine.cmd_du[j]

    out_t, out_r = [], []
    for i in range(1, len(times) - 1):
        t = float(times[i])
        if t < warmup:
            continue
        theta = t - delay_at(sc.delay, t)
        idx = bisect_right(list(cmd_t), theta)
        if idx == 0:
            continue
        if idx == len(cmd_t):
            rhs_val = rhs_for(idx - 1, i, t)
        else:
            lam = (theta - cmd_t[idx - 1]) / (cmd_t[idx] - cmd_t[idx - 1])
            rhs_val = (1.0 - lam) * rhs_for(idx - 1, i, t) + lam * rhs_for(idx, i, t)
        out_t.append(t)
        out_r.append(float(np.linalg.norm(e1_ddot[i - 1] - rhs_val)))
    return np.array(out_t), np.array(out_r)


def _arolc_scenario(plant, trajectory, delay, **kwargs):
    gains = GainSet.identity(plant.dim)
    defaults = dict(duration=1.0, dt=1e-3, dt_control=1e-2)
    defaults.update(kwargs)
    return Scenario(plant=plant, trajectory=trajectory, delay=delay,
                    controller=ArolcConfig(gains), **defaults)


RESIDUAL_SCENARIOS = {
    "two_link_s1": lambda: _arolc_scenario(
        two_link_plant(TwoLinkParams(viscous=0.1), mismatch=0.2),
        SinusoidTrajectory(), DelayProfile("S1")),
    # the payload switches every 0.3 s, so M depends on t
    "wmr_payload_s3": lambda: _arolc_scenario(
        reduced_wmr_dynamics(WmrParams(), mismatch=0.1, viscous=0.2,
                             payload=PayloadSchedule(period_on=0.3, period_off=0.3,
                                                     offsets=((0.05, 0.02), (-0.03, 0.01)))),
        CircleTrajectory(), DelayProfile("S3")),
    "oscillator": lambda: _arolc_scenario(
        oscillator_plant(stiffness=2.0), SinusoidTrajectory(amplitude=(0.5,),
                                                            frequency=(1.3,)),
        DelayProfile("custom", a=0.01, b=0.03, omega=2.0)),
}


class TestErrorDynamicsResidual:
    """The array pass against the per-instant definition."""

    @pytest.fixture(scope="class", params=sorted(RESIDUAL_SCENARIOS))
    def run(self, request):
        sc = RESIDUAL_SCENARIOS[request.param]()
        return simulate(sc, diagnostics=True), sc

    @staticmethod
    def assert_matches_reference(trace, sc, warmup=0.5):
        times, resid = error_dynamics_residual(trace, sc, warmup)
        ref_t, ref_r = reference_residual(trace, sc, warmup)
        assert len(times) > 0
        np.testing.assert_array_equal(times, ref_t)
        np.testing.assert_allclose(resid, ref_r, rtol=0.0, atol=1e-12)
        return times

    def test_matches_reference(self, run):
        trace, sc = run
        times = self.assert_matches_reference(trace, sc)
        assert times[0] >= 0.5

    @pytest.mark.parametrize("warmup", [0.0, 0.2345, 0.9])
    def test_warmup_cut(self, run, warmup):
        trace, sc = run
        times = self.assert_matches_reference(trace, sc, warmup)
        assert times[0] >= warmup
        later = trace.fine.t[1:-1][trace.fine.t[1:-1] >= warmup]
        assert len(times) == len(later) - np.count_nonzero(
            later - delay_at(sc.delay, later) < 0.0)

    def test_lookups_before_first_command_skipped(self, run):
        trace, sc = run
        times = self.assert_matches_reference(trace, sc, warmup=0.0)
        interior = trace.fine.t[1:-1]
        np.testing.assert_array_equal(
            times, interior[interior - delay_at(sc.delay, interior) >= 0.0])

    def test_lookups_after_last_command_held(self, run):
        # drop the command records of the last 0.3 s: the lookups of the
        # instants after the new last command use it alone
        trace, sc = run
        fine = trace.fine
        keep = trace.t <= trace.t[-1] - 0.3
        cut = dataclasses.replace(fine, **{
            f.name: getattr(fine, f.name)[keep]
            for f in dataclasses.fields(fine) if f.name.startswith("cmd_")})
        cut_trace = dataclasses.replace(trace, fine=cut, **{
            f.name: getattr(trace, f.name)[keep]
            for f in dataclasses.fields(trace) if f.name != "fine"})
        times = self.assert_matches_reference(cut_trace, sc)
        assert np.count_nonzero(times - delay_at(sc.delay, times) > cut_trace.t[-1]) > 100

    @pytest.mark.parametrize("payload", [None, PayloadSchedule(period_on=0.3, period_off=0.3)],
                             ids=["bare", "payload"])
    def test_blocks_inside_the_warmup(self, payload):
        # at dt = 1e-4 the first two blocks of checked instants lie wholly
        # before the 0.5 s warmup: the robot's faces see stacks of no state
        sc = _arolc_scenario(
            reduced_wmr_dynamics(WmrParams(), mismatch=0.1, payload=payload),
            CircleTrajectory(), DelayProfile("S3"), duration=0.6, dt=1e-4)
        times = self.assert_matches_reference(simulate(sc, diagnostics=True), sc)
        assert times[0] >= 0.5

    @pytest.mark.parametrize("controller, diagnostics, message", [
        (None, False, "needs a diagnostics trace"),
        (PconConfig(), True, "the identity applies to adaptive-robust runs"),
    ], ids=["no-diagnostics", "not-arolc"])
    def test_trace_without_the_identity_rejected(self, controller, diagnostics, message):
        sc = RESIDUAL_SCENARIOS["oscillator"]()
        sc.controller = controller or sc.controller
        sc.duration = 0.1
        trace = simulate(sc, diagnostics=diagnostics)
        with pytest.raises(ValueError, match=message):
            error_dynamics_residual(trace, sc)

    def test_run_diverged_in_its_first_step(self):
        # a start far beyond the divergence limit's reach: the partial
        # trace holds one fine row and no interior instant to check
        sc = dataclasses.replace(TestPinnedTraces.shipped("two_link_s1_arolc", "0.02"),
                                 q0=np.array([1e7, 0.0]), qdot0=np.array([9e7, 0.0]))
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate(sc, diagnostics=True)
        partial = excinfo.value.partial_trace
        assert len(partial.fine.t) == 1
        times, resid = error_dynamics_residual(partial, sc)
        assert times.shape == resid.shape == (0,)

    @pytest.mark.parametrize("fine_rows", [1, 2, 3])
    def test_fine_grid_without_interior_instants(self, fine_rows):
        # a grid of one or two rows has no interior instant; three rows
        # have one, whose lookup falls before the first command
        sc = RESIDUAL_SCENARIOS["oscillator"]()
        sc.duration = 0.1
        trace = simulate(sc, diagnostics=True).head(1, fine_rows)
        times, resid = error_dynamics_residual(trace, sc, warmup=0.0)
        assert times.shape == resid.shape == (0,)

    @pytest.mark.parametrize("warmup", [math.nan, math.inf, -math.inf, -0.1])
    def test_bad_warmup_rejected(self, warmup):
        sc = RESIDUAL_SCENARIOS["oscillator"]()
        sc.duration = 0.1
        trace = simulate(sc, diagnostics=True)
        with pytest.raises(ValueError, match="warmup"):
            error_dynamics_residual(trace, sc, warmup)


class TestErrorDynamicsIdentity:
    def test_short_mismatched_run(self):
        gains = GainSet.identity(2)
        sc = Scenario(
            plant=two_link_plant(TwoLinkParams(viscous=0.1), mismatch=0.2),
            trajectory=SinusoidTrajectory(),
            delay=DelayProfile("S1"),
            controller=ArolcConfig(gains),
            duration=2.0,
            dt=1e-4,
            dt_control=1e-2,
        )
        trace = simulate(sc, diagnostics=True)
        times, resid = error_dynamics_residual(trace, sc)
        assert len(times) > 1000
        assert resid.max() <= 1e-4


class TestWarningsAndErrors:
    @pytest.mark.parametrize("field", ["q0", "qdot0"])
    def test_initial_state_of_wrong_length_rejected(self, field):
        sc = free_scenario(**{field: np.zeros(3)})
        with pytest.raises(ValueError, match=rf"^{field} must have 1 entries"):
            sc.validate()
        with pytest.raises(ValueError, match=rf"^{field} must have 1 entries"):
            simulate(sc)

    @pytest.mark.parametrize("field", ["duration", "dt", "dt_control"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_period_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite and positive$"):
            free_scenario(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["q0", "qdot0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_state_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite$"):
            free_scenario(**{field: np.array([value])}).validate()

    @pytest.mark.parametrize("changes, message", [
        (dict(controller=PconConfig()), r"controller vartheta must have shape \(2, 2\), one "
                                        r"row per plant coordinate, got \(1, 1\)"),
        (dict(controller=ArolcConfig(GainSet.identity(3))),
         r"controller gains must have shape \(2, 2\), one row per plant coordinate, "
         r"got \(3, 3\)"),
        (dict(trajectory=ZERO_TRAJ), "trajectory must have 2 coordinates, one per plant "
                                     r"coordinate, got 1"),
    ], ids=["pcon-vartheta", "arolc-gains", "trajectory"])
    def test_dimension_of_each_part_checked(self, changes, message):
        # each used to pass validate and fail inside the first control step
        # (or, for the trajectory, name q0)
        sc = Scenario(**{**dict(plant=two_link_plant(TwoLinkParams()),
                                trajectory=SinusoidTrajectory(), duration=0.1,
                                dt=1e-3), **changes})
        with pytest.raises(ValueError, match="^" + message):
            sc.validate()

    def test_margin_warning(self):
        gains = GainSet.identity(2)
        sc = Scenario(
            plant=two_link_plant(TwoLinkParams()),
            trajectory=SinusoidTrajectory(),
            delay=DelayProfile("S2"),  # peak 0.125 s >= margin 0.1249 s
            controller=ArolcConfig(gains),
            duration=0.1,
            dt=1e-3,
            dt_control=1e-2,
        )
        with pytest.warns(UserWarning, match="delay margin"):
            simulate(sc)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            simulate(free_scenario(duration=0.0))

    @pytest.mark.parametrize("controller", ["arolc", GainSet.identity(1)],
                             ids=["kind-string", "gain-set"])
    def test_controller_must_be_a_config(self, controller):
        with pytest.raises(ValueError, match="^controller must be an ArolcConfig, "
                                             "a PconConfig or None, got"):
            free_scenario(controller=controller).validate()

    @pytest.mark.parametrize("field", ["duration", "dt", "dt_control", "q0", "qdot0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        # the start state is one entry per coordinate of the 1-DOF plant
        value = np.array([value]) if field.startswith("q") else value
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            free_scenario(**{field: value}).validate()

    def test_oversized_diagnostics_grid_rejected(self):
        # 2e6 control rows fit the trace cap, but 2e8 fine-grid rows of
        # 3 float64 (about 4.8 GB) do not; raised before anything is allocated
        sc = free_scenario(duration=2e4, dt=1e-4)
        sc.validate()
        with pytest.raises(ValueError, match=r"\[sim\] duration"):
            simulate(sc, diagnostics=True)

    def test_oversized_stage_table_rejected(self):
        # 1e6 RK4 steps per control period: the blended table alone would
        # take 24 MB, but with the block plan and the nested-list copy the
        # stages read, about 900 MB
        with pytest.raises(ValueError, match="RK4 steps per control period"):
            free_scenario(dt=1e-7, dt_control=0.1, duration=0.2).validate()

    @pytest.mark.parametrize("make, n", [
        (lambda: point_mass_plant(1), 1), (lambda: point_mass_plant(2), 2),
        (lambda: point_mass_plant(3), 3), (lambda: two_link_plant(TwoLinkParams()), 2),
        (lambda: reduced_wmr_dynamics(WmrParams(), payload=PayloadSchedule(
            period_on=0.004, period_off=0.004)), 2),
        (coupled_plant, 3),
    ], ids=["point-mass-1", "point-mass-2", "point-mass-3", "arm", "scheduled-robot",
            "disturbed-scheduled-3"])
    def test_period_peak_within_the_validated_count(self, make, n):
        # what validate caps: the growth of the peak per RK4 step of a
        # period, from two runs of two periods under S1 (the robot through
        # its payload switches), each compiled before it is traced. The
        # period's fixed part cancels; list over-allocation moves the
        # measured growth by a few hundredths of a word, so one word per
        # step is allowed on top of the count
        def peak(steps, dt=1e-5):
            sc = free_scenario(plant=make(), delay=DelayProfile("S1"),
                               trajectory=SinusoidTrajectory(amplitude=(0.1,) * n,
                                                             frequency=(1.0,) * n),
                               controller=ArolcConfig(GainSet.identity(n)),
                               duration=2 * steps * dt, dt=dt, dt_control=steps * dt)
            simulate(sc)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                simulate(sc)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        words_per_step = (peak(3000) - peak(1000)) / (8 * 2000)
        assert words_per_step < sim._step_words(n) + 1

    def test_dt_coarser_than_control_rejected(self):
        with pytest.raises(ValueError):
            simulate(free_scenario(dt=0.02, dt_control=0.01))

    def test_control_period_not_a_multiple_of_dt_rejected(self):
        with pytest.raises(ValueError, match="^dt_control must be an integer multiple of dt$"):
            free_scenario(dt=0.003, dt_control=0.01).validate()

    def test_divergence_carries_partial_trace(self):
        sc = Scenario(
            plant=two_link_plant(TwoLinkParams()),
            trajectory=SinusoidTrajectory(),
            delay=DelayProfile("S4"),
            controller=PconConfig(kappa=50.0, vartheta=np.eye(2), k_b=2000.0),
            duration=20.0,
            dt=1e-3,
            dt_control=1e-2,
        )
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate(sc)
        exc = excinfo.value
        assert 0.0 < exc.time <= 20.0
        assert len(exc.partial_trace) >= 1

    @pytest.mark.parametrize("bad", [[0.0, math.nan], [math.nan, 0.0], [0.0, math.inf]],
                             ids=["nan-second", "nan-first", "inf"])
    def test_non_finite_accel_in_any_slot_diverges(self, bad):
        # [0.0, nan] leaves q0 finite and makes q1 and q1_dot NaN: a
        # max(map(abs, y)) test would miss it, since max skips a NaN that
        # is not first
        t_star = 0.1234

        class Blowup(PlantModel):
            dim = 2

            def accel(self, q, q_dot, tau_applied, t):
                return list(bad) if t > t_star else [0.0, 0.0]

        sc = free_scenario(
            plant=Blowup(), duration=1.0,
            trajectory=SinusoidTrajectory(amplitude=(1e-12, 1e-12), frequency=(1.0, 1.0)),
            q0=np.array([1.0, 2.0]), qdot0=np.array([0.5, -0.5]))
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate(sc)
        exc = excinfo.value
        # the step over [0.123, 0.124] is the first whose stages pass t*
        assert exc.time == pytest.approx(0.124, abs=1e-12)
        partial = exc.partial_trace
        assert len(partial) == 13  # rows 0.00 .. 0.12
        assert np.isfinite(partial.q).all() and np.isfinite(partial.q_dot).all()
        np.testing.assert_allclose(partial.q[-1], [1.06, 1.94], rtol=0, atol=1e-12)

    def test_diverged_diagnostics_run_keeps_its_rows(self):
        # a unit point mass whose accel turns NaN after t_blow, under the
        # adaptive-robust law: the partial trace of a diagnostics run is the
        # head of the same run cut short before the blow-up, its fine grid
        # ending at the last finite RK4 step
        class Blowup(PlantModel):
            dim = 2

            def __init__(self, t_blow):
                super().__init__()
                self.t_blow = t_blow

            def mass_matrix(self, q, t=None):
                return np.eye(2)

            def bias_vector(self, q, q_dot, t):
                return np.zeros(2)

            def accel(self, q, q_dot, tau_applied, t):
                return [0.0, math.nan] if t > self.t_blow else list(tau_applied)

        def scenario(t_blow, duration):
            return free_scenario(
                plant=Blowup(t_blow), trajectory=SinusoidTrajectory(),
                controller=ArolcConfig(GainSet.identity(2)), duration=duration,
                q0=np.array([1.0, 2.0]), qdot0=np.array([0.5, -0.5]))

        with pytest.raises(SimulationDiverged) as excinfo:
            simulate(scenario(0.1234, 1.0), diagnostics=True)
        partial = excinfo.value.partial_trace
        fine = partial.fine
        assert len(partial) == 13  # rows 0.00 .. 0.12
        assert len(fine.t) == 124 and fine.t[-1] == pytest.approx(0.123, abs=1e-12)
        assert np.isfinite(fine.q).all() and np.isfinite(fine.q_dot).all()
        assert fine.cmd_u.shape == fine.cmd_du.shape == (13, 2)
        assert (fine.cmd_du != 0.0).all()

        full = simulate(scenario(math.inf, 0.13), diagnostics=True)
        for f in dataclasses.fields(partial):
            if f.name != "fine":
                assert np.array_equal(getattr(partial, f.name), getattr(full, f.name)[:13])
        for name, rows in (("t", 124), ("q", 124), ("q_dot", 124),
                           ("cmd_u", 13), ("cmd_du", 13)):
            assert np.array_equal(getattr(fine, name), getattr(full.fine, name)[:rows])


    def test_arm_stage_overflow_diverges_with_its_rows(self):
        # a featherweight arm (1e-150 kg links) with stiff friction: once the
        # delayed torque arrives at t = 0.12 s, a stage rate overflows and the
        # next stage position is infinite, whose cos math rejects with
        # ValueError. The run ends in SimulationDiverged, with no warning,
        # and its partial trace is the head of the run cut before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationDiverged) as excinfo:
                simulate(_arm_overflow(0.5), diagnostics=True)
        exc = excinfo.value
        assert exc.time == pytest.approx(0.121, abs=1e-12)
        partial = exc.partial_trace
        assert len(partial) == 13 and len(partial.fine.t) == 121
        full = simulate(_arm_overflow(0.12), diagnostics=True)
        for f in dataclasses.fields(partial):
            if f.name != "fine":
                assert np.array_equal(getattr(partial, f.name), getattr(full, f.name))
        for f in dataclasses.fields(partial.fine):
            assert np.array_equal(getattr(partial.fine, f.name), getattr(full.fine, f.name))

    @pytest.mark.parametrize("kind, time, rows", [("S4", 0.01, 2), ("none", 0.001, 1)])
    def test_overflowed_adaptation_diverges_with_its_rows(self, kind, time, rows):
        # a reference of amplitude 1e155: ||s|| overflows, and under S4 the
        # second period's adaptation drives c_hat to inf while the delayed
        # state is still finite. The run ends in SimulationDiverged at that
        # period, its row recording the infinite gain; without a delay the
        # state itself diverges in the first step
        sc = Scenario(
            plant=two_link_plant(TwoLinkParams()),
            trajectory=SinusoidTrajectory(amplitude=(1e155, 1e155), frequency=(1.0, 1.0)),
            delay=DelayProfile(kind), controller=ArolcConfig(GainSet.identity(2)),
            duration=1.0, dt=1e-3, dt_control=1e-2)
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate(sc, diagnostics=True)
        exc = excinfo.value
        assert exc.time == pytest.approx(time, abs=1e-12)
        partial = exc.partial_trace
        assert len(partial) == rows and len(partial.fine.t) == 10 * rows - 9
        assert np.isfinite(partial.q).all() and np.isfinite(partial.q_dot).all()
        assert np.isfinite(partial.c_hat[:-1]).all()
        assert (partial.c_hat[-1] == math.inf) == (kind == "S4")


def savetxt_csv(trace, path):
    """trace.csv as np.savetxt writes it: the byte reference of trace_to_csv."""
    n = trace.n
    header = (["t"] + [f"{name}_{i}" for name in ("q", "qd", "e1", "tau_cmd", "tau_app")
                       for i in range(n)] + ["c_hat", "s_norm", "h"])
    data = np.column_stack([trace.t, trace.q, trace.q_desired, trace.e1, trace.tau_cmd,
                            trace.tau_applied, trace.c_hat, trace.s_norm, trace.h])
    np.savetxt(path, data, fmt="%.9g", delimiter=",", header=",".join(header), comments="")


# values whose text is easy to get wrong: signed zero, nan, infinities,
# subnormals and the extremes of the exponent
SPECIAL_VALUES = [-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e-300, 1e300,
                  -1e300, 123456789.5]


class TestTraceCsv:
    @staticmethod
    def assert_bytes_match_savetxt(trace, tmp_path):
        trace_to_csv(trace, tmp_path / "trace.csv")
        savetxt_csv(trace, tmp_path / "savetxt.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    # one row; a row short of one 512-row chunk, the chunk and a row over
    # it; two chunks and a row
    @pytest.mark.parametrize("rows", [1, 511, 512, 513, 1025])
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_bytes_match_savetxt(self, tmp_path, n, rows):
        rng = np.random.default_rng([n, rows])

        def column(*shape):
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 13, shape)
            a.reshape(-1)[rng.integers(0, a.size, len(SPECIAL_VALUES))] = SPECIAL_VALUES
            return a

        trace = Trace(column(rows), *(column(rows, n) for _ in range(6)),
                      *(column(rows) for _ in range(3)))
        self.assert_bytes_match_savetxt(trace, tmp_path)

    def test_diverged_partial_trace_bytes_match_savetxt(self, tmp_path):
        # the rows up to the period whose adaptation drove c_hat to inf
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate(_gain_overflow())
        partial = excinfo.value.partial_trace
        assert partial.c_hat[-1] == math.inf
        self.assert_bytes_match_savetxt(partial, tmp_path)

    def test_header_and_roundtrip(self, tmp_path):
        trace = simulate(free_scenario(duration=0.5))
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,q_0,qd_0,e1_0,tau_cmd_0,tau_app_0,c_hat,s_norm,h"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (len(trace), 9)
        np.testing.assert_allclose(data[:, 0], trace.t, atol=1e-9)
