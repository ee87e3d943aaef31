import math
import warnings

import numpy as np
import pytest

from arolc.controllers import (
    ArolcConfig,
    ArolcState,
    PconConfig,
    adapt_gain,
    arolc_step,
    make_controller,
    nominal_control,
    pcon_step,
    sliding_variable,
    switching_control,
    uncertainty_residual,
)
from arolc.delays import DelayProfile, delay_at
from arolc.plants import TwoLinkParams, point_mass_plant, two_link_plant
from arolc.sim import Scenario, simulate
from arolc.stability import GainSet, check_feasibility, delay_margin
from arolc.trajectories import SinusoidTrajectory

CFG = ArolcConfig(GainSet.identity(1), alpha=2.0, epsilon=0.1, gamma=1e-3,
                  c_hat_init=1.0)
DT = 0.01  # control period of the adaptation steps


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["alpha", "epsilon", "gamma", "c_hat_init"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_arolc_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ArolcConfig(GainSet.identity(1), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("kappa", math.nan), ("k_b", math.inf), ("vartheta", np.array([[math.nan]])),
        ("h_estimate", math.nan), ("h_estimate", math.inf), ("h_estimate", -0.06),
    ])
    def test_pcon_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PconConfig(**{field: value})


class TestSlidingVariable:
    def test_zero_error(self):
        np.testing.assert_allclose(sliding_variable(np.zeros(2), CFG), [0.0])

    def test_position_component(self):
        # bottom row of P = [0.5, 1.0]; e = [1, 0] -> s = 0.5
        np.testing.assert_allclose(sliding_variable([1.0, 0.0], CFG), [0.5])

    def test_velocity_component(self):
        np.testing.assert_allclose(sliding_variable([0.0, 1.0], CFG), [1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sliding_variable(np.zeros(3), CFG)


class TestNominalControl:
    def test_perfect_tracking(self):
        np.testing.assert_allclose(
            nominal_control([0.0], [0.0], [2.5], CFG), [2.5]
        )

    def test_unit_gains(self):
        np.testing.assert_allclose(nominal_control([1.0], [2.0], [0.0], CFG), [3.0])

    def test_scaled_gains(self):
        cfg = ArolcConfig(GainSet(K1=2.0 * np.eye(1), K2=np.eye(1), Q=np.eye(2)))
        np.testing.assert_allclose(nominal_control([1.0], [1.0], [1.0], cfg), [4.0])


class TestSwitchingControl:
    def test_zero_s(self):
        np.testing.assert_allclose(switching_control(np.zeros(2), 1.0, CFG), [0.0, 0.0])

    def test_outside_boundary_layer(self):
        # ||s|| = 5: unit direction scaled by alpha * c_hat = 2
        np.testing.assert_allclose(
            switching_control([3.0, 4.0], 1.0, CFG), [1.2, 1.6]
        )

    def test_inside_boundary_layer(self):
        np.testing.assert_allclose(switching_control([0.05], 1.0, CFG), [1.0])

    def test_continuity_at_boundary(self):
        direction = np.array([0.6, 0.8])
        below = switching_control((CFG.epsilon - 1e-14) * direction, 1.3, CFG)
        above = switching_control((CFG.epsilon + 1e-14) * direction, 1.3, CFG)
        assert np.abs(below - above).max() < 1e-12

    def test_magnitude_cap(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            s = rng.standard_normal(2) * 10.0 ** rng.integers(-3, 2)
            c_hat = float(rng.random() * 4 + 1e-3)
            du = switching_control(s, c_hat, CFG)
            assert np.linalg.norm(du) <= CFG.alpha * c_hat * (1 + 1e-12)

    def test_parallel_to_s(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = rng.standard_normal(3)
            cfg = ArolcConfig(GainSet.identity(3))
            du = switching_control(s, 0.7, cfg)
            assert float(s @ du) >= 0.0


class TestAdaptGain:
    def test_floor_branch(self):
        state = ArolcState(c_hat=0.0005)
        cfg = ArolcConfig(CFG.gains, gamma=1e-3, c_hat_init=1e-3)
        new = adapt_gain(state, [5.0], 0.01, DT, cfg)
        # rate is +gamma while at/below the floor
        assert new.c_hat == pytest.approx(max(0.0005 + 1e-3 * 0.01, 1e-3))

    def test_growth_branch(self):
        state = ArolcState(c_hat=1.0, s_prev=np.array([1.0]), t_prev=0.0)
        new = adapt_gain(state, [2.0], 0.01, DT, CFG)
        assert new.c_hat == pytest.approx(1.0 + 2.0 * DT)

    def test_decrease_branch(self):
        state = ArolcState(c_hat=1.0, s_prev=np.array([2.0]), t_prev=0.0)
        new = adapt_gain(state, [1.0], 0.01, DT, CFG)
        assert new.c_hat == pytest.approx(1.0 - 1.0 * DT)

    def test_equality_goes_to_decrease(self):
        state = ArolcState(c_hat=1.0, s_prev=np.array([1.0]), t_prev=0.0)
        new = adapt_gain(state, [1.0], 0.01, DT, CFG)  # s_dot = 0
        assert new.c_hat == pytest.approx(1.0 - 1.0 * DT)

    def test_first_step_conservative(self):
        state = ArolcState(c_hat=1.0)
        new = adapt_gain(state, [3.0], 0.0, DT, CFG)
        assert new.c_hat == pytest.approx(1.0 - 3.0 * DT)

    def test_never_below_gamma(self):
        rng = np.random.default_rng(5)
        state = ArolcState(c_hat=CFG.gamma)
        t = 0.0
        cfg = ArolcConfig(CFG.gains, gamma=1e-3, c_hat_init=1e-3)
        for _ in range(200):
            t += DT
            state = adapt_gain(state, rng.standard_normal(1) * 5.0, t, DT, cfg)
            assert state.c_hat >= cfg.gamma

    def test_time_must_advance(self):
        state = ArolcState(c_hat=1.0, s_prev=np.array([1.0]), t_prev=0.5)
        with pytest.raises(ValueError):
            adapt_gain(state, [1.0], 0.5, DT, CFG)


class TestArolcStep:
    def test_perfect_tracking_zero_torque(self):
        state = ArolcState(c_hat=1.0)
        desired = (np.zeros(1), np.zeros(1), np.zeros(1))
        out = arolc_step(state, np.zeros(1), np.zeros(1), desired,
                         (np.eye(1), np.zeros(1)), 0.0, DT, CFG)
        tau, new = out.tau, out.state
        np.testing.assert_allclose(tau, [0.0])
        # s = 0 falls in the decrease/hold branch
        assert new.c_hat <= 1.0

    def test_identity_nominal_model_passthrough(self):
        state = ArolcState(c_hat=1.0)
        desired = (np.array([1.0]), np.zeros(1), np.zeros(1))
        tau = arolc_step(state, np.zeros(1), np.zeros(1), desired,
                         (np.eye(1), np.zeros(1)), 0.0, DT, CFG).tau
        # tau = u exactly: u_hat = 1, du = alpha c_hat sign(s) = 2
        np.testing.assert_allclose(tau, [3.0])

    def test_worked_example(self):
        # e = [1, 0], qdd_d = 0, alpha = 2, c_hat = 1, eps = 0.1, Mhat = 2,
        # Nhat = 0.5: s = 0.5, u_hat = 1, du = 2 * 1 * s/||s|| = 2, u = 3,
        # tau = 2 * 3 + 0.5 = 6.5 (hand-evaluated independently)
        state = ArolcState(c_hat=1.0)
        desired = (np.array([1.0]), np.zeros(1), np.zeros(1))
        tau = arolc_step(state, np.zeros(1), np.zeros(1), desired,
                         (np.array([[2.0]]), np.array([0.5])), 0.0, DT, CFG).tau
        np.testing.assert_allclose(tau, [6.5])

    def test_switching_disabled(self):
        cfg = ArolcConfig(CFG.gains, switching=False, c_hat_init=1.0)
        state = cfg.initial_state()
        desired = (np.array([1.0]), np.zeros(1), np.zeros(1))
        tau = arolc_step(state, np.zeros(1), np.zeros(1), desired,
                         (np.eye(1), np.zeros(1)), 0.0, DT, cfg).tau
        np.testing.assert_allclose(tau, [1.0])


class TestPcon:
    ZERO = (np.zeros(1), np.zeros(1), np.zeros(1))

    @staticmethod
    def history(stamps, commands):
        """The pcon_step history (times, values, m) of scalar commands, one
        per stamp."""
        return np.array(stamps, float), np.array(commands, float).reshape(-1, 1), len(stamps)

    @staticmethod
    def integral(history, h, t):
        """The window integral e_z, read off the torque at zero error:
        with kappa = k_b = 1 and vartheta = I, tau = -e_z."""
        cfg = PconConfig(kappa=1.0, vartheta=np.eye(1), k_b=1.0)
        return -pcon_step(history, h, np.zeros(1), np.zeros(1), TestPcon.ZERO, t, cfg)

    def test_integral_constant(self):
        history = self.history([-1.0, -0.01], [2.0, 2.0])
        np.testing.assert_allclose(self.integral(history, 0.5, 0.0), [1.0])

    def test_integral_empty(self):
        np.testing.assert_allclose(self.integral(self.history([], []), 0.5, 0.0), [0.0])

    def test_integral_linear(self):
        ramp = np.linspace(0.0, 1.0, 21)
        # 0.5 under the ramp plus 0.5 s of the held last value 1
        np.testing.assert_allclose(self.integral(self.history(ramp, ramp), 1.5, 1.5), [1.0],
                                   atol=1e-12)

    def test_rows_from_m_on_are_not_read(self):
        # a trace's rows from the current one on are not yet commands
        times, values, _ = self.history([-0.6, -0.05, 0.0, 0.1], [0.5, 0.5, math.nan, 9.0])
        np.testing.assert_array_equal(self.integral((times, values, 2), 0.5, 0.0),
                                      self.integral(self.history([-0.6, -0.05], [0.5, 0.5]),
                                                    0.5, 0.0))

    def test_zero_error_zero_torque(self):
        cfg = PconConfig(kappa=1.0, vartheta=np.eye(1), k_b=2.0)
        tau = pcon_step(self.history([], []), 0.0, np.zeros(1), np.zeros(1), self.ZERO, 0.0,
                        cfg)
        np.testing.assert_allclose(tau, [0.0])

    def test_filtered_error_arithmetic(self):
        # rho = 0 + 1 * 1 - 1 * 0.25 = 0.75, tau = 2 * 0.75 = 1.5
        history = self.history([-0.6, -0.05], [0.5, 0.5])
        cfg = PconConfig(kappa=1.0, vartheta=np.eye(1), k_b=2.0)
        desired = (np.array([1.0]), np.zeros(1), np.zeros(1))
        tau = pcon_step(history, 0.5, np.zeros(1), np.zeros(1), desired, 0.0, cfg)
        np.testing.assert_allclose(tau, [1.5])

    def test_zero_vartheta_reduces_to_pd(self):
        history = self.history([-0.6, -0.05], [4.0, 4.0])
        cfg = PconConfig(kappa=2.0, vartheta=np.zeros((1, 1)), k_b=3.0)
        desired = (np.array([1.0]), np.array([0.5]), np.zeros(1))
        tau = pcon_step(history, 0.5, np.zeros(1), np.zeros(1), desired, 0.0, cfg)
        np.testing.assert_allclose(tau, [3.0 * (0.5 + 2.0 * 1.0)])


class TestControllerProtocol:
    """make_controller objects are the free functions plus their state."""

    GAINS = GainSet.identity(2)
    Q = np.array([0.1, -0.2])
    Q_DOT = np.array([0.3, 0.05])

    def scenario(self, kind, h_estimate=None, delay="S1", **kwargs):
        controller = {
            "arolc": ArolcConfig(self.GAINS),
            "pcon": PconConfig(kappa=2.0, vartheta=np.eye(2), k_b=3.0,
                               h_estimate=h_estimate),
            "none": None,
        }[kind]
        return Scenario(
            plant=two_link_plant(TwoLinkParams(), mismatch=0.2),
            trajectory=SinusoidTrajectory(), delay=DelayProfile(delay),
            controller=controller, **kwargs,
        )

    def test_arolc_step_matches_free_function(self):
        sc = self.scenario("arolc")
        ctrl = make_controller(sc, None)
        state = sc.controller.initial_state()
        nominal = (sc.plant.nominal_mass_matrix(self.Q),
                   sc.plant.nominal_bias_vector(self.Q, self.Q_DOT))
        for k in range(3):
            t = 0.01 * k
            rec = ctrl.step(t, self.Q, self.Q_DOT, sc.trajectory(t))
            ref = arolc_step(state, self.Q, self.Q_DOT, sc.trajectory(t), nominal, t,
                             sc.dt_control, sc.controller)
            state = ref.state
            np.testing.assert_array_equal(rec.tau, ref.tau)
            np.testing.assert_array_equal(rec.du, ref.du)
            assert rec.c_hat == ref.c_hat == state.c_hat == ctrl.state.c_hat
            assert rec.s_norm == ref.s_norm

    @pytest.mark.parametrize("kind", ["pcon", "pconf"])
    def test_pcon_step_matches_free_function(self, kind):
        # pconf: the fixed-window variant, h_estimate set. The controller at
        # row k reads the trace's rows 0 .. k - 1 and, for pcon, its h row
        sc = self.scenario("pcon", h_estimate=0.05 if kind == "pconf" else None,
                           duration=0.04, dt=1e-3)
        trace = simulate(sc)
        ctrl = make_controller(sc, trace)
        for k, t in enumerate(trace.t.tolist()):
            h = 0.05 if kind == "pconf" else delay_at(sc.delay, t)
            ref = pcon_step((trace.t, trace.tau_cmd, k), h, self.Q, self.Q_DOT,
                            sc.trajectory(t), t, sc.controller)
            rec = ctrl.step(t, self.Q, self.Q_DOT, sc.trajectory(t))
            np.testing.assert_array_equal(rec.tau, ref)
            assert (rec.c_hat, rec.s_norm, rec.u) == (0.0, 0.0, None)

    @staticmethod
    def assert_replays(sc):
        """Each command of the run is pcon_step on the run's earlier rows,
        over the true delay or the fixed window."""
        trace = simulate(sc)
        h_estimate = sc.controller.h_estimate
        for k, t in enumerate(trace.t.tolist()):
            h = delay_at(sc.delay, t) if h_estimate is None else h_estimate
            ref = pcon_step((trace.t, trace.tau_cmd, k), h, trace.q[k], trace.q_dot[k],
                            sc.trajectory(t), t, sc.controller)
            assert trace.tau_cmd[k].tobytes() == ref.tobytes()

    def test_pcon_run_replays_from_its_own_rows(self):
        self.assert_replays(self.scenario("pcon", delay="S1", duration=1.0, dt=1e-3))

    def test_pconf_window_beyond_peak_delay(self):
        # h_estimate 0.2 s over S3's 0.06 s peak: the controller's history
        # must reach back over its own window, not the profile's
        self.assert_replays(self.scenario("pcon", h_estimate=0.2, delay="S3", duration=1.0,
                                          dt=1e-3))

    def test_none_commands_zero(self):
        ctrl = make_controller(self.scenario("none"), None)
        rec = ctrl.step(0.0, self.Q, self.Q_DOT, SinusoidTrajectory()(0.0))
        np.testing.assert_array_equal(rec.tau, np.zeros(2))


class TestArolcRunReadsScenario:
    """An adaptive-robust run takes its control period from the Scenario and
    its gain set from its ArolcConfig, with no second copy to disagree."""

    @staticmethod
    def scenario(gains, **kwargs):
        return Scenario(
            plant=two_link_plant(TwoLinkParams(), mismatch=0.2),
            trajectory=SinusoidTrajectory(), delay=DelayProfile("S1"),
            controller=ArolcConfig(gains, c_hat_init=0.5), **kwargs)

    def test_adaptation_steps_at_control_period(self):
        sc = self.scenario(GainSet.identity(2), duration=0.3, dt=1e-4, dt_control=1e-3)
        trace = simulate(sc)
        cfg = sc.controller
        state = cfg.initial_state()
        expected = []
        for k, t in enumerate(trace.t):
            e1_dot = sc.trajectory(float(t))[1] - trace.q_dot[k]
            s = sliding_variable(np.concatenate([trace.e1[k], e1_dot]), cfg)
            state = adapt_gain(state, s, float(t), 1e-3, cfg)
            expected.append(state.c_hat)
        assert np.ptp(trace.c_hat) > 0.01
        np.testing.assert_array_equal(trace.c_hat, expected)

    def test_margin_warning_reads_controller_gains(self):
        # S1 peaks at 0.1 s: inside the margin of the identity gains
        # (0.125 s), beyond the one of K1 = 4 I (0.055 s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(self.scenario(GainSet.identity(2), duration=0.05, dt=1e-3))
        with pytest.warns(UserWarning, match="delay margin 0.05537 s"):
            simulate(self.scenario(GainSet.identity(2, k1=4.0), duration=0.05, dt=1e-3))


def _boundary_gain_sets():
    # a set where h = margin rounds to q_min > h ||E||, then seeded draws
    yield GainSet.identity(1, k1=1.5630715621226887, k2=2.0505336300384442,
                           q=1.9926447578529862, r=1.9494542381883877,
                           beta=1.1900677089636442)
    rng = np.random.default_rng(18)
    for n in (1, 1, 2) * 10:
        k1, k2, q = rng.uniform(0.5, 4.0, 3)
        yield GainSet.identity(n, k1=k1, k2=k2, q=q, r=rng.uniform(1.05, 3.0),
                               beta=rng.uniform(0.5, 2.0))


@pytest.mark.parametrize("gains", _boundary_gain_sets())
def test_margin_warning_iff_infeasible(gains):
    # the run warns exactly where `arolc bound` reports the peak infeasible,
    # one ulp either side of the margin and at it
    n, margin = gains.K1.shape[0], delay_margin(gains)
    for h in (math.nextafter(margin, 0.0), margin, math.nextafter(margin, math.inf)):
        sc = Scenario(plant=point_mass_plant(n),
                      trajectory=SinusoidTrajectory((0.5,) * n, (0.5,) * n),
                      delay=DelayProfile("constant", h0=h), controller=ArolcConfig(gains))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            make_controller(sc, None)
        assert bool(caught) == (not check_feasibility(gains, h))


class _StubPlant:
    """Minimal plant with independently configurable true/nominal sides."""

    def __init__(self, m, n_vec, m_hat=None, n_hat=None):
        self._m = np.atleast_2d(np.asarray(m, float))
        self._n = np.atleast_1d(np.asarray(n_vec, float))
        self._mh = self._m if m_hat is None else np.atleast_2d(np.asarray(m_hat, float))
        self._nh = self._n if n_hat is None else np.atleast_1d(np.asarray(n_hat, float))
        self.dim = self._m.shape[0]

    def mass_matrix(self, q, t=None):
        return self._m

    def bias_vector(self, q, q_dot, t):
        return self._n

    def nominal_mass_matrix(self, q):
        return self._mh

    def nominal_bias_vector(self, q, q_dot):
        return self._nh


class TestUncertaintyResidual:
    def test_perfect_model_zero_delay(self):
        plant = _StubPlant(np.eye(2), np.array([0.3, -0.1]))
        q = np.array([0.2, 0.4])
        qd = np.array([1.0, -1.0])
        u = np.array([0.7, 0.7])
        qdd_d = np.array([0.1, 0.1])
        sigma = uncertainty_residual(q, qd, q, qd, u, qdd_d, qdd_d, plant, plant)
        np.testing.assert_allclose(sigma, np.zeros(2), atol=1e-14)

    def test_bias_mismatch(self):
        plant = _StubPlant(np.eye(1), [1.0], n_hat=[0.0])
        sigma = uncertainty_residual([0.0], [0.0], [0.0], [0.0], [0.0],
                                     [0.5], [0.5], plant, plant)
        np.testing.assert_allclose(sigma, [1.0])

    def test_inertia_mismatch(self):
        # sigma = (1 - 2^-1 * 1) * 4 = 2
        plant = _StubPlant([[2.0]], [0.0], m_hat=[[1.0]])
        sigma = uncertainty_residual([0.0], [0.0], [0.0], [0.0], [4.0],
                                     [0.0], [0.0], plant, plant)
        np.testing.assert_allclose(sigma, [2.0])
