import copy
import dataclasses
import math
import pickle
import warnings
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arolc import controllers
from arolc.controllers import (
    ArolcConfig,
    ArolcState,
    PconConfig,
    StepRecord,
    _SLACK,
    _bind_window,
    arolc_step,
    make_controller,
    pcon_step,
    uncertainty_residual,
)
from arolc.delays import DelayProfile, delay_at, integrate
from arolc.plants import TwoLinkParams, point_mass_plant, two_link_plant
from arolc.sim import Scenario, simulate
from arolc.stability import GainSet, build_error_system, check_feasibility, delay_margin
from arolc.trajectories import SinusoidTrajectory

from test_stability import _spd

# identity gains of each dimension under one set of scalars
CFGS = {n: ArolcConfig(GainSet.identity(n), alpha=2.0, epsilon=0.1, gamma=1e-3, c_hat_init=1.0)
        for n in (1, 2, 3)}
CFG = CFGS[1]
DT = 0.01  # control period of the adaptation steps


def affine_torque(m_hat, n_hat):
    """The torque face of a nominal model with constant Mhat and Nhat."""
    return lambda q, q_dot, u: (np.asarray(m_hat, float) @ u + n_hat).tolist()


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["alpha", "epsilon", "gamma", "c_hat_init"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_arolc_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field) as info:
            ArolcConfig(GainSet.identity(1), **{field: value})
        assert str(info.value).startswith(f"{field} must be ")  # scenario_io's key

    @pytest.mark.parametrize("field, value", [
        ("kappa", math.nan), ("k_b", math.inf), ("vartheta", np.array([[math.nan]])),
        ("h_estimate", math.nan), ("h_estimate", math.inf), ("h_estimate", -0.06),
        ("kappa", math.inf), ("kappa", 0.0), ("k_b", math.nan), ("k_b", -1.0),
        ("vartheta", np.array([[math.inf]])), ("vartheta", np.array([[-math.inf]])),
    ])
    def test_pcon_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field) as info:
            PconConfig(**{field: value})
        assert str(info.value).startswith(f"{field} must be ")

    @pytest.mark.parametrize("vartheta, shape", [(np.array([1.0, 2.0]), r"\(2,\)"),
                                                 (np.ones((2, 3)), r"\(2, 3\)"),
                                                 (1.0, r"\(\)")])
    def test_pcon_vartheta_not_square_rejected(self, vartheta, shape):
        with pytest.raises(ValueError, match=f"vartheta must be a square matrix, got shape {shape}"):
            PconConfig(vartheta=vartheta)

    def test_pcon_vartheta_not_psd_rejected(self):
        with pytest.raises(ValueError, match="^vartheta must be positive semidefinite$"):
            PconConfig(vartheta=np.diag([1.0, -1e-3]))

    def test_arolc_gains_not_a_gain_set_rejected(self):
        with pytest.raises(ValueError, match="gains must be a GainSet, got ndarray"):
            ArolcConfig(np.eye(2))

    @pytest.mark.parametrize("switching", ["false", 0, 1.0, None, np.bool_(True)])
    def test_arolc_switching_not_a_bool_rejected(self, switching):
        # a truthy string such as 'false' would switch the robust term on
        with pytest.raises(ValueError, match="switching must be a bool, got "):
            ArolcConfig(GainSet.identity(1), switching=switching, c_hat_init=1.0)


def law_at(s, state, cfg=None, t=0.01, dt=DT):
    """arolc_step's record at the sliding variable s: the errors e1 = 0 and
    e1_dot = s, which give s exactly under identity gains (the e1_dot block
    of their B^T P is I); cfg defaults to CFGS[len(s)]."""
    zero = [0.0] * len(s)
    return arolc_step(state, zero, zero, (zero, [float(x) for x in s], zero),
                      point_mass_plant(len(s)).torque, t, dt, cfg or CFGS[len(s)])


def test_identity_gains_pass_e1_dot_through_to_s():
    for n, cfg in CFGS.items():
        bp, _, _ = cfg.rows
        assert [row[n:] for row in bp] == np.eye(n).tolist()


class TestSlidingVariable:
    """s = B^T P e, read off the adapted state's s_prev."""

    @staticmethod
    def s(e1, e1_dot, cfg=CFG):
        zero = [0.0] * len(e1)
        rec = arolc_step(ArolcState(1.0), zero, zero, (e1, e1_dot, zero),
                         point_mass_plant(len(e1)).torque, 0.0, DT, cfg)
        return rec.state.s_prev

    def test_zero_error(self):
        assert self.s([0.0], [0.0]) == [0.0]

    def test_position_component(self):
        # bottom row of P = [0.5, 1.0]; e = [1, 0] -> s = 0.5
        assert self.s([1.0], [0.0]) == [0.5]

    def test_velocity_component(self):
        assert self.s([0.0], [1.0]) == [1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="of length 1, got 1, 1, 1, 2 and 1"):
            self.s([0.0], [0.0, 0.0])


class TestNominalControl:
    """u_hat = (qdd_d + K2 e1_dot) + K1 e1: the record's u with switching off."""

    @staticmethod
    def u_hat(e1, e1_dot, qdd, gains=CFG.gains):
        cfg = ArolcConfig(gains, switching=False)
        zero = [0.0] * len(e1)
        return arolc_step(cfg.initial_state(), zero, zero, (e1, e1_dot, qdd),
                          point_mass_plant(len(e1)).torque, 0.0, DT, cfg).u

    def test_perfect_tracking(self):
        assert self.u_hat([0.0], [0.0], [2.5]) == [2.5]

    def test_unit_gains(self):
        assert self.u_hat([1.0], [2.0], [0.0]) == [3.0]

    def test_scaled_gains(self):
        gains = GainSet(K1=2.0 * np.eye(1), K2=np.eye(1), Q=np.eye(2))
        assert self.u_hat([1.0], [1.0], [1.0], gains) == [4.0]

    @pytest.mark.parametrize("e1, e1_dot, qdd", [([1.0], [1.0, 2.0], [0.0, 0.0]),
                                                 ([1.0, 2.0], [1.0, 2.0], [0.0])])
    def test_dimension_mismatch(self, e1, e1_dot, qdd):
        with pytest.raises(ValueError, match="of length 2"):
            self.u_hat(e1, e1_dot, qdd, GainSet.identity(2))


def test_vector_helpers_return_lists_of_floats():
    rec = law_at((3.0, 4.0), ArolcState(1.0))
    for v in (rec.tau, rec.u, rec.du, rec.state.s_prev):
        assert type(v) is list and len(v) == 2 and all(type(x) is float for x in v)


class TestSwitchingControl:
    """The robust term du, read off the record at a chosen s."""

    def test_zero_s(self):
        assert law_at([0.0, 0.0], ArolcState(1.0)).du == [0.0, 0.0]

    def test_outside_boundary_layer(self):
        # ||s|| = 5: unit direction scaled by alpha * c_hat = 2
        np.testing.assert_allclose(law_at([3.0, 4.0], ArolcState(1.0)).du, [1.2, 1.6])

    def test_inside_boundary_layer(self):
        np.testing.assert_allclose(law_at([0.05], ArolcState(1.0)).du, [1.0])

    def test_continuity_at_boundary(self):
        direction = np.array([0.6, 0.8])
        below = law_at((CFG.epsilon - 1e-14) * direction, ArolcState(1.3)).du
        above = law_at((CFG.epsilon + 1e-14) * direction, ArolcState(1.3)).du
        assert np.abs(np.subtract(below, above)).max() < 1e-12

    @pytest.mark.parametrize("c_hat", [0.0, -1.0, math.nan])
    def test_non_positive_gain_rejected(self, c_hat):
        with pytest.raises(ValueError, match="c_hat must be positive"):
            law_at([0.5], ArolcState(c_hat))

    @pytest.mark.parametrize("c_hat", [math.inf, -math.inf])
    def test_infinite_gain_rejected(self, c_hat):
        with pytest.raises(ValueError, match="c_hat must be positive and finite"):
            law_at([0.5], ArolcState(c_hat))

    def test_magnitude_cap(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            s = rng.standard_normal(2) * 10.0 ** rng.integers(-3, 2)
            c_hat = float(rng.random() * 4 + 1e-3)
            du = law_at(s, ArolcState(c_hat)).du
            assert np.linalg.norm(du) <= CFG.alpha * c_hat * (1 + 1e-12)

    def test_parallel_to_s(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = rng.standard_normal(3)
            du = law_at(s, ArolcState(0.7)).du
            assert float(s @ du) >= 0.0


class TestAdaptGain:
    """The adaptation step: the record's c_hat and next state at a chosen s."""

    def test_floor_branch(self):
        cfg = ArolcConfig(CFG.gains, gamma=1e-3, c_hat_init=1e-3)
        new = law_at([5.0], ArolcState(c_hat=0.0005), cfg)
        # rate is +gamma while at/below the floor
        assert new.c_hat == pytest.approx(max(0.0005 + 1e-3 * 0.01, 1e-3))

    def test_growth_branch(self):
        new = law_at([2.0], ArolcState(c_hat=1.0, s_prev=[1.0], t_prev=0.0))
        assert new.c_hat == pytest.approx(1.0 + 2.0 * DT)

    def test_decrease_branch(self):
        new = law_at([1.0], ArolcState(c_hat=1.0, s_prev=[2.0], t_prev=0.0))
        assert new.c_hat == pytest.approx(1.0 - 1.0 * DT)

    def test_equality_goes_to_decrease(self):
        new = law_at([1.0], ArolcState(c_hat=1.0, s_prev=[1.0], t_prev=0.0))  # s_dot = 0
        assert new.c_hat == pytest.approx(1.0 - 1.0 * DT)

    def test_first_step_conservative(self):
        new = law_at([3.0], ArolcState(c_hat=1.0), t=0.0)
        assert new.c_hat == pytest.approx(1.0 - 3.0 * DT)

    def test_never_below_gamma(self):
        rng = np.random.default_rng(5)
        cfg = ArolcConfig(CFG.gains, gamma=1e-3, c_hat_init=1e-3)
        state = cfg.initial_state()
        t = 0.0
        for _ in range(200):
            t += DT
            state = law_at(rng.standard_normal(1) * 5.0, state, cfg, t).state
            assert state.c_hat >= cfg.gamma

    def test_time_must_advance(self):
        with pytest.raises(ValueError, match="time must advance"):
            law_at([1.0], ArolcState(c_hat=1.0, s_prev=[1.0], t_prev=0.5), t=0.5)

    @pytest.mark.parametrize("s_prev", [None, [0.5]], ids=["first", "slope"])
    def test_nan_gain_rejected(self, s_prev):
        # max(nan + rate dt, gamma) would carry the NaN on; with switching
        # off, the adaptation step is the one to see the gain
        cfg = ArolcConfig(CFG.gains, switching=False, c_hat_init=1.0)
        with pytest.raises(ValueError, match="c_hat must be a number"):
            law_at([1.0], ArolcState(math.nan, s_prev, 0.0), cfg)

    @pytest.mark.parametrize("c_hat", [math.inf, -math.inf])
    def test_infinite_gain_rejected(self, c_hat):
        # the gain would stay infinite (or hold at gamma, for -inf)
        cfg = ArolcConfig(CFG.gains, switching=False, c_hat_init=1.0)
        with pytest.raises(ValueError, match="c_hat must be a number and finite"):
            law_at([1.0], ArolcState(c_hat), cfg)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -DT])
    def test_bad_period_rejected(self, dt):
        for c_hat in (1.0, CFG.gamma):  # both branches
            with pytest.raises(ValueError, match="dt must be finite and positive"):
                law_at([1.0], ArolcState(c_hat), dt=dt)

    def test_s_prev_length_mismatch_rejected(self):
        state = ArolcState(c_hat=1.0, s_prev=[1.0, 2.0], t_prev=0.0)
        with pytest.raises(ValueError, match="s_prev has 2 entries, s has 1"):
            law_at([1.0], state)

    def test_next_state(self):
        new = law_at([2.0], ArolcState(c_hat=1.0), t=0.25).state
        assert new.s_prev == [2.0] and new.t_prev == 0.25
        assert ArolcState(1.0).t_prev == -math.inf


class TestArolcStep:
    def test_perfect_tracking_zero_torque(self):
        state = ArolcState(c_hat=1.0)
        desired = (np.zeros(1), np.zeros(1), np.zeros(1))
        out = arolc_step(state, np.zeros(1), np.zeros(1), desired,
                         affine_torque(np.eye(1), np.zeros(1)), 0.0, DT, CFG)
        tau, new = out.tau, out.state
        np.testing.assert_allclose(tau, [0.0])
        # s = 0 falls in the decrease/hold branch
        assert new.c_hat <= 1.0

    def test_identity_nominal_model_passthrough(self):
        state = ArolcState(c_hat=1.0)
        desired = (np.array([1.0]), np.zeros(1), np.zeros(1))
        tau = arolc_step(state, np.zeros(1), np.zeros(1), desired,
                         affine_torque(np.eye(1), np.zeros(1)), 0.0, DT, CFG).tau
        # tau = u exactly: u_hat = 1, du = alpha c_hat sign(s) = 2
        np.testing.assert_allclose(tau, [3.0])

    def test_worked_example(self):
        # e = [1, 0], qdd_d = 0, alpha = 2, c_hat = 1, eps = 0.1, Mhat = 2,
        # Nhat = 0.5: s = 0.5, u_hat = 1, du = 2 * 1 * s/||s|| = 2, u = 3,
        # tau = 2 * 3 + 0.5 = 6.5 (hand-evaluated independently)
        state = ArolcState(c_hat=1.0)
        desired = (np.array([1.0]), np.zeros(1), np.zeros(1))
        tau = arolc_step(state, np.zeros(1), np.zeros(1), desired,
                         affine_torque([[2.0]], [0.5]), 0.0, DT, CFG).tau
        np.testing.assert_allclose(tau, [6.5])

    def test_non_positive_gain_rejected(self):
        desired = (np.array([1.0]), np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match="c_hat must be positive"):
            arolc_step(ArolcState(c_hat=0.0), np.zeros(1), np.zeros(1), desired,
                       affine_torque(np.eye(1), np.zeros(1)), 0.0, DT, CFG)

    def test_nan_gain_rejected(self):
        desired = ([1.0], [0.0], [0.0])
        for switching in (True, False):
            cfg = ArolcConfig(CFG.gains, switching=switching, c_hat_init=1.0)
            with pytest.raises(ValueError, match="c_hat must be"):
                arolc_step(ArolcState(c_hat=math.nan), [0.0], [0.0], desired,
                           affine_torque(np.eye(1), np.zeros(1)), 0.0, DT, cfg)

    def test_infinite_gain_rejected(self):
        # an infinite gain gave the torque [inf]
        desired = ([1.0], [0.0], [0.0])
        for switching in (True, False):
            cfg = ArolcConfig(CFG.gains, switching=switching, c_hat_init=1.0)
            with pytest.raises(ValueError, match="c_hat must be"):
                arolc_step(ArolcState(c_hat=math.inf), [0.0], [0.0], desired,
                           affine_torque(np.eye(1), np.zeros(1)), 0.0, DT, cfg)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -DT])
    def test_bad_period_rejected(self, dt):
        # dt = nan gave the gain nan with a finite torque
        desired = ([1.0], [0.0], [0.0])
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            arolc_step(ArolcState(c_hat=1.0), [0.0], [0.0], desired,
                       affine_torque(np.eye(1), np.zeros(1)), 0.0, dt, CFG)

    def test_s_prev_length_mismatch_rejected(self):
        desired = ([1.0], [0.0], [0.0])
        state = ArolcState(1.0, [1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="s_prev has 2 entries"):
            arolc_step(state, [0.0], [0.0], desired,
                       affine_torque(np.eye(1), np.zeros(1)), 0.01, DT, CFG)

    def test_switching_disabled(self):
        cfg = ArolcConfig(CFG.gains, switching=False, c_hat_init=1.0)
        state = cfg.initial_state()
        desired = (np.array([1.0]), np.zeros(1), np.zeros(1))
        tau = arolc_step(state, np.zeros(1), np.zeros(1), desired,
                         affine_torque(np.eye(1), np.zeros(1)), 0.0, DT, cfg).tau
        np.testing.assert_allclose(tau, [1.0])


def _dot(row, x) -> float:
    """sum_j row[j] x[j] on floats, added left to right."""
    return reduce(add, map(mul, row, x), 0.0)


def sliding_variable(e, cfg: ArolcConfig) -> list[float]:
    """s = B^T P e for the stacked error e = [e1; e1_dot]."""
    bp, _, _ = cfg.rows
    if len(e) != 2 * len(bp):
        raise ValueError(f"expected error of length {2 * len(bp)}, got {len(e)}")
    return [_dot(row, e) for row in bp]


def nominal_control(e1, e1_dot, qdd_desired, cfg: ArolcConfig) -> list[float]:
    """u_hat = (qdd_d + K2 e1_dot) + K1 e1."""
    _, k2, k1 = cfg.rows
    if not len(e1) == len(e1_dot) == len(qdd_desired) == len(k1):
        raise ValueError(f"expected e1, e1_dot and qdd_desired of length {len(k1)}, got "
                         f"{len(e1)}, {len(e1_dot)} and {len(qdd_desired)}")
    return [(a + _dot(r2, e1_dot)) + _dot(r1, e1) for a, r2, r1 in zip(qdd_desired, k2, k1)]


def switching_control(s, c_hat: float, cfg: ArolcConfig) -> list[float]:
    """Robust term: alpha c_hat s/||s|| outside the boundary layer,
    alpha c_hat s/epsilon inside it (continuous at ||s|| = epsilon)."""
    if not 0.0 < c_hat < math.inf:  # NaN included
        raise ValueError(f"c_hat must be positive and finite, got {c_hat!r}")
    s_norm = math.sqrt(_dot(s, s))
    gain = cfg.alpha * c_hat / (s_norm if s_norm >= cfg.epsilon else cfg.epsilon)
    return [gain * x for x in s]


def adapt_gain(state: ArolcState, s, t: float, dt: float,
               cfg: ArolcConfig) -> ArolcState:
    """One Euler step of length dt (the control period) of the adaptive gain
    law; returns the updated state, whose s_prev is s."""
    c_hat, s_prev = state.c_hat, state.s_prev
    if not math.isfinite(c_hat):
        raise ValueError(f"c_hat must be a number and finite, got {c_hat!r}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if s_prev is not None:
        if not t > state.t_prev:
            raise ValueError("time must advance between adaptation steps")
        if len(s_prev) != len(s):
            raise ValueError(f"s_prev has {len(s_prev)} entries, s has {len(s)}")
    if c_hat <= cfg.gamma:
        rate = cfg.gamma
    else:
        s_norm = math.sqrt(_dot(s, s))
        if s_prev is None:
            rate = -s_norm  # no slope estimate yet: conservative branch
        else:
            elapsed = t - state.t_prev
            s_dot = [(a - b) / elapsed for a, b in zip(s, s_prev)]
            rate = s_norm if _dot(s, s_dot) > 0.0 else -s_norm
    return ArolcState(max(c_hat + rate * dt, cfg.gamma), s, t)


def composed_step(state, q, q_dot, desired, torque, t, dt, cfg):
    """The law in four float steps (sliding_variable, nominal_control,
    switching_control, adapt_gain), each row product summed left to right
    from 0.0, composed in the compiled law's order: the reference that
    arolc_step keeps to, bit for bit."""
    qd, qd_dot, qd_ddot = desired
    e1 = [a - b for a, b in zip(qd, q)]
    e1_dot = [a - b for a, b in zip(qd_dot, q_dot)]
    s = sliding_variable(e1 + e1_dot, cfg)
    u_hat = nominal_control(e1, e1_dot, qd_ddot, cfg)
    if cfg.switching:
        du = switching_control(s, state.c_hat, cfg)
        u = [a + b for a, b in zip(u_hat, du)]
    else:
        du, u = [0.0] * len(s), u_hat
    tau = torque(q, q_dot, u)
    new_state = adapt_gain(state, s, t, dt, cfg)
    return StepRecord(tau, new_state.c_hat, math.sqrt(_dot(s, s)), u, du, new_state)


def _bits(record):
    """The bytes of every float of a record, in field order."""
    floats = [*record.tau, record.c_hat, record.s_norm, *record.u, *record.du,
              record.state.c_hat, *record.state.s_prev, record.state.t_prev]
    assert all(type(x) is float for x in floats)
    return np.array(floats).tobytes()


_FLOATS = st.floats(-10.0, 10.0, allow_subnormal=False)


@st.composite
def _law_cases(draw):
    """A config of n = 1, 2, 3 or 6 (dense SPD gains, switching on or off)
    and one step's arguments: c_hat at the floor or above it, a first step
    or one with s_prev, and a state on the reference (s = 0, inside the
    boundary layer), off it, or at zero with a reference of -0.0."""
    n = draw(st.sampled_from([1, 2, 3, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gains = GainSet(_spd(rng, n, 0.5, 3.0), _spd(rng, n, 0.5, 3.0), _spd(rng, 2 * n, 0.5, 2.0))
    cfg = ArolcConfig(gains, alpha=draw(st.floats(0.1, 5.0)), epsilon=draw(st.floats(0.01, 1.0)),
                      gamma=1e-3, c_hat_init=1e-3, switching=draw(st.booleans()))
    vector = st.lists(_FLOATS, min_size=n, max_size=n)
    q, q_dot, qd_ddot = draw(vector), draw(vector), draw(vector)
    reference = draw(st.sampled_from(["off", "on", "signed-zeros"]))
    if reference == "signed-zeros":
        # every error entry and product -0.0: only the sums' 0.0 + makes s
        # and u_hat +0.0
        q, q_dot, desired = [0.0] * n, [0.0] * n, ([-0.0] * n,) * 3
    else:
        desired = ((q, q_dot) if reference == "on" else (draw(vector), draw(vector))) + (
            qd_ddot,)
    c_hat = draw(st.one_of(st.just(cfg.gamma), st.floats(cfg.gamma, 20.0)))
    t_prev = draw(st.floats(0.0, 10.0))
    s_prev = draw(st.one_of(st.none(), vector))
    state = ArolcState(c_hat, s_prev, -math.inf if s_prev is None else t_prev)
    return cfg, state, tuple(q), tuple(q_dot), desired, t_prev + draw(st.floats(1e-3, 1.0))


class TestCompiledLaw:
    """arolc_step runs the law compiled for the plant's dimension; it returns
    the record of the four-step float reference (composed_step) bit for
    bit, and raises the reference's errors."""

    @given(_law_cases())
    def test_matches_the_helpers_bit_for_bit(self, case):
        cfg, state, q, q_dot, desired, t = case
        torque = point_mass_plant(len(q), mass=1.7).torque
        got = arolc_step(state, q, q_dot, desired, torque, t, DT, cfg)
        expected = composed_step(state, q, q_dot, desired, torque, t, DT, cfg)
        assert _bits(got) == _bits(expected)
        assert got.state.s_prev == expected.state.s_prev and got.state.t_prev == t

    def test_on_the_reference_s_is_zero_inside_the_layer(self):
        cfg = ArolcConfig(GainSet.identity(2), c_hat_init=1.0)
        state = cfg.initial_state()
        q = (0.3, -0.2)
        rec = arolc_step(state, q, (0.1, 0.4), (list(q), [0.1, 0.4], [0.5, -0.5]),
                         point_mass_plant(2).torque, 0.0, DT, cfg)
        assert rec.s_norm == 0.0 and rec.du == [0.0, 0.0] and rec.u == [0.5, -0.5]
        assert rec.c_hat == 1.0  # the first step: the conservative branch at ||s|| = 0

    def test_config_pickles_after_its_first_step(self):
        # the bound law stays behind; the clone binds its own
        cfg = ArolcConfig(GainSet.identity(2), alpha=3.0, c_hat_init=0.7, switching=False)
        args = (cfg.initial_state(), (0.1, 0.2), (0.0, 0.1), ([0.3, -0.1],) * 3,
                point_mass_plant(2).torque, 0.0, DT)
        rec = arolc_step(*args, cfg)
        clone = pickle.loads(pickle.dumps(cfg))
        assert (clone.alpha, clone.c_hat_init, clone.switching) == (3.0, 0.7, False)
        assert _bits(arolc_step(*args, clone)) == _bits(rec)

    @pytest.mark.parametrize("switching", [True, False], ids=["switching", "no-switching"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    @pytest.mark.parametrize("case, message", [
        ("nan-gain", "c_hat must be"), ("inf-gain", "c_hat must be"),
        ("q", r"q, q_dot, qd, qd_dot and qd_ddot of length \d, got \d+, "),
        ("q_dot", "q_dot, qd"), ("qd_ddot", "qd_ddot of length"),
        ("s_prev", "s_prev has"), ("time", "time must advance"),
        ("dt", "dt must be finite and positive")])
    def test_errors_of_the_helpers(self, switching, n, case, message):
        cfg = ArolcConfig(GainSet.identity(n), c_hat_init=1.0, switching=switching)
        state = ArolcState(1.0, [0.1] * n, 0.5)
        q, q_dot, desired = [0.2] * n, [0.0] * n, ([0.0] * n, [0.0] * n, [0.0] * n)
        t, dt = 1.0, DT
        if case == "nan-gain":
            state = ArolcState(math.nan, None)
        elif case == "inf-gain":
            state = ArolcState(math.inf, None)
        elif case == "q":
            q = q + [0.0]
        elif case == "q_dot":
            q_dot = q_dot[1:]
        elif case == "qd_ddot":
            desired = desired[:2] + ([0.0] * (n + 2),)
        elif case == "s_prev":
            state = ArolcState(1.0, [0.1] * (n + 1), 0.5)
        elif case == "time":
            t = 0.5
        else:
            dt = math.nan
        torque = point_mass_plant(n).torque
        with pytest.raises(ValueError, match=message):
            arolc_step(state, q, q_dot, desired, torque, t, dt, cfg)
        # the reference's length errors name e, e1 or the torque face's unpacking
        lengths = case in ("q", "q_dot", "qd_ddot")
        with pytest.raises(ValueError, match=None if lengths else message):
            composed_step(state, q, q_dot, desired, torque, t, dt, cfg)


class TestPcon:
    ZERO = (np.zeros(1), np.zeros(1), np.zeros(1))

    @staticmethod
    def history(stamps, commands):
        """The pcon_step history (times, values, m) of scalar commands, one
        per stamp."""
        return ([float(x) for x in stamps], np.array(commands, float).reshape(-1, 1),
                len(stamps))

    @staticmethod
    def integral(history, h, t):
        """The window integral e_z, read off the torque at zero error:
        with kappa = k_b = 1 and vartheta = I, tau = -e_z."""
        cfg = PconConfig(kappa=1.0, vartheta=np.eye(1), k_b=1.0)
        return -np.array(pcon_step(history, h, np.zeros(1), np.zeros(1), TestPcon.ZERO, t,
                                   cfg))

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


@st.composite
def _window_cases(draw):
    """A predictor config of n = 1, 2, 3 or 6 (dense PSD vartheta) and a
    history of up to 150 commands, with one window per period: the true
    delay a + b |sin(omega t)| (whose start can move back when b omega > 1),
    or a fixed h of zero, under one period, over more than ten stamps, or
    reaching before the first stamp. The stamps are a period dt apart, as
    a run's are, or at drawn gaps; one command may hold inf."""
    n = draw(st.sampled_from([1, 2, 3, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cfg = PconConfig(kappa=draw(st.floats(0.1, 5.0)), vartheta=_spd(rng, n, 0.1, 2.0),
                     k_b=draw(st.floats(0.1, 5.0)))
    periods, dt = draw(st.integers(1, 150)), 0.01
    gaps = dt * (np.ones(periods) if draw(st.booleans()) else rng.uniform(0.2, 1.8, periods))
    times = (draw(st.floats(-1.0, 1.0)) + np.cumsum(gaps)).tolist()
    values = rng.uniform(-5.0, 5.0, (periods, n))
    if draw(st.booleans()):
        values[draw(st.integers(0, periods - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([math.inf, -math.inf]))
    kind = draw(st.sampled_from(["true", "zero", "short", "long", "before"]))
    if kind == "true":
        a, b, omega = draw(st.floats(0.0, 0.05)), draw(st.floats(0.0, 0.6)), draw(
            st.floats(0.1, 40.0))
        windows = [a + b * abs(math.sin(omega * t)) for t in times]
    else:
        low, high = {"zero": (0.0, 0.0), "short": (1e-4, 0.99 * dt), "long": (11 * dt, 1.2),
                     "before": (times[-1] - times[0], 3.0)}[kind]
        windows = [draw(st.floats(low, high))] * periods
    return cfg, times, values, windows, rng


def _inputs(rng, n):
    """q, q_dot and the reference triple of one period, as lists of floats."""
    q, q_dot, *desired = rng.uniform(-2.0, 2.0, (5, n)).tolist()
    return q, q_dot, tuple(desired)


def _tables(table):
    """The rows and trapezoid terms a table holds, and the index of its
    first row."""
    cells = dict(zip(table.__code__.co_freevars, (c.cell_contents for c in table.__closure__)))
    return cells["rows"], cells["terms"], cells["base"]


def plain_pcon(history, h, q, q_dot, desired, t, cfg):
    """The predictor's torque from the plain history: integrate's e_z, then
    each row's sum left to right from 0.0. The reference that the compiled
    window keeps to, bit for bit."""
    qd, qd_dot, _ = desired
    e_z = integrate(*history, t - h, t)  # zero before the first command
    kappa, k_b = cfg.kappa, cfg.k_b
    return [k_b * ((vd - v + kappa * (pd - p)) - _dot(row, e_z))
            for pd, p, vd, v, row in zip(qd, q, qd_dot, q_dot, cfg.rows)]


def _same(a, b):
    """a and b hold the same floats, bit for bit."""
    return np.array(a).tobytes() == np.array(b).tobytes()


class TestCompiledWindow:
    """pcon_step runs the step compiled for n over a trapezoid table; its
    torque is the plain history's (plain_pcon) bit for bit, its fallbacks
    included, whether one table is carried along the history or each call
    binds a fresh one."""

    @given(_window_cases())
    def test_matches_the_plain_history_bit_for_bit(self, case):
        cfg, times, values, windows, rng = case
        table = _bind_window(cfg)
        for k, (t, h) in enumerate(zip(times, windows)):
            args = (times, values, k), h, *_inputs(rng, len(cfg.rows)), t, cfg
            got = pcon_step(*args, table)
            assert type(got) is list and all(type(x) is float for x in got)
            assert _same(got, plain_pcon(*args))

    @given(_window_cases())
    def test_carried_table_matches_a_fresh_one_bit_for_bit(self, case):
        # the carried table lands each command once and drops the rows
        # behind its window's reach (_SLACK); a fresh one lands them all
        cfg, times, values, windows, rng = case
        table = _bind_window(cfg)
        for k, (t, h) in enumerate(zip(times, windows)):
            args = (times, values, k), h, *_inputs(rng, len(cfg.rows)), t, cfg
            assert _same(pcon_step(*args, table), pcon_step(*args))

    def test_non_finite_total_takes_the_fallback(self, monkeypatch):
        # the window sums over a command holding inf: integrate itself
        # computes those periods, and only those
        calls = []

        def counted(times, values, m, t0, t1):
            calls.append(m)
            return integrate(times, values, m, t0, t1)

        monkeypatch.setattr(controllers, "integrate", counted)
        cfg = PconConfig(vartheta=np.eye(2))
        table = _bind_window(cfg)
        times = (np.arange(30) * 0.01).tolist()
        values = np.ones((30, 2))
        values[10, 1] = math.inf
        rng = np.random.default_rng(5)
        fallbacks, non_finite = [], []
        for k, t in enumerate(times):
            args = (times, values, k), 0.05, *_inputs(rng, 2), t, cfg
            before = len(calls)
            got = pcon_step(*args, table)
            if len(calls) > before:
                fallbacks.append(k)
            if not all(map(math.isfinite, integrate(times, values, k, t - 0.05, t))):
                non_finite.append(k)
            assert _same(got, plain_pcon(*args))
        assert non_finite == [11, 12, 13, 14, 15] and fallbacks == non_finite

    @pytest.mark.parametrize("case", ["rewound", "t-on-the-last-stamp", "nan-window",
                                      "first-dropped-row", "first-kept-row"])
    def test_history_the_table_cannot_serve(self, case):
        # after 200 periods of a 0.05 s window the table has dropped its
        # oldest rows; a window that then reaches back past them, as a true
        # delay whose start moves back can, is integrate's
        cfg = PconConfig(vartheta=np.eye(3))
        table = _bind_window(cfg)
        times = (np.arange(300) * 0.01).tolist()
        rng = np.random.default_rng(6)
        values = rng.uniform(-5.0, 5.0, (300, 3))
        for k in range(200):
            pcon_step((times, values, k), 0.05, *_inputs(rng, 3), times[k], cfg, table)
        _, _, base = _tables(table)
        assert base > 100
        # the window's first bracket is rows (base - 1, base) or (base, base + 1)
        start = {"first-dropped-row": base - 1, "first-kept-row": base}.get(case, 0)
        m, t, h = {"rewound": (5, times[5], 0.05), "t-on-the-last-stamp": (200, times[199], 0.05),
                   "nan-window": (200, times[200], math.nan)}.get(
            case, (200, times[200], times[200] - (times[start] + 0.004)))
        args = (times, values, m), h, *_inputs(rng, 3), t, cfg
        if case == "nan-window":
            with pytest.raises(ValueError, match="t0 must be finite"):
                pcon_step(*args, table)
        else:
            assert _same(pcon_step(*args, table), plain_pcon(*args))

    @pytest.mark.parametrize("h", [0.005, 0.12, 2.0], ids=["hold", "window", "beyond"])
    def test_table_stays_bounded_by_the_window(self, h):
        cfg = PconConfig(vartheta=np.eye(2))
        table = _bind_window(cfg)
        times, values = (np.arange(2000) * 0.01).tolist(), np.ones((2000, 2))
        rng = np.random.default_rng(7)
        for k, t in enumerate(times):
            pcon_step((times, values, k), h, *_inputs(rng, 2), t, cfg, table)
        rows, terms, _ = _tables(table)
        assert len(rows) <= round(h / 0.01) + 2 * _SLACK + 2
        assert len(terms) == len(rows) - 1

    @pytest.mark.parametrize("n", [1, 2, 6])
    @pytest.mark.parametrize("case, message", [
        ("q", r"q, q_dot, qd, qd_dot and qd_ddot of length \d, got \d+, "),
        ("q_dot", "q_dot, qd"), ("q-and-q_dot", r"of length (\d), got \d+, \d+, \1, \1 and \1$"),
        ("desired", r"desired = \(qd, qd_dot, qd_ddot\)"),
        ("qd_ddot", r"qd_ddot of length (\d), got \1, \1, \1, \1 and \d+$")])
    def test_inputs_of_the_wrong_length(self, n, case, message):
        # with a carried table and without one: a longer q with a shorter
        # q_dot, which a zip of them would turn into a shorter torque
        cfg = PconConfig(vartheta=np.eye(n))
        q, q_dot, desired = [0.0] * n, [0.0] * n, ([0.0] * n,) * 3
        if case == "q":
            q = q + [0.0]
        elif case == "q_dot":
            q_dot = q_dot[1:]
        elif case == "q-and-q_dot":
            q, q_dot = [1.0] * (n + 1), [0.0] * (n - 1)
        elif case == "qd_ddot":  # the predictor does not read it, but checks it
            desired = (*desired[:2], [0.0] * (n + 1))
        else:
            desired = desired[:2]
        for table in (_bind_window(cfg), None):
            with pytest.raises(ValueError, match=message):
                pcon_step(([0.0], np.zeros((1, n)), 1), 0.05, q, q_dot, desired, 0.01, cfg,
                          table)


class TestConfigEquality:
    """GainSet, ArolcConfig and PconConfig compare and hash by value, their
    cached analysis and bound law left out, and survive pickle and copy."""

    @staticmethod
    def configs(n, k1=1.0, h_estimate=None):
        gains = GainSet.identity(n, k1=k1)
        return (gains, ArolcConfig(gains, alpha=1.5),
                PconConfig(vartheta=k1 * np.eye(n), h_estimate=h_estimate))

    @pytest.mark.parametrize("n", [1, 2])
    def test_equal_values_are_equal(self, n):
        for a, b in zip(self.configs(n), self.configs(n)):
            assert a == b and not a != b and hash(a) == hash(b)
            assert {a: "config"}[b] == "config"

    @pytest.mark.parametrize("n", [1, 2])
    def test_different_values_differ(self, n):
        for a, b in zip(self.configs(n), self.configs(n, k1=2.0)):
            assert a != b and not a == b
        assert self.configs(n)[2] != self.configs(n, h_estimate=0.1)[2]
        assert self.configs(n)[0] != self.configs(n + 1)[0]
        assert self.configs(n)[2] != "config"

    @pytest.mark.parametrize("n", [1, 2])
    def test_cached_results_take_no_part(self, n):
        gains, arolc, pcon = self.configs(n)
        delay_margin(gains)
        build_error_system(gains)
        arolc_step(arolc.initial_state(), [0.1] * n, [0.0] * n, ([0.0] * n,) * 3,
                   point_mass_plant(n).torque, 0.0, DT, arolc)
        assert "_system" in gains.__dict__ and "_law" in arolc.__dict__
        for a, b in zip((gains, arolc, pcon), self.configs(n)):
            assert a == b and hash(a) == hash(b)

    def test_signed_zero_entries_are_equal(self):
        a, b = PconConfig(vartheta=np.zeros((2, 2))), PconConfig(vartheta=-np.zeros((2, 2)))
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("n", [1, 2])
    def test_pickle_and_copy(self, n):
        for config in self.configs(n, h_estimate=0.05):
            for clone in (pickle.loads(pickle.dumps(config)), copy.copy(config),
                          copy.deepcopy(config)):
                assert clone == config and hash(clone) == hash(config)
        pcon = self.configs(n)[2]
        assert not pcon.vartheta.flags.writeable
        assert not pickle.loads(pickle.dumps(pcon)).vartheta.flags.writeable

    @staticmethod
    def other(value):
        """A valid value of a config field other than value: a config with
        each of its init fields other."""
        if isinstance(value, bool):
            return not value
        if value is None:
            return 0.05
        if dataclasses.is_dataclass(value):
            return type(value)(**{f.name: TestConfigEquality.other(getattr(value, f.name))
                                  for f in dataclasses.fields(value) if f.init})
        return 2.0 * value  # positive scalars, SPD and PSD matrices

    @pytest.mark.parametrize("config", [GainSet.identity(2), ArolcConfig(GainSet.identity(2)),
                                        PconConfig(vartheta=np.eye(2))],
                             ids=["GainSet", "ArolcConfig", "PconConfig"])
    def test_every_init_field_survives_pickle_and_copy(self, config):
        changed = self.other(config)
        names = [f.name for f in dataclasses.fields(config) if f.init]
        for name in names:
            assert not np.array_equal(getattr(changed, name), getattr(config, name)), name
        for clone in (pickle.loads(pickle.dumps(changed)), copy.copy(changed),
                      copy.deepcopy(changed)):
            for name in names:
                assert np.array_equal(getattr(clone, name), getattr(changed, name)), name

    def test_pcon_keeps_its_own_vartheta(self):
        v = np.eye(2)
        cfg = PconConfig(vartheta=v)
        v[0, 0] = 5.0
        assert cfg.vartheta[0, 0] == 1.0 and cfg.rows[0][0] == 1.0


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
        for k in range(3):
            t = 0.01 * k
            rec = ctrl.step(t, self.Q, self.Q_DOT, sc.trajectory(t))
            ref = arolc_step(state, self.Q, self.Q_DOT, sc.trajectory(t),
                             sc.plant.nominal.torque, t, sc.dt_control, sc.controller)
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
            ref = pcon_step((trace.t.tolist(), trace.tau_cmd, k), h, self.Q, self.Q_DOT,
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
            ref = pcon_step((trace.t.tolist(), trace.tau_cmd, k), h, trace.q[k], trace.q_dot[k],
                            sc.trajectory(t), t, sc.controller)
            assert trace.tau_cmd[k].tobytes() == np.array(ref).tobytes()

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
        assert rec.tau == [0.0, 0.0]


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
        for k, t in enumerate(trace.t.tolist()):
            state = arolc_step(state, trace.q[k].tolist(), trace.q_dot[k].tolist(),
                               sc.trajectory(t), sc.plant.nominal.torque, t, 1e-3, cfg).state
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

    def test_margin_warning_points_at_the_caller_of_simulate(self):
        # the warning's stacklevel counts the frames from the controller's
        # constructor up through make_controller and simulate
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            simulate(self.scenario(GainSet.identity(2, k1=4.0), duration=0.05, dt=1e-3))
        assert len(record) == 1
        assert record[0].filename == __file__


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


def _rounding(got, ref, scale):
    """max |got - ref| / (eps scale) over the entries: the difference in
    units of double rounding at the magnitudes that entered each sum."""
    return float((np.abs(np.subtract(got, ref)) / (np.finfo(float).eps * scale)).max())


class TestFloatLawMatchesNdarrayStatement:
    """arolc_step and pcon_step on floats against the law written here on
    ndarrays, with no arolc helper: B^T P from the gains' error system,
    np.linalg.norm, the adaptation branch chosen by s @ s_dot, and the
    nominal model's mass_matrix and bias_vector faces, on dense gains. The
    two sum the small matrix-vector products in
    different orders (numpy's may pair terms or fuse multiply-adds), so
    they agree to rounding. The bound is in units of eps times each entry's
    scale, the same sums taken over absolute values (as in the classical
    bound |fl(x . y) - x . y| <= k eps |x| . |y| for k terms): every vector
    entry within ROUNDING of it (these draws reach 1.7 at n = 6), the adapted
    gain within 4 ulp."""

    ROUNDING = 8
    NOMINAL = {1: lambda: point_mass_plant(1, mass=1.7),
               2: lambda: two_link_plant(TwoLinkParams(), mismatch=0.2).nominal,
               3: lambda: point_mass_plant(3, mass=0.6),
               6: lambda: point_mass_plant(6, mass=2.3)}

    @staticmethod
    def bp(cfg):
        system = build_error_system(cfg.gains)
        return system.B.T @ system.P

    @staticmethod
    def reference(state, q, q_dot, desired, nominal, t, dt, cfg):
        """(tau, u, du, s, adapted c_hat) of the ndarray statement, each
        vector paired with its scale."""
        bp, k1, k2 = TestFloatLawMatchesNdarrayStatement.bp(cfg), cfg.gains.K1, cfg.gains.K2
        qd, qd_dot, qd_ddot = (np.asarray(x, float) for x in desired)
        q, q_dot = np.asarray(q, float), np.asarray(q_dot, float)
        e1, e1_dot = qd - q, qd_dot - q_dot
        e = np.concatenate([e1, e1_dot])
        s = bp @ e
        s_norm = float(np.linalg.norm(s))
        u_hat = qd_ddot + k2 @ e1_dot + k1 @ e1
        # du = g s with g = alpha c_hat / max(||s||, epsilon): g moves with ||s||
        gain = cfg.alpha * state.c_hat / (s_norm if s_norm >= cfg.epsilon else cfg.epsilon)
        du = gain * s
        u = u_hat + du
        m, bias = nominal.mass_matrix(q), nominal.bias_vector(q, q_dot, None)
        tau = m @ u + bias
        if state.c_hat <= cfg.gamma:
            rate = cfg.gamma
        elif state.s_prev is None:
            rate = -s_norm
        else:
            s_dot = (s - np.asarray(state.s_prev)) / (t - state.t_prev)
            rate = s_norm if s @ s_dot > 0.0 else -s_norm
        s_scale = np.abs(bp) @ np.abs(e)
        du_scale = 2.0 * gain * np.linalg.norm(s_scale) * np.ones_like(du)
        u_scale = (np.abs(qd_ddot) + np.abs(k2) @ np.abs(e1_dot)
                   + np.abs(k1) @ np.abs(e1) + du_scale)
        tau_scale = np.abs(m) @ u_scale + np.abs(bias)
        return ((tau, tau_scale), (u, u_scale), (du, du_scale), (s, s_scale),
                max(state.c_hat + rate * dt, cfg.gamma))

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    @pytest.mark.parametrize("branch", ["floor", "first", "grow", "shrink"])
    @pytest.mark.parametrize("ratio", [0.5, 2.0], ids=["inside", "outside"])
    def test_arolc_step(self, n, branch, ratio):
        # ratio = ||s|| / epsilon: inside or outside the boundary layer
        rng = np.random.default_rng([n, ["floor", "first", "grow", "shrink"].index(branch),
                                     int(4 * ratio)])
        nominal = self.NOMINAL[n]()
        gains = GainSet(_spd(rng, n, 0.5, 3.0), _spd(rng, n, 0.5, 3.0),
                        _spd(rng, 2 * n, 0.5, 2.0))
        cfg = ArolcConfig(gains, alpha=2.5, epsilon=0.2, gamma=1e-3, c_hat_init=0.8)
        bp = self.bp(cfg)
        t, t_prev = 3.0, 2.99
        for _ in range(25):
            q, q_dot, e, qd_ddot = (rng.uniform(-2.0, 2.0, 2 * n) for _ in range(4))
            q, q_dot, qd_ddot = q[:n], q_dot[:n], qd_ddot[:n]
            # s is linear in e: scale e so that ||s|| = ratio epsilon
            e *= ratio * cfg.epsilon / np.linalg.norm(bp @ e)
            desired = ((q + e[:n]).tolist(), (q_dot + e[n:]).tolist(), qd_ddot.tolist())
            s = bp @ np.concatenate([np.subtract(desired[0], q), np.subtract(desired[1], q_dot)])
            c_hat = cfg.gamma if branch == "floor" else float(rng.uniform(0.1, 2.0))
            s_prev = {"floor": s, "first": None, "grow": 0.9 * s, "shrink": 1.1 * s}[branch]
            state = ArolcState(c_hat, None if s_prev is None else s_prev.tolist(), t_prev)

            rec = arolc_step(state, tuple(q.tolist()), tuple(q_dot.tolist()), desired,
                             nominal.torque, t, DT, cfg)
            *vectors, c_hat_ref = self.reference(state, q, q_dot, desired, nominal, t, DT, cfg)
            for got, (ref, scale) in zip((rec.tau, rec.u, rec.du, rec.state.s_prev), vectors):
                assert type(got) is list and all(type(x) is float for x in got)
                assert _rounding(got, ref, scale) <= self.ROUNDING
            s, s_scale = vectors[3]
            s_norm = float(np.linalg.norm(s))
            assert _rounding(rec.s_norm, s_norm, np.linalg.norm(s_scale)) <= self.ROUNDING
            assert (s_norm < cfg.epsilon) == (ratio < 1.0)
            # the branch is the reference's: grow and shrink differ by 2 ||s|| dt
            assert abs(rec.c_hat - c_hat_ref) <= 4 * np.spacing(c_hat_ref)
            assert rec.state.c_hat == rec.c_hat and rec.state.t_prev == t
            expected = {"floor": c_hat + cfg.gamma * DT, "first": c_hat - s_norm * DT,
                        "grow": c_hat + s_norm * DT, "shrink": c_hat - s_norm * DT}[branch]
            assert rec.c_hat == pytest.approx(max(expected, cfg.gamma), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_pcon_step(self, n):
        rng = np.random.default_rng(40 + n)
        vartheta = _spd(rng, n, 0.1, 2.0)
        assert np.count_nonzero(vartheta - np.diag(np.diag(vartheta))) == n * n - n
        cfg = PconConfig(kappa=1.7, vartheta=vartheta, k_b=3.1)
        times = (np.arange(30) * 0.01).tolist()
        values = rng.uniform(-5.0, 5.0, (30, n))
        for k in range(30):
            t, h = float(times[k]), float(rng.uniform(0.0, 0.12))
            q, q_dot = rng.uniform(-2.0, 2.0, (2, n))
            desired = tuple(rng.uniform(-2.0, 2.0, (3, n)).tolist())
            got = pcon_step((times, values, k), h, tuple(q.tolist()), tuple(q_dot.tolist()),
                            desired, t, cfg)
            e1, e1_dot = np.subtract(desired[0], q), np.subtract(desired[1], q_dot)
            e_z = np.array(integrate(times, values, k, t - h, t))
            ref = cfg.k_b * (e1_dot + cfg.kappa * e1 - cfg.vartheta @ e_z)
            scale = cfg.k_b * (np.abs(e1_dot) + cfg.kappa * np.abs(e1)
                               + np.abs(cfg.vartheta) @ np.abs(e_z))
            assert type(got) is list and all(type(x) is float for x in got)
            assert _rounding(got, ref, scale) <= self.ROUNDING
