import ast
import builtins
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arolc.plants import (
    _fold,
    _payload_phase,
    PayloadSchedule,
    PlantModel,
    TwoLinkParams,
    WmrParams,
    body_twist,
    el_accel,
    oscillator_plant,
    payload_mass,
    point_mass_plant,
    reconstruct_posture,
    reduced_wmr_dynamics,
    two_link_plant,
)
from arolc.scenario_io import load_scenario
from arolc.sim import simulate

from coupled_plant import coupled_plant, reference_faces

PARAMS = WmrParams()


def _posture_row_loop(times, q_dots, params, pose0):
    """reconstruct_posture written as a loop over the rows: a trapezoid per
    step for the heading, the midpoint heading for the axle midpoint's
    step, the centre of mass d ahead of the midpoint."""
    r, b, d = params.r_bar, params.b, params.d
    out = np.zeros((len(times), 3))
    x, y, phi = pose0
    x_a = x - d * math.cos(phi)
    y_a = y - d * math.sin(phi)
    out[0] = (x, y, phi)
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        (tr0, tl0), (tr1, tl1) = q_dots[i - 1], q_dots[i]
        v0, w0 = r * (tr0 + tl0) / 2.0, r * (tr0 - tl0) / (2.0 * b)
        v1, w1 = r * (tr1 + tl1) / 2.0, r * (tr1 - tl1) / (2.0 * b)
        phi_mid = phi + 0.25 * (w0 + w1) * dt
        v_mid = 0.5 * (v0 + v1)
        x_a += v_mid * math.cos(phi_mid) * dt
        y_a += v_mid * math.sin(phi_mid) * dt
        phi += 0.5 * (w0 + w1) * dt
        out[i] = (x_a + d * math.cos(phi), y_a + d * math.sin(phi), phi)
    return out


@pytest.fixture(scope="module")
def wmr_wheel_traces():
    """(start pose, trace) of two shipped robot runs, shortened to 3 s: the
    adaptive-robust run under S1 and the fixed-window predictor under S3."""
    runs = []
    for name in ("wmr_s1_arolc", "wmr_s3_pconf"):
        sc = load_scenario(f"scenarios/{name}.ini")
        sc.duration = 3.0
        x0, y0, *_ = sc.trajectory.cartesian(0.0)
        runs.append(((x0, y0, 0.0), simulate(sc)))
    return runs


class TestElAccel:
    def test_unit_plant(self):
        plant = point_mass_plant(2)
        np.testing.assert_allclose(
            el_accel(plant, np.zeros(2), np.zeros(2), [1.0, 1.0], 0.0), [1.0, 1.0]
        )

    def test_equilibrium(self):
        class Diag2(point_mass_plant(2).__class__):
            def bias_vector(self, q, q_dot, t):
                return np.array([1.0, 0.0])

        plant = Diag2(2, 2.0)
        np.testing.assert_allclose(
            el_accel(plant, np.zeros(2), np.zeros(2), [1.0, 0.0], 0.0), [0.0, 0.0]
        )

    def test_inverted_pendulum_equilibrium(self):
        class Pendulum(point_mass_plant(1).__class__):
            def bias_vector(self, q, q_dot, t):
                return np.array([math.sin(q[0])])

        plant = Pendulum(1, 1.0)
        np.testing.assert_allclose(
            el_accel(plant, [math.pi], np.zeros(1), [0.0], 0.0), [0.0], atol=1e-12
        )

    def test_singular_mass_matrix_rejected(self):
        class Massless(point_mass_plant(2).__class__):
            def mass_matrix(self, q, t):
                return np.zeros((2, 2))

        with pytest.raises(ValueError, match="^singular mass matrix$"):
            el_accel(Massless(2, 1.0), np.zeros(2), np.zeros(2), [1.0, 0.0], 0.0)

    def test_fast_path_matches_generic(self):
        plant = two_link_plant(TwoLinkParams(viscous=0.1), mismatch=0.2,
                               disturbance_amp=0.05)
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.standard_normal(2)
            qd = rng.standard_normal(2)
            tau = rng.standard_normal(2)
            t = float(rng.random() * 10)
            np.testing.assert_allclose(
                plant.accel(q, qd, tau, t), el_accel(plant, q, qd, tau, t),
                atol=1e-12,
            )


class TestPayload:
    SCHED = PayloadSchedule(extra_mass=3.5, period_on=5.0, period_off=5.0,
                            offsets=((0.05, 0.02), (-0.03, 0.04)))

    def test_first_on_window(self):
        mass, offset = payload_mass(self.SCHED, 2.0)
        assert mass == pytest.approx(3.5)
        assert offset == (0.05, 0.02)

    def test_off_window(self):
        mass, _ = payload_mass(self.SCHED, 7.0)
        assert mass == 0.0

    def test_period(self):
        for t in (0.5, 3.0, 12.0, 21.7):
            m0, o0 = payload_mass(self.SCHED, t)
            m1, _ = payload_mass(self.SCHED, t + 20.0)  # 2 full cycles
            assert m0 == m1

    @pytest.mark.parametrize("field, value, message", [
        ("extra_mass", math.nan, "extra_mass"), ("extra_mass", math.inf, "extra_mass"),
        ("period_on", math.nan, "period_on"), ("period_off", math.inf, "period_off"),
        ("offsets", ((0.05, math.nan),), "offsets"),
        ("offsets", (), "at least one offset is required"),
        ("extra_mass", -1.0, "extra_mass"), ("period_on", math.inf, "period_on"),
        ("period_on", 0.0, "period_on"), ("period_off", math.nan, "period_off"),
        ("period_off", -1.0, "period_off"), ("offsets", ((math.inf, 0.0),), "offsets"),
        ("offsets", ((0.0, -math.inf),), "offsets"),
    ])
    def test_non_finite_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message) as info:
            PayloadSchedule(**{field: value})
        assert str(info.value).startswith(message)  # scenario_io's key leads

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="^t must be nonnegative$"):
            payload_mass(self.SCHED, -1e-9)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        # NaN and inf reached the integer cast of the payload phase
        with pytest.raises(ValueError, match="^t must be finite$"):
            payload_mass(self.SCHED, t)

    def test_offsets_cycle(self):
        _, first = payload_mass(self.SCHED, 1.0)
        _, second = payload_mass(self.SCHED, 11.0)
        _, third = payload_mass(self.SCHED, 21.0)
        assert first == (0.05, 0.02)
        assert second == (-0.03, 0.04)
        assert third == first

    @given(st.floats(1e-3, 20.0), st.floats(1e-3, 20.0),
           st.lists(st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
                    min_size=1, max_size=4),
           st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=8))
    def test_array_phase_matches_the_float_phase(self, period_on, period_off, offsets,
                                                 cycles):
        # instants at and next to multiples of the cycle and of period_on
        # (the switches among them), t = 0 and t < 0: the robot's array
        # phase is the float _payload_phase of each instant plus one, and
        # the cycle's integer remainder is its float remainder
        sched = PayloadSchedule(period_on=period_on, period_off=period_off, offsets=offsets)
        period = period_on + period_off
        marks = [0.0, -period_on]
        for k in cycles:
            marks += [k * period, k * period + period_on, k * period_on]
        t = [x for mark in marks for x in (math.nextafter(mark, -math.inf), mark,
                                           math.nextafter(mark, math.inf))]
        phase = reduced_wmr_dynamics(PARAMS, payload=sched)._phase(np.array(t))
        for x, got in zip(t, phase.tolist()):
            x = max(x, 0.0)
            cycle = x // period
            float_remainder = (cycle % len(offsets) + 1.0) * (x - cycle * period < period_on)
            assert got == int(_payload_phase(sched, x)) + 1 == int(float_remainder)


class TestFold:
    SOURCE = "a = 1\nif k:\n    b = k * 2\n    c = b\nd = 4\nif j:\n    e = 5\n"

    @pytest.mark.parametrize("k, j, expected", [
        (0.5, None, "a = 1\nb = k * 2\nc = b\nd = 4\n"),
        (0.0, print, "a = 1\nd = 4\ne = 5\n"),
        (0.0, None, "a = 1\nd = 4\n"),
    ])
    def test_block_kept_where_the_constant_is_truthy(self, k, j, expected):
        assert _fold(self.SOURCE, {"k": k, "j": j}) == expected

    def test_every_shipped_plant_folds_its_own_constants(self):
        # the robot's rolling resistance and the disturbances stay where set
        bare, rolling = (reduced_wmr_dynamics(PARAMS, viscous=v).kernel().source
                         for v in (0.0, 0.002))
        assert "visc * v0" not in bare and "\nn0, n1 = n0 + visc * v0" in rolling
        assert "\nd0, d1 = disturbance(t).tolist()" in _disturbed_arm().kernel().source


def axle_frame_matrices(phi, params):
    """Independent 5-coordinate Lagrangian at the axle midpoint, used as the
    oracle for the closed-form wheel-space reduction."""
    m, k = params.m, params.K
    j = params.I_bar + params.m * params.d ** 2
    s, c = math.sin(phi), math.cos(phi)
    m_full = np.array([
        [m, 0.0, -k * s, 0.0, 0.0],
        [0.0, m, k * c, 0.0, 0.0],
        [-k * s, k * c, j, 0.0, 0.0],
        [0.0, 0.0, 0.0, params.I_w, 0.0],
        [0.0, 0.0, 0.0, 0.0, params.I_w],
    ])
    a = params.r_bar / 2.0
    cc = params.r_bar / (2.0 * params.b)
    s_map = np.array([
        [a * c, a * c],
        [a * s, a * s],
        [cc, -cc],
        [1.0, 0.0],
        [0.0, 1.0],
    ])
    ds_dphi = np.array([
        [-a * s, -a * s],
        [a * c, a * c],
        [0.0, 0.0],
        [0.0, 0.0],
        [0.0, 0.0],
    ])
    return m_full, s_map, ds_dphi


def axle_frame_reduction(phi, v, params):
    m_full, s_map, ds_dphi = axle_frame_matrices(phi, params)
    k = params.K
    phi_dot = params.r_bar / (2.0 * params.b) * (v[0] - v[1])
    coriolis = np.array([
        -k * phi_dot ** 2 * math.cos(phi),
        -k * phi_dot ** 2 * math.sin(phi),
        0.0, 0.0, 0.0,
    ])
    m_red = s_map.T @ m_full @ s_map
    n_red = s_map.T @ (m_full @ (phi_dot * ds_dphi @ v) + coriolis)
    return m_red, n_red


class TestReducedWmr:
    def test_mass_matrix_spd_over_heading_grid(self):
        plant = reduced_wmr_dynamics(PARAMS)
        for phi in np.linspace(0.0, 2.0 * math.pi, 24):
            # heading does not enter the wheel-space inertia; the grid checks
            # the closed form against the project-at-phi oracle as well
            m_red, _ = axle_frame_reduction(float(phi), np.zeros(2), PARAMS)
            np.testing.assert_allclose(plant.mass_matrix(np.zeros(2)), m_red,
                                       atol=1e-12)
            assert np.linalg.eigvalsh(m_red)[0] > 0.0

    def test_bias_matches_projection_oracle(self):
        plant = reduced_wmr_dynamics(PARAMS)
        rng = np.random.default_rng(3)
        for _ in range(30):
            phi = float(rng.uniform(0, 2 * math.pi))
            v = rng.standard_normal(2) * 3.0
            _, n_red = axle_frame_reduction(phi, v, PARAMS)
            np.testing.assert_allclose(plant.bias_vector(np.zeros(2), v, 0.0),
                                       n_red, atol=1e-12)

    def test_zero_velocity_zero_input(self):
        plant = reduced_wmr_dynamics(PARAMS)
        acc = plant.accel(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
        np.testing.assert_allclose(acc, np.zeros(2))

    def test_straight_line_kinematics(self):
        v, w = body_twist([2.0, 2.0], PARAMS)
        assert w == 0.0
        assert v == pytest.approx(PARAMS.r_bar * 2.0)
        ts = np.linspace(0.0, 1.0, 101)
        qdots = np.tile([2.0, 2.0], (101, 1))
        pose = reconstruct_posture(ts, qdots, PARAMS, pose0=(0.0, 0.0, 0.0))
        assert pose[-1, 0] == pytest.approx(PARAMS.r_bar * 2.0, rel=1e-9)
        assert pose[-1, 1] == pytest.approx(0.0, abs=1e-12)
        assert pose[-1, 2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("pose0", [None, (0.3, -1.2, 2.5)], ids=["path-start", "turned"])
    def test_posture_matches_row_loop_bytes(self, wmr_wheel_traces, pose0):
        for start, trace in wmr_wheel_traces:
            pose = start if pose0 is None else pose0
            expected = _posture_row_loop(trace.t, trace.q_dot, PARAMS, pose)
            got = reconstruct_posture(trace.t, trace.q_dot, PARAMS, pose0=pose)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("times, q_dots", [
        ([], np.zeros((0, 2))), ([[0.0, 0.1]], np.zeros((2, 2))),
        ([0.0, 0.1, 0.2], np.zeros((2, 2))), ([0.0, 0.1], np.zeros(2)),
    ], ids=["empty", "nested-times", "short-rates", "one-pair"])
    def test_posture_series_of_other_lengths_rejected(self, times, q_dots):
        with pytest.raises(ValueError, match="^times and q_dots must be N >= 1 times"):
            reconstruct_posture(times, q_dots, PARAMS)

    def test_payload_changes_inertia_only_in_on_windows(self):
        sched = PayloadSchedule(extra_mass=3.5, period_on=5.0, period_off=5.0)
        plant = reduced_wmr_dynamics(PARAMS, payload=sched)
        m_on = plant.mass_matrix(np.zeros(2), 1.0)
        m_off = plant.mass_matrix(np.zeros(2), 6.0)
        base = plant.nominal_mass_matrix(np.zeros(2))
        np.testing.assert_allclose(m_off, base)
        assert m_on[0, 0] > m_off[0, 0]
        assert np.linalg.eigvalsh(m_on)[0] > 0.0

    def test_mismatch_scales_nominal(self):
        plant = reduced_wmr_dynamics(PARAMS, mismatch=0.2)
        m_true = plant.mass_matrix(np.zeros(2), None)
        m_nom = plant.nominal_mass_matrix(np.zeros(2))
        np.testing.assert_allclose(m_nom, 0.8 * m_true, atol=1e-12)


class TestReducedWmrKineticEnergy:
    """1/2 q_dot^T M q_dot equals the rigid-body kinetic energy written at the
    axle midpoint: 1/2 m v^2 + 1/2 J w^2 + 1/2 I_w (tr^2 + tl^2) with
    J = I_bar + m d^2; a payload dm at body offset (dx, 0) adds dm to m and
    dm dx^2 to J."""

    @pytest.mark.parametrize("params", [PARAMS, WmrParams(
        m=12.0, I_bar=0.7, K=0.48, d=0.04, r_bar=0.11, b=0.2, I_w=0.004)],
        ids=["default", "other"])
    @pytest.mark.parametrize("dm, dx", [(0.0, 0.0), (3.5, 0.04), (2.0, -0.03)],
                             ids=["no-payload", "payload-ahead", "payload-behind"])
    def test_matches_rigid_body_energy(self, params, dm, dx):
        payload = PayloadSchedule(extra_mass=dm, offsets=((dx, 0.0),)) if dm else None
        plant = reduced_wmr_dynamics(params, payload=payload)
        m_mat = plant.mass_matrix(np.zeros(2), 1.0)  # inside the first on-window
        r, b = params.r_bar, params.b
        j = params.I_bar + params.m * params.d ** 2 + dm * dx ** 2
        rng = np.random.default_rng(11)
        for _ in range(50):
            tr, tl = rng.standard_normal(2) * 5.0
            v, w = r * (tr + tl) / 2.0, r * (tr - tl) / (2.0 * b)
            expected = (0.5 * (params.m + dm) * v ** 2 + 0.5 * j * w ** 2
                        + 0.5 * params.I_w * (tr ** 2 + tl ** 2))
            q_dot = np.array([tr, tl])
            assert 0.5 * q_dot @ m_mat @ q_dot == pytest.approx(expected, rel=1e-12)


def _disturbed_arm():
    return two_link_plant(TwoLinkParams(viscous=0.1), mismatch=0.2, disturbance_amp=0.05,
                          disturbance_freq=1.3, phases=(0.3, 1.1))


def _disturbed_wmr():
    return reduced_wmr_dynamics(
        PARAMS, mismatch=0.2, viscous=0.002, disturbance_amp=0.05, disturbance_freq=1.3,
        phases=(0.3, 1.1),
        payload=PayloadSchedule(offsets=((0.05, 0.02), (-0.03, 0.04))))


# factory, whether its true side carries friction and a disturbance
_PLANTS = {
    "two-link": (_disturbed_arm, True),
    "wmr": (_disturbed_wmr, True),
    "point-mass": (lambda: point_mass_plant(3, mass=2.0), False),
    "oscillator": (lambda: oscillator_plant(stiffness=4.0, mass=2.0), False),
    "coupled-3": (coupled_plant, True),
}
# on and off payload windows, two offsets
_TIMES = (0.0, 1.0, 6.0, 11.3, 17.9)


@pytest.mark.parametrize("make, disturbed", _PLANTS.values(), ids=_PLANTS.keys())
class TestPlantConformance:
    def test_accel_matches_el_accel(self, make, disturbed):
        plant = make()
        rng = np.random.default_rng(5)
        for t in np.linspace(0.0, 23.0, 47):
            q, q_dot, tau = rng.standard_normal((3, plant.dim)) * 2.0
            np.testing.assert_allclose(
                plant.accel(q, q_dot, tau, float(t)),
                el_accel(plant, q, q_dot, tau, float(t)), rtol=1e-12, atol=1e-12)

    def test_nominal_methods_read_the_nominal_plant(self, make, disturbed):
        plant = make()
        rng = np.random.default_rng(6)
        for _ in range(10):
            q, q_dot = rng.standard_normal((2, plant.dim))
            assert (plant.nominal_mass_matrix(q).tobytes()
                    == plant.nominal.mass_matrix(q).tobytes())
            assert (plant.nominal_bias_vector(q, q_dot).tobytes()
                    == plant.nominal.bias_vector(q, q_dot, None).tobytes())

    def test_nominal_has_no_friction_disturbance_or_payload(self, make, disturbed):
        plant = make()
        q, q_dot = np.random.default_rng(7).standard_normal((2, plant.dim))
        # payload and disturbance enter through time, friction is odd in q_dot
        # while the Coriolis and gyroscopic terms are even; the true side of a
        # disturbed factory shows that the checks see all three
        for face, clean in ((plant.nominal, True), (plant, not disturbed)):
            m_t = [face.mass_matrix(q, t).tobytes() for t in _TIMES]
            n_t = [face.bias_vector(q, q_dot, t).tobytes() for t in _TIMES]
            assert (len(set(m_t)) == len(set(n_t)) == 1) == clean
            odd = face.bias_vector(q, q_dot, 0.0) - face.bias_vector(q, -q_dot, 0.0)
            assert (np.abs(odd).max() <= 1e-14) == clean

    def test_kernel_keeps_to_its_names(self, make, disturbed):
        # what the RK4 step relies on when it renames a kernel per stage: the
        # kernel reads stage names, its constants and builtins, assigns every
        # acceleration, and its temporaries are neither stage names nor
        # underscored (the step's own names); it reads p iff it has a
        # schedule, and t iff it has a disturbance, which the step then
        # takes with its inputs
        plant = make()
        kernel = plant.kernel()
        n = plant.dim
        names = [node for node in ast.walk(ast.parse(kernel.source))
                 if isinstance(node, ast.Name)]
        stored = {node.id for node in names if isinstance(node.ctx, ast.Store)}
        read = {node.id for node in names if isinstance(node.ctx, ast.Load)} - stored
        accelerations = {f"a{i}" for i in range(n)}
        assert accelerations <= stored
        for name in stored - accelerations:
            assert not re.fullmatch(r"_.*|[qvau]\d+|[tp]", name), name
        stage = {f"{p}{i}" for p in "qvu" for i in range(n)} | {"t", "p"}
        assert read <= stage | set(kernel.constants) | set(vars(builtins))
        assert ("p" in read) == (kernel.schedule is not None)
        assert ("t" in read) == disturbed == bool(plant.disturbance_amp)
        assert not re.search(r"\bt\b", plant.nominal.kernel().source)

    def test_kernel_branches_on_no_constant(self, make, disturbed):
        # each "if <constant>:" block is resolved when the strings are built,
        # so no kernel tests viscous, friction or disturbance; a first line
        # that unpacks p assigns names that no later line assigns
        plant = make()
        for face in (plant, plant.nominal):
            tree = ast.parse(face.kernel().source)
            assert not any(isinstance(node, ast.If) for node in ast.walk(tree))
            first, *rest = tree.body
            if isinstance(first, ast.Assign) and ast.unparse(first.value) == "p":
                row = {node.id for node in ast.walk(first.targets[0])
                       if isinstance(node, ast.Name)}
                later = {node.id for line in rest for node in ast.walk(line)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
                assert row and not row & later

    def test_accel_returns_list_of_floats(self, make, disturbed):
        plant = make()
        rng = np.random.default_rng(9)
        for t in _TIMES:
            q, q_dot, tau = rng.standard_normal((3, plant.dim)) * 2.0
            out = plant.accel(q.tolist(), q_dot.tolist(), tau.tolist(), t)
            assert type(out) is list and len(out) == plant.dim
            assert all(type(v) is float for v in out)
            for convert in (tuple, np.asarray):
                same = plant.accel(convert(q.tolist()), convert(q_dot.tolist()),
                                   convert(tau.tolist()), t)
                assert type(same) is list and all(type(v) is float for v in same)
                assert np.array(same).tobytes() == np.array(out).tobytes()

    def test_torque_matches_ndarray_faces(self, make, disturbed):
        # the time-free faces: the robot's bare-body row, the arm's friction
        plant = make()
        rng = np.random.default_rng(10)
        for face in (plant, plant.nominal):
            for _ in range(20):
                q, q_dot, qdd = rng.standard_normal((3, plant.dim)) * 2.0
                got = face.torque(tuple(q.tolist()), tuple(q_dot.tolist()), qdd.tolist())
                assert type(got) is list and all(type(x) is float for x in got)
                np.testing.assert_allclose(
                    got, face.mass_matrix(q) @ qdd + face.bias_vector(q, q_dot, None),
                    rtol=1e-12)

    def test_mass_matrix_symmetric_positive_definite(self, make, disturbed):
        plant = make()
        rng = np.random.default_rng(8)
        for t in _TIMES:
            q = rng.uniform(-math.pi, math.pi, plant.dim)
            for m in (plant.mass_matrix(q, t), plant.nominal_mass_matrix(q)):
                np.testing.assert_array_equal(m, m.T)
                assert np.linalg.eigvalsh(m)[0] > 0.0


class _NdarrayFacesPlant(PlantModel):
    """A coupled linear plant with ndarray faces only, so that its accel and
    torque are PlantModel's."""

    dim = 2

    def mass_matrix(self, q, t=None):
        return np.array([[2.0, 0.3], [0.3, 1.0]])

    def bias_vector(self, q, q_dot, t):
        return 0.5 * np.asarray(q, float) - 0.2 * np.asarray(q_dot, float)


# plants without a disturbance, each at a time t where accel reads the
# time-free dynamics: the robot's payload is off at t = 6 (its bare-body row)
_UNDISTURBED = {
    "ndarray-faces": (_NdarrayFacesPlant, 1.0),
    "wmr-bare-body": (lambda: reduced_wmr_dynamics(
        PARAMS, mismatch=0.2, viscous=0.002,
        payload=PayloadSchedule(offsets=((0.05, 0.02),))), 6.0),
    "wmr-nominal": (lambda: _disturbed_wmr().nominal, 1.0),
    "two-link-friction": (lambda: two_link_plant(TwoLinkParams(viscous=0.1)), 1.0),
    "two-link-nominal": (lambda: _disturbed_arm().nominal, 1.0),
    "point-mass": (lambda: point_mass_plant(3, mass=2.0), 1.0),
    "oscillator": (lambda: oscillator_plant(stiffness=4.0, mass=2.0), 1.0),
    "coupled-3-nominal": (lambda: coupled_plant().nominal, 1.0),
}


@pytest.mark.parametrize("make, t", _UNDISTURBED.values(), ids=_UNDISTURBED.keys())
def test_torque_inverts_accel(make, t):
    plant = make()
    rng = np.random.default_rng(11)
    for _ in range(50):
        q, q_dot, qdd = (rng.standard_normal((3, plant.dim)) * 2.0).tolist()
        tau = plant.torque(q, q_dot, qdd)
        assert type(tau) is list and all(type(x) is float for x in tau)
        np.testing.assert_allclose(plant.accel(q, q_dot, tau, t), qdd, rtol=1e-12, atol=1e-12)


# the payload of _disturbed_wmr switches every 5 s: draw on, off and at the
# switch instants; a negative time reads as 0 on the payload side
_STACK_TIME = st.one_of(st.floats(-1.0, 30.0), st.sampled_from([0.0, 5.0, 10.0, 15.0, 20.0]),
                        st.floats(4.9999, 5.0001))


@pytest.mark.parametrize("make", [make for make, _ in _PLANTS.values()], ids=_PLANTS.keys())
@given(data=st.data())
def test_stacked_calls_equal_single_state_rows(make, data):
    # exact for the arm too: numpy's cos and sin round as the math module's
    # do on the hosts this suite runs on
    plant = make()
    batch = data.draw(st.integers(1, 9), label="B")
    q = data.draw(arrays(np.float64, (batch, plant.dim), elements=st.floats(-20.0, 20.0)))
    q_dot = data.draw(arrays(np.float64, (batch, plant.dim), elements=st.floats(-1e3, 1e3)))
    t = data.draw(arrays(np.float64, batch, elements=_STACK_TIME))
    stacked = (plant.mass_matrix(q, t), plant.bias_vector(q, q_dot, t),
               plant.nominal_mass_matrix(q), plant.nominal_bias_vector(q, q_dot))
    n = plant.dim
    for got, shape in zip(stacked, [(batch, n, n), (batch, n)] * 2):
        assert got.shape == shape and got.dtype == np.float64
    for b in range(batch):
        rows = (plant.mass_matrix(q[b], float(t[b])),
                plant.bias_vector(q[b], q_dot[b], float(t[b])),
                plant.nominal_mass_matrix(q[b]), plant.nominal_bias_vector(q[b], q_dot[b]))
        for got, row in zip(stacked, rows):
            assert got[b].tobytes() == row.tobytes()


def reference_wmr_faces(plant, q_dot, t):
    """mass_matrix and bias_vector of one state, formulated from the payload
    schedule at t: payload_mass gives (m, J, K), which give the inertia
    entries and the gyroscopic gain; the bare body at t = None."""
    p = plant.params
    m_eff, j_eff, k_eff = p.m, p.I_bar + p.m * p.d ** 2, p.K
    if plant.payload is not None and t is not None:
        dm, (dx, dy) = payload_mass(plant.payload, max(t, 0.0))
        m_eff += dm
        j_eff += dm * (dx * dx + dy * dy)
        k_eff += dm * dx
    a, c = p.r_bar / 2.0, p.r_bar / (2.0 * p.b)
    linear, spin = m_eff * a * a, j_eff * c * c
    diag, off = linear + spin + p.I_w, linear - spin
    qd0, qd1 = q_dot
    s = 2.0 * k_eff * a * c * c * (qd0 - qd1)
    n0, n1 = s * qd1, s * -qd0
    if plant.viscous:
        visc = plant.viscous * (m_eff / p.m)
        n0, n1 = n0 + visc * qd0, n1 + visc * qd1
    n = np.array([n0, n1])
    if plant.disturbance_amp:
        n = n + plant.disturbance(t)
    return np.array([[diag, off], [off, diag]]), n


def _switch_stage_times():
    """t = +-0, t < 0, and the RK4 stage instants simulate produces (dt =
    1 ms, ten steps per period) around every 5 s payload switch of a 40 s
    run."""
    dt, dt_control = 1e-3, 1e-2
    times = [0.0, -0.0, -1e-3, -2.5]
    for switch in range(5, 45, 5):
        for k in range(round(switch / dt_control) - 2, round(switch / dt_control) + 2):
            for i in range(10):
                t = k * dt_control + i * dt
                times += [t, t + 0.5 * dt, t + dt]
    return times


def _drawn_wmr_params(seed):
    # an order of rounding that the defaults happen to hide shows for about
    # one drawn parameter set in three
    m, i_bar, d, r_bar, b, i_w = np.random.default_rng(seed).uniform(
        [5.0, 0.2, 0.01, 0.05, 0.1, 0.001], [20.0, 1.0, 0.09, 0.15, 0.3, 0.01])
    return WmrParams(m=m, I_bar=i_bar, K=m * d, d=d, r_bar=r_bar, b=b, I_w=i_w)


# three offsets, all with dy != 0: on and off windows, every offset
_WMR_SCHEDULE = PayloadSchedule(offsets=((0.05, 0.02), (-0.03, 0.04), (0.02, -0.05)))
_WMR_VARIANTS = [(PARAMS, _WMR_SCHEDULE, 0.002, 0.05), (PARAMS, _WMR_SCHEDULE, 0.0, 0.0),
                 (PARAMS, None, 0.002, 0.0), (PARAMS, None, 0.0, 0.05)] + [
    (_drawn_wmr_params(seed), _WMR_SCHEDULE, 0.0037, 0.05) for seed in range(4)]


def _wmr_variant(params, payload, viscous, disturbance_amp):
    return reduced_wmr_dynamics(params, mismatch=0.2, payload=payload, viscous=viscous,
                                disturbance_amp=disturbance_amp, disturbance_freq=1.3,
                                phases=(0.3, 1.1))


@pytest.mark.parametrize("params, payload, viscous, disturbance_amp", _WMR_VARIANTS)
def test_wmr_faces_match_reference_bytes(params, payload, viscous, disturbance_amp):
    # single-state and stacked faces, byte for byte, at the switch instants
    # and at random instants over 40 s of on and off windows
    rng = np.random.default_rng(15)
    times = _switch_stage_times()
    times += (rng.random(3000 - len(times)) * 46.0 - 1.0).tolist()
    plant = _wmr_variant(params, payload, viscous, disturbance_amp)
    q = rng.standard_normal((len(times), 2)) * 3.0
    q_dot = rng.standard_normal((len(times), 2)) * 20.0
    m_stack = plant.mass_matrix(q, np.array(times))
    n_stack = plant.bias_vector(q, q_dot, np.array(times))
    for b, t in enumerate(times):
        m_ref, n_ref = reference_wmr_faces(plant, q_dot[b].tolist(), t)
        assert plant.mass_matrix(q[b], t).tobytes() == m_stack[b].tobytes() == m_ref.tobytes()
        assert (plant.bias_vector(q[b], q_dot[b], t).tobytes() == n_stack[b].tobytes()
                == n_ref.tobytes())
    # the nominal plant, and the bare body of the true one, at t = None
    for face in [plant.nominal] + ([] if disturbance_amp else [plant]):
        m_stack, n_stack = face.mass_matrix(q), face.bias_vector(q, q_dot, None)
        for b in range(0, len(times), 7):
            m_ref, n_ref = reference_wmr_faces(face, q_dot[b].tolist(), None)
            assert face.mass_matrix(q[b]).tobytes() == m_stack[b].tobytes() == m_ref.tobytes()
            assert (face.bias_vector(q[b], q_dot[b], None).tobytes() == n_stack[b].tobytes()
                    == n_ref.tobytes())


class TestWmrClosedFormAccel:
    @pytest.mark.parametrize("payload", [
        None, PayloadSchedule(offsets=((0.05, 0.02), (-0.03, 0.04), (0.02, -0.05))),
    ], ids=["no-payload", "payload"])
    @pytest.mark.parametrize("viscous, disturbance_amp", [(0.0, 0.0), (0.002, 0.05)],
                             ids=["frictionless", "viscous-disturbed"])
    def test_matches_el_accel(self, payload, viscous, disturbance_amp):
        plant = reduced_wmr_dynamics(PARAMS, mismatch=0.2, payload=payload,
                                     viscous=viscous, disturbance_amp=disturbance_amp,
                                     disturbance_freq=1.3, phases=(0.3, 1.1))
        rng = np.random.default_rng(7)
        for t in np.linspace(0.0, 33.0, 111):  # on and off windows, every offset
            qd = rng.standard_normal(2) * 5.0
            tau = rng.standard_normal(2)
            np.testing.assert_allclose(
                plant.accel(np.zeros(2), qd, tau, float(t)),
                el_accel(plant, np.zeros(2), qd, tau, float(t)), rtol=1e-12, atol=0.0)

    @staticmethod
    def reference_accel(plant, q_dot, tau, t):
        """The LU solve of reference_wmr_faces in plain float arithmetic."""
        m, n = reference_wmr_faces(plant, q_dot, t)
        (diag, off), _ = m.tolist()
        lower = off * (1.0 / diag)
        b0, b1 = tau[0] - n.item(0), tau[1] - n.item(1)
        x1 = (b1 - lower * b0) / (diag - lower * off)
        return [(b0 - off * x1) / diag, x1]

    def test_matches_reference_in_bulk(self):
        # byte for byte over random states at random instants, at t = +-0
        # and at the RK4 stage instants around every payload switch
        times = _switch_stage_times()
        rng = np.random.default_rng(14)
        times += (rng.random(5000 - len(times)) * 46.0 - 1.0).tolist()
        for variant in _WMR_VARIANTS:
            plant = _wmr_variant(*variant)
            q_dot, tau = (rng.standard_normal((2, len(times), 2)) * [[[20.0]], [[50.0]]])
            for qd, u, t in zip(q_dot.tolist(), tau.tolist(), times):
                assert (np.array(plant.accel([0.0, 0.0], qd, u, t)).tobytes()
                        == np.array(self.reference_accel(plant, qd, u, t)).tobytes())

    def test_no_generic_solve(self, monkeypatch):
        plant = reduced_wmr_dynamics(PARAMS, payload=PayloadSchedule(), viscous=0.002)

        def forbidden(*args, **kwargs):
            raise AssertionError("generic path called")

        monkeypatch.setattr(np.linalg, "solve", forbidden)
        monkeypatch.setattr(plant, "mass_matrix", forbidden)
        monkeypatch.setattr(plant, "bias_vector", forbidden)
        for t in (1.0, 6.0, 11.0):
            plant.accel(np.zeros(2), np.array([3.0, 2.0]), np.array([0.1, -0.2]), t)


@pytest.mark.parametrize("make", [_disturbed_arm, _disturbed_wmr], ids=["two-link", "wmr"])
@pytest.mark.parametrize("q_dot", [(1e200, 1.0), (1.0, 1e200), (math.inf, 0.0), (1e308, -1e308)],
                         ids=["large-qd0", "large-qd1", "infinite-qd0", "opposed-extremes"])
def test_closed_form_accel_of_a_diverging_state_is_non_finite(make, q_dot):
    # no overflow error and no warning: simulate's divergence guard sees the
    # non-finite entries and stops the run
    plant = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = plant.accel([0.3, 0.7], list(q_dot), [0.1, -0.2], 1.0)
    assert type(out) is list and len(out) == 2
    assert all(type(v) is float and not math.isfinite(v) for v in out)


def reference_two_link_matrices(q, q_dot, p):
    """The arm's M and N in ndarray arithmetic, as written before the float
    helpers: the byte-level reference of mass_matrix and bias_vector."""
    q = np.asarray(q, float)
    q_dot = np.asarray(q_dot, float)
    c2 = math.cos(q[1])
    a11 = p.m1 * p.lc1 ** 2 + p.I1 + p.I2 + p.m2 * (
        p.l1 ** 2 + p.lc2 ** 2 + 2.0 * p.l1 * p.lc2 * c2
    )
    a12 = p.m2 * (p.lc2 ** 2 + p.l1 * p.lc2 * c2) + p.I2
    a22 = p.m2 * p.lc2 ** 2 + p.I2
    h = p.m2 * p.l1 * p.lc2 * math.sin(q[1])
    coriolis = np.array([
        -h * q_dot[1] * (2.0 * q_dot[0] + q_dot[1]),
        h * (q_dot[0] * q_dot[0]),
    ])
    g = p.gravity
    grav = np.array([
        (p.m1 * p.lc1 + p.m2 * p.l1) * g * math.cos(q[0])
        + p.m2 * p.lc2 * g * math.cos(q[0] + q[1]),
        p.m2 * p.lc2 * g * math.cos(q[0] + q[1]),
    ])
    n = coriolis + grav
    if p.viscous:
        n = n + p.viscous * q_dot
    return np.array([[a11, a12], [a12, a22]]), n


def reference_two_link_accel(plant, q, q_dot, tau, t):
    """The det solve of the arm in ndarray arithmetic, as written before the
    float closed form."""
    m, n = reference_two_link_matrices(q, q_dot, plant.params)
    rhs = np.asarray(tau, float) - n
    if plant.disturbance_amp:
        rhs = rhs - plant.disturbance(t)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([
        (m[1, 1] * rhs[0] - m[0, 1] * rhs[1]) / det,
        (m[0, 0] * rhs[1] - m[1, 0] * rhs[0]) / det,
    ])


_PARAM = st.floats(min_value=0.05, max_value=5.0)
_ANGLE = st.floats(min_value=-20.0, max_value=20.0)
_RATE = st.floats(min_value=-1e3, max_value=1e3)


@given(m1=_PARAM, m2=_PARAM, l1=_PARAM, lc2=_PARAM, inertia=st.floats(0.0, 1.0),
       gravity=st.floats(-20.0, 20.0), viscous=st.sampled_from([0.0, 0.3]),
       disturbance_amp=st.sampled_from([0.0, 0.05]),
       q=st.tuples(_ANGLE, _ANGLE), q_dot=st.tuples(_RATE, _RATE),
       tau=st.tuples(_RATE, _RATE), t=st.floats(0.0, 100.0))
def test_two_link_float_forms_match_ndarray_reference(
        m1, m2, l1, lc2, inertia, gravity, viscous, disturbance_amp, q, q_dot, tau, t):
    params = TwoLinkParams(m1=m1, m2=m2, l1=l1, lc2=lc2, I1=inertia, I2=0.5 * inertia,
                           gravity=gravity, viscous=viscous)
    plant = two_link_plant(params, mismatch=0.2, disturbance_amp=disturbance_amp,
                           disturbance_freq=1.3, phases=(0.3, 1.1))
    expected = reference_two_link_accel(plant, q, q_dot, tau, t).tobytes()
    assert np.array(plant.accel(list(q), list(q_dot), list(tau), t)).tobytes() == expected
    assert np.array(plant.accel(*map(np.array, (q, q_dot, tau)), t)).tobytes() == expected
    m_ref, n_ref = reference_two_link_matrices(q, q_dot, params)
    assert plant.mass_matrix(np.array(q)).tobytes() == m_ref.tobytes()
    n = plant.bias_vector(np.array(q), np.array(q_dot), t)
    if disturbance_amp:
        n_ref = n_ref + plant.disturbance(t)
    assert n.tobytes() == n_ref.tobytes()
    m, n = plant.nominal.mass_matrix(np.array(q)), plant.nominal.bias_vector(
        np.array(q), np.array(q_dot), None)
    m_ref, n_ref = reference_two_link_matrices(q, q_dot, plant.nominal.params)
    assert m.tobytes() == m_ref.tobytes() and n.tobytes() == n_ref.tobytes()


def test_two_link_accel_matches_ndarray_reference_in_bulk():
    # a last-bit difference such as qd0 ** 2 (libm pow) for qd0 * qd0 shows
    # in about one sample in a thousand, too rarely for the property test
    # alone
    plant = two_link_plant(TwoLinkParams(viscous=0.1), mismatch=0.2, disturbance_amp=0.05)
    rng = np.random.default_rng(12)
    q, q_dot, tau = rng.standard_normal((3, 20000, 2)) * [[[3.0]], [[20.0]], [[50.0]]]
    for qq, qd, u, t in zip(q.tolist(), q_dot.tolist(), tau.tolist(), rng.random(20000)):
        assert (np.array(plant.accel(qq, qd, u, t)).tobytes()
                == reference_two_link_accel(plant, qq, qd, u, t).tobytes())


def test_two_link_stacked_calls_match_rows_in_bulk():
    # as above: a stack that squared qd0 through pow (np.float_power), where
    # the single state multiplies, differs in about one row in a thousand
    plant = _disturbed_arm()
    rng = np.random.default_rng(13)
    q, q_dot = rng.standard_normal((2, 20000, 2)) * [[[3.0]], [[20.0]]]
    t = rng.random(20000) * 10.0
    m, n = plant.mass_matrix(q, t), plant.bias_vector(q, q_dot, t)
    for b in range(len(t)):
        assert m[b].tobytes() == plant.mass_matrix(q[b], t[b]).tobytes()
        assert n[b].tobytes() == plant.bias_vector(q[b], q_dot[b], t[b]).tobytes()


def test_coupled_plant_faces_match_reference_bytes():
    # a plant beyond the shipped ones (n = 3, M13 structurally zero, a
    # schedule and a disturbance): single-state and stacked faces, byte for
    # byte, on and off its 2 s load windows, at t = None and on the nominal
    plant = coupled_plant()
    rng = np.random.default_rng(16)
    times = [0.0, 2.0, 4.0, -0.5] + (rng.random(500) * 12.0 - 1.0).tolist()
    q, q_dot = rng.standard_normal((2, len(times), 3)) * [[[3.0]], [[20.0]]]
    for face, t in ((plant, np.array(times)), (plant, None), (plant.nominal, None)):
        m_stack, n_stack = face.mass_matrix(q, t), face.bias_vector(q, q_dot, t)
        for b in range(len(times)):
            t_b = None if t is None else times[b]
            m_ref, n_ref = reference_faces(face, q[b], q_dot[b], t_b)
            assert face.mass_matrix(q[b], t_b).tobytes() == m_stack[b].tobytes() == m_ref.tobytes()
            assert (face.bias_vector(q[b], q_dot[b], t_b).tobytes() == n_stack[b].tobytes()
                    == n_ref.tobytes())


class TestTwoLink:
    def test_zero_velocity_no_gravity(self):
        arm = two_link_plant(TwoLinkParams(gravity=0.0))
        n = arm.bias_vector(np.array([0.4, -0.7]), np.zeros(2), None)
        np.testing.assert_allclose(n, np.zeros(2))

    def test_mass_matrix_spd(self):
        rng = np.random.default_rng(4)
        arm = two_link_plant(TwoLinkParams())
        for _ in range(50):
            q = rng.uniform(-math.pi, math.pi, 2)
            m = arm.mass_matrix(q)
            np.testing.assert_allclose(m, m.T, atol=1e-12)
            assert np.linalg.eigvalsh(m)[0] > 0.0

    def test_point_mass_off_diagonal(self):
        # equal point-mass links: lc = l, I = 0;
        # energy derivation gives M12 = m2 (l1 l2 cos q2 + l2^2)
        params = TwoLinkParams(m1=1.3, m2=1.3, l1=0.8, l2=0.8, lc1=0.8,
                               lc2=0.8, I1=0.0, I2=0.0)
        arm = two_link_plant(params)
        for q2 in (math.pi / 2, 0.3, -1.1):
            m = arm.mass_matrix(np.array([0.2, q2]))
            expected = params.m2 * (params.l1 * params.l2 * math.cos(q2)
                                    + params.l2 ** 2)
            assert m[0, 1] == pytest.approx(expected, rel=1e-12)
            assert m[1, 0] == pytest.approx(expected, rel=1e-12)

    def test_friction_only_in_true_model(self):
        plant = two_link_plant(TwoLinkParams(viscous=0.5, gravity=0.0))
        qd = np.array([1.0, -1.0])
        n_true = plant.bias_vector(np.zeros(2), qd, 0.0)
        n_nom = plant.nominal_bias_vector(np.zeros(2), qd)
        np.testing.assert_allclose(n_true - n_nom, 0.5 * qd)

    def test_mismatch_scales_nominal(self):
        plant = two_link_plant(TwoLinkParams(), mismatch=0.2)
        q = np.array([0.3, 0.5])
        np.testing.assert_allclose(
            plant.nominal_mass_matrix(q), 0.8 * plant.mass_matrix(q), atol=1e-12
        )


class TestParamsValidation:
    @pytest.mark.parametrize("field", ["m", "I_bar", "K", "d", "r_bar", "b", "I_w"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_wmr_rejected(self, field, value):
        with pytest.raises(ValueError, match=field) as info:
            WmrParams(**{field: value})
        assert str(info.value).startswith(f"{field} must be ")  # scenario_io's key

    @pytest.mark.parametrize("field, value", [
        (name, value) for name in ("m1", "m2", "l1", "l2", "lc1", "lc2")
        for value in (math.nan, math.inf, 0.0)
    ] + [
        (name, value) for name in ("I1", "I2", "viscous") for value in (math.nan, math.inf, -1.0)
    ] + [("gravity", math.nan), ("gravity", math.inf)])
    def test_two_link_rejected(self, field, value):
        with pytest.raises(ValueError, match=field) as info:
            TwoLinkParams(**{field: value})
        assert str(info.value).startswith(f"{field} must be ")

    @pytest.mark.parametrize("factory, kwargs, field", [
        (lambda **kw: reduced_wmr_dynamics(PARAMS, **kw), {"viscous": -5.0}, "viscous"),
        (lambda **kw: reduced_wmr_dynamics(PARAMS, **kw), {"viscous": math.nan}, "viscous"),
        (point_mass_plant, {"n": 0}, "n"),
        (point_mass_plant, {"mass": math.nan}, "mass"),
        (point_mass_plant, {"mass": 0.0}, "mass"),
        (oscillator_plant, {"stiffness": math.nan}, "stiffness"),
        (oscillator_plant, {"stiffness": -1.0}, "stiffness"),
        (oscillator_plant, {"mass": math.inf}, "mass"),
        (lambda **kw: two_link_plant(TwoLinkParams(), **kw), {"disturbance_amp": math.nan},
         "disturbance_amp"),
        (lambda **kw: two_link_plant(TwoLinkParams(), **kw), {"disturbance_freq": math.inf},
         "disturbance_freq"),
        (lambda **kw: reduced_wmr_dynamics(PARAMS, **kw), {"disturbance_amp": -math.inf},
         "disturbance_amp"),
        (lambda **kw: two_link_plant(TwoLinkParams(), **kw),
         {"disturbance_amp": 0.1, "phases": [0.0]}, "phases"),
        (lambda **kw: reduced_wmr_dynamics(PARAMS, **kw), {"phases": [[0.0, 1.0]]}, "phases"),
        (lambda **kw: reduced_wmr_dynamics(PARAMS, **kw), {"phases": [0.0, math.nan]},
         "phases"),
        (lambda **kw: reduced_wmr_dynamics(PARAMS, **kw), {"mismatch": 1.0}, "mismatch"),
        (lambda **kw: reduced_wmr_dynamics(PARAMS, **kw), {"viscous": math.inf}, "viscous"),
        (point_mass_plant, {"mass": math.inf}, "mass"),
        (oscillator_plant, {"stiffness": math.inf}, "stiffness"),
        (oscillator_plant, {"mass": math.nan}, "mass"),
        (oscillator_plant, {"mass": 0.0}, "mass"),
        (lambda **kw: two_link_plant(TwoLinkParams(), **kw), {"disturbance_amp": math.inf},
         "disturbance_amp"),
        (lambda **kw: two_link_plant(TwoLinkParams(), **kw), {"disturbance_freq": math.nan},
         "disturbance_freq"),
        (lambda **kw: reduced_wmr_dynamics(PARAMS, **kw), {"disturbance_freq": -math.inf},
         "disturbance_freq"),
    ], ids=["wmr-viscous-neg", "wmr-viscous-nan", "pm-n", "pm-mass-nan", "pm-mass-zero",
            "osc-stiffness-nan", "osc-stiffness-neg", "osc-mass-inf", "arm-amp-nan",
            "arm-freq-inf", "wmr-amp-inf", "arm-phases-short", "wmr-phases-nested",
            "wmr-phases-nan", "wmr-mismatch-one", "wmr-viscous-inf", "pm-mass-inf",
            "osc-stiffness-inf", "osc-mass-nan", "osc-mass-zero", "arm-amp-inf",
            "arm-freq-nan", "wmr-freq-neg-inf"])
    def test_factory_rejects_one_named_field(self, factory, kwargs, field):
        # each message names exactly the one bad argument
        with pytest.raises(ValueError, match=rf"^{field} must "):
            factory(**kwargs)


class TestSimplePlants:
    def test_oscillator_restoring_force(self):
        plant = oscillator_plant(stiffness=4.0, mass=2.0)
        np.testing.assert_allclose(
            plant.accel([1.0], [0.0], [0.0], 0.0), [-2.0]
        )

    def test_point_mass_dim(self):
        plant = point_mass_plant(3, mass=2.0)
        np.testing.assert_allclose(
            plant.accel(np.zeros(3), np.zeros(3), [2.0, 0.0, 2.0], 0.0),
            [1.0, 0.0, 1.0],
        )
