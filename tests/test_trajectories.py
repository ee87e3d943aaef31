import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arolc.trajectories import (
    CircleTrajectory,
    SinusoidTrajectory,
    WheelRampTrajectory,
)

ALL_SPECS = [
    SinusoidTrajectory(amplitude=(0.5, 0.3), frequency=(0.5, 0.7),
                       phase=(0.1, -0.4), offset=(0.2, 0.0)),
    CircleTrajectory(),
    WheelRampTrajectory(),
]
# every kind, with one, two and three coordinates
ARRAY_SPECS = ALL_SPECS + [
    SinusoidTrajectory(amplitude=(0.7,), frequency=(1.3,)),
    SinusoidTrajectory(amplitude=(0.5, 0.3, 0.2), frequency=(0.5, 0.7, 2.0),
                       phase=(0.0, 1.0, -2.0), offset=(0.1, 0.2, 0.3)),
]


class TestCircle:
    @pytest.mark.parametrize("field", ["radius", "rate", "r_bar", "b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_geometry_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite and positive"):
            CircleTrajectory(**{field: value})

    def test_cartesian_start(self):
        x, y, x_dot, y_dot, _ = CircleTrajectory().cartesian(0.0)
        assert x == pytest.approx(0.1)
        assert y == pytest.approx(2.6)
        assert x_dot == pytest.approx(1.25 * 0.35)
        assert y_dot == pytest.approx(0.0)

    @pytest.mark.parametrize("traj", [CircleTrajectory(),
                                      CircleTrajectory(radius=3.0, rate=1.7, center=(-2.0, 0.4))])
    def test_cartesian_over_times_matches_float_calls(self, traj):
        # the 4001 rows of a 40 s robot trace, and scattered times
        times = np.concatenate([np.arange(4001) * 0.01,
                                np.random.default_rng(0).uniform(-1e3, 1e3, 500)])
        arrays = traj.cartesian(times)
        assert len(arrays) == 5
        floats = np.array([traj.cartesian(float(t)) for t in times])
        for i, array in enumerate(arrays):
            assert array.shape == times.shape
            np.testing.assert_array_max_ulp(array, floats[:, i], maxulp=1)

    def test_cartesian_two_dimensional_times_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            CircleTrajectory().cartesian(np.zeros((2, 2)))

    def test_wheel_rates_constant(self):
        traj = CircleTrajectory()
        expected = (0.35 * (1.25 - traj.b) / traj.r_bar,
                    0.35 * (1.25 + traj.b) / traj.r_bar)
        assert traj.wheel_rates == pytest.approx(expected)
        _, qd_dot, qd_ddot = traj(3.7)
        np.testing.assert_allclose(qd_dot, expected)
        np.testing.assert_allclose(qd_ddot, np.zeros(2))

    def test_rolling_consistency(self):
        # wheel rates must reproduce the path speed and turn rate
        traj = CircleTrajectory()
        tr, tl = traj.wheel_rates
        v = traj.r_bar * (tr + tl) / 2.0
        w = traj.r_bar * (tr - tl) / (2.0 * traj.b)
        assert v == pytest.approx(traj.radius * traj.rate)
        assert w == pytest.approx(-traj.rate)

    def test_diameter(self):
        assert CircleTrajectory().diameter == pytest.approx(2.5)


class TestWheelRamp:
    def test_linear_references(self):
        traj = WheelRampTrajectory(rate_r=3.0, rate_l=2.0)
        qd, qd_dot, qd_ddot = traj(2.0)
        np.testing.assert_allclose(qd, [6.0, 4.0])
        np.testing.assert_allclose(qd_dot, [3.0, 2.0])
        np.testing.assert_allclose(qd_ddot, [0.0, 0.0])

    @pytest.mark.parametrize("field", ["rate_r", "rate_l"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            WheelRampTrajectory(**{field: value})


class TestSinusoid:
    def test_values(self):
        traj = SinusoidTrajectory(amplitude=(2.0,), frequency=(0.5,))
        qd, qd_dot, _ = traj(0.0)
        np.testing.assert_allclose(qd, [0.0])
        np.testing.assert_allclose(qd_dot, [1.0])

    def test_default_diameter(self):
        assert SinusoidTrajectory(amplitude=(0.5, 0.3)).diameter == pytest.approx(1.0)
        # a negative amplitude is a phase shift: its magnitude sets the diameter
        assert SinusoidTrajectory(amplitude=(-0.5, 0.3)).diameter == pytest.approx(1.0)

    @pytest.mark.parametrize("entries", [{"frequency": (0.5,)}, {"phase": (0.0, 0.1, 0.2)},
                                         {"offset": (1.0,)}, {"frequency": ((0.5, 0.7),)}],
                             ids=["frequency", "phase", "offset", "nested"])
    def test_one_entry_per_coordinate(self, entries):
        with pytest.raises(ValueError, match="one entry per coordinate"):
            SinusoidTrajectory(amplitude=(0.5, 0.3), **entries)

    @pytest.mark.parametrize("field", ["amplitude", "frequency", "phase", "offset"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, field, value):
        entries = {"amplitude": (0.5, 0.3), "frequency": (0.5, 0.7), field: (0.1, value)}
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            SinusoidTrajectory(**entries)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_derivatives_match_central_differences(spec):
    dt = 1e-5
    for t in np.linspace(0.1, 20.0, 23):
        qd_m, _, _ = spec(t - dt)
        qd, qd_dot, qd_ddot = spec(t)
        qd_p, _, _ = spec(t + dt)
        num_vel = (qd_p - qd_m) / (2.0 * dt)
        num_acc = (qd_p - 2.0 * qd + qd_m) / dt ** 2
        np.testing.assert_allclose(qd_dot, num_vel, atol=5e-8)
        np.testing.assert_allclose(qd_ddot, num_acc, atol=5e-4)


class TestArrayCall:
    """traj(t) over a 1-D array of N times returns three (N, n) arrays whose
    row i is the scalar call at t[i], byte for byte."""

    @pytest.mark.parametrize("spec", ARRAY_SPECS, ids=lambda s: f"{type(s).__name__}{s.dim}")
    @given(times=st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=3))
    def test_rows_equal_scalar_calls(self, spec, times):
        rows = spec(np.array(times))
        for out in rows:
            assert out.shape == (len(times), spec.dim)
        for i, t in enumerate(times):
            for row, scalar in zip(rows, spec(t)):
                assert row[i].tobytes() == scalar.tobytes()

    def test_times_are_not_paired_with_coordinates(self):
        # two times for a two-coordinate sinusoid: each time sees both
        # frequencies (a plain broadcast would pair freq[i] with t[i])
        spec = SinusoidTrajectory(amplitude=(1.0, 1.0), frequency=(1.0, 2.0))
        qd, _, _ = spec(np.array([0.5, 1.0]))
        np.testing.assert_array_equal(qd, [[np.sin(0.5), np.sin(1.0)],
                                           [np.sin(1.0), np.sin(2.0)]])

    @pytest.mark.parametrize("spec", ARRAY_SPECS, ids=lambda s: f"{type(s).__name__}{s.dim}")
    def test_scalar_call_shapes(self, spec):
        for out in spec(0.25):
            assert out.shape == (spec.dim,)

    @pytest.mark.parametrize("spec", ARRAY_SPECS, ids=lambda s: f"{type(s).__name__}{s.dim}")
    def test_two_dimensional_times_rejected(self, spec):
        with pytest.raises(ValueError, match="1-D"):
            spec(np.zeros((2, 2)))
