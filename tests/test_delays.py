import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arolc.delays import (
    DelayBuffer,
    DelayProfile,
    blend,
    delay_at,
    integrate,
    interpolate,
    max_delay,
    plan,
)

KINDS = ("S1", "S2", "S3", "S4", "constant", "custom", "none")


class TestDelayAt:
    def test_s1_at_zero(self):
        assert delay_at(DelayProfile("S1"), 0.0) == pytest.approx(0.020)

    def test_s1_at_peak(self):
        assert delay_at(DelayProfile("S1"), math.pi / 2) == pytest.approx(0.100)

    def test_s2_at_zero(self):
        assert delay_at(DelayProfile("S2"), 0.0) == pytest.approx(0.005)

    def test_s3_constant(self):
        p = DelayProfile("S3")
        for t in (0.0, 1.7, 42.0):
            assert delay_at(p, t) == pytest.approx(0.060)

    def test_s4_constant(self):
        assert delay_at(DelayProfile("S4"), 3.0) == pytest.approx(0.120)

    def test_custom(self):
        p = DelayProfile("custom", a=0.01, b=0.05, omega=2.0)
        assert delay_at(p, 0.0) == pytest.approx(0.01)
        assert delay_at(p, math.pi / 4) == pytest.approx(0.06)

    def test_none_and_constant(self):
        assert delay_at(DelayProfile("none"), 5.0) == 0.0
        assert delay_at(DelayProfile("constant", h0=0.03), 5.0) == 0.03

    def test_nonnegative_and_bounded(self):
        for kind in ("S1", "S2", "S3", "S4"):
            p = DelayProfile(kind)
            cap = max_delay(p)
            for t in np.linspace(0.0, 50.0, 500):
                h = delay_at(p, float(t))
                assert 0.0 <= h <= cap + 1e-15

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DelayProfile("S9")

    @pytest.mark.parametrize("field", ["h0", "a", "b", "omega"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite") as info:
            DelayProfile("custom", **{field: value})
        assert str(info.value).startswith(f"{field} must be ")  # scenario_io's key

    @pytest.mark.parametrize("field", ["h0", "a", "b"])
    def test_negative_rejected_naming_the_field(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be finite and nonnegative"):
            DelayProfile("custom", **{field: -0.01})

    @pytest.mark.parametrize("kind, field, value", [
        ("S1", "a", 0.5), ("S1", "h0", 3.0), ("S2", "omega", 2.0), ("none", "b", 0.1),
        ("constant", "a", 0.01), ("constant", "omega", 0.5), ("custom", "h0", 0.03)])
    def test_ignored_parameter_rejected(self, kind, field, value):
        with pytest.raises(ValueError,
                           match=f"^{field} does not apply to delay profile kind '{kind}'"):
            DelayProfile(kind, **{field: value})

    def test_ignored_parameter_at_default_accepted(self):
        assert DelayProfile("S1", h0=0.0, a=0.0, b=0.0, omega=1.0) == DelayProfile("S1")

    def test_presets_exact(self):
        assert max_delay(DelayProfile("S1")) == 0.100
        assert max_delay(DelayProfile("S2")) == 0.125
        ts = np.linspace(-50.0, 50.0, 1001)
        for kind, h in (("S3", 0.060), ("S4", 0.120), ("none", 0.0)):
            assert max_delay(DelayProfile(kind)) == h
            assert (delay_at(DelayProfile(kind), ts) == h).all()
        assert (delay_at(DelayProfile("constant", h0=0.03), ts) == 0.03).all()

    def test_custom_without_frequency_peaks_at_a(self):
        # omega = 0: h(t) = a + b |sin 0| = a at every t, whatever b
        profile = DelayProfile("custom", a=0.01, b=0.5, omega=0.0)
        assert max_delay(profile) == 0.01
        assert (delay_at(profile, np.linspace(-50.0, 50.0, 101)) == 0.01).all()
        assert max_delay(DelayProfile("custom", a=0.01, b=0.5, omega=-2.0)) == 0.51

    @given(st.sampled_from(KINDS),
           st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=40))
    def test_vector_matches_scalar_calls(self, kind, ts):
        params = {"constant": dict(h0=0.03),
                  "custom": dict(a=0.01, b=0.05, omega=2.0)}.get(kind, {})
        profile = DelayProfile(kind, **params)
        vector = delay_at(profile, np.array(ts))
        scalars = np.array([delay_at(profile, t) for t in ts])
        assert vector.shape == (len(ts),)
        assert vector.tobytes() == scalars.tobytes()


class TestDelayBuffer:
    def make(self):
        buf = DelayBuffer(dim=1)
        buf.push(0.0, [0.0])
        buf.push(0.1, [1.0])
        return buf

    def test_interpolation(self):
        np.testing.assert_allclose(self.make().sample(0.05), [0.5])

    def test_prehistory_is_zero(self):
        np.testing.assert_allclose(self.make().sample(-0.05), [0.0])

    def test_exact_hit(self):
        np.testing.assert_allclose(self.make().sample(0.1), [1.0])

    def test_hold_after_latest(self):
        np.testing.assert_allclose(self.make().sample(0.2), [1.0])

    def test_strictly_increasing_required(self):
        buf = self.make()
        with pytest.raises(ValueError):
            buf.push(0.1, [2.0])

    def test_whole_history_kept(self):
        buf = DelayBuffer(dim=1)
        times = [0.001 * k for k in range(10_000)]
        values = [np.array([float(k)]) for k in range(10_000)]
        for t, v in zip(times, values):
            buf.push(t, v)
        expected = _reference_sample(times, values, 0.0004)
        assert buf.sample(0.0004).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, t):
        buf = self.make()
        with pytest.raises(ValueError, match="^t must be finite"):
            buf.push(t, [2.0])
        assert buf.sample(1e9).tolist() == [1.0]  # the last command is still 0.1's

    def test_non_finite_command_accepted(self):
        # a diverging loop must reach the state check, not fail in the buffer
        buf = self.make()
        buf.push(0.2, [math.nan])
        assert np.isnan(buf.sample(0.2)).all()

    def test_empty_with_dim(self):
        buf = DelayBuffer(dim=3)
        np.testing.assert_allclose(buf.sample(0.0), np.zeros(3))

    @pytest.mark.parametrize("tau", [1.0, [1.0, 2.0], [[1.0]]])
    def test_push_wrong_shape_raises(self, tau):
        buf = DelayBuffer(dim=1)
        with pytest.raises(ValueError, match=r"shape \(1,\)"):
            buf.push(0.0, tau)
        buf.push(0.0, [1.0])  # the stamp was not taken
        assert buf.sample(0.0).tolist() == [1.0]

    def test_pushed_command_is_copied(self):
        buf = DelayBuffer(dim=1)
        tau = np.array([1.0])
        buf.push(0.0, tau)
        tau[0] = 5.0
        assert buf.sample(0.0).tolist() == [1.0]


class TestBufferIntegrate:
    """delays.integrate on a stamped history (times, values, m)."""

    @staticmethod
    def integral(stamps, commands, t0, t1):
        values = np.array(commands, float).reshape(len(stamps), -1)
        return integrate([float(x) for x in stamps], values, len(stamps), t0, t1)

    def test_constant_signal(self):
        np.testing.assert_allclose(self.integral([0.0, 2.0], [3.0, 3.0], 0.5, 1.5), [3.0])

    def test_linear_signal_exact(self):
        ramp = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(self.integral(ramp, ramp, 0.0, 1.0), [0.5], atol=1e-12)

    def test_empty_history(self):
        np.testing.assert_allclose(integrate([], np.empty((0, 2)), 0, 0.0, 1.0),
                                   np.zeros(2))

    @pytest.mark.parametrize("bounds, name", [((0.0, math.nan), "t1"),
                                              ((math.nan, 1.0), "t0"),
                                              ((-math.inf, 1.0), "t0"),
                                              ((0.0, math.inf), "t1")])
    def test_non_finite_bounds_rejected(self, bounds, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            self.integral([0.0], [1.0], *bounds)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError, match="^t1 must be >= t0$"):
            self.integral([0.0], [1.0], 1.0, 0.5)

    def test_zero_before_history(self):
        # signal is 0 on [0, 1), 2 on [1, 2]
        np.testing.assert_allclose(self.integral([1.0, 2.0], [2.0, 2.0], 0.0, 2.0), [2.0])

    def test_hold_after_latest(self):
        np.testing.assert_allclose(self.integral([0.0, 1.0], [1.0, 1.0], 0.5, 2.5), [2.0])

    def test_buffer_integrates_its_history(self):
        buf = DelayBuffer(dim=1)
        for t, v in ((0.0, 1.0), (1.0, 3.0)):
            buf.push(t, [v])
        assert buf.integrate(0.5, 2.5).tobytes() == \
            np.array(self.integral([0.0, 1.0], [1.0, 3.0], 0.5, 2.5)).tobytes()


def _reference_sample(times, values, t):
    """One lookup written out with bisect: zero before the first command,
    the last command after it, linear interpolation in between."""
    i = bisect_right(times, t)
    if i == 0:
        return np.zeros_like(values[0])
    if i == len(times):
        return values[-1]
    lam = (t - times[i - 1]) / (times[i] - times[i - 1])
    return (1.0 - lam) * values[i - 1] + lam * values[i]


_TIME = st.floats(min_value=-10.0, max_value=10.0)


def _history(data):
    """A drawn stamped history of 2-entry commands: (times, values) arrays."""
    times = np.array(sorted(data.draw(st.lists(_TIME, min_size=1, max_size=12, unique=True))))
    row = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2)
    return times, np.array(data.draw(st.lists(row, min_size=len(times), max_size=len(times))))


@given(st.data())
def test_interpolate_matches_scalar_reference(data):
    times, values = _history(data)
    buf = DelayBuffer(dim=2)
    for t, v in zip(times, values):
        buf.push(t, v)
    # knots, the instants before the first and after the last command, and any
    queries = times.tolist() + [times[0] - 1.0, times[-1] + 1.0]
    queries += data.draw(st.lists(_TIME, max_size=20))
    table = interpolate(times, values, np.array(queries))
    assert table.shape == (len(queries), 2)
    for row, t in zip(table, queries):
        reference = _reference_sample(times.tolist(), list(values), t)
        assert row.tobytes() == reference.tobytes()
        assert buf.sample(t).tobytes() == reference.tobytes()


@given(st.data())
def test_blend_of_a_prefix_matches_interpolate(data):
    # one plan against the whole history serves every prefix of m commands
    times, values = _history(data)
    queries = np.array(data.draw(st.lists(_TIME, min_size=1, max_size=20)))
    brackets = plan(times, queries.reshape(1, -1))
    for m in range(1, len(times) + 1):
        expected = interpolate(times[:m], values[:m], queries)
        assert np.array_equal(blend(values, m, *brackets)[0], expected)
        # the flags may skip a mask that selects nothing
        before, after = (brackets.index == 0).any(), (brackets.index >= m).any()
        assert np.array_equal(blend(values, m, *brackets, before, after)[0], expected)


def _reference_integrate(times, values, t0, t1):
    """Trapezoids between the knots, accumulated in ndarray arithmetic: the
    byte-level reference of the float accumulation in delays.integrate."""
    total = np.zeros(len(values[0]))
    lo = max(t0, times[0])
    if t1 <= lo:
        return total
    i = bisect_right(times, lo)
    knots = [lo] + [tt for tt in times[i:] if tt < t1] + [t1]
    knot_values = [_reference_sample(times, values, tt) for tt in knots]
    for k in range(1, len(knots)):
        total += 0.5 * (knots[k] - knots[k - 1]) * (knot_values[k - 1] + knot_values[k])
    return total


def _window(data, times):
    """Drawn bounds t0 <= t1: any instants, stamps, or instants before the
    first stamp; as Python floats or, as the predictor passes them when it
    reads the trace's h row, as np.float64."""
    bound = st.one_of(_TIME, st.sampled_from(times.tolist()),
                      st.floats(-20.0, times[0], exclude_max=True))
    t0, t1 = sorted(data.draw(st.lists(bound, min_size=2, max_size=2)))
    if data.draw(st.booleans(), label="np.float64 bounds"):
        return np.float64(t0), np.float64(t1)
    return t0, t1


@given(st.data())
def test_integrate_matches_ndarray_reference(data):
    # every prefix of m commands, as the predictor reads a trace's rows: the
    # rows from m on hold other commands, and t1 often lies past stamp m - 1
    times, values = _history(data)
    t0, t1 = _window(data, times)
    for m in range(1, len(times) + 1):
        expected = _reference_integrate(times[:m].tolist(), list(values[:m]), t0, t1)
        total = integrate(times.tolist(), values, m, t0, t1)
        assert [type(x) for x in total] == [float, float]  # Python floats
        assert np.array(total).tobytes() == expected.tobytes()


@given(st.data())
def test_integrate_matches_ndarray_reference_with_non_finite_commands(data):
    # 0 * inf in a stamp's (1, 0) blend is nan, which the reference keeps
    times, values = _history(data)
    for _ in range(data.draw(st.integers(1, 3))):
        row, col = data.draw(st.integers(0, len(times) - 1)), data.draw(st.integers(0, 1))
        values[row, col] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    t0, t1 = _window(data, times)
    for m in range(1, len(times) + 1):
        with np.errstate(invalid="ignore", over="ignore"):
            expected = _reference_integrate(times[:m].tolist(), list(values[:m]), t0, t1)
        np.testing.assert_array_equal(integrate(times.tolist(), values, m, t0, t1), expected)


def _float_integrate(times, values, m, t0, t1):
    """integrate on Python float rows: the rows that bracket a knot, the
    plan's weights with the blend's arithmetic, a stamp's row read as its
    value and every knot re-blended where that total is not finite. The
    bit-exact reference of the blend of the knots."""
    def signal_at(ts, vs, k, t):
        if k == len(vs):
            return vs[-1]
        lam = (t - ts[k - 1]) / (ts[k] - ts[k - 1])
        return [(1.0 - lam) * x + lam * y for x, y in zip(vs[k - 1], vs[k])]

    def trapezoids(knots, rows):
        widths = [0.5 * (b - a) for a, b in zip(knots, knots[1:])]
        totals = []
        for col in zip(*rows):
            total = 0.0
            for w, p, q in zip(widths, col, col[1:]):
                total += w * (p + q)
            totals.append(total)
        return totals

    n = values.shape[1]
    if not m:
        return [0.0] * n
    t0, t1 = float(t0), float(t1)
    i, r = bisect_right(times, t0, 0, m), bisect_right(times, t1, 0, m)
    a = max(i - 1, 0)
    ts = times[a:min(r + 1, m)]
    vs = values[a:a + len(ts)].tolist()
    if not i:
        t0 = ts[0]
    if t1 <= t0:
        return [0.0] * n
    e = r - a
    stop = e - (ts[e - 1] == t1)
    knots = [t0] + ts[1:stop] + [t1]
    rows = [signal_at(ts, vs, 1, t0)] + vs[1:stop] + [signal_at(ts, vs, e, t1)]
    total = trapezoids(knots, rows)
    if not all(map(math.isfinite, total)):
        rows[1:-1] = [signal_at(ts, vs, k + 1, ts[k]) for k in range(1, stop)]
        total = trapezoids(knots, rows)
    return total


@given(st.data())
def test_integrate_matches_float_reference(data):
    # every m from 0, rows holding +-inf, nan and -0.0, windows that start
    # before the first stamp or end on a stamp. Bit for bit but for a nan's
    # sign and payload: Python floats and numpy's vector loops propagate
    # different operands of nan + nan
    times, values = _history(data)
    special = st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0])
    for _ in range(data.draw(st.integers(0, 4))):
        row, col = data.draw(st.integers(0, len(times) - 1)), data.draw(st.integers(0, 1))
        values[row, col] = data.draw(special)
    t0, t1 = _window(data, times)
    for m in range(len(times) + 1):
        expected = _float_integrate(times.tolist(), values, m, t0, t1)
        total = integrate(times.tolist(), values, m, t0, t1)
        assert [type(x) for x in total] == [float, float]
        assert _bits(total) == _bits(expected)


def _bits(x) -> bytes:
    """The bytes of the array of x, every nan one nan."""
    x = np.array(x)
    return np.where(np.isnan(x), math.nan, x).tobytes()


@given(st.data())
def test_integrate_matches_dense_quadrature(data):
    # midpoint rule of interpolate on a dense grid that contains every
    # command instant: each cell sees one linear piece (the jump from zero
    # at the first command falls on a cell edge), so only rounding remains
    times, values = _history(data)
    t0, t1 = sorted(data.draw(st.lists(_TIME, min_size=2, max_size=2)))
    knots = times[(t0 < times) & (times < t1)]
    grid = np.union1d(np.linspace(t0, t1, 2001), knots)
    mid = 0.5 * (grid[:-1] + grid[1:])
    dense = (np.diff(grid)[:, None] * interpolate(times, values, mid)).sum(axis=0)
    scale = (t1 - t0) * max(1.0, np.abs(values).max())
    np.testing.assert_allclose(integrate(times.tolist(), values, len(times), t0, t1), dense,
                               rtol=0.0, atol=1e-12 * scale + 1e-300)
