import math

import numpy as np
import pytest

from arolc.delays import DelayBuffer, DelayProfile, delay_at, max_delay


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


class TestDelayBuffer:
    def make(self):
        buf = DelayBuffer(window=10.0, dim=1)
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

    def test_pruning_keeps_window_exact(self):
        buf = DelayBuffer(window=0.5, dim=1)
        for k in range(100):
            buf.push(0.1 * k, [float(k)])
        # samples at 9.5..9.9 lie inside the window of the latest (9.9)
        assert len(buf) < 100
        np.testing.assert_allclose(buf.sample(9.65), [96.5])

    def test_empty_with_dim(self):
        buf = DelayBuffer(window=1.0, dim=3)
        np.testing.assert_allclose(buf.sample(0.0), np.zeros(3))

    def test_empty_without_dim_raises(self):
        with pytest.raises(ValueError):
            DelayBuffer(window=1.0).sample(0.0)


class TestBufferIntegrate:
    def test_constant_signal(self):
        buf = DelayBuffer(window=10.0, dim=1)
        buf.push(0.0, [3.0])
        buf.push(2.0, [3.0])
        np.testing.assert_allclose(buf.integrate(0.5, 1.5), [3.0])

    def test_linear_signal_exact(self):
        buf = DelayBuffer(window=10.0, dim=1)
        for t in np.linspace(0.0, 1.0, 11):
            buf.push(float(t) if t > 0 else 0.0, [float(t)])
        np.testing.assert_allclose(buf.integrate(0.0, 1.0), [0.5], atol=1e-12)

    def test_empty_history(self):
        buf = DelayBuffer(window=1.0, dim=2)
        np.testing.assert_allclose(buf.integrate(0.0, 1.0), np.zeros(2))

    def test_zero_before_history(self):
        buf = DelayBuffer(window=10.0, dim=1)
        buf.push(1.0, [2.0])
        buf.push(2.0, [2.0])
        # signal is 0 on [0, 1), 2 on [1, 2]
        np.testing.assert_allclose(buf.integrate(0.0, 2.0), [2.0])

    def test_hold_after_latest(self):
        buf = DelayBuffer(window=10.0, dim=1)
        buf.push(0.0, [1.0])
        buf.push(1.0, [1.0])
        np.testing.assert_allclose(buf.integrate(0.5, 2.5), [2.0])
