import math

import numpy as np
import pytest

from arolc.metrics import (
    MetricsReport,
    absolute_average_error,
    metrics_from_json,
    metrics_from_trace,
    metrics_to_json,
    percent_error,
    total_variation,
)
from arolc.sim import Trace


def make_trace(e1, tau_cmd=None):
    e1 = np.asarray(e1, float)
    if e1.ndim == 1:
        e1 = e1[:, None]
    rows, n = e1.shape
    if tau_cmd is None:
        tau_cmd = np.zeros((rows, n))
    zeros = np.zeros((rows, n))
    return Trace(
        t=np.arange(rows, dtype=float), q=zeros, q_dot=zeros, q_desired=zeros,
        e1=e1, tau_cmd=np.asarray(tau_cmd, float), tau_applied=zeros,
        c_hat=np.zeros(rows), s_norm=np.zeros(rows), h=np.zeros(rows),
    )


class TestAbsoluteAverageError:
    def test_constant(self):
        assert absolute_average_error(make_trace([5.0] * 10), 0) == pytest.approx(5.0)

    def test_alternating_sign(self):
        trace = make_trace([1.0, -1.0] * 8)
        assert absolute_average_error(trace, 0) == pytest.approx(1.0)

    def test_rectified_sine_mean(self):
        t = np.linspace(0.0, 2.0 * math.pi, 200001)
        trace = make_trace(np.sin(t))
        assert absolute_average_error(trace, 0) == pytest.approx(2.0 / math.pi,
                                                                 rel=1e-4)

    def test_empty_trace(self):
        with pytest.raises(ValueError):
            absolute_average_error(make_trace(np.zeros((0, 1))), 0)


class TestPercentError:
    def test_reference_rows(self):
        # 23.33 mm over a 2500 mm diameter is 0.93 %; 58.30 mm is 2.33 %
        assert percent_error(23.33, 2500.0) == pytest.approx(0.93, abs=5e-3)
        assert percent_error(58.30, 2500.0) == pytest.approx(2.33, abs=5e-3)

    def test_zero(self):
        assert percent_error(0.0, 2.5) == 0.0

    def test_bad_diameter(self):
        with pytest.raises(ValueError):
            percent_error(1.0, 0.0)


class TestTotalVariation:
    def test_constant_inputs(self):
        assert total_variation([[2.0, 5.0], [2.0, 5.0], [2.0, 5.0]]) == 0.0

    def test_known_sum(self):
        assert total_variation([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]]) == pytest.approx(3.0)

    def test_square_wave(self):
        assert total_variation(
            np.column_stack([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])) \
            == pytest.approx(3.0)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((50, 2))
        base = total_variation(u)
        assert total_variation(u + [7.3, 0.0]) == pytest.approx(base)
        assert total_variation(u - [0.0, 2.2]) == pytest.approx(base)

    def test_concatenation_at_shared_endpoint(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((41, 2))
        whole = total_variation(u)
        split = total_variation(u[:21]) + total_variation(u[20:])
        assert whole == pytest.approx(split)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            total_variation([[0.0, 0.0], [1.0]])

    def test_too_short(self):
        assert total_variation([[1.0, 1.0]]) == 0.0
        assert total_variation(np.zeros((0, 2))) == 0.0


class TestReportAggregation:
    def test_from_trace(self):
        trace = make_trace(
            np.column_stack([np.full(10, 2.0), np.full(10, -1.0)]),
            tau_cmd=np.column_stack([np.arange(10.0), np.zeros(10)]),
        )
        rep = metrics_from_trace(trace, path_diameter=4.0, runtime=1.5,
                                 scenario_hash="abc")
        assert rep.ae_per_dim == pytest.approx([2.0, 1.0])
        assert rep.pct_ae_per_dim == pytest.approx([50.0, 25.0])
        assert rep.tv == pytest.approx(9.0)
        assert rep.sup_error_tail == pytest.approx(math.hypot(2.0, 1.0))
        assert rep.runtime == 1.5

    def test_json_roundtrip(self):
        rep = MetricsReport(ae_per_dim=[0.1234567890123, 2.5],
                            pct_ae_per_dim=[4.938271560492, 100.0],
                            tv=17.25, sup_error_tail=0.75,
                            runtime=12.125, scenario_hash="deadbeef0123")
        assert metrics_from_json(metrics_to_json(rep)) == rep
