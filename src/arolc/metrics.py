"""Tracking and input-effort metrics plus their JSON serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .sim import Trace

__all__ = [
    "MetricsReport",
    "absolute_average_error",
    "percent_error",
    "total_variation",
    "metrics_from_trace",
    "metrics_to_json",
    "metrics_from_json",
]


@dataclass
class MetricsReport:
    """Per-run summary; lengths of the per-dim lists equal the plant dim."""

    ae_per_dim: list[float] = field(default_factory=list)
    pct_ae_per_dim: list[float] = field(default_factory=list)
    tv: float = 0.0
    sup_error_tail: float = 0.0
    runtime: float = 0.0
    scenario_hash: str = ""


def absolute_average_error(trace: Trace, dim: int) -> float:
    """Mean of |e1[dim]| over all trace samples."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    return float(np.mean(np.abs(trace.e1[:, dim])))


def percent_error(ae: float, path_diameter: float) -> float:
    """Average error as a percentage of the path diameter."""
    if path_diameter <= 0.0:
        raise ValueError("path diameter must be positive")
    return 100.0 * ae / path_diameter


def total_variation(series) -> float:
    """Sum of absolute successive differences over every channel of an
    (N, n) input series; 0.0 for fewer than two samples.

    Low values mean smooth actuation; the metric is invariant under adding
    a constant to any channel.
    """
    series = np.asarray(series, float)
    if series.shape[0] < 2:
        return 0.0
    return float(np.abs(np.diff(series, axis=0)).sum())


def metrics_from_trace(trace: Trace, path_diameter: float,
                       runtime: float = 0.0,
                       scenario_hash: str = "") -> MetricsReport:
    """Aggregate a trace: per-dim AE and %AE, TV of the commanded input
    (pre-delay, controller-rate samples), and the sup of ||e1|| over the
    final half of the run."""
    n = trace.n
    ae = [absolute_average_error(trace, d) for d in range(n)]
    pct = [percent_error(a, path_diameter) for a in ae]
    tv = total_variation(trace.tau_cmd)
    tail = trace.e1[len(trace) // 2:]
    sup_tail = float(np.linalg.norm(tail, axis=1).max()) if len(tail) else 0.0
    return MetricsReport(ae_per_dim=ae, pct_ae_per_dim=pct, tv=tv,
                         sup_error_tail=sup_tail, runtime=runtime,
                         scenario_hash=scenario_hash)


def metrics_to_json(report: MetricsReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True)


def metrics_from_json(text: str) -> MetricsReport:
    data = json.loads(text)
    return MetricsReport(**data)
