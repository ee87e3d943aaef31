"""Input-delay profiles and the timestamped command history buffer.

Actuator model. The actuator of the simulated plant receives tau(t - h(t)).
Commands are stamped with their computation instants; the signal between
them is the linear interpolation of the stamped commands, zero before the
first command (none has reached the actuator yet), and held at the last
command after it. DelayBuffer.sample_many evaluates this signal at an array
of instants (DelayBuffer.sample at one) and DelayBuffer.integrate integrates
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DelayProfile", "delay_at", "max_delay", "history_window", "DelayBuffer"]

_PROFILE_KINDS = ("S1", "S2", "S3", "S4", "constant", "custom", "none")


@dataclass(frozen=True)
class DelayProfile:
    """Input-delay schedule h(t), all parameters in seconds.

    Built-in kinds:
      S1        0.020 + 0.080 |sin t|
      S2        0.005 + 0.120 |sin 0.1 t|
      S3        0.060
      S4        0.120
      constant  h0
      custom    a + b |sin(omega t)|
      none      0
    """

    kind: str
    h0: float = 0.0
    a: float = 0.0
    b: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        if self.kind not in _PROFILE_KINDS:
            raise ValueError(f"unknown delay profile kind {self.kind!r}")
        for name in ("h0", "a", "b"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not math.isfinite(self.omega):
            raise ValueError("omega must be finite")


def delay_at(profile: DelayProfile, t):
    """Evaluate h(t) >= 0 at a time or, elementwise, at an array of times."""
    kind = profile.kind
    if kind == "S1":
        return 0.020 + 0.080 * np.abs(np.sin(t))
    if kind == "S2":
        return 0.005 + 0.120 * np.abs(np.sin(0.1 * t))
    if kind == "custom":
        return profile.a + profile.b * np.abs(np.sin(profile.omega * t))
    return np.full(np.shape(t), max_delay(profile))[()]


def max_delay(profile: DelayProfile) -> float:
    """Supremum of h(t) over all t."""
    kind = profile.kind
    if kind == "S1":
        return 0.100
    if kind == "S2":
        return 0.125
    if kind == "S3":
        return 0.060
    if kind == "S4":
        return 0.120
    if kind == "constant":
        return profile.h0
    if kind == "custom":
        return profile.a + profile.b
    return 0.0


def history_window(lookback: float, dt_control: float) -> float:
    """DelayBuffer window for reads up to lookback s behind the newest push."""
    return lookback + 5.0 * dt_control + 0.05


class DelayBuffer:
    """Time-ordered command history with linear-interpolation lookup.

    Samples older than (latest - window) are dropped; the one sample
    immediately before the cutoff is kept so interpolation at the window
    edge stays exact. The window must cover the largest delay plus the
    integration horizon of any consumer.

    The history lives in preallocated arrays, rows [_lo, _hi) live, so a
    lookup reads it without copying; a push writes one row and compacts
    or grows the arrays only when they are full. Every command is a vector
    of dim entries.
    """

    def __init__(self, window: float, dim: int):
        if not 0.0 < window < math.inf:
            raise ValueError("window must be positive and finite")
        self.window = float(window)
        self.dim = dim
        self._t = np.empty(0)
        self._v = np.empty((0, dim))
        self._lo = 0
        self._hi = 0

    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def times(self) -> list[float]:
        return self._t[self._lo:self._hi].tolist()

    def _history(self):
        return self._t[self._lo:self._hi], self._v[self._lo:self._hi]

    def push(self, t: float, tau) -> None:
        t = float(t)
        lo, hi = self._lo, self._hi
        if hi > lo and t <= self._t[hi - 1]:
            raise ValueError("timestamps must be strictly increasing")
        value = np.asarray(tau, dtype=float)
        if value.shape != (self.dim,):
            raise ValueError(f"command must have shape ({self.dim},), got {value.shape}")
        if hi == len(self._t):
            live = hi - lo
            cap = max(16, 2 * live)
            new_t = np.empty(cap)
            new_v = np.empty((cap, self.dim))
            if live:
                new_t[:live] = self._t[lo:hi]
                new_v[:live] = self._v[lo:hi]
            self._t, self._v = new_t, new_v
            lo, hi = 0, live
        self._t[hi] = t
        self._v[hi] = value
        hi += 1
        cutoff = t - self.window
        while hi - lo > 2 and self._t[lo + 1] < cutoff:
            lo += 1
        self._lo, self._hi = lo, hi

    def sample_many(self, t_query) -> np.ndarray:
        """Commands in flight at each instant of the 1-D array t_query under
        the actuator model above; row i belongs to t_query[i]."""
        t_query = np.asarray(t_query, dtype=float)
        m = len(self)
        if m == 0:
            return np.zeros((len(t_query), self.dim))
        times, values = self._history()
        i = np.searchsorted(times, t_query, side="right")
        if m == 1:
            out = np.repeat(values, len(t_query), axis=0)
        else:
            # blend every row on its clipped bracket, then overwrite the
            # rows before the first and after the last command (clipping
            # the instants too keeps their weights in [0, 1]); minimum,
            # maximum and take cost a fraction of clip and fancy indexing
            j = np.minimum(np.maximum(i, 1), m - 1)
            j0 = j - 1
            t0 = times.take(j0)
            t_in = np.minimum(np.maximum(t_query, times[0]), times[-1])
            lam = ((t_in - t0) / (times.take(j) - t0))[:, None]
            out = (1.0 - lam) * values.take(j0, axis=0) + lam * values.take(j, axis=0)
        out[i == 0] = 0.0
        out[i == m] = values[-1]
        return out

    def sample(self, t_query: float) -> np.ndarray:
        """Command in flight at t_query under the actuator model above."""
        return self.sample_many([t_query])[0]

    def integrate(self, t0: float, t1: float) -> np.ndarray:
        """Integral of the actuator signal sample() describes over [t0, t1]
        (trapezoids between knots, exact for that piecewise-linear signal).
        Empty buffers integrate to zero.
        """
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        n = self.dim
        if not len(self):
            return np.zeros(n)
        times, _ = self._history()
        lo = max(t0, times[0].item())
        if t1 <= lo:
            return np.zeros(n)
        # knots: window ends plus every sample instant inside the window
        inner = times[np.searchsorted(times, lo, side="right"):
                      np.searchsorted(times, t1, side="left")]
        knots = [lo] + inner.tolist() + [t1]
        knot_values = self.sample_many(knots).tolist()
        # float trapezoids, summed left to right as an ndarray total += would
        total = [0.0] * n
        for k in range(1, len(knots)):
            w = 0.5 * (knots[k] - knots[k - 1])
            total = [s + w * (a + b)
                     for s, a, b in zip(total, knot_values[k - 1], knot_values[k])]
        return np.array(total)
