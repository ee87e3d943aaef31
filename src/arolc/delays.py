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
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = ["DelayProfile", "delay_at", "max_delay", "DelayBuffer"]

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
        if not all(0.0 <= x < math.inf for x in (self.h0, self.a, self.b)):
            raise ValueError("delay parameters must be finite and nonnegative")
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


class DelayBuffer:
    """Time-ordered command history with linear-interpolation lookup.

    Samples older than (latest - window) are dropped; the one sample
    immediately before the cutoff is kept so interpolation at the window
    edge stays exact. The window must cover the largest delay plus the
    integration horizon of any consumer.
    """

    def __init__(self, window: float, dim: int | None = None):
        if not 0.0 < window < math.inf:
            raise ValueError("window must be positive and finite")
        self.window = float(window)
        self.dim = dim
        self._times: list[float] = []
        self._values: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> list[float]:
        return list(self._times)

    def push(self, t: float, tau) -> None:
        if self._times and t <= self._times[-1]:
            raise ValueError("timestamps must be strictly increasing")
        self._times.append(float(t))
        self._values.append(np.asarray(tau, dtype=float))
        cutoff = t - self.window
        while len(self._times) > 2 and self._times[1] < cutoff:
            self._times.pop(0)
            self._values.pop(0)

    def sample_many(self, t_query) -> np.ndarray:
        """Commands in flight at each instant of the 1-D array t_query under
        the actuator model above; row i belongs to t_query[i]."""
        t_query = np.asarray(t_query, dtype=float)
        if not self._times:
            if self.dim is None:
                raise ValueError("empty buffer of unknown dimension")
            return np.zeros((len(t_query), self.dim))
        times = np.array(self._times)
        values = np.array(self._values)
        i = np.searchsorted(times, t_query, side="right")
        out = np.empty((len(t_query),) + values.shape[1:])
        out[i == 0] = 0.0
        out[i == len(times)] = values[-1]
        inner = (i > 0) & (i < len(times))
        if inner.any():
            j = i[inner]
            t0, t1 = times[j - 1], times[j]
            lam = ((t_query[inner] - t0) / (t1 - t0)).reshape((-1,) + (1,) * (values.ndim - 1))
            out[inner] = (1.0 - lam) * values[j - 1] + lam * values[j]
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
        if not self._times:
            return np.zeros(self.dim if self.dim is not None else 0)
        times = self._times
        values = self._values
        n = values[0].shape[0] if values[0].ndim else 1
        total = np.zeros(n)
        lo = max(t0, times[0])
        if t1 <= lo:
            return total
        # knots: window ends plus every sample instant inside the window
        i = bisect_right(times, lo)
        knots = [lo] + [tt for tt in times[i:] if tt < t1] + [t1]
        knot_values = self.sample_many(knots)
        for k in range(1, len(knots)):
            total += 0.5 * (knots[k] - knots[k - 1]) * (knot_values[k - 1] + knot_values[k])
        return total
