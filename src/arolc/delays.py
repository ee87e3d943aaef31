"""The actuator model: input-delay profiles and the command history.

The plant receives tau(t - h(t)), with the input delay

    h(t) = a + b |sin(omega t)|,

whose coefficients (a, b, omega) the kind of a DelayProfile picks.
Commands are stamped with their computation instants, and a DelayBuffer
keeps the whole stamped history of a run. The command signal is the linear
interpolation between stamps; it is zero before the first command (none
has reached the actuator yet) and holds the last command after it.
``interpolate`` evaluates this signal on any stamped history,
DelayBuffer.sample_many (and sample, at one instant) on the buffer's, and
DelayBuffer.integrate integrates it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["DelayProfile", "delay_at", "max_delay", "interpolate", "DelayBuffer"]

# (a, b, omega) of the kinds without parameters
_PRESETS = {"S1": (0.020, 0.080, 1.0), "S2": (0.005, 0.120, 0.1),
            "S3": (0.060, 0.0, 1.0), "S4": (0.120, 0.0, 1.0), "none": (0.0, 0.0, 1.0)}
# The parameters the other kinds read; every kind leaves the rest at default
_PARAMS = {"constant": ("h0",), "custom": ("a", "b", "omega")}


@dataclass(frozen=True)
class DelayProfile:
    """Input-delay schedule h(t) = a + b |sin(omega t)|, in seconds, with
    coefficients = (a, b, omega): a preset of _PRESETS for kinds S1, S2, S3,
    S4 and none, (h0, 0, 1) for constant, (a, b, omega) for custom. A
    parameter that the kind does not read must keep its default."""

    kind: str
    h0: float = 0.0
    a: float = 0.0
    b: float = 0.0
    omega: float = 1.0
    coefficients: tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kinds = {**_PRESETS, "constant": (self.h0, 0.0, 1.0),
                 "custom": (self.a, self.b, self.omega)}
        if self.kind not in kinds:
            raise ValueError(f"unknown delay profile kind {self.kind!r}")
        for name in ("h0", "a", "b"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not math.isfinite(self.omega):
            raise ValueError("omega must be finite")
        for name in ("h0", "a", "b", "omega"):
            # a dataclass keeps each field's default as the class attribute
            if (getattr(self, name) != getattr(DelayProfile, name)
                    and name not in _PARAMS.get(self.kind, ())):
                raise ValueError(f"{name} does not apply to delay profile kind "
                                 f"{self.kind!r}")
        object.__setattr__(self, "coefficients", kinds[self.kind])


def delay_at(profile: DelayProfile, t):
    """Evaluate h(t) >= 0 at a time or, elementwise, at an array of times."""
    a, b, omega = profile.coefficients
    return a + b * np.abs(np.sin(omega * t))


def max_delay(profile: DelayProfile) -> float:
    """Supremum of h(t) over all t."""
    a, b, _ = profile.coefficients
    return a + b


def interpolate(times, values, t_query) -> np.ndarray:
    """The command signal of the stamped history (times strictly increasing,
    values one row per stamp) at each instant of the 1-D array t_query:
    row i belongs to t_query[i]."""
    t_query = np.asarray(t_query, dtype=float)
    m = len(times)
    if m == 0:
        return np.zeros((len(t_query),) + values.shape[1:])
    i = np.searchsorted(times, t_query, side="right")
    if m == 1:
        out = np.repeat(values, len(t_query), axis=0)
    else:
        # blend every row on its clipped bracket, then overwrite the rows
        # before the first and after the last command (clipping the
        # instants too keeps their weights in [0, 1]); minimum, maximum and
        # take cost a fraction of clip and fancy indexing
        j = np.minimum(np.maximum(i, 1), m - 1)
        j0 = j - 1
        t0 = times.take(j0)
        t_in = np.minimum(np.maximum(t_query, times[0]), times[-1])
        lam = ((t_in - t0) / (times.take(j) - t0))[:, None]
        out = (1.0 - lam) * values.take(j0, axis=0) + lam * values.take(j, axis=0)
    out[i == 0] = 0.0
    out[i == m] = values[-1]
    return out


class DelayBuffer:
    """The whole stamped command history of a run, each command a vector of
    dim entries, in preallocated arrays (rows [0, len) live) that a lookup
    reads without copying; a push writes one row and doubles the arrays
    when they are full."""

    def __init__(self, dim: int):
        self.dim = dim
        self._t = np.empty(0)
        self._v = np.empty((0, dim))
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def times(self) -> list[float]:
        return self._t[:self._n].tolist()

    def push(self, t: float, tau) -> None:
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
        n = self._n
        if n and t <= self._t[n - 1]:
            raise ValueError("timestamps must be strictly increasing")
        value = np.asarray(tau, dtype=float)
        if value.shape != (self.dim,):
            raise ValueError(f"command must have shape ({self.dim},), got {value.shape}")
        if n == len(self._t):
            grow = max(16, n)
            self._t = np.concatenate([self._t, np.empty(grow)])
            self._v = np.concatenate([self._v, np.empty((grow, self.dim))])
        self._t[n] = t
        self._v[n] = value
        self._n = n + 1

    def sample_many(self, t_query) -> np.ndarray:
        """Commands in flight at each instant of the 1-D array t_query:
        ``interpolate`` on the whole history."""
        return interpolate(self._t[:self._n], self._v[:self._n], t_query)

    def sample(self, t_query: float) -> np.ndarray:
        """Command in flight at t_query under the actuator model above."""
        return self.sample_many([t_query])[0]

    def integrate(self, t0: float, t1: float) -> np.ndarray:
        """Integral of the actuator signal sample() describes over [t0, t1]
        (trapezoids between knots, exact for that piecewise-linear signal).
        Empty buffers integrate to zero.
        """
        for name, bound in (("t0", t0), ("t1", t1)):
            if not math.isfinite(bound):
                raise ValueError(f"{name} must be finite, got {bound!r}")
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        n = self.dim
        if not self._n:
            return np.zeros(n)
        times = self._t[:self._n]
        lo = max(t0, times[0].item())
        if t1 <= lo:
            return np.zeros(n)
        # knots: the interval's ends plus every stamp inside it
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
