"""The actuator model: input-delay profiles and the command history.

The plant receives tau(t - h(t)), with the input delay

    h(t) = a + b |sin(omega t)|,

whose coefficients (a, b, omega) the kind of a DelayProfile picks.
Commands are stamped with their computation instants. The command signal
is the linear interpolation between stamps; it is zero before the first
command (none has reached the actuator yet) and holds the last command
after it.

A lookup is two steps. ``plan`` brackets each query instant among the
stamps: its searchsorted index, the flat positions of the entries of the
two rows around it (lo and hi stacked) and their weights, searching only
the stamps that bracket the instants. The plan depends on the instants and
the stamps alone, so a caller that knows them early (the simulator knows
every stamp and every RK4 stage instant before its run starts) plans many
lookups at once. ``blend`` then evaluates the signal of
the first m commands on a plan's arrays (one take, one product, one sum),
the only step that reads the command values. ``interpolate`` is the plan
followed by the blend, on any stamped history, and ``integrate`` integrates
the signal of its first m commands exactly: the plan and the blend at its
knots, summed as trapezoids (``_trapezoids``). A run's command history is its
trace, the tau_cmd rows at the stamps t: the simulator blends them and the
predictor integrates them in place. A DelayBuffer is a stamped history
built one checked command at a time; each of its lookups is one call to
``interpolate`` or ``integrate``.

``integrate`` is the reference for the window integral. The predictor's
compiled step (``controllers._compile_window``) sums the same trapezoids
from a table it fills as commands land, in ``_trapezoids``' order, and
equals it bit for bit; it calls ``integrate`` itself for every case its
table does not cover, a non-finite total among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

from ._checks import require

__all__ = ["DelayProfile", "KIND_PARAMS", "delay_at", "max_delay", "Plan", "plan", "blend",
           "interpolate", "integrate", "DelayBuffer"]

# (a, b, omega) of the kinds without parameters
_PRESETS = {"S1": (0.020, 0.080, 1.0), "S2": (0.005, 0.120, 0.1),
            "S3": (0.060, 0.0, 1.0), "S4": (0.120, 0.0, 1.0), "none": (0.0, 0.0, 1.0)}
# Every kind with the parameters it reads; it leaves the rest at default
KIND_PARAMS = {**dict.fromkeys(_PRESETS, ()), "constant": ("h0",),
               "custom": ("a", "b", "omega")}


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
        if self.kind not in KIND_PARAMS:
            raise ValueError(f"unknown delay profile kind {self.kind!r}")
        require("nonnegative", h0=self.h0, a=self.a, b=self.b)
        require("finite", omega=self.omega)
        for name in ("h0", "a", "b", "omega"):
            # a dataclass keeps each field's default as the class attribute
            if (getattr(self, name) != getattr(DelayProfile, name)
                    and name not in KIND_PARAMS[self.kind]):
                raise ValueError(f"{name} does not apply to delay profile kind "
                                 f"{self.kind!r}")
        coefficients = {**_PRESETS, "constant": (self.h0, 0.0, 1.0),
                        "custom": (self.a, self.b, self.omega)}[self.kind]
        object.__setattr__(self, "coefficients", coefficients)


def delay_at(profile: DelayProfile, t):
    """Evaluate h(t) >= 0 at a time or, elementwise, at an array of times."""
    a, b, omega = profile.coefficients
    return a + b * np.abs(np.sin(omega * t))


def max_delay(profile: DelayProfile) -> float:
    """Supremum of h(t) over all t: a + b, or a where omega = 0 holds h at a."""
    a, b, omega = profile.coefficients
    return a + b if omega else a


class Plan(NamedTuple):
    """Where query instants of shape S fall among the stamps."""

    index: np.ndarray   # S: stamps at or before the instant (searchsorted, right)
    take: np.ndarray    # (2,) + S + (width,): the flat positions in the values of
                        # rows j - 1 and j, j clipped to [1, stamps - 1]
    weight: np.ndarray  # alike: their weights 1 - lam and lam


def plan(times, t_query, width: int) -> Plan:
    """The brackets of every instant of the array t_query (any shape) among
    the stamps times (an array, strictly increasing, at least one), for
    commands of width entries. It searches only the stamps that bracket
    the instants: from the one at or before the earliest (or the first)
    through the one after the latest (or the last), two at least where the
    latest is not before the first stamp. The plan blends as one over every
    stamp does."""
    t_query = np.asarray(t_query, dtype=float)
    first = 0
    if t_query.size and len(times) > 2:
        lo, hi = t_query.min(), t_query.max()
        if lo <= hi:  # no NaN, which min and max carry
            last = min(int(times.searchsorted(hi, "right")) + 1, len(times))
            first = max(min(int(times.searchsorted(lo, "right")) - 1, last - 2), 0)
            times = times[first:last]
    index = np.searchsorted(times, t_query, side="right")
    m = len(times)
    if m == 1:
        # every instant is before the one stamp or at or after it, so the
        # blend reads no weight
        lo = hi = np.zeros(t_query.shape, dtype=np.intp)
        lam = np.zeros(t_query.shape)
    else:
        # clipping the instants too keeps the weights in [0, 1]; minimum,
        # maximum and take cost a fraction of clip and fancy indexing
        hi = np.minimum(np.maximum(index, 1), m - 1)
        lo = hi - 1
        t0 = times.take(lo)
        t_in = np.minimum(np.maximum(t_query, times[0]), times[-1])
        lam = (t_in - t0) / (times.take(hi) - t0)
    rows, lams = np.stack((lo, hi)) * width, np.stack((1.0 - lam, lam))
    take, weight = np.empty(rows.shape + (width,), np.intp), np.empty(rows.shape + (width,))
    # one strided write per entry: a broadcast would loop once per instant
    for j in range(width):
        take[..., j], weight[..., j] = rows + (first * width + j), lams
    return Plan(index + first, take, weight)


def blend(values, m: int, index, take, weight, before: bool = True,
          after: bool = True) -> np.ndarray:
    """The command signal of the first m >= 1 commands (values one row per
    stamp of the plan's history) at the instants of a plan's arrays: an
    array of take's shape less its leading axis. Zero where the index is 0,
    the m-th command where it is m or more, the bracket's blend elsewhere;
    rows past the m-th are read only there. before = False (after = False)
    states that no index is 0 (m or more) and skips that mask. take and
    weight may lay the instants out in any shape, index in the same order."""
    both = values.take(take)
    both *= weight
    out = both[0] + both[1]
    if before or after:
        rows = out.reshape(index.shape + values.shape[1:])  # one per instant
        if before:
            rows[index == 0] = 0.0
        if after:
            rows[index >= m] = values[m - 1]
    return out


def interpolate(times, values, t_query) -> np.ndarray:
    """The command signal of the stamped history (times strictly increasing,
    values one row per stamp) at each instant of the 1-D array t_query:
    row i belongs to t_query[i]."""
    m = len(times)
    if m == 0:
        return np.zeros((len(t_query),) + values.shape[1:])
    return blend(values, m, *plan(times, t_query, values.shape[1]))


def _trapezoids(knots, rows) -> list[float]:
    """Trapezoids between the knots, each entry summed left to right as an
    ndarray total += would sum it."""
    widths = [0.5 * (b - a) for a, b in zip(knots, knots[1:])]
    return [reduce(add, [w * (p + q) for w, p, q in zip(widths, col, col[1:])], 0.0)
            for col in zip(*rows)]


def integrate(times, values, m: int, t0: float, t1: float) -> list[float]:
    """Integral over [t0, t1] of the command signal of the first m commands,
    values[:m] (an array) at the stamps times[:m] (strictly increasing):
    trapezoids between knots, exact for that piecewise-linear signal, as a
    list of Python floats; zero for m = 0.

    The knots are the interval's ends, the start clipped to the first stamp
    (the signal is zero before it), and every stamp strictly inside. Their
    values are the blend of the plan of the knots, a stamp's weights (1, 0):
    0 * inf is nan there, silently as on Python floats."""
    for name, bound in (("t0", t0), ("t1", t1)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound!r}")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    n = values.shape[1]
    stamps = np.asarray(times[:m], dtype=float)
    if m:
        t0 = max(t0, stamps[0])
    if not m or t1 <= t0:
        return [0.0] * n
    inside = stamps[stamps.searchsorted(t0, "right"):stamps.searchsorted(t1, "left")]
    knots = np.concatenate(([t0], inside, [t1]))
    with np.errstate(invalid="ignore", over="ignore"):
        rows = blend(values, m, *plan(stamps, knots, n))
    return _trapezoids(knots.tolist(), rows.tolist())


class DelayBuffer:
    """A stamped history of commands of dim entries, built one command at a
    time: push checks each stamp and command, sample and integrate read the
    history through ``interpolate`` and ``integrate``."""

    def __init__(self, dim: int):
        self.dim = dim
        self._t: list[float] = []
        self._v: list[np.ndarray] = []

    def push(self, t: float, tau) -> None:
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
        if self._t and t <= self._t[-1]:
            raise ValueError("timestamps must be strictly increasing")
        value = np.array(tau, dtype=float)
        if value.shape != (self.dim,):
            raise ValueError(f"command must have shape ({self.dim},), got {value.shape}")
        self._t.append(t)
        self._v.append(value)

    def _history(self):
        return np.array(self._t), np.reshape(self._v, (-1, self.dim))

    def sample(self, t_query: float) -> np.ndarray:
        """Command in flight at t_query under the actuator model above."""
        return interpolate(*self._history(), [t_query])[0]

    def integrate(self, t0: float, t1: float) -> np.ndarray:
        """Integral of the signal sample() describes over [t0, t1]."""
        values = np.reshape(self._v, (-1, self.dim))
        return np.array(integrate(self._t, values, len(self._t), t0, t1))
