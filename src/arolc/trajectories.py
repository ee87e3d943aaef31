"""Desired trajectories with analytic first and second derivatives.

Three built-ins cover the test plants and the wheeled robot:

* ``SinusoidTrajectory``: independent sinusoid per coordinate.
* ``CircleTrajectory``: constant-speed circular path for a differential
  drive. A diff-drive cannot track x, y and heading independently, so the
  controller references are the wheel angles obtained by inverse
  kinematics; on a circle both wheel rates are constant. The Cartesian
  path itself stays available through ``cartesian`` for posture-level
  checks and error reporting.
* ``WheelRampTrajectory``: constant wheel rates commanded directly.

A trajectory is called as traj(t) -> (qd, qd_dot, qd_ddot). A scalar t
gives three (n,) arrays; a 1-D array of N times gives three (N, n) arrays
whose row i is the scalar call at t[i], bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import require

__all__ = [
    "SinusoidTrajectory",
    "CircleTrajectory",
    "WheelRampTrajectory",
]


def _time_column(t):
    """t as a float array: a scalar stays 0-d, a 1-D array of N times becomes
    an (N, 1) column, so that per-coordinate constants broadcast along its
    rows."""
    t = np.asarray(t, float)
    if t.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array of times")
    return t[:, None] if t.ndim else t


def _constant_rates(rates, t):
    """(rates t, rates, 0) of a reference moving at constant rates."""
    qd = rates * _time_column(t)
    qd_dot = np.empty(qd.shape)
    qd_dot[...] = rates
    return qd, qd_dot, np.zeros(qd.shape)


def _check_diameter(traj) -> None:
    """The diameter that percent errors divide by must be positive."""
    require("nonnegative", path_diameter=traj.path_diameter)
    if not traj.diameter > 0.0:
        raise ValueError("path_diameter must be positive: the trajectory "
                         "gives no default diameter")


@dataclass(frozen=True)
class SinusoidTrajectory:
    """qd_i(t) = offset_i + amplitude_i * sin(frequency_i * t + phase_i)."""

    amplitude: tuple[float, ...] = (0.5, 0.3)
    frequency: tuple[float, ...] = (0.5, 0.7)
    phase: tuple[float, ...] | None = None
    offset: tuple[float, ...] | None = None
    path_diameter: float = 0.0  # 0 -> default 2 * max |amplitude|

    @property
    def dim(self) -> int:
        return len(self.amplitude)

    @property
    def diameter(self) -> float:
        return self.path_diameter if self.path_diameter > 0 \
            else 2.0 * max(map(abs, self.amplitude))

    def __post_init__(self):
        # the coefficients as read-only float arrays, built once
        amp = np.array(self.amplitude, float)
        freq = np.array(self.frequency, float)
        zeros = np.zeros(self.dim)
        phase = zeros if self.phase is None else np.array(self.phase, float)
        offset = zeros if self.offset is None else np.array(self.offset, float)
        if not amp.shape == freq.shape == phase.shape == offset.shape == (self.dim,):
            raise ValueError("amplitude, frequency, phase and offset need one "
                             "entry per coordinate")
        require("finite", amplitude=amp, frequency=freq, phase=phase, offset=offset)
        _check_diameter(self)
        # the peak of |qd| and the amplitudes of qd_dot and qd_ddot, each
        # finite
        with np.errstate(over="ignore", invalid="ignore"):
            peak, amp_freq, neg_amp_freq2 = abs(offset) + abs(amp), amp * freq, -amp * freq ** 2
        require("finite", **{"offset + amplitude": peak, "amplitude * frequency": amp_freq,
                             "amplitude * frequency ** 2": neg_amp_freq2})
        for name, array in (("_freq", freq), ("_amp", amp), ("_amp_freq", amp_freq),
                            ("_neg_amp_freq2", neg_amp_freq2), ("_phase", phase),
                            ("_offset", offset)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __call__(self, t):
        arg = self._freq * _time_column(t) + self._phase
        sin = np.sin(arg)
        return (self._offset + self._amp * sin, self._amp_freq * np.cos(arg),
                self._neg_amp_freq2 * sin)


@dataclass(frozen=True)
class CircleTrajectory:
    """Circle of given radius traversed at constant angular rate.

    The path is x(t) = radius sin(rate t) + cx, y(t) = radius cos(rate t)
    + cy (clockwise, starting at the top heading along +x). With wheel
    radius r_bar and half axle width b the rolling-consistent wheel
    references are the constant rates

        theta_r_dot = rate (radius - b) / r_bar,
        theta_l_dot = rate (radius + b) / r_bar.

    The heading reference implied by the path is the tangent direction
    -rate * t; an independently chosen heading profile would be
    kinematically unreachable and is not represented.
    """

    radius: float = 1.25
    rate: float = 0.35
    center: tuple[float, float] = (0.1, 1.35)
    r_bar: float = 0.0975
    b: float = 0.165
    path_diameter: float = 0.0

    dim = 2

    def __post_init__(self):
        require("positive", radius=self.radius, rate=self.rate, r_bar=self.r_bar, b=self.b)
        _check_diameter(self)
        # the wheel rates, of which this one is the larger
        require("finite", **{"rate * (radius + b) / r_bar": self.wheel_rates[1]})

    @property
    def diameter(self) -> float:
        return self.path_diameter if self.path_diameter > 0 else 2.0 * self.radius

    @property
    def wheel_rates(self) -> tuple[float, float]:
        return (self.rate * (self.radius - self.b) / self.r_bar,
                self.rate * (self.radius + self.b) / self.r_bar)

    def __call__(self, t):
        return _constant_rates(np.array(self.wheel_rates), t)

    def cartesian(self, t):
        """(x, y, x_dot, y_dot, heading) of the reference path at time t: a
        float, or a 1-D array of N times for five (N,) arrays."""
        t = np.asarray(t, float)
        if t.ndim > 1:
            raise ValueError("t must be a scalar or a 1-D array of times")
        a = self.rate * t
        x = self.radius * np.sin(a) + self.center[0]
        y = self.radius * np.cos(a) + self.center[1]
        x_dot = self.radius * self.rate * np.cos(a)
        y_dot = -self.radius * self.rate * np.sin(a)
        return x, y, x_dot, y_dot, -a


@dataclass(frozen=True)
class WheelRampTrajectory:
    """Constant wheel rates commanded directly: qd = (rate_r t, rate_l t)."""

    rate_r: float = 3.0
    rate_l: float = 2.0
    path_diameter: float = 2.5

    dim = 2

    def __post_init__(self):
        require("finite", rate_r=self.rate_r, rate_l=self.rate_l)
        _check_diameter(self)

    def __call__(self, t):
        return _constant_rates(np.array([self.rate_r, self.rate_l]), t)

    @property
    def diameter(self) -> float:
        return self.path_diameter
