"""Plant models exposing M(q) and N(q, q_dot, t) for M qdd + N = tau_applied.

Every plant carries two faces: the true dynamics (with friction, payload and
disturbance terms) used by the integrator, and the deterministic nominal
model the controller believes, ``plant.nominal``. The nominal model is a
plant of the same kind built from the nominal parameters, without payload,
friction or disturbance, or the plant itself where the controller knows it
exactly; nominal_mass_matrix and nominal_bias_vector read it. Time enters
the true side only, through disturbances and the payload schedule.

Shape contract: ``mass_matrix(q, t)`` and ``bias_vector(q, q_dot, t)``
take one state, q and q_dot of shape (n,) and a float t, and return (n, n)
and (n,); or a stack of B states, q and q_dot of shape (B, n) and t of
shape (B,), and return (B, n, n) and (B, n), row b equal to the single-state
call on row b. t = None reads the time-free terms alone (no payload, no
disturbance); the nominal model has no others. ``accel`` and its inverse
``torque`` take one state only and work on Python floats: accel(q, q_dot,
tau, t) is the forward dynamics at time t, torque(q, q_dot, qdd) = M(q) qdd
+ N(q, q_dot) the inverse dynamics of the time-free terms, which the
adaptive-robust law evaluates on the nominal model once per control period.

Each closed-form plant states its dynamics once, as source strings over
one state's names: the positions q0, q1, ..., the rates v0, v1, ...,
and the value p of the plant's schedule (its time-only part, the robot's
payload phase), if it has one. ``_MASS`` assigns M's upper entries
m{i}_{j} (i <= j; an entry it does not assign is zero), ``_BIAS`` N's
time-free entries n{i}, reading no name _MASS assigns, and ``_SOLVE``,
which also reads the input's entries u0, u1, ... and the time t, the
accelerations a{i} of M a = u - N less the disturbance at t. A string
may hold a top-level ``if <constant>:`` block (``if viscous:``, ``if
disturbance:``), which is resolved when the faces are built (``_fold``):
the body stays, dedented, where the plant's constant is truthy, and the
block goes where it is not, so no face tests it at run time. _SOLVE reads
t only in its ``if disturbance:`` block, so that the faces of a plant
without a disturbance read no time. A schedule whose value is a row of
numbers names its entries in a fourth string, ``_ROW``, one line that
unpacks p before the others run, into names no other string assigns (the
robot's row holds M's entries themselves, so its _MASS is empty; the
simulator unpacks a row again only when p changes). Every other name they
read is a constant of the plant.
One generator (``_compile_face``) compiles every face from these strings,
each on first use: the kernel (all of them), which the simulator splices
into its unrolled block of control periods (``arolc.sim``), so that a step
calls no ``accel``; ``accel``, the kernel on one state;
``torque``, the torque kernel (``torque_kernel``: _ROW, _MASS and _BIAS at
the schedule's time-free value, each row of M qdd + N summed left to
right), which the adaptive-robust law splices where it evaluates the
nominal model, so that a period calls no ``torque``; ``mass_matrix``, _ROW
and _MASS; and ``bias_vector``, _ROW and _BIAS, plus the disturbance at t.
mass_matrix and bias_vector run on a single state's Python floats
(``math`` trigonometry) or on a stack's (B,) columns (numpy's), with the
same operations in the same order, so that the rows agree bit for bit
wherever numpy's cos and sin round as libm's. A plant's parameters are
fixed once it is built.

``reduced_wmr_dynamics`` returns the 2-DOF wheel-space (theta_r, theta_l)
plant of the differential drive, derived from the kinetic energy written
at the axle midpoint:

    T = 1/2 m v^2 + 1/2 (I_bar + m d^2) w^2 + 1/2 I_w (tr^2 + tl^2),
    v = r_bar (tr + tl) / 2,  w = r_bar (tr - tl) / (2 b),

giving a constant SPD wheel-space inertia and the gyroscopic bias
2 K a c^2 (tr - tl) [tl, -tr] from the centre-of-mass offset. Posture
(x_c, y_c, phi) is reconstructed kinematically from wheel rates.
"""

from __future__ import annotations

import functools
import math
import re
import textwrap
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._checks import require
from ._codegen import _compile, _entries

__all__ = [
    "PlantModel",
    "Kernel",
    "el_accel",
    "WmrParams",
    "PayloadSchedule",
    "payload_mass",
    "reduced_wmr_dynamics",
    "TwoLinkParams",
    "two_link_plant",
    "point_mass_plant",
    "oscillator_plant",
    "body_twist",
    "reconstruct_posture",
]


class PlantModel:
    """Base class for second-order plants M(q) qdd + N(q, qd, t) = tau.

    nominal is the time-free model the controller believes (the plant itself
    by default); disturbance_amp, disturbance_freq and phases describe the
    additive torque disturbance amp * sin(freq * t + phases) of the true side.
    """

    dim: int = 0

    def __init__(self, nominal=None, disturbance_amp=0.0, disturbance_freq=1.0,
                 phases=None):
        require("finite", disturbance_amp=disturbance_amp, disturbance_freq=disturbance_freq)
        phases = np.zeros(self.dim) if phases is None else np.asarray(phases, float)
        if phases.shape != (self.dim,):
            raise ValueError(f"phases must be {self.dim} finite numbers, one per plant "
                             f"coordinate, got shape {phases.shape}")
        require("finite", phases=phases)
        self.nominal = self if nominal is None else nominal
        self.disturbance_amp = disturbance_amp
        self.disturbance_freq = disturbance_freq
        self.phases = phases

    def disturbance(self, t) -> np.ndarray:
        """The (n,) disturbance at a float t; a (B, 1) column of times gives
        its (B, n) rows."""
        return self.disturbance_amp * np.sin(self.disturbance_freq * t + self.phases)

    def _disturbed(self, n: np.ndarray, t, batch: int | None) -> np.ndarray:
        """The bias n plus the disturbance at t (at each row's time for a
        stack of batch rows); n itself at t = None."""
        if not self.disturbance_amp or t is None:
            return n
        return n + self.disturbance(t if batch is None else np.asarray(t, float)[:, None])

    def mass_matrix(self, q, t=None) -> np.ndarray:
        raise NotImplementedError

    def bias_vector(self, q, q_dot, t) -> np.ndarray:
        raise NotImplementedError

    def nominal_mass_matrix(self, q) -> np.ndarray:
        return self.nominal.mass_matrix(q)

    def nominal_bias_vector(self, q, q_dot) -> np.ndarray:
        return self.nominal.bias_vector(q, q_dot, None)

    def accel(self, q, q_dot, tau_applied, t: float) -> list[float]:
        """Forward dynamics qdd = M(q)^-1 (tau_applied - N(q, q_dot, t)).

        q, q_dot and tau_applied are any length-dim sequences of floats
        (list, tuple or ndarray); the result is a list of dim Python floats.
        Subclasses with a float closed form run their kernel here; el_accel
        stays the ndarray reference.
        """
        return el_accel(self, q, q_dot, tau_applied, t).tolist()

    def kernel(self) -> "Kernel":
        """The call kernel, a0, ... = accel((q0, ...), (v0, ...), (u0, ...),
        t), with accel as bound on the instance: the integrator calls it at
        every RK4 stage on tuples of floats and unpacks the result (any
        length-dim sequence). Closed-form plants override it with their
        dynamics."""
        a, q, v, u = (_entries(prefix, self.dim) for prefix in "aqvu")
        return Kernel(f"{a}= accel(({q}), ({v}), ({u}), t)\n", {"accel": self.accel})

    def torque_kernel(self) -> "Kernel":
        """The call kernel of ``torque``, tau0, ... = torque((q0, ...), (v0,
        ...), [a0, ...]), with torque as bound on the instance: the
        adaptive-robust law splices it where it evaluates the nominal model
        (``controllers.ArolcController.kernel``), renaming the names
        ``_TORQUE_IO`` matches. Closed-form plants override it with their
        inverse dynamics."""
        tau, q, v, a = (_entries(prefix, self.dim) for prefix in ("tau", "q", "v", "a"))
        return Kernel(f"{tau}= torque(({q}), ({v}), [{a}])\n", {"torque": self.torque})

    def torque(self, q, q_dot, qdd) -> list[float]:
        """Inverse dynamics M(q) qdd + N(q, q_dot) of the time-free terms
        (mass_matrix and bias_vector at t = None), a list of dim Python
        floats; closed-form plants sum each row of M(q) qdd left to right."""
        q = np.asarray(q, float)
        return (self.mass_matrix(q) @ np.asarray(qdd, float)
                + self.bias_vector(q, np.asarray(q_dot, float), None)).tolist()


class Kernel(NamedTuple):
    """One state's float forward dynamics, as source.

    source is statements over the positions q0, q1, ..., the rates v0, v1,
    ..., the input's entries u0, u1, ... (floats), the time t and, with a
    schedule, p, that assign the accelerations a0, a1, ... (the names
    ``_KERNEL_IO`` matches); its own
    temporaries (a closed-form plant's m{i}_{j}, n{i} and _ROW names among
    them) match none of these names and start with no underscore. Every
    other name it reads is a constant, the entry of constants of that name,
    bound once per use. A source that never names t is handed no time: the
    simulator's period loop passes the stage instants only to a kernel that
    reads them (a disturbed plant's, or the call kernel's).

    schedule, if not None, is the plant's time-only part: p reads its value
    at t. It maps a float t to that value, and an ndarray of times to
    nested lists of the same shape holding the value at each, so that the
    simulator evaluates it once for a whole block of planned RK4 stage
    instants and hands each stage its value, as it hands it u. A source
    whose first line only unpacks p (``name, ... = p``, a plant's _ROW)
    assigns those names nowhere else: the simulator's period runs that
    line only when a stage's p is not the object it last unpacked.

    shared, if not None, maps an ndarray of times to the value that
    schedule gives at every one of them, where it finds one cheaply, and
    to None otherwise (a value is never None): the simulator's block then
    unpacks that value once and hands its stages no values.
    """

    source: str
    constants: dict
    schedule: object = None
    shared: object = None


# The names a Kernel's source shares with the function it is spliced into:
# the entries q{i}, v{i}, a{i} and u{i}, the time t and the schedule's p
_KERNEL_IO = re.compile(r"([qvau])(\d+)|[tp]")
# The names a torque kernel (``PlantModel.torque_kernel``) shares with the
# law it is spliced into: q{i}, v{i}, the accelerations a{i} and tau{i}
_TORQUE_IO = re.compile(r"(?:q|v|a|tau)\d+")


# M's upper entries m{i}_{j} that a plant's _ROW and _MASS name
_MASS_ENTRY = re.compile(r"\bm(\d+)_(\d+)\b")
# a top-level "if <constant>:" line and the indented lines under it
_CONSTANT_BLOCK = re.compile(r"^if (\w+):\n((?:    .*\n)+)", re.M)


def _fold(source: str, constants: dict) -> str:
    """source with each top-level ``if <constant>:`` block resolved: its
    body, dedented, where the constant is truthy, nothing where it is not.
    The branch is decided when the strings are built, as it would be at
    run time, so no face and no RK4 stage tests the constant."""
    return _CONSTANT_BLOCK.sub(
        lambda m: textwrap.dedent(m.group(2)) if constants[m.group(1)] else "", source)


def _matrix(row: str, mass: str, n: int) -> list:
    """M's entries by row, as a plant's _ROW and _MASS name them: the name
    of the upper entry m{i}_{j}, None where it is zero."""
    upper = {(int(i), int(j)) for i, j in _MASS_ENTRY.findall(row + mass)}
    return [[f"m{min(i, j)}_{max(i, j)}" if (min(i, j), max(i, j)) in upper else None
             for j in range(n)] for i in range(n)]


def _torque_rows(matrix: list) -> str:
    """The lines tau{i} = M a + N, row i of M (``_matrix``) times the
    accelerations a0, a1, ... summed left to right, then n{i}."""
    return "".join(f"tau{i} = " + " + ".join(
        [f"{m} * a{j}" for j, m in enumerate(entries) if m] + [f"n{i}"]) + "\n"
        for i, entries in enumerate(matrix))


@functools.cache
def _compile_face(face: str, row: str, mass: str, bias: str, solve: str, names: tuple,
                  n: int, scheduled: bool):
    """The function bind(_schedule, **constants) that binds a dimension-n
    plant's schedule (None if not scheduled) and its constants names into
    one face compiled from its strings (see _KernelPlant): compiled once per
    (face, strings, names, n), on first use. The face's own names start
    with an underscore, so that no constant is shadowed.

    accel(_q, _q_dot, _u, t) -> [a0, ...] as Python floats (ndarray entries
    give numpy scalars), p = _schedule(t); torque(_q, _q_dot, _qdd) ->
    [M qdd + N] at p = _schedule(None); mass(_q, p) -> M as nested tuples
    and bias(_q, _q_dot, p) -> (n0, ...), on floats or on (B,) columns.
    """
    matrix = _matrix(row, mass, n)
    state = f"{_entries('q', n)}= _q\n{_entries('v', n)}= _q_dot\n"
    bind = [f"def bind(_schedule, {', '.join(names)}):"]
    if face == "accel":
        args = "_q, _q_dot, _u, t"
        body = (state + f"{_entries('u', n)}= _u\n" + ("p = _schedule(t)\n" if scheduled else "")
                + row + mass + bias + solve)
        result = f"[{', '.join(f'float(a{i})' for i in range(n))}]"
    elif face == "torque":
        if scheduled:
            bind.append("    _p_free = _schedule(None)")
        args = "_q, _q_dot, _qdd"
        body = (state + f"{_entries('a', n)}= _qdd\n" + ("p = _p_free\n" if scheduled else "")
                + row + mass + bias + _torque_rows(matrix))
        result = f"[{_entries('tau', n)}]"
    elif face == "mass":
        args, body = "_q, p", f"{_entries('q', n)}= _q\n" + row + mass
        result = "(" + "".join(f"({''.join(f'{m or 0.0}, ' for m in entries)}), "
                               for entries in matrix) + ")"
    else:  # bias
        args, body = "_q, _q_dot, p", state + row + bias
        result = f"({_entries('n', n)})"
    return _compile(bind + [f"    def _face({args}):", textwrap.indent(body, " " * 8),
                            f"        return {result}", "    return _face"],
                    f"{face} face, n = {n}")


class _KernelPlant(PlantModel):
    """A plant that states its dynamics once, as the strings _ROW, _MASS,
    _BIAS and _SOLVE (see the module docstring), over the constants that
    _constants() names; cos, sin (math's) and the disturbance (None without
    one) are bound with them.

    A scheduled plant lists its schedule's values in _phases, one per phase
    (None: no schedule), and _phase(t) is the index of the phase at a float
    t (0 at t = None) or the int array of those indices over an ndarray of
    times; it may key the windows of its phases (``_window``). _schedule is
    then Kernel.schedule and _shared Kernel.shared, and the stacked faces
    read their p columns from the float table of _phases.

    Every face is compiled from the strings (``_compile_face``) on its first
    use and bound to the plant's constants once, each ``if <constant>:``
    block resolved (``_strings``): the kernel runs all four strings, accel
    the kernel on one state, torque _ROW, _MASS and _BIAS at the time-free
    p, mass_matrix _ROW and _MASS, and bias_vector _ROW and _BIAS, on one
    state's floats or, with numpy's cos and sin bound, on a stack's columns.
    """

    _ROW = ""
    _phases = None

    def _schedule(self, t):
        """p at t: the value of the phase at a float t (phase 0 at t = None);
        over an ndarray of times, nested lists of the same shape holding the
        value at each: the value all of them share (``_shared``) repeated,
        where they share one."""
        if not isinstance(t, np.ndarray):
            return self._phases[self._phase(t)]
        value = self._shared(t)
        if value is None:
            return self._phase_arrays[0][self._phase(t)].tolist()
        for size in reversed(t.shape):
            value = [value] * size
        return value

    def _shared(self, t: np.ndarray):
        """The value of the phase that every time of the ndarray t is in,
        where the earliest and the latest of them share a window
        (``_window``), and so all of them do: the phase is then found at the
        earliest alone. None where they do not, or t is empty."""
        if t.size:
            first, last = t.min().item(), t.max().item()
            window = self._window(first)
            if window is not None and window == self._window(last):
                return self._phases[self._phase(first)]
        return None

    def _window(self, t: float):
        """A key of the schedule's window at a float t: two instants with
        equal keys, and every instant between them, are in one phase. None,
        the default, knows no window, and _schedule then finds the phase
        of every time."""
        return None

    @functools.cached_property
    def _phase_arrays(self):
        """_phases as an object array, which _schedule indexes, and as a
        float table, whose rows the stacked faces index."""
        return (np.fromiter(self._phases, object, len(self._phases)),
                np.array(self._phases, float))

    def _strings(self, constants: dict) -> list:
        """_ROW, _MASS, _BIAS and _SOLVE, each top-level ``if <constant>:``
        block resolved on constants (``_fold``)."""
        return [_fold(s, constants) for s in (self._ROW, self._MASS, self._BIAS, self._SOLVE)]

    def kernel(self) -> Kernel:
        constants = dict(self._constants(), cos=math.cos, sin=math.sin,
                         disturbance=self.disturbance if self.disturbance_amp else None)
        scheduled = self._phases is not None
        return Kernel("".join(self._strings(constants)), constants,
                      self._schedule if scheduled else None, self._shared if scheduled else None)

    def torque_kernel(self) -> Kernel:
        """The inverse dynamics of the time-free terms as source: _ROW, _MASS
        and _BIAS, then tau{i}, row i of M a + N summed left to right, as the
        torque face computes them. p, where the plant is scheduled, is the
        schedule's time-free value, bound as a constant; the constants are
        the kernel's."""
        kernel = self.kernel()
        constants = dict(kernel.constants)
        if kernel.schedule is not None:
            constants["p"] = kernel.schedule(None)
        row, mass, bias, _ = self._strings(kernel.constants)
        return Kernel(row + mass + bias + _torque_rows(_matrix(row, mass, self.dim)), constants)

    @functools.cached_property
    def _faces(self) -> dict:
        """The faces bound so far, by (face, stacked)."""
        return {}

    def _face(self, face: str, stacked: bool = False):
        bound = self._faces.get((face, stacked))
        if bound is None:
            kernel = self.kernel()
            constants = (dict(kernel.constants, cos=np.cos, sin=np.sin) if stacked
                         else kernel.constants)
            bound = self._faces[face, stacked] = _compile_face(
                face, *self._strings(kernel.constants), tuple(constants), self.dim,
                kernel.schedule is not None)(kernel.schedule, **constants)
        return bound

    def _at(self, t, batch: int | None):
        """The faces' p at t: the schedule's value (None without one), or
        its (B,) columns at a stack's times."""
        if self._phases is None:
            return None
        if batch is None or t is None:
            return self._schedule(t)
        return self._phase_arrays[1][self._phase(np.asarray(t, float))].T

    def accel(self, q, q_dot, tau_applied, t: float) -> list[float]:
        """The kernel on one state (see PlantModel.accel)."""
        return self._face("accel")(q, q_dot, tau_applied, t)

    def torque(self, q, q_dot, qdd) -> list[float]:
        return self._face("torque")(q, q_dot, qdd)

    def mass_matrix(self, q, t=None) -> np.ndarray:
        q, batch = _columns(q)
        return _stack(self._face("mass", batch is not None)(q, self._at(t, batch)), batch)

    def bias_vector(self, q, q_dot, t) -> np.ndarray:
        q, batch = _columns(q)
        q_dot, _ = _columns(q_dot)
        n = self._face("bias", batch is not None)(q, q_dot, self._at(t, batch))
        return self._disturbed(_stack(n, batch), t, batch)


def el_accel(plant: PlantModel, q, q_dot, tau_applied, t: float) -> np.ndarray:
    """qdd = M(q)^-1 (tau_applied - N(q, q_dot, t))."""
    m = plant.mass_matrix(q, t)
    n = plant.bias_vector(q, q_dot, t)
    try:
        return np.linalg.solve(m, np.asarray(tau_applied, float) - n)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular mass matrix") from exc


def _columns(x):
    """(columns, batch) of a state: the n Python floats of a single (n,)
    state with batch None, or the n (B,) columns of a (B, n) stack with
    batch B."""
    x = np.asarray(x, float)
    if x.ndim == 1:
        return x.tolist(), None
    return list(x.T), len(x)


def _stack(entries, batch: int | None) -> np.ndarray:
    """np.array of nested entries. For a stack of batch rows the entries are
    (B,) arrays, or floats shared by every row, and the row axis comes
    first: (n,) entries give (B, n), (n, n) entries (B, n, n)."""
    if batch is None:
        return np.array(entries)
    if isinstance(entries, (list, tuple)):
        return np.stack([_stack(e, batch) for e in entries], axis=1)
    return np.broadcast_to(entries, (batch,))


# ---------------------------------------------------------------------------
# Wheeled mobile robot
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WmrParams:
    """Differential-drive parameters.

    m     total mass [kg]
    I_bar body inertia about the vertical axis [kg m^2]
    K     mass-offset product m * d [kg m]
    d     centre-of-mass offset from the wheel axle [m]
    r_bar wheel radius [m]
    b     half axle width [m]
    I_w   wheel spin inertia [kg m^2]
    """

    m: float = 10.0
    I_bar: float = 0.5
    K: float = 0.5
    d: float = 0.05
    r_bar: float = 0.0975
    b: float = 0.165
    I_w: float = 0.0025

    def __post_init__(self):
        require("positive", m=self.m, I_bar=self.I_bar, K=self.K, d=self.d,
                r_bar=self.r_bar, b=self.b, I_w=self.I_w)
        if not self.d < self.b:
            raise ValueError("d must be smaller than b")


@dataclass(frozen=True)
class PayloadSchedule:
    """Square-wave payload: extra_mass held for period_on, removed for
    period_off, placed at the next body-frame offset each cycle."""

    extra_mass: float = 3.5
    period_on: float = 5.0
    period_off: float = 5.0
    offsets: tuple[tuple[float, float], ...] = ((0.05, 0.02),)

    def __post_init__(self):
        require("nonnegative", extra_mass=self.extra_mass)
        require("positive", period_on=self.period_on, period_off=self.period_off)
        if not self.offsets:
            raise ValueError("at least one offset is required")
        offsets = tuple((float(dx), float(dy)) for dx, dy in self.offsets)
        require("finite", offsets=offsets)
        object.__setattr__(self, "offsets", offsets)


def _payload_window(sched: PayloadSchedule, t):
    """(cycle, on) at time t >= 0: the index t // (period_on + period_off)
    of the payload cycle, and whether t falls in that cycle's on-window
    (its first period_on). Each on- and each off-window is one (cycle, on)
    pair: t // period never decreases as t grows, nor does t - cycle *
    period within one cycle, so the instants between two of equal pairs
    share it.

    A float t gives floats, an array of times arrays of the same values:
    numpy's floor_divide rounds as Python's // does.
    """
    period = sched.period_on + sched.period_off
    cycle = t // period
    return cycle, t - cycle * period < sched.period_on


def _payload_phase(sched: PayloadSchedule, t):
    """The payload phase at time t >= 0: k while offsets[k] is carried, -1
    in an off-window; the first on-window starts at t = 0.

    A float t gives a float, an array of times an array of the same values
    (``_payload_window``); the remainder of the cycle is an integer one,
    exact for cycles below 2**53.
    """
    cycle, on = _payload_window(sched, t)
    whole = cycle.astype(np.int64) if isinstance(cycle, np.ndarray) else int(cycle)
    return (whole % len(sched.offsets) + 1.0) * on - 1.0


def payload_mass(sched: PayloadSchedule, t: float):
    """(mass_delta, (dx, dy)) at time t; the first on-window starts at t = 0."""
    require("finite", t=t)
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    k = _payload_phase(sched, t)
    if k < 0.0:
        return 0.0, (0.0, 0.0)
    return sched.extra_mass, sched.offsets[int(k)]


class _ReducedWmrPlant(_KernelPlant):
    """Wheel-space (theta_r, theta_l) dynamics of the differential drive."""

    dim = 2
    # p is the row of _phases at the state's instant (_schedule): M's
    # entries, N's gains and M's LU factors
    _ROW = "m0_0, m0_1, m1_1, gyro, visc, lower, upper = p\n"
    _MASS = ""
    # gyroscopic coupling, plus rolling resistance when set
    _BIAS = """\
s = gyro * (v0 - v1)
n0, n1 = s * v1, s * -v0
if viscous:
    n0, n1 = n0 + visc * v0, n1 + visc * v1
"""
    # the bias plus the disturbance, then a plain LU solve on the row's
    # factors: el_accel to rounding
    _SOLVE = """\
if disturbance:
    d0, d1 = disturbance(t).tolist()
    n0, n1 = n0 + d0, n1 + d1
b0, b1 = u0 - n0, u1 - n1
a1 = (b1 - lower * b0) / upper
a0 = (b0 - m0_1 * a1) / m0_0
"""

    def __init__(self, params, payload=None, viscous=0.0, nominal=None,
                 disturbance_amp=0.0, disturbance_freq=1.0, phases=None):
        super().__init__(nominal, disturbance_amp, disturbance_freq, phases)
        self.params = params
        self.payload = payload
        self.viscous = viscous
        # the wheel-to-body factors a = r/2 (forward speed) and c = r/(2b)
        # (turn rate), and the load (dm, dx, dy) of each payload phase: row 0
        # the bare body, whose zero load leaves every sum exact, row k + 1
        # while offsets[k] is carried
        a, c = params.r_bar / 2.0, params.r_bar / (2.0 * params.b)
        offsets = () if payload is None else payload.offsets
        loads = [(0.0, 0.0, 0.0)] + [(payload.extra_mass, dx, dy) for dx, dy in offsets]
        self._phases = []
        for dm, dx, dy in loads:
            m_eff = params.m + dm
            j_eff = params.I_bar + params.m * params.d ** 2 + dm * (dx * dx + dy * dy)
            linear, spin = m_eff * a * a, j_eff * c * c
            diag, off = linear + spin + params.I_w, linear - spin
            # the centre-of-mass offset couples spin rate into both wheels;
            # rolling resistance scales with the carried weight
            gyro = 2.0 * (params.K + dm * dx) * a * c * c
            visc = viscous * (m_eff / params.m)
            # the LU factors: partial pivoting keeps row 0, as diag - |off| =
            # I_w + 2 min(m a^2, j c^2) > 0, and l is scaled by the
            # reciprocal pivot
            lower = off * (1.0 / diag)
            self._phases.append((diag, off, diag, gyro, visc, lower, diag - lower * off))

    def _phase(self, t):
        """The row of _phases at t: _payload_phase at max(t, 0), plus one;
        row 0 without payload or at t = None."""
        if isinstance(t, np.ndarray):
            if self.payload is None:
                return np.zeros(t.shape, int)
            return (_payload_phase(self.payload, np.maximum(t, 0.0)) + 1.0).astype(int)
        if self.payload is None or t is None:
            return 0
        return int(_payload_phase(self.payload, max(t, 0.0))) + 1

    def _window(self, t: float):
        """The (cycle, on) pair of _payload_window at max(t, 0); 0 without
        payload, where every instant is in row 0."""
        if self.payload is None:
            return 0
        return _payload_window(self.payload, max(t, 0.0))

    def _constants(self) -> dict:
        return dict(viscous=self.viscous)


def reduced_wmr_dynamics(params: WmrParams, mismatch: float = 0.0,
                         payload: PayloadSchedule | None = None,
                         viscous: float = 0.0,
                         disturbance_amp: float = 0.0,
                         disturbance_freq: float = 1.0,
                         phases=None) -> PlantModel:
    """2-DOF wheel-space plant; the nominal side scales the inertial
    parameters by (1 - mismatch) and omits payload, friction, disturbance."""
    if not -1.0 < mismatch < 1.0:
        raise ValueError("mismatch must lie in (-1, 1)")
    require("nonnegative", viscous=viscous)
    scale = 1.0 - mismatch
    nominal = _ReducedWmrPlant(replace(
        params, m=params.m * scale, I_bar=params.I_bar * scale,
        K=params.K * scale, I_w=params.I_w * scale))
    return _ReducedWmrPlant(params, payload, viscous, nominal,
                            disturbance_amp, disturbance_freq, phases)


def body_twist(q_dot, params: WmrParams):
    """(forward speed, turn rate) from wheel rates (theta_r_dot, theta_l_dot):
    of one pair, or (N,) series of an (N, 2) series of pairs."""
    q_dot = np.asarray(q_dot, float)
    v = params.r_bar * (q_dot[..., 0] + q_dot[..., 1]) / 2.0
    w = params.r_bar * (q_dot[..., 0] - q_dot[..., 1]) / (2.0 * params.b)
    return v, w


def reconstruct_posture(times, q_dots, params: WmrParams, pose0=(0.0, 0.0, 0.0)):
    """Integrate the rolling kinematics to recover (x_c, y_c, phi) series.

    times and q_dots are sampled series (wheel rates per row); trapezoidal
    integration of the heading and midpoint integration of the position.
    Returns an array of shape (len(times), 3). The reported (x_c, y_c) is
    the centre of mass, offset d ahead of the axle midpoint.

    Each running sum is a cumsum from its start value, which adds the steps
    in the order, and with the roundings, of a loop over the rows.
    """
    times = np.asarray(times, float)
    q_dots = np.asarray(q_dots, float)
    if times.ndim != 1 or not len(times) or q_dots.shape != (len(times), 2):
        raise ValueError(f"times and q_dots must be N >= 1 times and N pairs of wheel "
                         f"rates, got shapes {times.shape} and {q_dots.shape}")
    v, w = body_twist(q_dots, params)
    dt = np.diff(times)
    w_pair = w[:-1] + w[1:]
    x, y, phi0 = pose0
    x_a0 = x - params.d * math.cos(phi0)
    y_a0 = y - params.d * math.sin(phi0)
    phi = np.cumsum(np.concatenate([[phi0], 0.5 * w_pair * dt]))
    phi_mid = phi[:-1] + 0.25 * w_pair * dt
    v_mid = 0.5 * (v[:-1] + v[1:])
    x_a = np.cumsum(np.concatenate([[x_a0], v_mid * np.cos(phi_mid) * dt]))
    y_a = np.cumsum(np.concatenate([[y_a0], v_mid * np.sin(phi_mid) * dt]))
    out = np.stack([x_a + params.d * np.cos(phi), y_a + params.d * np.sin(phi), phi],
                   axis=1)
    out[0] = (x, y, phi0)
    return out


# ---------------------------------------------------------------------------
# Two-link manipulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoLinkParams:
    """Planar two-revolute-link arm; lc_i is the centre-of-mass distance
    along link i, I_i the link inertia about its centre of mass. Point-mass
    links correspond to lc_i = l_i, I_i = 0. viscous adds -viscous * q_dot
    friction (true model only; nominal parameter sets use viscous = 0)."""

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 1.0
    lc1: float = 0.5
    lc2: float = 0.5
    I1: float = 0.05
    I2: float = 0.05
    gravity: float = 9.81
    viscous: float = 0.0

    def __post_init__(self):
        require("positive", m1=self.m1, m2=self.m2, l1=self.l1, l2=self.l2, lc1=self.lc1,
                lc2=self.lc2)
        require("nonnegative", I1=self.I1, I2=self.I2, viscous=self.viscous)
        require("finite", gravity=self.gravity)


class _TwoLinkPlant(_KernelPlant):
    """The arm; joint angles are measured from the horizontal, so gravity
    torques go with cos(q)."""

    dim = 2
    # M11 = m1 lc1^2 + I1 + I2 + m2 (l1^2 + lc2^2 + 2 l1 lc2 cos q1),
    # M12 = m2 (lc2^2 + l1 lc2 cos q1) + I2, M22 = m2 lc2^2 + I2
    _MASS = """\
c1 = cos(q1)
m0_0 = inertia11 + m2 * (l1_lc2_sq + two_l1_lc2 * c1)
m0_1 = m2 * (lc2_sq + l1_lc2 * c1) + i2
m1_1 = inertia22
"""
    # Coriolis plus gravity, plus viscous friction when set
    _BIAS = """\
h = h_gain * sin(q1)
grav2 = grav2_gain * cos(q0 + q1)
n0 = -h * v1 * (2.0 * v0 + v1) + (grav1 * cos(q0) + grav2)
n1 = h * (v0 * v0) + grav2
if viscous:
    n0, n1 = n0 + viscous * v0, n1 + viscous * v1
"""
    # el_accel's closed form: the 2 x 2 inverse through its determinant
    _SOLVE = """\
r0, r1 = u0 - n0, u1 - n1
if disturbance:
    d0, d1 = disturbance(t).tolist()
    r0, r1 = r0 - d0, r1 - d1
det = m0_0 * m1_1 - m0_1 * m0_1
a0 = (m1_1 * r0 - m0_1 * r1) / det
a1 = (m0_0 * r1 - m0_1 * r0) / det
"""

    def __init__(self, params, nominal=None, disturbance_amp=0.0,
                 disturbance_freq=1.0, phases=None):
        super().__init__(nominal, disturbance_amp, disturbance_freq, phases)
        self.params = params

    def _constants(self) -> dict:
        # each product is a left-to-right prefix of the expression it was
        # written in (inertia11 of M11 above), so hoisting it keeps every
        # rounding
        p = self.params
        return dict(
            inertia11=p.m1 * p.lc1 ** 2 + p.I1 + p.I2, m2=p.m2,
            l1_lc2_sq=p.l1 ** 2 + p.lc2 ** 2, two_l1_lc2=2.0 * p.l1 * p.lc2,
            lc2_sq=p.lc2 ** 2, l1_lc2=p.l1 * p.lc2, i2=p.I2,
            inertia22=p.m2 * p.lc2 ** 2 + p.I2, h_gain=p.m2 * p.l1 * p.lc2,
            grav1=(p.m1 * p.lc1 + p.m2 * p.l1) * p.gravity,
            grav2_gain=p.m2 * p.lc2 * p.gravity, viscous=p.viscous)


def two_link_plant(params: TwoLinkParams, mismatch: float = 0.0,
                   disturbance_amp: float = 0.0,
                   disturbance_freq: float = 1.0,
                   phases=None) -> PlantModel:
    """Two-link arm; nominal side scales masses/inertias by (1 - mismatch)
    and never includes friction or disturbances."""
    if not -1.0 < mismatch < 1.0:
        raise ValueError("mismatch must lie in (-1, 1)")
    scale = 1.0 - mismatch
    nominal = _TwoLinkPlant(replace(
        params, m1=params.m1 * scale, m2=params.m2 * scale,
        I1=params.I1 * scale, I2=params.I2 * scale, viscous=0.0))
    return _TwoLinkPlant(params, nominal, disturbance_amp, disturbance_freq,
                         phases)


# ---------------------------------------------------------------------------
# Simple test plants
# ---------------------------------------------------------------------------


class _LinearPlant(_KernelPlant):
    """M = mass I, N = stiffness q: the point mass (stiffness 0) and the
    undamped oscillator."""

    def __init__(self, n, mass, stiffness=0.0):
        self.dim = n
        super().__init__()
        self.mass = mass
        self.stiffness = stiffness
        # the strings, for n coordinates
        self._MASS = "".join(f"m{i}_{i} = mass\n" for i in range(n))
        self._BIAS = "".join(f"n{i} = stiffness * q{i}\n" for i in range(n))
        self._SOLVE = "".join(f"a{i} = (u{i} - n{i}) / m{i}_{i}\n" for i in range(n))

    def _constants(self) -> dict:
        return dict(mass=self.mass, stiffness=self.stiffness)


def point_mass_plant(n: int = 1, mass: float = 1.0) -> PlantModel:
    """Friction-free unit plant M = mass * I, N = 0."""
    if n < 1:
        raise ValueError("n must be at least 1")
    require("positive", mass=mass)
    return _LinearPlant(n, mass)


def oscillator_plant(stiffness: float = 1.0, mass: float = 1.0) -> PlantModel:
    """Undamped linear oscillator; conserves energy under zero input."""
    require("positive", stiffness=stiffness, mass=mass)
    return _LinearPlant(1, mass, stiffness)
