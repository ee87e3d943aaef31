"""Deterministic fixed-step simulation of the input-delayed closed loop.

The plant state (q, q_dot) is integrated with classical RK4 at a fixed step
dt. The controller (``controllers.make_controller``) is stepped every
dt_control on the sampled state and its command, stamped k dt_control, is
written to the trace's tau_cmd row k: the run's one command history, which
the plant receives delayed as ``arolc.delays`` describes and the predictor
baseline, handed the trace, integrates. The delay thus acts between command
computation and application, and the integrator sees the applied input as
a known function of time (method-of-steps treatment; only the input is
delayed, never the state).

Where each lookup falls does not depend on the state: the command stamps,
the RK4 stage instants (t, t + dt/2, t + dt of each step), the delays h
there and the lookup instants t - h are all known before the run starts,
and so is the plant's schedule at each instant (its time-only part, the
robot's payload phase: ``plants.Kernel``). ``simulate`` therefore plans
the stage instants, the schedule's values there and the lookups of a block
of control periods at once (the schedule on the block's instants, found
at its first and last instant alone where they share a window of the
schedule, and ``delays.plan`` among the stamps that bracket the block's
lookups, one row per period), and once per period blends the pushed
commands (``delays.blend`` on the tau_cmd rows 0..k) into the applied
input of the coming period, one flat row of 3n floats per step: its input
at t, t + dt/2 and t + dt. Each step
reads its row, and its instants and schedule values where its kernel reads
them. This is exact: every stage gets, bit for bit, the schedule's value
at its own instant and the value ``delays.interpolate`` on the pushed
commands returns there.

Between control instants the integrator state is a tuple of 2n Python
floats, (q, q_dot): for vectors of 2 to 12 entries per-call numpy overhead
dominates the arithmetic. The RK4 steps of a control period are one
function, unrolled for the plant's dimension, that runs the plant's
forward dynamics inline: each closed-form plant states its M, N and solve
once, as source, and its kernel is the three together (``plants.Kernel``).
``_compile_step`` splices that kernel into a loop over the period's steps
at each of the four stages of a step, with one local per entry, the state
kept in locals from step to step and the divergence guard inline, chained
comparisons that NaN fails (a stage that raises ValueError, as math's cos
of an overflowed position does, diverges too); the period returns how many
steps it completed. A kernel whose first line unpacks the schedule's row
(a plant's _ROW) runs that line at a stage only when the stage's value is
not the row it last unpacked, once per period inside one phase. A kernel
names the input's entries u0, u1, ... as it names q0 and v0, and it gets
the stage instants only when it reads t. A plant's kernel branches on no
constant: each ``if <constant>:`` block of its strings is resolved when
the kernel is built (``plants._fold``), so a plant without a disturbance
leaves its disturbance lines out, and an undisturbed run builds no
instants for its steps. The period compiles once per (kernel, n), on the
first run, through the compile helper (``_codegen``) that also builds the
plants' faces; a later run binds the plant's constants into the compiled
period. A step thus calls no ``accel``, except where the plant has no
kernel or an ``accel`` is set on the instance (a tracer's wrapper, say):
then the kernel is the call to that ``accel``. This is exact, not an
approximation: IEEE rounding of +, -, * and / on floats is the rounding
numpy's elementwise ufuncs apply, and the step keeps the operation order of
the ndarray expression, so the traces are bit-identical to an ndarray
integrator. The control period stays on floats too: the controller reads q
and q_dot as slices of that tuple and the reference as lists of floats
(evaluated once per block of periods, the trajectory called on the block's
stamps), and returns its command as a list (``arolc.controllers``, whose
adaptive-robust law is compiled for n as well, on the first run). Arrays
begin at the trace: its rows (collected as one flat list of floats and
written once per block, tau_cmd once per period), the planned lookups and
the diagnostics fine grid (written once per period).

``simulate`` allocates the Trace, sampled at the control rate, before the
loop, writes each row into it and returns it: the trace is the run's only
record. With ``diagnostics=True`` the trace additionally carries the
fine-grid state history and the per-command controller quantities that the
trace rows do not determine (u, du), which ``error_dynamics_residual``
reads with the rows to check the delayed error-dynamics identity offline.

``Scenario.controller`` is an ArolcConfig, a PconConfig (with a fixed or the
true-delay window, see ``PconConfig.h_estimate``) or None for zero torque.
"""

from __future__ import annotations

import contextlib
import functools
import math
import re
import textwrap
from dataclasses import dataclass, field, fields

import numpy as np

from ._checks import require
from ._codegen import _compile, _entries
from .controllers import ArolcConfig, PconConfig, make_controller
from .delays import DelayProfile, blend, delay_at, plan
from .plants import Kernel, PlantModel

__all__ = [
    "Scenario",
    "Trace",
    "FineRecord",
    "SimulationDiverged",
    "simulate",
    "trace_to_csv",
    "error_dynamics_residual",
    "TRACE_FLOAT_FORMAT",
]

TRACE_FLOAT_FORMAT = "%.9g"

_DIVERGENCE_LIMIT = 1e8
# Cap on each array simulate preallocates: the control-rate trace (4 + 6n
# float64 per row; with diagnostics the per-command u and du add 2n, less
# than the trace's own rows), the applied input of a control period and the
# diagnostics fine grid (1 + 2n float64 per RK4 step). The applied input is
# the plan of the period's block (stage instants, delays, indices, take
# positions and weights, plus their temporaries while it is built), the
# blended table and the list copies the steps read: the table's flat rows,
# and the stage instants and the schedule's values where the kernel reads
# them; its peak is at most _step_words(n) per RK4 step.
_MAX_ARRAY_BYTES = 1 << 28
# Instants per block: of error_dynamics_residual's fine grid, and of the RK4
# stage instants simulate plans at once (whole control periods, one at
# least). Blocks bound their temporaries: over the whole grid at once, a 2 s
# two-link residual at dt = 1e-4 peaks about 2.7 MB higher in resident memory.
_BLOCK_INSTANTS = 2048
# the blend's context of a period whose command is finite
_NO_ERRSTATE = contextlib.nullcontext()
# The trace rows simulate writes once per block (and e1 from them); tau_cmd,
# which the blend and the predictor read, every period and h at its start
_BLOCK_COLUMNS = ("q", "q_dot", "q_desired", "tau_applied", "c_hat", "s_norm")
# Rows trace_to_csv formats at once: tracemalloc's peak while it writes the
# 4001 rows of a 40 s robot run is 0.8 MB so, 3.2 MB with all rows at once
_CSV_CHUNK_ROWS = 512


class SimulationDiverged(RuntimeError):
    """Raised when the state leaves the finite range or the adaptive gain
    overflows; carries the failure time and the trace accumulated so far."""

    def __init__(self, time: float, partial_trace: "Trace"):
        super().__init__(f"simulation diverged at t = {time:.6g} s")
        self.time = time
        self.partial_trace = partial_trace


@dataclass
class Scenario:
    """Everything needed for one closed-loop run."""

    plant: PlantModel
    trajectory: object  # at a time or a 1-D array of times (arolc.trajectories)
    delay: DelayProfile = field(default_factory=lambda: DelayProfile("none"))
    controller: ArolcConfig | PconConfig | None = None  # None: zero torque
    duration: float = 10.0
    dt: float = 1e-4
    dt_control: float = 1e-2
    q0: np.ndarray | None = None
    qdot0: np.ndarray | None = None
    label: str = ""

    def validate(self) -> None:
        require("positive", duration=self.duration, dt=self.dt, dt_control=self.dt_control)
        if self.dt > self.dt_control + 1e-15:
            raise ValueError("dt must not exceed dt_control")
        # the quotients meet the caps before round(), which overflows on inf:
        # one that rounds to the cap or above fails here
        n = self.plant.dim
        max_rows = _MAX_ARRAY_BYTES // (8 * (4 + 6 * n))
        if not self.duration / self.dt_control + 1.0 < max_rows + 0.5:
            raise ValueError(
                f"duration = {self.duration:g} s needs more than {max_rows} trace rows "
                f"at dt_control = {self.dt_control:g} s")
        max_steps = _MAX_ARRAY_BYTES // (8 * _step_words(n))
        if not self.dt_control / self.dt < max_steps + 0.5:
            # a period longer than the run is at fault before its step count
            if self.dt_control > self.duration:
                raise ValueError(f"dt_control = {self.dt_control:g} s exceeds duration = "
                                 f"{self.duration:g} s")
            raise ValueError(f"dt = {self.dt:g} s gives more than {max_steps} RK4 steps "
                             f"per control period of {self.dt_control:g} s")
        steps = round(self.dt_control / self.dt)
        if steps < 1 or abs(steps * self.dt - self.dt_control) > 1e-9 * self.dt_control:
            raise ValueError("dt_control must be an integer multiple of dt")
        periods = _n_periods(self)
        if abs(periods * self.dt_control - self.duration) > 1e-9 * self.duration:
            raise ValueError("duration must be an integer multiple of dt_control")
        # the default q0 is the trajectory's start, so its dimension comes first
        if self.trajectory.dim != n:
            raise ValueError(f"trajectory must have {n} coordinates, one per plant "
                             f"coordinate, got {self.trajectory.dim}")
        cfg = self.controller
        if not isinstance(cfg, (ArolcConfig, PconConfig, type(None))):
            raise ValueError(f"controller must be an ArolcConfig, a PconConfig or "
                             f"None, got {type(cfg).__name__}")
        if cfg is not None:
            name, gain = (("gains", cfg.gains.K1) if isinstance(cfg, ArolcConfig)
                          else ("vartheta", cfg.vartheta))
            if gain.shape != (n, n):
                raise ValueError(f"controller {name} must have shape ({n}, {n}), one row "
                                 f"per plant coordinate, got {gain.shape}")
        start = dict(zip(("q0", "qdot0"), self.initial_state()))
        for name, value in start.items():
            if value.shape != (n,):
                raise ValueError(f"{name} must have {n} entries, one per plant "
                                 f"coordinate, got shape {value.shape}")
        require("finite", **start)

    def initial_state(self) -> tuple[np.ndarray, np.ndarray]:
        """(q0, qdot0) as new float arrays: q0 defaults to the reference's
        start, qdot0 to rest."""
        q0 = self.trajectory(0.0)[0] if self.q0 is None else self.q0
        qdot0 = np.zeros(self.plant.dim) if self.qdot0 is None else self.qdot0
        return np.array(q0, dtype=float), np.array(qdot0, dtype=float)


@dataclass
class FineRecord:
    """Integration-rate state history (t, q, q_dot: one row per RK4 step
    and the initial state) plus the per-command controller quantities the
    trace rows do not determine: the adaptive-robust law's auxiliary input
    u and its switching part du, one row per trace row, zero on runs of the
    other controllers."""

    t: np.ndarray
    q: np.ndarray
    q_dot: np.ndarray
    cmd_u: np.ndarray
    cmd_du: np.ndarray


@dataclass
class Trace:
    """Control-rate time series of one run."""

    t: np.ndarray
    q: np.ndarray
    q_dot: np.ndarray
    q_desired: np.ndarray
    e1: np.ndarray
    tau_cmd: np.ndarray
    tau_applied: np.ndarray
    c_hat: np.ndarray
    s_norm: np.ndarray
    h: np.ndarray
    fine: FineRecord | None = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def n(self) -> int:
        return self.q.shape[1]

    def head(self, rows: int, fine_rows: int) -> "Trace":
        """A copy of the first rows of the trace, with the first fine_rows
        of its fine grid and the first rows of its per-command records."""
        fine = self.fine
        if fine is not None:
            fine = FineRecord(fine.t[:fine_rows].copy(), fine.q[:fine_rows].copy(),
                              fine.q_dot[:fine_rows].copy(), fine.cmd_u[:rows].copy(),
                              fine.cmd_du[:rows].copy())
        return Trace(*(getattr(self, f.name)[:rows].copy()
                       for f in fields(self) if f.name != "fine"), fine=fine)


def _step_words(n: int) -> int:
    """Words per RK4 step that simulate holds while it steps a control
    period of a dimension-n plant, at most: the growth of tracemalloc's
    peak per step of a period (1e3 to 3e3 steps under S1, peaking as the
    next block is planned) is 54 + 24n for point masses of n = 1, 2 and 3
    and for the arm, 20 words more where the kernel reads t (the step's
    instants) and 11 more where the schedule switches within a block (its
    values there): 113 on a robot switching every 4 ms, 147 on a disturbed,
    scheduled plant of n = 3. The count bounds each of these with 50 words
    or more to spare. A period's fixed part, about 1e3 words, is left out."""
    return 102 + 33 * n


def _n_periods(sc: Scenario) -> int:
    return round(sc.duration / sc.dt_control)


def _plan_periods(profile, stamps, k0, k1, steps, dt, n):
    """The applied-input lookups of control periods k0 .. k1 - 1 against the
    command stamps of the whole run. Returns the stage instants, shape
    (k1 - k0, steps, 3): t, t + dt/2 and t + dt of the RK4 steps
    t = t_k + i dt, which the RK4 step evaluates the plant at; h at those
    instants; the plan's arrays, one row per period (take and weight of
    shape (2, steps, 3n), one flat row per step); and per period whether
    any lookup falls before the first command, and whether any falls at or
    after the period's own command (the flags of ``blend``). Commands have
    n entries."""
    t = stamps[k0:k1, None] + np.arange(steps) * dt
    t = np.stack([t, t + 0.5 * dt, t + dt], axis=-1)
    h = delay_at(profile, t)
    index, take, weight = plan(stamps, t - h, n)
    index = index.reshape(k1 - k0, -1)
    before = (index == 0).any(axis=1).tolist()
    after = (index > np.arange(k0, k1)[:, None]).any(axis=1).tolist()
    take, weight = (np.ascontiguousarray(a.reshape(2, k1 - k0, steps, -1).swapaxes(0, 1))
                    for a in (take, weight))
    return t, h, (index, take, weight), before, after


# A kernel's names of one stage: q{i}, v{i}, a{i}, u{i}, t and p
_STAGE_NAME = re.compile(r"\b(?:([qvau])(\d+)|([tp]))\b")
# A kernel's first line where it unpacks p alone (a plant's _ROW)
_ROW_UNPACK = re.compile(r"\A([\w, ]+) = p\n")


def _reads(source: str, free: str) -> bool:
    """Whether a kernel's source reads the time t or the schedule's value p."""
    return any(m.group(3) == free for m in _STAGE_NAME.finditer(source))


@functools.cache
def _compile_step(source: str, names: tuple, n: int):
    """The classical RK4 steps of one control period of a dimension-n plant
    whose kernel is source (``plants.Kernel``), unrolled: compiled from
    source once per (kernel, n), as ``dataclasses`` builds its methods.
    Returns the function of the kernel's constants names that binds them
    into the period.

    The period, ``rk4_period(y, dt, inputs, instants, values, append)``,
    advances the 2n floats y = (q, q_dot) by one step per row of inputs,
    keeping the state in locals from step to step. Row i of inputs is step
    i's applied input as one flat row of 3n floats, its value at the stage
    instants t, t + dt/2 and t + dt one after the other. instants and
    values are read only where the kernel reads t and p: row i of instants
    is step i's three instants, row i of values the schedule's value at
    each; the period of a kernel that reads neither ignores them. append,
    if not None, receives the state after each step, as a tuple.

    Returns (y, m): the state after the last of the m steps the period
    completed. m is the number of rows unless a step diverges: an entry of
    its new state is not within +-_DIVERGENCE_LIMIT (NaN included), or a
    stage raises ValueError, as math's cos and sin do on the infinite
    position of an overflowing stage. The period then stops, and returns
    None for y and the index of that step for m. The step runs the kernel
    once per stage, on stage names of its own; a first kernel line that
    only unpacks p (``plants.Kernel``) runs where the stage's p is not the
    object the period last unpacked. Each entry is rounded as
    the ndarray expressions y + (dt / 2) k1, y + (dt / 2) k2, y + dt k3 and
    y + (dt / 6) (((k1 + 2 k2) + 2 k3) + k4) round it, with k_s = (q_dot,
    qdd) at stage s. The stage positions that the kernel never reads are
    left out.
    """
    reads_q = {int(m.group(2)) for m in _STAGE_NAME.finditer(source) if m.group(1) == "q"}
    # each step's row of inputs, then its instants and its values where read
    targets = ["(" + "".join(_entries(f"_u_{at}_", n) for at in ("start", "half", "end")) + ")"]
    tables = ["_inputs"]
    for free, table in (("t", "_instants"), ("p", "_values")):
        if _reads(source, free):
            targets.append(f"(_{free}_start, _{free}_half, _{free}_end)")
            tables.append(table)
    loop = (f"for _m, {targets[0]} in enumerate(_inputs):" if len(tables) == 1 else
            f"for _m, ({', '.join(targets)}) in enumerate(zip({', '.join(tables)})):")

    # a row unpack runs only when the stage's p is not the row last unpacked
    row = _ROW_UNPACK.match(source)
    body = source[row.end():] if row else source

    def stage(s, at):
        # the kernel on stage s: q{i} -> _q{s}_{i}, u{i} -> _u_{at}_{i}, t -> _t_{at}
        def rename(m):
            prefix, i, free = m.groups()
            if prefix == "u":
                return f"_u_{at}_{i}"
            return f"_{prefix}{s}_{i}" if prefix else f"_{free}_{at}"

        # (stage 3 reads the p that stage 2 has unpacked)
        unpack = (f"if _p_{at} is not _p_row:\n    {row.group(1)} = _p_row = _p_{at}\n"
                  if row and s != 3 else "")
        return textwrap.indent(unpack + _STAGE_NAME.sub(rename, body), " " * 16)

    # stage s runs the kernel at y + h k_{s-1}, k_{s-1} = (_v{s-1}_, _a{s-1}_);
    # stage 1 at y = (_q1_, _v1_) itself, which the step then advances in place
    state = _entries("_q1_", n) + _entries("_v1_", n)
    lines = [f"def bind({', '.join(names)}):",
             "    def rk4_period(_y, _dt, _inputs, _instants, _values, _append):",
             f"        {state}= _y",
             "        _half = 0.5 * _dt",
             "        _sixth = _dt / 6.0",
             "        _p_row = None",
             f"        {loop}",
             "            try:",
             stage(1, "start")]
    for s, h, at in ((2, "_half", "half"), (3, "_half", "half"), (4, "_dt", "end")):
        lines += [f"                _q{s}_{i} = _q1_{i} + {h} * _v{s - 1}_{i}"
                  for i in sorted(reads_q)]
        lines += [f"                _v{s}_{i} = _v1_{i} + {h} * _a{s - 1}_{i}" for i in range(n)]
        lines.append(stage(s, at))
    lines += ["            except ValueError:",
              "                return None, _m"]
    lines += [f"            _q1_{i} = _q1_{i} + _sixth * (((_v1_{i} + 2.0 * _v2_{i}) "
              f"+ 2.0 * _v3_{i}) + _v4_{i})" for i in range(n)]
    lines += [f"            _v1_{i} = _v1_{i} + _sixth * (((_a1_{i} + 2.0 * _a2_{i}) "
              f"+ 2.0 * _a3_{i}) + _a4_{i})" for i in range(n)]
    guard = " and ".join(f"{-_DIVERGENCE_LIMIT!r} <= {name} <= {_DIVERGENCE_LIMIT!r}"
                         for name in state.rstrip(", ").split(", "))
    lines += [f"            if not ({guard}):",  # NaN fails it too
              "                return None, _m",
              "            if _append is not None:",
              f"                _append(({state}))",
              f"        return ({state}), len(_inputs)",
              "    return rk4_period"]
    return _compile(lines, f"rk4 period, n = {n}")


def _rk4_period(kernel: Kernel, n: int):
    """The unrolled RK4 period of a dimension-n plant (``_compile_step``)
    with the kernel's constants bound."""
    return _compile_step(kernel.source, tuple(kernel.constants), n)(**kernel.constants)


def simulate(sc: Scenario, diagnostics: bool = False) -> Trace:
    """Run the scenario and return its Trace.

    Deterministic: identical scenarios produce bit-identical traces. Raises
    SimulationDiverged (with the partial trace attached) if the state blows
    up or an adaptation step drives c_hat to inf. Emits a warning when an
    adaptive-robust run is configured with a peak delay at or beyond the
    Razumikhin margin of its gain set.
    """
    sc.validate()
    plant = sc.plant
    n = plant.dim
    profile = sc.delay
    trajectory = sc.trajectory
    steps_per_control = round(sc.dt_control / sc.dt)
    n_periods = _n_periods(sc)
    n_rows = n_periods + 1
    n_fine = n_periods * steps_per_control + 1
    max_fine = _MAX_ARRAY_BYTES // (8 * (1 + 2 * n))
    if diagnostics and n_fine > max_fine:
        raise ValueError(
            f"[sim] duration = {sc.duration:g} s needs {n_fine} diagnostics rows at "
            f"dt = {sc.dt:g} s; at most {max_fine} fit")

    q0, qdot0 = sc.initial_state()
    y = tuple(q0.tolist() + qdot0.tolist())
    # an accel set on the instance (a tracer's wrapper, say) is called,
    # through the base class's call kernel
    kernel = PlantModel.kernel(plant) if "accel" in vars(plant) else plant.kernel()
    rk4_period = _rk4_period(kernel, n)
    reads_time = _reads(kernel.source, "t")
    dt = sc.dt

    stamps = np.arange(n_rows) * sc.dt_control
    # t, the six (rows, n) arrays q .. tau_applied, then c_hat, s_norm, h
    trace = Trace(stamps, *(np.zeros((n_rows, n)) for _ in range(6)),
                  *(np.zeros(n_rows) for _ in range(3)))
    controller = make_controller(sc, trace)
    fine = None
    if diagnostics:
        fine = trace.fine = FineRecord(
            np.zeros(n_fine), np.zeros((n_fine, n)), np.zeros((n_fine, n)),
            np.zeros((n_rows, n)), np.zeros((n_rows, n)))
        fine.q[0] = q0
        fine.q_dot[0] = qdot0

    periods_per_block = max(1, _BLOCK_INSTANTS // (3 * steps_per_control))
    append = None
    for k in range(n_rows):
        t_k = k * sc.dt_control
        p = k % periods_per_block
        if p == 0:
            k0, k1 = k, min(k + periods_per_block, n_rows)
            stage_t, stage_h, (index, take, weight), before, after = _plan_periods(
                profile, stamps, k0, k1, steps_per_control, dt, n)
            trace.h[k0:k1] = stage_h[:, 0, 0]
            # per period, each step's instants and the schedule's value at
            # each, where the kernel reads them
            instants = values = [None] * (k1 - k0)
            if reads_time:
                instants = stage_t.tolist()
            if kernel.schedule is not None:
                values = kernel.schedule(stage_t)
            # per period, the reference triple at its stamp
            reference = list(zip(*(x.tolist() for x in trajectory(stamps[k0:k1]))))
            rows = []  # the block's trace rows, flat, written at its end
        q, q_dot = y[:n], y[n:]
        desired = reference[p]

        rec = controller.step(t_k, q, q_dot, desired)
        trace.tau_cmd[k] = rec.tau
        if fine is not None and rec.u is not None:
            fine.cmd_u[k] = rec.u
            fine.cmd_du[k] = rec.du

        # the commands pushed so far fix the applied input of the whole
        # period: one flat row of 3n floats per step. A non-finite command
        # (the law overflowed, as for c_hat_init = 1e308) is NaN where its
        # bracket weighs it 0, silently, and ends the run below
        finite = all(map(math.isfinite, rec.tau))
        with _NO_ERRSTATE if finite else np.errstate(invalid="ignore"):
            inputs = blend(trace.tau_cmd, k + 1, index[p], take[p], weight[p], before[p],
                           after[p]).tolist()
        rows += y
        rows += desired[0]
        rows += inputs[0][:n]
        rows.append(rec.c_hat)
        rows.append(rec.s_norm)
        if not (finite and math.isfinite(rec.c_hat)):
            # the command or the adaptation overflowed (a diverging error's
            # ||s||): no input follows from it, or no law runs on this gain,
            # so the run diverges at this period
            _write_rows(trace, k0, rows)
            raise SimulationDiverged(t_k, trace.head(k + 1, k * steps_per_control + 1))
        if k == k1 - 1:
            _write_rows(trace, k0, rows)
            if k == n_rows - 1:
                break

        if fine is not None:
            states = []  # the fine grid's rows of the period, one per step
            append = states.append
        y, m = rk4_period(y, dt, inputs, instants[p], values[p], append)
        del inputs  # gone before the next period's blend lists its own
        j = k * steps_per_control + 1  # the fine row after the period's first step
        if fine is not None and m:
            block = np.array(states)
            fine.t[j:j + m] = stage_t[p, :m, 2]
            fine.q[j:j + m] = block[:, :n]
            fine.q_dot[j:j + m] = block[:, n:]
        if y is None:
            _write_rows(trace, k0, rows)
            raise SimulationDiverged(float(stage_t[p, m, 2]), trace.head(k + 1, j + m))

    return trace


def _write_rows(trace: Trace, k0: int, rows: list) -> None:
    """Write rows, the floats q, q_dot, q_desired, tau_applied (n each),
    c_hat and s_norm of one control period after another, into the trace
    from row k0 on, and their e1."""
    n = trace.n
    block = np.array(rows).reshape(-1, 4 * n + 2)
    k1 = k0 + len(block)
    for i, name in enumerate(_BLOCK_COLUMNS[:4]):
        getattr(trace, name)[k0:k1] = block[:, i * n:(i + 1) * n]
    trace.c_hat[k0:k1] = block[:, 4 * n]
    trace.s_norm[k0:k1] = block[:, 4 * n + 1]
    trace.e1[k0:k1] = trace.q_desired[k0:k1] - trace.q[k0:k1]


def trace_to_csv(trace: Trace, path) -> None:
    """Write the control-rate trace with the canonical column layout: a
    header line, then one line per row, each value in TRACE_FLOAT_FORMAT,
    as ``np.savetxt`` writes them. The rows are formatted _CSV_CHUNK_ROWS at
    a time, by one ``%`` of the repeated row format over the chunk's values,
    which bounds the text held at once."""
    columns = [("t", trace.t), ("q", trace.q), ("qd", trace.q_desired), ("e1", trace.e1),
               ("tau_cmd", trace.tau_cmd), ("tau_app", trace.tau_applied),
               ("c_hat", trace.c_hat), ("s_norm", trace.s_norm), ("h", trace.h)]
    header = []
    for name, a in columns:
        header += [name] if a.ndim == 1 else [f"{name}_{i}" for i in range(a.shape[1])]
    data = np.column_stack([a for _, a in columns])
    row = ",".join([TRACE_FLOAT_FORMAT] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(data), _CSV_CHUNK_ROWS):
            chunk = data[start:start + _CSV_CHUNK_ROWS]
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def error_dynamics_residual(trace: Trace, sc: Scenario,
                            warmup: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Check the delayed error-dynamics identity along an adaptive-robust run.

    For every interior fine-grid instant t_i the realized error acceleration
    (central difference of e1_dot) is compared against

        rhs_j(t_i) = -K2 e1_dot_j - K1 e1_j + sigma_j(t_i) - du_j

    on the command records j, interpolated at the delay lookup t_i - h(t_i)
    as the actuator interpolates its commands (``delays.interpolate``;
    sigma as in ``uncertainty_residual``). sigma is affine in the
    command-side quantities:

        rhs_j(t_i) = c_j + M_i^-1 (N_i - g_j) + qdd_d(t_i),
        c_j = u_j - qdd_d(t_j) - K2 e1_dot_j - K1 e1_j - du_j,
        g_j = Mhat(q_j) u_j + Nhat(q_j, q_dot_j),

    with M_i = M(q_i, t_i), N_i = N(q_i, q_dot_i, t_i). Because the
    interpolation weights sum to one, the interpolated rhs equals

        c(t_i - h) + M_i^-1 (N_i - g(t_i - h)) + qdd_d(t_i),

    c and g interpolated like the commands (one plan of a block's lookups
    blends both), so c and g are evaluated once per run (the nominal model
    on the stack of command states) and M_i, N_i once per block of checked
    instants (the true plant on the block's stacked states), with one
    stacked solve per block; the values agree with the per-instant
    definition to rounding. Returns (times, residual 2-norms) for all
    checked instants, skipping t < warmup and lookups before the first
    command; empty arrays where the fine grid has no interior instant (a
    run diverged in its first step, say).

    Requires a trace produced with diagnostics=True.
    """
    if trace.fine is None:
        raise ValueError("error_dynamics_residual needs a diagnostics trace")
    if not isinstance(sc.controller, ArolcConfig):
        raise ValueError("the identity applies to adaptive-robust runs")
    if not 0.0 <= warmup < math.inf:
        raise ValueError(f"warmup must be finite and nonnegative, got {warmup!r}")
    fine = trace.fine
    cfg = sc.controller
    plant = sc.plant
    times = fine.t
    if len(times) < 3:  # no interior instant
        return np.empty(0), np.empty(0)
    dt = times[1] - times[0]

    _, qd_dot_d, qd_ddot_d = sc.trajectory(times)
    e1_dot = qd_dot_d - fine.q_dot
    thetas = times - delay_at(sc.delay, times)

    cmd_t = trace.t  # every row of an adaptive-robust run is a command
    _, cmd_qd_dot, cmd_qd_ddot = sc.trajectory(cmd_t)
    e1_dot_j = cmd_qd_dot - trace.q_dot  # as the law formed it, row by row
    c = (fine.cmd_u - cmd_qd_ddot - e1_dot_j @ cfg.gains.K2.T
         - trace.e1 @ cfg.gains.K1.T - fine.cmd_du)
    g = ((plant.nominal_mass_matrix(trace.q) @ fine.cmd_u[:, :, None])[:, :, 0]
         + plant.nominal_bias_vector(trace.q, trace.q_dot))

    out_t = np.empty(len(times))
    out_r = np.empty(len(times))
    n_out = 0
    for start in range(1, len(times) - 1, _BLOCK_INSTANTS):
        i = np.arange(start, min(start + _BLOCK_INSTANTS, len(times) - 1))
        # skip the warmup and lookups before the first command
        i = i[(times[i] >= warmup) & (thetas[i] >= cmd_t[0])]
        k = len(i)
        brackets = plan(cmd_t, thetas[i], trace.n)
        c_i = blend(c, len(cmd_t), *brackets)
        g_i = blend(g, len(cmd_t), *brackets)
        t_i = times[i]
        m_i = plant.mass_matrix(fine.q[i], t_i)
        n_i = plant.bias_vector(fine.q[i], fine.q_dot[i], t_i)
        try:
            m_inv_dn = np.linalg.solve(m_i, (n_i - g_i)[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular mass matrix") from exc
        rhs = c_i + m_inv_dn + qd_ddot_d[i]
        # central difference of the realized error rate
        e1_ddot = (e1_dot[i + 1] - e1_dot[i - 1]) / (2.0 * dt)
        out_t[n_out:n_out + k] = t_i
        out_r[n_out:n_out + k] = np.linalg.norm(e1_ddot - rhs, axis=1)
        n_out += k
    return out_t[:n_out].copy(), out_r[:n_out].copy()
