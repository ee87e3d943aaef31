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
dominates the arithmetic. A planned block of control periods is one
function, unrolled for the plant's dimension, that runs the control law
and the plant's forward dynamics inline: each closed-form plant states its
M, N and solve once, as source, and its kernel is the three together
(``plants.Kernel``); each controller states its period as source too, its
law (``controllers.Law``). ``_compile_block`` splices the law at the start
of each period, then, after the period's blend, the plant's kernel at each
of the four stages of each RK4 step, with one local per entry, the state
and the law's state (the adaptive gain, the last sliding variable and its
time) kept in locals from period to period and from block to block, and
the divergence guard inline, chained comparisons that NaN fails (a stage
that raises ValueError, as math's cos of an overflowed position does,
diverges too); the block returns where it stopped. A block whose stage
instants all share one value of the schedule (``plants.Kernel.shared``:
the robot's blocks but those through a payload switch) unpacks it once
and runs steps that read no per-stage values; in the others, a kernel
whose first line unpacks the schedule's row (a plant's _ROW) runs that
line at a stage only when the stage's value is not the row it last
unpacked. A kernel names the input's entries u0, u1, ... as
it names q0 and v0, and it gets the stage instants only when it reads t. A
plant's kernel branches on no constant: each ``if <constant>:`` block of
its strings is resolved when the kernel is built (``plants._fold``), so a
plant without a disturbance leaves its disturbance lines out, and an
undisturbed run builds no instants for its steps. The block compiles once
per (kernel, law, n), on the first run, through the compile helper
(``_codegen``) that also builds the plants' faces and the laws; a run
binds the plant's and the law's constants and the law's starting state
into the compiled block.

The adaptive-robust law is spliced whole, with the nominal model's
``torque`` face spliced into it (``controllers.ArolcController.kernel``);
the predictor's law calls its trapezoid table directly, and the zero law
assigns zeros. What the law checks every period on its own holds for a
whole run here, so it is checked once: the control period is positive
(``Scenario.validate``), c_hat starts finite and at least gamma (the
config, and the law's clamp after), time advances and the sliding
variable keeps n entries (the block's own periods). A step thus calls no
``accel`` and a period no law function, except where the run is
instrumented: where the plant has no kernel or an ``accel`` is set on the
instance (a tracer's wrapper, say), the kernel is the call to that
``accel``; where ``controllers.arolc_step`` or ``pcon_step`` is replaced
by a wrapper, the law is the call to the controller's step, which calls
it once per period (``controllers._call_law``). This is exact, not an
approximation: IEEE rounding of +, -, * and / on floats is the rounding
numpy's elementwise ufuncs apply, and the step keeps the operation order of
the ndarray expression, so the traces are bit-identical to an ndarray
integrator; the spliced law runs the statements of ``arolc_step`` and
``pcon_step``. The control period stays on floats too: the law reads q and
q_dot as the block's locals and the reference as lists of floats
(evaluated once per block of periods, the trajectory called on the block's
stamps). Arrays begin at the trace: its rows (collected as one flat list
of floats and written once per block, tau_cmd once per period through a
flat view of its rows), the planned lookups and the diagnostics fine grid
and per-command records (each collected as one flat list per block and
written once per block).

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

import functools
import math
import re
import textwrap
from dataclasses import dataclass, field, fields

import numpy as np

from ._checks import require
from ._codegen import _compile, _entries, _names, _rename
from .controllers import _LAW_IO, ArolcConfig, Law, PconConfig, make_controller
from .delays import DelayProfile, blend, delay_at, plan
from .plants import _KERNEL_IO, Kernel, PlantModel

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


# A kernel's first line where it unpacks p alone (a plant's _ROW)
_ROW_UNPACK = re.compile(r"\A([\w, ]+) = p\n")


def _law_local(name: str) -> str:
    """A law's name in the block: the block's own for the names the two
    share (``controllers._LAW_IO``), the state's entries those of the
    block's first stage; _law_ and the name for the law's constants and
    temporaries."""
    shared = _LAW_IO.fullmatch(name)
    if shared is None:
        return "_law_" + name
    prefix, i = shared.groups()
    if prefix is None:
        return {"t": "_t_k", "k": "_k"}.get(name, "_" + name)
    return {"q": "_q1_", "v": "_v1_"}.get(prefix, "_" + prefix) + i


@functools.cache
def _compile_block(source: str, names: tuple, law: str, law_names: tuple, carried: tuple,
                   auxiliary: bool, n: int):
    """A block of control periods of a dimension-n plant whose kernel is
    source (``plants.Kernel``) under the law law (``controllers.Law``, its
    constants law_names, its state's names carried and whether it is
    auxiliary), unrolled: compiled from source once per (kernel, law, n), as
    ``dataclasses`` builds its methods. Returns the function of the kernel's
    constants names, the law's (each named by ``_law_local``), its state's
    values at the run's start (named alike), and _blend, _errstate and
    _inf, that binds them into the block.

    The block, ``block(y, k0, stop, dt_control, dt, tau_cmd, plans,
    reference, instants, values, shared, rows, fine, cmd)``, runs control
    periods k0, k0 + 1, ... from the 2n floats y = (q, q_dot), one per entry
    of plans, keeping the state and the law's state in locals. Period k runs
    the law at t_k = k dt_control on the state and reference[k - k0] (the
    triple (qd, qd_dot, qd_ddot) of lists), writes the command to tau_cmd
    row k (through a flat view of its rows), and blends the applied input of
    the period (``delays.blend`` on tau_cmd rows 0..k and the plan's (index,
    take, weight, before, after)), one flat row of 3n floats per RK4 step:
    its input at t, t + dt/2 and t + dt. It extends rows by the trace row
    (q, q_dot, qd, the input at t_k, c_hat, s_norm) and cmd, unless None, by
    the law's u and du, then, unless k is stop (the run's last row), runs
    one RK4 step per row of the input at step i's instants (instants[k -
    k0][i], read only where the kernel reads t) and schedule values
    (values[k - k0][i], read only where it reads p; where shared is not
    None, the one value of every stage of the block, and values is not
    read), extending fine, unless None, by the state after each step.

    Returns (y, j, m): the state after the block and the last period's
    offset j from k0 and its m steps. A period whose command or c_hat is not
    finite ends the block with y None and m = -1, after its row (its
    applied input blended where NaN reads as 0 without a warning); a step
    that diverges ends it with y None and m the index of that step: an
    entry of its new state is not within +-_DIVERGENCE_LIMIT (NaN
    included), or a stage raises ValueError, as math's cos and sin do on
    the infinite position of an overflowing stage.

    The step runs the kernel once per stage, on stage names of its own; a
    first kernel line that only unpacks p (``plants.Kernel``) runs where
    the stage's p is not the object the block last unpacked. Each entry is
    rounded as the ndarray expressions y + (dt / 2) k1, y + (dt / 2) k2, y +
    dt k3 and y + (dt / 6) (((k1 + 2 k2) + 2 k3) + k4) round it, with k_s =
    (q_dot, qdd) at stage s. The stage positions that the kernel never
    reads are left out.
    """
    read = _names(source)
    reads_q = {int(name[1:]) for name in read if name[0] == "q" and _KERNEL_IO.fullmatch(name)}
    reads_t, reads_p = "t" in read, "p" in read
    # a row unpack runs only when the stage's p is not the row last unpacked
    row = _ROW_UNPACK.match(source)
    body = source[row.end():] if row else source

    def stage(s, at, indent, unpacks):
        # the kernel on stage s: q{i} -> _q{s}_{i}, u{i} -> _u_{at}_{i}, t -> _t_{at}
        def rename(name):
            io = _KERNEL_IO.fullmatch(name)
            if io is None:
                return name
            prefix, i = io.groups()
            if prefix == "u":
                return f"_u_{at}_{i}"
            return f"_{prefix}{s}_{i}" if prefix else f"_{name}_{at}"

        # (stage 3 reads the p that stage 2 has unpacked)
        unpack = (f"if _p_{at} is not _p_row:\n    {row.group(1)} = _p_row = _p_{at}\n"
                  if row and unpacks and s != 3 else "")
        return textwrap.indent(unpack + _rename(body, rename), " " * indent)

    def steps(indent, values):
        # the period's RK4 steps: each step's row of inputs, then its
        # instants and, from values (a period's per-stage values), its
        # schedule values, where the kernel reads them; without values, the
        # stages read the block's shared value, unpacked at its start
        targets = ["(" + "".join(_entries(f"_u_{at}_", n) for at in ("start", "half", "end"))
                   + ")"]
        tables = ["_inputs"]
        if reads_t:
            targets.append("(_t_start, _t_half, _t_end)")
            tables.append("_period_instants")
        if values is not None:
            targets.append("(_p_start, _p_half, _p_end)")
            tables.append(values)
        pad = " " * indent
        lines = [pad + (f"for _m, {targets[0]} in enumerate(_inputs):" if len(tables) == 1 else
                        f"for _m, ({', '.join(targets)}) in enumerate(zip({', '.join(tables)})):"),
                 pad + "    try:",
                 stage(1, "start", indent + 8, values is not None)]
        for s, h, at in ((2, "_half", "half"), (3, "_half", "half"), (4, "_dt", "end")):
            lines += [f"{pad}        _q{s}_{i} = _q1_{i} + {h} * _v{s - 1}_{i}"
                      for i in sorted(reads_q)]
            lines += [f"{pad}        _v{s}_{i} = _v1_{i} + {h} * _a{s - 1}_{i}" for i in range(n)]
            lines.append(stage(s, at, indent + 8, values is not None))
        lines += [pad + "    except ValueError:",
                  pad + "        return None, _k - _k0, _m"]
        lines += [f"{pad}    _q1_{i} = _q1_{i} + _sixth * (((_v1_{i} + 2.0 * _v2_{i}) "
                  f"+ 2.0 * _v3_{i}) + _v4_{i})" for i in range(n)]
        lines += [f"{pad}    _v1_{i} = _v1_{i} + _sixth * (((_a1_{i} + 2.0 * _a2_{i}) "
                  f"+ 2.0 * _a3_{i}) + _a4_{i})" for i in range(n)]
        guard = " and ".join(f"{-_DIVERGENCE_LIMIT!r} <= {name} <= {_DIVERGENCE_LIMIT!r}"
                             for name in state.rstrip(", ").split(", "))
        return lines + [f"{pad}    if not ({guard}):",  # NaN fails it too
                        pad + "        return None, _k - _k0, _m",
                        pad + "    if _fine is not None:",
                        f"{pad}        _fine += ({state})"]

    state = _entries("_q1_", n) + _entries("_v1_", n)
    tau, u, du = (_entries(f"_{prefix}", n) for prefix in ("tau", "u", "du"))
    law_state = [_law_local(name) for name in carried]
    finite = " and ".join(f"-_inf < _tau{i} < _inf" for i in range(n))
    blend = "_blend(_tau_cmd, _k + 1, _index, _take, _weight, _before, _after).tolist()"
    periods = ["_reference", "_plans"] + ["_instants"] * reads_t
    period_targets = ", ".join(["_desired", "(_index, _take, _weight, _before, _after)"]
                               + ["_period_instants"] * reads_t)
    lines = [f"def bind({', '.join([*names, *map(_law_local, law_names), *law_state])}, "
             "_blend, _errstate, _inf):",
             "    def block(_y, _k0, _stop, _dt_control, _dt, _tau_cmd, _plans, _reference, "
             "_instants, _values, _shared, _rows, _fine, _cmd):"]
    if law_state:
        lines.append(f"        nonlocal {', '.join(law_state)}")
    lines += [f"        {state}= _y",
              "        _commands = memoryview(_tau_cmd).cast('B').cast('d')  # its rows, flat",
              "        _half = 0.5 * _dt",
              "        _sixth = _dt / 6.0",
              "        _p_row = None"]
    if reads_p:
        lines += ["        if _shared is not None:",
                  "            _p_start = _p_half = _p_end = _shared"]
        if row:
            lines.append(f"            {row.group(1)} = _p_row = _shared")
    lines += ["        _k = _k0 - 1",
              f"        for {period_targets} in zip({', '.join(periods)}):",
              "            _k += 1",
              "            _t_k = _k * _dt_control",
              textwrap.indent(_rename(law, _law_local), " " * 12).rstrip("\n"),
              f"            _at = _k * {n}",
              *(f"            _commands[_at + {i}] = _tau{i}" for i in range(n))]
    if auxiliary:
        lines += ["            if _cmd is not None:",
                  f"                _cmd += ({u}{du})"]
    # a non-finite command (the law overflowed, as for c_hat_init = 1e308)
    # is NaN where its bracket weighs it 0, silently, and ends the run
    lines += [f"            if {finite}:",
              f"                _inputs = {blend}",
              "                _ok = -_inf < _c_hat < _inf",
              "            else:",
              "                with _errstate(invalid='ignore'):",
              f"                    _inputs = {blend}",
              "                _ok = False",
              f"            {_entries('_qd', n)}= _desired[0]",
              f"            {_entries('_applied', n)}= _inputs[0][:{n}]",
              f"            _rows += ({state}{_entries('_qd', n)}{_entries('_applied', n)}"
              "_c_hat, _s_norm)",
              "            if not _ok:",
              "                return None, _k - _k0, -1",
              "            if _k == _stop:",
              f"                return ({state}), _k - _k0, 0"]
    if reads_p:
        lines += ["            if _shared is None:",
                  *steps(16, "_values[_k - _k0]"),
                  "            else:",
                  *steps(16, None)]
    else:
        lines += steps(12, None)
    lines += [f"        return ({state}), _k - _k0, len(_inputs)",
              "    return block"]
    return _compile(lines, f"block of control periods, n = {n}")


def _bind_block(kernel: Kernel, law: Law, n: int, blend=blend):
    """The block of control periods of a dimension-n plant whose kernel is
    kernel under law (``_compile_block``), with their constants, the law's
    state at the run's start and blend bound."""
    bind = _compile_block(kernel.source, tuple(kernel.constants), law.source,
                          tuple(law.constants), tuple(law.state), law.auxiliary, n)
    return bind(**kernel.constants,
                **{_law_local(name): value for name, value in law.constants.items()},
                **{_law_local(name): value for name, value in law.state.items()},
                _blend=blend, _errstate=np.errstate, _inf=math.inf)


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
    reads_time = "t" in _names(kernel.source)
    dt = sc.dt

    stamps = np.arange(n_rows) * sc.dt_control
    # t, the six (rows, n) arrays q .. tau_applied, then c_hat, s_norm, h
    trace = Trace(stamps, *(np.zeros((n_rows, n)) for _ in range(6)),
                  *(np.zeros(n_rows) for _ in range(3)))
    law = make_controller(sc, trace).kernel()
    block = _bind_block(kernel, law, n)
    fine = fine_rows = cmd = None
    if diagnostics:
        fine = trace.fine = FineRecord(
            np.zeros(n_fine), np.zeros((n_fine, n)), np.zeros((n_fine, n)),
            np.zeros((n_rows, n)), np.zeros((n_rows, n)))
        fine.q[0] = q0
        fine.q_dot[0] = qdot0

    periods_per_block = max(1, _BLOCK_INSTANTS // (3 * steps_per_control))
    for k0 in range(0, n_rows, periods_per_block):
        k1 = min(k0 + periods_per_block, n_rows)
        stage_t, stage_h, (index, take, weight), before, after = _plan_periods(
            profile, stamps, k0, k1, steps_per_control, dt, n)
        trace.h[k0:k1] = stage_h[:, 0, 0]
        # per period, each step's instants and the schedule's value at each,
        # where the kernel reads them; the schedule's one value instead,
        # where every instant of the block shares it
        instants = stage_t.tolist() if reads_time else None
        shared = values = None
        if kernel.schedule is not None:
            shared = kernel.shared(stage_t) if kernel.shared is not None else None
            if shared is None:
                values = kernel.schedule(stage_t)
        # per period, the reference triple at its stamp
        reference = list(zip(*(x.tolist() for x in trajectory(stamps[k0:k1]))))
        rows = []  # the block's trace rows, flat, written at its end
        if fine is not None:
            fine_rows, cmd = [], [] if law.auxiliary else None
        y, j, m = block(y, k0, n_rows - 1, sc.dt_control, dt, trace.tau_cmd,
                        list(zip(index, take, weight, before, after)), reference, instants,
                        values, shared, rows, fine_rows, cmd)
        _write_rows(trace, k0, rows)
        if fine is not None:
            _write_fine(fine, k0 * steps_per_control + 1, stage_t, fine_rows, cmd, k0)
        if y is None:
            k = k0 + j
            if m < 0:
                # the command or the adaptation overflowed (a diverging
                # error's ||s||): no input follows from it, or no law runs
                # on this gain, so the run diverges at this period
                raise SimulationDiverged(k * sc.dt_control,
                                         trace.head(k + 1, k * steps_per_control + 1))
            raise SimulationDiverged(float(stage_t[j, m, 2]),
                                     trace.head(k + 1, k * steps_per_control + 1 + m))
    return trace


def _write_fine(fine: FineRecord, start: int, stage_t: np.ndarray, states: list,
                cmd: list | None, k0: int) -> None:
    """Write a block's fine grid, states (the 2n floats q, q_dot after each
    of its steps, one step after another), into fine from row start on,
    each row's t the end instant of its step in stage_t; and cmd (u and du
    of one period after another, n each), unless None, into the per-command
    records from row k0 on."""
    n = fine.q.shape[1]
    block = np.array(states).reshape(-1, 2 * n)
    end = start + len(block)
    fine.t[start:end] = stage_t[:, :, 2].ravel()[:len(block)]
    fine.q[start:end] = block[:, :n]
    fine.q_dot[start:end] = block[:, n:]
    if cmd is not None:
        block = np.array(cmd).reshape(-1, 2 * n)
        fine.cmd_u[k0:k0 + len(block)] = block[:, :n]
        fine.cmd_du[k0:k0 + len(block)] = block[:, n:]


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
