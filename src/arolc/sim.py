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
there and the lookup instants t - h are all known before the run starts.
``simulate`` therefore plans the stage instants and lookups of a block of
control periods at once (``delays.plan`` against the stamps of the whole
run), and once per period blends the commands pushed so far
(``delays.blend`` on the tau_cmd rows 0..k) into the applied input of the
coming period; each step reads its instants and its inputs from these
rows. This is exact: every stage gets, bit for bit, the value
``delays.interpolate`` on the pushed commands returns at its own instant.

Between control instants the integrator state is a plain list of 2n Python
floats, (q, q_dot), and every plant's ``accel`` is a float closed form
returning a list: for vectors of 2 to 12 entries per-call numpy overhead
dominates the arithmetic. This is exact, not an approximation: IEEE
rounding of +, -, * and / on floats is the rounding numpy's elementwise
ufuncs apply, and ``_rk4_step`` keeps the operation order of the ndarray
expression, so the traces are bit-identical to an ndarray integrator.
Arrays begin at the control-rate boundary: the controller step, the trace
rows and the diagnostics fine grid read the state as ndarrays.

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

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .controllers import ArolcConfig, PconConfig, make_controller
from .delays import DelayProfile, Plan, blend, delay_at, plan
from .plants import PlantModel

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
# the plan of the period's block (stage instants, delays, brackets and
# weights, 15 + 6n words per RK4 step, plus their temporaries while it is
# built), the blended table (3n float64) and the nested-list copies the
# stages read, of the table (32 + 12n words) and of the stage instants (20
# words); tracemalloc measures a peak of 67 + 21n words per RK4 step while
# a period is stepped (5e4 steps per period, n = 1, 2, 3).
_MAX_ARRAY_BYTES = 1 << 28
# Instants per block: of error_dynamics_residual's fine grid, and of the RK4
# stage instants simulate plans at once (whole control periods, one at
# least). Blocks bound their temporaries: over the whole grid at once, a 2 s
# two-link residual at dt = 1e-4 peaks about 2.7 MB higher in resident memory.
_BLOCK_INSTANTS = 2048


class SimulationDiverged(RuntimeError):
    """Raised when the state leaves the finite range; carries the failure
    time and the trace accumulated so far."""

    def __init__(self, time: float, partial_trace: "Trace"):
        super().__init__(f"simulation diverged at t = {time:.6g} s")
        self.time = time
        self.partial_trace = partial_trace


@dataclass
class Scenario:
    """Everything needed for one closed-loop run."""

    plant: PlantModel
    trajectory: object
    delay: DelayProfile = field(default_factory=lambda: DelayProfile("none"))
    controller: ArolcConfig | PconConfig | None = None  # None: zero torque
    duration: float = 10.0
    dt: float = 1e-4
    dt_control: float = 1e-2
    q0: np.ndarray | None = None
    qdot0: np.ndarray | None = None
    label: str = ""

    def validate(self) -> None:
        for name in ("duration", "dt", "dt_control"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.dt > self.dt_control + 1e-15:
            raise ValueError("dt must not exceed dt_control")
        steps = round(self.dt_control / self.dt)
        if steps < 1 or abs(steps * self.dt - self.dt_control) > 1e-9 * self.dt_control:
            raise ValueError("dt_control must be an integer multiple of dt")
        periods = _n_periods(self)
        if abs(periods * self.dt_control - self.duration) > 1e-9 * self.duration:
            raise ValueError("duration must be an integer multiple of dt_control")
        n = self.plant.dim
        rows, max_rows = periods + 1, _MAX_ARRAY_BYTES // (8 * (4 + 6 * n))
        if rows > max_rows:
            raise ValueError(
                f"duration = {self.duration:g} s needs {rows} trace rows at "
                f"control_dt = {self.dt_control:g} s; at most {max_rows} fit")
        max_steps = _MAX_ARRAY_BYTES // (8 * (67 + 21 * n))
        if steps > max_steps:
            raise ValueError(
                f"dt = {self.dt:g} s gives {steps} RK4 steps per control "
                f"period; at most {max_steps} fit")
        # the default q0 is the trajectory's start, so its dimension comes first
        if self.trajectory.dim != n:
            raise ValueError(f"trajectory must have {n} coordinates, one per plant "
                             f"coordinate, got {self.trajectory.dim}")
        cfg = self.controller
        if not isinstance(cfg, (ArolcConfig, PconConfig, type(None))):
            raise ValueError(f"controller must be an ArolcConfig, a PconConfig or "
                             f"None, got {type(cfg).__name__}")
        if cfg is not None:
            name, gain = (("gains", cfg.K1) if isinstance(cfg, ArolcConfig)
                          else ("vartheta", cfg.vartheta))
            if gain.shape != (n, n):
                raise ValueError(f"controller {name} must have shape ({n}, {n}), one row "
                                 f"per plant coordinate, got {gain.shape}")
        for name, value in zip(("q0", "qdot0"), self.initial_state()):
            if value.shape != (n,):
                raise ValueError(f"{name} must have {n} entries, one per plant "
                                 f"coordinate, got shape {value.shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")

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


def _n_periods(sc: Scenario) -> int:
    return round(sc.duration / sc.dt_control)


def _plan_periods(profile, stamps, k0, k1, steps, dt, n):
    """The applied-input lookups of control periods k0 .. k1 - 1 against the
    command stamps of the whole run. Returns the stage instants, shape
    (k1 - k0, steps, 3): t, t + dt/2 and t + dt of the RK4 steps
    t = t_k + i dt, which _rk4_step evaluates the plant at; h at those
    instants; one Plan per period; and per period whether any lookup falls
    before the first command, and whether any falls at or after the
    period's own command (the flags of ``blend``). Commands have n entries."""
    t = stamps[k0:k1, None] + np.arange(steps) * dt
    t = np.stack([t, t + 0.5 * dt, t + dt], axis=-1)
    h = delay_at(profile, t)
    brackets = plan(stamps, t - h, n)
    index = brackets.index.reshape(k1 - k0, -1)
    before = (index == 0).any(axis=1).tolist()
    after = (index > np.arange(k0, k1)[:, None]).any(axis=1).tolist()
    return t, h, [Plan(*rows) for rows in zip(*brackets)], before, after


def _rk4_step(rhs, instants, y, dt, inputs):
    """One classical RK4 step of the float list y over the stage instants
    (t, t + dt/2, t + dt); inputs holds the applied input at each. Each
    component is rounded as the ndarray expression
    y + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4) rounds it."""
    t0, t_half, t1 = instants
    u0, u_half, u1 = inputs
    half = 0.5 * dt
    k1 = rhs(t0, y, u0)
    k2 = rhs(t_half, [a + half * k for a, k in zip(y, k1)], u_half)
    k3 = rhs(t_half, [a + half * k for a, k in zip(y, k2)], u_half)
    k4 = rhs(t1, [a + dt * k for a, k in zip(y, k3)], u1)
    sixth = dt / 6.0
    return [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def simulate(sc: Scenario, diagnostics: bool = False) -> Trace:
    """Run the scenario and return its Trace.

    Deterministic: identical scenarios produce bit-identical traces. Raises
    SimulationDiverged (with the partial trace attached) if the state blows
    up. Emits a warning when an adaptive-robust run is configured with a
    peak delay at or beyond the Razumikhin margin of its gain set.
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

    q, q_dot = sc.initial_state()
    y = q.tolist() + q_dot.tolist()

    accel = plant.accel  # as bound on the instance, wrappers included

    def rhs(t, yy, tau):
        qq = yy[:n]
        qq_dot = yy[n:]
        return qq_dot + accel(qq, qq_dot, tau, t)

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
        fine.q[0] = q
        fine.q_dot[0] = q_dot

    periods_per_block = max(1, _BLOCK_INSTANTS // (3 * steps_per_control))
    for k in range(n_rows):
        t_k = k * sc.dt_control
        p = k % periods_per_block
        if p == 0:
            k1 = min(k + periods_per_block, n_rows)
            stage_t, stage_h, plans, before, after = _plan_periods(
                profile, stamps, k, k1, steps_per_control, sc.dt, n)
            trace.h[k:k1] = stage_h[:, 0, 0]
        qq = np.array(y[:n])
        qq_dot = np.array(y[n:])
        desired = trajectory(t_k)

        rec = controller.step(t_k, qq, qq_dot, desired)
        trace.tau_cmd[k] = rec.tau
        if fine is not None and rec.u is not None:
            fine.cmd_u[k] = rec.u
            fine.cmd_du[k] = rec.du

        # the commands pushed so far fix the applied input of the whole period
        stage_tau = blend(trace.tau_cmd, k + 1, plans[p], before[p], after[p])
        trace.q[k] = qq
        trace.q_dot[k] = qq_dot
        trace.q_desired[k] = desired[0]
        trace.e1[k] = np.asarray(desired[0], float) - qq
        trace.tau_applied[k] = stage_tau[0, 0]
        trace.c_hat[k] = rec.c_hat
        trace.s_norm[k] = rec.s_norm

        if k == n_rows - 1:
            break

        j = k * steps_per_control  # the fine row of the step's start
        for instants, inputs in zip(stage_t[p].tolist(), stage_tau.tolist()):
            y = _rk4_step(rhs, instants, y, sc.dt, inputs)
            j += 1
            if not all(abs(v) <= _DIVERGENCE_LIMIT for v in y):  # NaN fails it too
                raise SimulationDiverged(instants[2], trace.head(k + 1, j))
            if fine is not None:
                fine.t[j] = instants[2]
                fine.q[j] = y[:n]
                fine.q_dot[j] = y[n:]

    return trace


def trace_to_csv(trace: Trace, path) -> None:
    """Write the control-rate trace with the canonical column layout."""
    columns = [("t", trace.t), ("q", trace.q), ("qd", trace.q_desired), ("e1", trace.e1),
               ("tau_cmd", trace.tau_cmd), ("tau_app", trace.tau_applied),
               ("c_hat", trace.c_hat), ("s_norm", trace.s_norm), ("h", trace.h)]
    header = []
    for name, a in columns:
        header += [name] if a.ndim == 1 else [f"{name}_{i}" for i in range(a.shape[1])]
    data = np.column_stack([a for _, a in columns])
    np.savetxt(path, data, fmt=TRACE_FLOAT_FORMAT, delimiter=",",
               header=",".join(header), comments="")


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
    command.

    Requires a trace produced with diagnostics=True and a trajectory that
    accepts an array of times.
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
    dt = times[1] - times[0]

    _, qd_dot_d, qd_ddot_d = sc.trajectory(times)
    e1_dot = qd_dot_d - fine.q_dot
    thetas = times - delay_at(sc.delay, times)

    cmd_t = trace.t  # every row of an adaptive-robust run is a command
    _, cmd_qd_dot, cmd_qd_ddot = sc.trajectory(cmd_t)
    e1_dot_j = cmd_qd_dot - trace.q_dot  # as the law formed it, row by row
    c = (fine.cmd_u - cmd_qd_ddot - e1_dot_j @ cfg.K2.T
         - trace.e1 @ cfg.K1.T - fine.cmd_du)
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
        c_i = blend(c, len(cmd_t), brackets)
        g_i = blend(g, len(cmd_t), brackets)
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
