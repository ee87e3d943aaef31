"""Discrete-time control-step implementations.

Two controllers are provided:

* AROLC, the adaptive-robust outer-loop law. The commanded torque is
  tau = Mhat(q) u + Nhat(q, q_dot) with auxiliary input u = u_hat + du:
  a nominal part u_hat = qdd_d + K2 e1_dot + K1 e1 and a switching part du
  whose magnitude alpha * c_hat adapts online from the sliding variable
  s = B^T P e. No knowledge of the delay or of uncertainty bounds is used.

* PCON, a predictor-style baseline. It filters the tracking error with the
  integral of the recent input history over the delay window,
  rho = e1_dot + kappa e1 - vartheta * integral(tau, t-h..t), tau = k_b rho,
  and therefore needs the delay (or an estimate of it) to be supplied:
  PconConfig.h_estimate = None tells it the true delay h(t), a number fixes
  the window (the pconf variant, spelled [controller] kind = pconf in
  scenario files). Its input history is the trace's tau_cmd rows so far.

make_controller(scenario, trace) builds the object of scenario.controller's
type (ArolcConfig, PconConfig, or None for zero torque), along trace's
rows, with two methods: step(t, q, q_dot, desired) -> StepRecord, one
control period, and kernel() -> Law, the run's law as source, which the
simulator splices into its block of control periods (``arolc.sim``) as it
splices a plant's kernel. The objects hold state; arolc_step (the law,
then its adaptation step) and pcon_step stay module functions, each law's
one entry point. Where one of them is replaced on this module by a wrapper
(a tracer's span), kernel() is the call to step, which calls the wrapper
once per period (``_call_law``).

The control period runs on Python floats: step takes q, q_dot and the
reference triple (qd, qd_dot, qd_ddot) as length-n sequences of floats and
returns the torque as a list of floats. For vectors of 2 to 12 entries
per-call numpy overhead dominates the arithmetic, so each law is float
code over the gain rows its config holds, generated for the plant's
dimension n and compiled once per n, as the simulator compiles its block
of control periods: every row product unrolled and summed left to right,
one local per entry. The adaptive-robust law's statements are
``_law_lines``: compiled with their checks as arolc_step (``_compile_law``;
the first step on a config binds the config's rows into it), and without
them, the nominal model's torque spliced in, as the Law of a run
(``ArolcController.kernel``), whose checks hold for the whole run and are
made once. Both compiled laws unpack their inputs in the same lines
(``_unpack_inputs``).

The predictor's step is compiled the same way (``_compile_window``), around
a trapezoid table that each PconController fills for its run; its Law
calls that table directly. The window
integral is a sum of trapezoids between knots: the window's start, the
stamps inside it, and t. Only two of them change from
one period to the next: the first, which starts at the blended value at
t - h, and the last, which ends at the held last command at t. Every inner
one, 0.5 (t_{g+1} - t_g) (v_g + v_{g+1}), is a fixed number once command
g + 1 exists, so the table adds it once, when that command lands, and
drops rows that fall out of reach of the window (keeping at most the window
plus 2 * _SLACK rows). A period then sums 0.0, the first trapezoid, the
table's terms for the window and the last one, left to right per entry,
as ``delays._trapezoids`` sums them: e_z is ``delays.integrate``'s bit for
bit, and the step calls ``integrate`` itself where the table does not serve
(a non-finite total among those cases). pcon_step runs the table it is
handed, or a fresh one for a single call.

GainSet, ArolcConfig and PconConfig compare and hash by value over their
fields, arrays included, and pickle and copy rebuild them through
__init__ (``stability._ValueEquality``); what a config caches (its rows,
the bound law, the gains' error system) takes no part in either. Their
scalars' range checks are ``_checks.require``'s.

The switching law uses a boundary layer of width epsilon: outside it the
robust term has constant magnitude alpha * c_hat along s/||s||, inside it
the term is linear in s, which keeps du continuous and avoids chattering.

The adaptive gain c_hat integrates
    +||s||  while c_hat > gamma and s . s_dot > 0   (error growing)
    -||s||  while c_hat > gamma and s . s_dot <= 0  (error shrinking)
    +gamma  while c_hat <= gamma                    (floor recovery)
by explicit Euler at the control period, clamped below at gamma. s_dot is
estimated by a backward difference of consecutive sliding variables; the
first step, having no history, takes the decrease branch so the gain never
grows on estimator startup transients.
"""

from __future__ import annotations

import functools
import math
import re
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._checks import require
from ._codegen import _compile, _entries, _rename, _sum
from .delays import integrate, max_delay
from .linalg import symmetrize
from .plants import _TORQUE_IO
from .stability import (GainSet, _ValueEquality, build_error_system, check_feasibility,
                        delay_margin)

__all__ = [
    "ArolcConfig",
    "ArolcState",
    "StepRecord",
    "Law",
    "PconConfig",
    "arolc_step",
    "pcon_step",
    "ArolcController",
    "PconController",
    "ZeroController",
    "make_controller",
    "uncertainty_residual",
]


@dataclass(frozen=True, eq=False)
class ArolcConfig(_ValueEquality):
    """Gain set and scalars of the adaptive-robust controller.

    rows holds the rows of B^T P (P and B of the gains' error system), K2
    and K1 as lists of floats, set once from gains; the law reads them.
    The first arolc_step on a config binds them into the compiled law and
    stores it on the config. Configs compare and hash by value
    (``_ValueEquality``), the rows and the law left out.
    """

    gains: GainSet
    alpha: float = 2.0
    epsilon: float = 0.1
    gamma: float = 1e-3
    c_hat_init: float = 1e-3
    switching: bool = True  # diagnostic switch; False disables du entirely
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.gains, GainSet):
            raise ValueError(f"gains must be a GainSet, got {type(self.gains).__name__}")
        if not isinstance(self.switching, bool):
            raise ValueError(f"switching must be a bool, got {self.switching!r}")
        require("positive", alpha=self.alpha, epsilon=self.epsilon, gamma=self.gamma)
        if not self.gamma <= self.c_hat_init < math.inf:
            raise ValueError("c_hat_init must be finite and at least gamma")
        system = build_error_system(self.gains)
        object.__setattr__(self, "rows", ((system.B.T @ system.P).tolist(),
                                          self.gains.K2.tolist(), self.gains.K1.tolist()))

    def initial_state(self) -> "ArolcState":
        return ArolcState(c_hat=self.c_hat_init)


class ArolcState(NamedTuple):
    """Adaptive gain plus the memory used to estimate sign(s . s_dot); a
    tuple, which the law builds once per period in a fraction of a frozen
    dataclass's time."""

    c_hat: float
    s_prev: list[float] | None = None
    t_prev: float = -math.inf


class StepRecord(NamedTuple):
    """One control step of any controller.

    Every controller fills tau, c_hat and s_norm (zero where the law has no
    such quantity). The adaptive-robust law also reports the auxiliary input
    u = u_hat + du, its switching part du and its new state; the simulator
    diagnostics record u and du. Vectors are lists of floats.
    """

    tau: list[float]
    c_hat: float = 0.0
    s_norm: float = 0.0
    u: list[float] | None = None
    du: list[float] | None = None
    state: ArolcState | None = None


class Law(NamedTuple):
    """One control period of a controller, as source, which the simulator
    splices into its block of control periods (``arolc.sim``) as it splices
    a plant's ``plants.Kernel``.

    source is statements over the period's instant t, its row k, the state
    entries q0, q1, ..., and v0, v1, ... (floats) and desired, the reference
    triple (qd, qd_dot, qd_ddot) of lists; they assign the command's
    entries tau0, tau1, ..., the trace's c_hat and s_norm and, where
    auxiliary, the law's auxiliary input u0, u1, ... and its switching part
    du0, du1, ... (the names ``_LAW_IO`` matches). Every other name is a
    constant (the entry of constants of that name, bound once per run) or
    one of the law's temporaries; state
    holds the names that carry from one period to the next, with their
    values at the run's start. The statements hold no string literal.
    """

    source: str
    constants: dict
    state: dict
    auxiliary: bool = False


# The names a Law's source shares with the block it is spliced into: the
# state's entries, the command, the auxiliary input and its switching part,
# the period's instant and row, the reference, c_hat and s_norm
_LAW_IO = re.compile(r"(q|v|tau|u|du)(\d+)|t|k|desired|c_hat|s_norm")


def _call_law(step, n: int, auxiliary: bool) -> Law:
    """The law that calls a controller's step once per period, which looks
    up arolc_step and pcon_step where it runs them: the path of a run whose
    law is wrapped (a tracer's span, say)."""
    tau, q, v, u, du = (_entries(prefix, n) for prefix in ("tau", "q", "v", "u", "du"))
    source = (f"rec = step(t, ({q}), ({v}), desired)\n{tau}= rec.tau\n"
              "c_hat = rec.c_hat\ns_norm = rec.s_norm\n")
    if auxiliary:
        source += f"{u}= rec.u\n{du}= rec.du\n"
    return Law(source, {"step": step}, {}, auxiliary)


def arolc_step(state: ArolcState, q, q_dot, desired, torque, t, dt,
               cfg) -> StepRecord:
    """The adaptive-robust torque at the current gain, then one adaptation
    step of length dt (the control period), run as the law compiled for the
    plant's dimension (``_compile_law``, which states the law's order).
    desired is the triple (qd, qd_dot, qd_ddot); torque(q, q_dot, u) the
    nominal model's Mhat(q) u + Nhat(q, q_dot) (a plant's ``torque``
    face). record.c_hat and record.state are the adapted ones."""
    law = cfg.__dict__.get("_law") or _bind_law(cfg)
    return law(state, q, q_dot, desired, torque, t, dt)


def _law_lines(n: int, torque: str, checks: bool) -> list[str]:
    """The adaptive-robust law for n coordinates, as statements over q{i},
    v{i}, r{i}, rv{i} and ra{i} (q, q_dot and the reference triple's
    entries), the state c_hat, s_prev and t_prev, t, dt and the gain rows
    (bp{i}_{j}, k2_{i}_{j} and k1_{i}_{j}, the entries of B^T P, K2 and K1)
    and scalars; torque is the statements that assign tau{i}, the nominal
    model's Mhat(q) u + Nhat(q, q_dot), from q{i}, v{i} and u{i}. The lines
    assign tau{i}, u{i}, du{i}, s{i}, s_norm and c_new.

    The law, in order: the errors e1 = qd - q and e1_dot = qd_dot - q_dot;
    the sliding variable s = B^T P e, e = [e1; e1_dot], and ||s||, formed
    once for the switching term, the adaptation and the record alike; the
    nominal part u_hat = (qd_ddot + K2 e1_dot) + K1 e1; the switching part
    du = alpha c_hat s / max(||s||, epsilon), zero with switching off; the
    torque at u = u_hat + du; and one Euler step of the adaptive gain
    (module docstring), clamped below at gamma. Every row product sums its
    terms left to right from 0.0 (``_sum``). With checks, the lines raise
    ValueError on a bad c_hat or dt and on time that does not advance or an
    s_prev of the wrong length, where arolc_step checks them; without, the
    caller has checked them once for its run (``ArolcController.kernel``).
    """
    rng = range(n)
    e = [f"ep{j}" for j in rng] + [f"ev{j}" for j in rng]  # e1, then e1_dot
    lines = [f"ep{i} = r{i} - q{i}" for i in rng]
    lines += [f"ev{i} = rv{i} - v{i}" for i in rng]
    lines += [f"s{i} = {_sum(f'bp{i}_{j} * {x}' for j, x in enumerate(e))}" for i in rng]
    lines += [f"s_norm = sqrt({_sum(f's{i} * s{i}' for i in rng)})"]
    lines += [f"uh{i} = (ra{i} + {_sum(f'k2_{i}_{j} * ev{j}' for j in rng)}) + "
              f"{_sum(f'k1_{i}_{j} * ep{j}' for j in rng)}" for i in rng]
    lines.append("if switching:")
    if checks:
        lines += ["    if not 0.0 < c_hat < inf:  # NaN included",
                  "        raise ValueError(f'c_hat must be positive and finite, got {c_hat!r}')"]
    lines.append("    gain = alpha * c_hat / (s_norm if s_norm >= epsilon else epsilon)")
    lines += [f"    du{i} = gain * s{i}" for i in rng]
    lines += [f"    u{i} = uh{i} + du{i}" for i in rng]
    lines.append("else:")
    lines += [f"    du{i} = 0.0" for i in rng]
    lines += [f"    u{i} = uh{i}" for i in rng]
    lines += torque.splitlines()
    if checks:
        lines += [
            "if not -inf < c_hat < inf:",
            "    raise ValueError(f'c_hat must be a number and finite, got {c_hat!r}')",
            "if not 0.0 < dt < inf:",
            "    raise ValueError(f'dt must be finite and positive, got {dt!r}')",
            "if s_prev is not None:",
            "    if not t > t_prev:",
            "        raise ValueError('time must advance between adaptation steps')",
            f"    if len(s_prev) != {n}:",
            f"        raise ValueError(f's_prev has {{len(s_prev)}} entries, s has {n}')"]
    lines += [
        "if c_hat <= gamma:",
        "    rate = gamma",
        "elif s_prev is None:",
        "    rate = -s_norm  # no slope estimate yet: conservative branch",
        "else:",
        f"    {_entries('sp', n)}= s_prev",
        "    elapsed = t - t_prev",
        f"    rate = s_norm if {_sum(f's{i} * ((s{i} - sp{i}) / elapsed)' for i in rng)} "
        "> 0.0 else -s_norm",
        "c_new = c_hat + rate * dt",
        "if gamma > c_new:  # max(c_new, gamma)",
        "    c_new = gamma"]
    return lines


@functools.cache
def _compile_law(n: int):
    """arolc_step for n coordinates, unrolled: compiled once per n from the
    law's statements (``_law_lines``, with their checks), as the simulator
    compiles its block of control periods. Returns the function that binds
    a config's gain rows and scalars (``_law_constants``) into the law. The
    law unpacks its inputs, raising ValueError on inputs of the wrong
    length, calls torque at u, and returns the StepRecord of the period."""
    tau, u, du, s = (_entries(prefix, n) for prefix in ("tau", "u", "du", "s"))
    torque = f"{tau}= torque(({_entries('q', n)}), ({_entries('v', n)}), [{u}])"
    lines = [
        f"def bind({', '.join(_law_names(n))}, lengths, ArolcState, StepRecord):",
        "    def law(state, q, q_dot, desired, torque, t, dt):",
        "        c_hat, s_prev, t_prev = state.c_hat, state.s_prev, state.t_prev",
        *_unpack_inputs(n),
        *("        " + line for line in _law_lines(n, torque, checks=True)),
        f"        return StepRecord([{tau}], c_new, s_norm, [{u}], [{du}], "
        f"ArolcState(c_new, [{s}], t))",
        "    return law"]
    return _compile(lines, f"arolc law, n = {n}")


def _law_names(n: int) -> list[str]:
    """The names of the law's constants (``_law_constants``), in order."""
    rng = range(n)
    return ([f"bp{i}_{j}" for i in rng for j in range(2 * n)]
            + [f"{k}_{i}_{j}" for k in ("k2", "k1") for i in rng for j in rng]
            + ["alpha", "epsilon", "gamma", "switching", "sqrt", "inf"])


def _law_constants(cfg: ArolcConfig) -> dict:
    """cfg's gain rows and scalars under the law's names (``_law_names``)."""
    bp, k2, k1 = cfg.rows
    values = [x for rows in (bp, k2, k1) for row in rows for x in row]
    values += [cfg.alpha, cfg.epsilon, cfg.gamma, cfg.switching, math.sqrt, math.inf]
    return dict(zip(_law_names(len(k1)), values, strict=True))


def _reference_lines(n: int) -> list[str]:
    """The lines that unpack desired = (qd, qd_dot, qd_ddot) into r{i},
    rv{i} and ra{i}, for n coordinates."""
    return ["qd, qd_dot, qd_ddot = desired",
            *(f"{_entries(prefix, n)}= {name}" for prefix, name in
              (("r", "qd"), ("rv", "qd_dot"), ("ra", "qd_ddot")))]


def _unpack_inputs(n: int) -> list[str]:
    """The lines that unpack a compiled law's inputs q, q_dot and desired =
    (qd, qd_dot, qd_ddot) into q{i}, v{i}, r{i}, rv{i} and ra{i}, for n
    coordinates; a wrong length raises ``_lengths``' message (bound as
    lengths)."""
    reference = _reference_lines(n)
    return ["        try:",
            f"            {reference[0]}",
            f"            {_entries('q', n)}= q",
            f"            {_entries('v', n)}= q_dot",
            *(f"            {line}" for line in reference[1:]),
            "        except ValueError:",
            f"            raise ValueError(lengths({n}, q, q_dot, desired)) from None"]


def _lengths(n: int, q, q_dot, desired) -> str:
    """The law's message for inputs of the wrong length."""
    if len(desired) != 3:
        return f"expected desired = (qd, qd_dot, qd_ddot), got {len(desired)} entries"
    got = [len(x) for x in (q, q_dot, *desired)]
    return (f"expected q, q_dot, qd, qd_dot and qd_ddot of length {n}, got "
            f"{got[0]}, {got[1]}, {got[2]}, {got[3]} and {got[4]}")


def _bind_law(cfg: ArolcConfig):
    """cfg's law (``_compile_law``), bound to its rows and scalars and stored
    on cfg on first use."""
    law = _compile_law(len(cfg.rows[2]))(**_law_constants(cfg), lengths=_lengths,
                                          ArolcState=ArolcState, StepRecord=StepRecord)
    cfg.__dict__["_law"] = law
    return law


@dataclass(frozen=True, eq=False)
class PconConfig(_ValueEquality):
    """Baseline predictor-controller gains and its integral window:
    h_estimate = None is the true delay h(t), a number a fixed window.
    vartheta is kept as a read-only float copy; configs compare and hash
    by value (``_ValueEquality``), the rows left out."""

    kappa: float = 2.0
    vartheta: np.ndarray = field(default_factory=lambda: np.eye(1))
    k_b: float = 5.0
    h_estimate: float | None = None
    rows: list = field(init=False, repr=False, compare=False)  # vartheta's, as floats

    def __post_init__(self):
        require("positive", kappa=self.kappa, k_b=self.k_b)
        if self.h_estimate is not None:
            require("nonnegative", h_estimate=self.h_estimate)
        v = np.array(self.vartheta, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"vartheta must be a square matrix, got shape {v.shape}")
        require("finite", vartheta=v)
        # semidefinite allowed: vartheta = 0 degenerates to a PD law
        if np.linalg.eigvalsh(symmetrize(v))[0] < 0.0:
            raise ValueError("vartheta must be positive semidefinite")
        v.setflags(write=False)
        object.__setattr__(self, "vartheta", v)
        object.__setattr__(self, "rows", v.tolist())


def pcon_step(history, h, q, q_dot, desired, t, cfg: PconConfig,
              table=None) -> list[float]:
    """tau = k_b ((e1_dot + kappa e1) - vartheta e_z) on floats, e_z the
    integral over [t - h, t] of history = (times, values, m), zero before
    the first command, by the step compiled for the plant's dimension over
    a trapezoid table (``_compile_window``). table is such a table bound to
    cfg (``_bind_window``), kept from call to call along one history;
    without one the call binds a fresh table. Inputs of the wrong length
    raise ValueError."""
    return (table or _bind_window(cfg))(history, h, q, q_dot, desired, t)


# the module's laws, kept where a wrapper set on the module (a tracer's span)
# does not replace them: a controller whose law function is not its own
# runs the call path (``_call_law``)
_LAWS = (arolc_step, pcon_step)

# rows a trapezoid table keeps behind its window's first row before it
# drops the oldest ones, so it holds at most the window plus twice this
_SLACK = 32


@functools.cache
def _compile_window(n: int):
    """pcon_step for n coordinates over its trapezoid table, unrolled:
    compiled once per n. Returns the function that binds a config's
    vartheta entries (th{i}_{j}), kappa and k_b into a fresh table and its
    step, step(history, h, q, q_dot, desired, t).

    The step unpacks its inputs (``_unpack_inputs``), lands the history's
    new commands, each with the trapezoid of the interval it closes, and
    sums the window as the module docstring states. It hands the integral
    to ``integrate`` itself where the table does not serve: a window that
    integrate rejects, a history that was rewound or whose window reaches
    rows the table dropped, a t on or before the last stamp, and a
    non-finite total.
    """
    rng = range(n)
    x, y, a, b, z = (_entries(c, n) for c in "xyabz")
    lines = [
        "def bind(" + "".join(f"th{i}_{j}, " for i in rng for j in rng)
        + "kappa, k_b, inf, bisect_right, integrate, lengths):",
        "    rows = []  # the landed commands from row base on",
        "    terms = []  # the trapezoids of the landed intervals from interval base on",
        "    base = 0",
        "    def step(history, h, q, q_dot, desired, t):",
        "        nonlocal base",
        "        times, values, m = history",
        *_unpack_inputs(n),
        "        t0 = t - h",
        "        i = -1  # the window's first bracket; -1 leaves e_z to integrate",
        "        if not (-inf < t0 <= t < inf) or m < base + len(rows):",
        "            pass  # a window integrate rejects, or a rewound history",
        "        elif not m or t0 == t:",
        f"            {z}= {'0.0, ' * n}",
        "            i = 0",
        "        elif times[m - 1] < t:",
        "            for j in range(base + len(rows), m):",
        f"                {y}= row = values[j].tolist()",
        "                if j:",
        f"                    {x}= rows[-1]",
        "                    w = 0.5 * (times[j] - times[j - 1])",
        f"                    terms.append(({''.join(f'w * (x{c} + y{c}), ' for c in rng)}))",
        "                rows.append(row)",
        "            i = bisect_right(times, t0, 0, m)",
        "            if not i:  # the signal is zero before the first command",
        "                t0 = times[0]",
        "                i = 1",
        f"            if i - base > {2 * _SLACK}:",
        f"                del rows[:i - base - {_SLACK}]",
        f"                del terms[:i - base - {_SLACK}]",
        f"                base = i - {_SLACK}",
        f"            {x}= rows[m - 1 - base]",
        "            if i == m:  # the window lies in the last command's hold",
        "                w = 0.5 * (t - t0)"]
    lines += [f"                z{c} = 0.0 + w * (x{c} + x{c})" for c in rng]
    lines += [
        "            elif i > base:",
        f"                {a}= rows[i - 1 - base]",
        f"                {b}= rows[i - base]",
        "                ta, tb = times[i - 1], times[i]",
        "                lam = (t0 - ta) / (tb - ta)",
        "                w = 0.5 * (tb - t0)"]
    lines += [f"                z{c} = 0.0 + w * (((1.0 - lam) * a{c} + lam * b{c}) + b{c})"
              for c in rng]
    lines += [f"                for {y}in terms[i - base:m - 1 - base]:"]
    lines += [f"                    z{c} += y{c}" for c in rng]
    lines += ["                w = 0.5 * (t - times[m - 1])"]
    lines += [f"                z{c} += w * (x{c} + x{c})" for c in rng]
    lines += [
        "            else:",
        "                i = -1",
        f"        if i < 0 or not ({' and '.join(f'-inf < z{c} < inf' for c in rng)}):",
        f"            {z}= integrate(times, values, m, t - h, t)",
        "        return [" + "".join(
            f"k_b * ((rv{i} - v{i} + kappa * (r{i} - q{i})) - "
            f"{_sum(f'th{i}_{j} * z{j}' for j in rng)}), " for i in rng) + "]",
        "    return step"]
    return _compile(lines, f"pcon window, n = {n}")


def _bind_window(cfg: PconConfig):
    """A fresh trapezoid table bound to cfg: the step that ``pcon_step``
    runs for one history (``_compile_window``)."""
    n = len(cfg.rows)
    return _compile_window(n)(*(x for row in cfg.rows for x in row), cfg.kappa, cfg.k_b,
                              math.inf, bisect_right, integrate, _lengths)


class ArolcController:
    """Adaptive-robust law bound to a plant's nominal model, holding its state."""

    def __init__(self, sc, trace):
        self.cfg = sc.controller
        self.nominal = sc.plant.nominal
        self.torque = self.nominal.torque
        self.dt = sc.dt_control
        self.state = self.cfg.initial_state()
        peak = max_delay(sc.delay)
        if not check_feasibility(self.cfg.gains, peak):
            warnings.warn(
                f"peak input delay {peak:.4g} s reaches the delay margin "
                f"{delay_margin(self.cfg.gains):.4g} s; boundedness is not guaranteed",
                stacklevel=4,  # the caller of simulate
            )

    def step(self, t, q, q_dot, desired) -> StepRecord:
        record = arolc_step(self.state, q, q_dot, desired, self.torque, t, self.dt, self.cfg)
        self.state = record.state
        return record

    def kernel(self) -> Law:
        """The law of a run from the config's initial state: ``_law_lines``
        with the nominal model's torque (``plants.PlantModel.torque_kernel``,
        its names but q, v, a and tau prefixed nom_, a read as u) spliced
        in, and the state c_hat, s_prev and t_prev carried from period to
        period; the call path where arolc_step is wrapped. What arolc_step
        checks every period holds for the whole run, so it is checked once:
        the control period here, c_hat_init by the config (the clamp keeps
        c_hat at gamma or above, and a run ends where it is not finite);
        time advances and s_prev has n entries by the run's own periods."""
        n = len(self.cfg.rows[2])
        if arolc_step is not _LAWS[0]:
            return _call_law(self.step, n, True)
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        torque = self.nominal.torque_kernel()

        def rename(name):
            if _TORQUE_IO.fullmatch(name):
                return "u" + name[1:] if name[0] == "a" else name
            return "nom_" + name

        source = "\n".join([*_reference_lines(n),
                            *_law_lines(n, _rename(torque.source, rename), checks=False),
                            "c_hat = c_new", f"s_prev = {_entries('s', n)}", "t_prev = t"])
        constants = {**_law_constants(self.cfg), "dt": self.dt,
                     **{"nom_" + name: value for name, value in torque.constants.items()}}
        return Law(source + "\n", constants,
                   {"c_hat": self.cfg.c_hat_init, "s_prev": None, "t_prev": -math.inf}, True)


class PconController:
    """Predictor baseline at row k of trace: integrates the commands of rows
    before k over the true delay, the trace's h row k, or cfg.h_estimate,
    through its own trapezoid table (``_bind_window``)."""

    def __init__(self, sc, trace):
        self.cfg = sc.controller
        self.trace = trace
        self.stamps = trace.t.tolist()  # the compiled step bisects a list
        self.table = _bind_window(self.cfg)
        self.k = 0

    def step(self, t, q, q_dot, desired) -> StepRecord:
        k, self.k = self.k, self.k + 1
        # a Python float, so that the window's ends are Python floats too
        h = self.trace.h.item(k) if self.cfg.h_estimate is None else self.cfg.h_estimate
        history = self.stamps, self.trace.tau_cmd, k
        return StepRecord(pcon_step(history, h, q, q_dot, desired, t, self.cfg,
                                    self.table))

    def kernel(self) -> Law:
        """The law of a run from row 0: the controller's trapezoid table
        called at row k on the trace's rows and its h row k (or the fixed
        window), c_hat and s_norm zero; the call path where pcon_step is
        wrapped."""
        n = len(self.cfg.rows)
        if pcon_step is not _LAWS[1]:
            return _call_law(self.step, n, False)
        h = "h_item(k)" if self.cfg.h_estimate is None else "h_estimate"
        source = (f"{_entries('tau', n)}= table((stamps, tau_cmd, k), {h}, "
                  f"({_entries('q', n)}), ({_entries('v', n)}), desired, t)\n"
                  "c_hat = 0.0\ns_norm = 0.0\n")
        return Law(source, dict(table=self.table, stamps=self.stamps,
                                tau_cmd=self.trace.tau_cmd, h_item=self.trace.h.item,
                                h_estimate=self.cfg.h_estimate), {})


class ZeroController:
    """No controller config: the plant runs open loop under zero torque."""

    def __init__(self, sc, trace):
        self.n = sc.plant.dim

    def step(self, t, q, q_dot, desired) -> StepRecord:
        return StepRecord([0.0] * self.n)

    def kernel(self) -> Law:
        """Zero command, c_hat and s_norm every period."""
        return Law(f"{_entries('tau', self.n)}= {'0.0, ' * self.n}\nc_hat = 0.0\n"
                   "s_norm = 0.0\n", {}, {})


_CONTROLLERS = {ArolcConfig: ArolcController, PconConfig: PconController,
                type(None): ZeroController}


def make_controller(sc, trace):
    """The controller object of sc.controller's config type, along trace's rows."""
    return _CONTROLLERS[type(sc.controller)](sc, trace)


def uncertainty_residual(q, q_dot, q_h, q_dot_h, u_h, qdd_d, qdd_d_h,
                         true_model, nominal_model, t: float = 0.0) -> np.ndarray:
    """Lumped uncertainty entering the delayed error dynamics.

    sigma = (I - M(q)^-1 Mhat(q_h)) u_h
          + M(q)^-1 (N(q, q_dot, t) - Nhat(q_h, q_dot_h))
          + qdd_d(t) - qdd_d(t - h)

    Diagnostic only: the controller never evaluates sigma. true_model and
    nominal_model are plant objects exposing mass_matrix / bias_vector and
    nominal_mass_matrix / nominal_bias_vector respectively.
    """
    q = np.asarray(q, float)
    m = true_model.mass_matrix(q, t)
    n_vec = true_model.bias_vector(q, np.asarray(q_dot, float), t)
    m_hat = nominal_model.nominal_mass_matrix(np.asarray(q_h, float))
    n_hat = nominal_model.nominal_bias_vector(
        np.asarray(q_h, float), np.asarray(q_dot_h, float)
    )
    u_h = np.asarray(u_h, float)
    try:
        m_inv_mu = np.linalg.solve(m, m_hat @ u_h)
        m_inv_dn = np.linalg.solve(m, n_vec - n_hat)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular mass matrix") from exc
    return u_h - m_inv_mu + m_inv_dn + np.asarray(qdd_d, float) - np.asarray(qdd_d_h, float)
