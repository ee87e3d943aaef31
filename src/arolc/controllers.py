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
type (ArolcConfig, PconConfig, or None for zero torque) with one method the
simulator calls per control period, row by row of trace: step(t, q, q_dot,
desired) -> StepRecord. The objects hold state; arolc_step (the law, then
adapt_gain) and pcon_step stay module functions.

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

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .delays import integrate, max_delay
from .stability import GainSet, build_error_system, check_feasibility, delay_margin

__all__ = [
    "ArolcConfig",
    "ArolcState",
    "StepRecord",
    "PconConfig",
    "sliding_variable",
    "nominal_control",
    "switching_control",
    "adapt_gain",
    "arolc_step",
    "pcon_step",
    "ArolcController",
    "PconController",
    "ZeroController",
    "make_controller",
    "uncertainty_residual",
]


@dataclass(frozen=True)
class ArolcConfig:
    """Gain set and scalars of the adaptive-robust controller.

    K1 and K2 of gains, and the Lyapunov matrix P and input matrix B of its
    error system, are set once from gains; the law reads them as attributes.
    """

    gains: GainSet
    alpha: float = 2.0
    epsilon: float = 0.1
    gamma: float = 1e-3
    c_hat_init: float = 1e-3
    switching: bool = True  # diagnostic switch; False disables du entirely
    K1: np.ndarray = field(init=False, repr=False, compare=False)
    K2: np.ndarray = field(init=False, repr=False, compare=False)
    P: np.ndarray = field(init=False, repr=False, compare=False)
    B: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("alpha", "epsilon", "gamma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not self.gamma <= self.c_hat_init < math.inf:
            raise ValueError("c_hat_init must be finite and at least gamma")
        system = build_error_system(self.gains)
        object.__setattr__(self, "K1", self.gains.K1)
        object.__setattr__(self, "K2", self.gains.K2)
        object.__setattr__(self, "P", system.P)
        object.__setattr__(self, "B", system.B)

    @property
    def n(self) -> int:
        return self.K1.shape[0]

    def initial_state(self) -> "ArolcState":
        return ArolcState(c_hat=self.c_hat_init)


@dataclass(frozen=True)
class ArolcState:
    """Adaptive gain plus the memory used to estimate sign(s . s_dot)."""

    c_hat: float
    s_prev: np.ndarray | None = None
    t_prev: float = -np.inf


def sliding_variable(e: np.ndarray, cfg: ArolcConfig) -> np.ndarray:
    """s = B^T P e for the stacked error e = [e1; e1_dot]."""
    e = np.asarray(e, dtype=float)
    if e.shape[0] != 2 * cfg.n:
        raise ValueError(f"expected error of length {2 * cfg.n}, got {e.shape[0]}")
    return cfg.B.T @ (cfg.P @ e)


def nominal_control(e1, e1_dot, qdd_desired, cfg: ArolcConfig) -> np.ndarray:
    """u_hat = qdd_d + K2 e1_dot + K1 e1."""
    return np.asarray(qdd_desired, float) + cfg.K2 @ np.asarray(e1_dot, float) \
        + cfg.K1 @ np.asarray(e1, float)


def switching_control(s: np.ndarray, c_hat: float, cfg: ArolcConfig) -> np.ndarray:
    """Robust term: alpha c_hat s/||s|| outside the boundary layer,
    alpha c_hat s/epsilon inside it (continuous at ||s|| = epsilon)."""
    if c_hat <= 0.0:
        raise ValueError("c_hat must be positive")
    s = np.asarray(s, dtype=float)
    norm = float(np.linalg.norm(s))
    if norm >= cfg.epsilon:
        return (cfg.alpha * c_hat / norm) * s
    return (cfg.alpha * c_hat / cfg.epsilon) * s


def adapt_gain(state: ArolcState, s: np.ndarray, t: float, dt: float,
               cfg: ArolcConfig) -> ArolcState:
    """One Euler step of length dt (the control period) of the adaptive gain
    law; returns the updated state."""
    s = np.asarray(s, dtype=float)
    if state.s_prev is not None and not t > state.t_prev:
        raise ValueError("time must advance between adaptation steps")
    if state.c_hat <= cfg.gamma:
        rate = cfg.gamma
    else:
        s_norm = float(np.linalg.norm(s))
        if state.s_prev is None:
            rate = -s_norm  # no slope estimate yet: conservative branch
        else:
            s_dot = (s - state.s_prev) / (t - state.t_prev)
            rate = s_norm if float(s @ s_dot) > 0.0 else -s_norm
    c_hat = max(state.c_hat + rate * dt, cfg.gamma)
    return ArolcState(c_hat=c_hat, s_prev=s, t_prev=t)


class StepRecord(NamedTuple):
    """One control step of any controller.

    Every controller fills tau, c_hat and s_norm (zero where the law has no
    such quantity). The adaptive-robust law also reports the auxiliary input
    u = u_hat + du, its switching part du and its new state; the simulator
    diagnostics record u and du.
    """

    tau: np.ndarray
    c_hat: float = 0.0
    s_norm: float = 0.0
    u: np.ndarray | None = None
    du: np.ndarray | None = None
    state: ArolcState | None = None


def arolc_step(state: ArolcState, q, q_dot, desired, nominal_model, t, dt,
               cfg) -> StepRecord:
    """The adaptive-robust torque at the current gain, then one adapt_gain
    step of length dt (the control period). desired is the triple (qd,
    qd_dot, qd_ddot); nominal_model the pair (Mhat(q), Nhat(q, q_dot))
    already evaluated at the current state. record.c_hat and record.state
    are the adapted ones."""
    qd, qd_dot, qd_ddot = desired
    e1 = np.asarray(qd, float) - np.asarray(q, float)
    e1_dot = np.asarray(qd_dot, float) - np.asarray(q_dot, float)
    s = sliding_variable(np.concatenate([e1, e1_dot]), cfg)
    u_hat = nominal_control(e1, e1_dot, qd_ddot, cfg)
    du = switching_control(s, state.c_hat, cfg) if cfg.switching else np.zeros_like(u_hat)
    u = u_hat + du
    m_hat, n_hat = nominal_model
    tau = np.asarray(m_hat, float) @ u + np.asarray(n_hat, float)
    new_state = adapt_gain(state, s, t, dt, cfg)
    return StepRecord(tau, new_state.c_hat, float(np.linalg.norm(s)), u, du, new_state)


@dataclass(frozen=True)
class PconConfig:
    """Baseline predictor-controller gains and its integral window:
    h_estimate = None is the true delay h(t), a number a fixed window."""

    kappa: float = 2.0
    vartheta: np.ndarray = field(default_factory=lambda: np.eye(1))
    k_b: float = 5.0
    h_estimate: float | None = None

    def __post_init__(self):
        for name in ("kappa", "k_b"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.h_estimate is not None and not 0.0 <= self.h_estimate < math.inf:
            raise ValueError("h_estimate must be finite and nonnegative")
        v = np.asarray(self.vartheta, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("vartheta must be finite")
        # semidefinite allowed: vartheta = 0 degenerates to a PD law
        if np.linalg.eigvalsh(0.5 * (v + v.T))[0] < 0.0:
            raise ValueError("vartheta must be positive semidefinite")
        object.__setattr__(self, "vartheta", v)


def pcon_step(history, h, q, q_dot, desired, t, cfg: PconConfig):
    """tau = k_b (e1_dot + kappa e1 - vartheta e_z), e_z the integral over
    [t - h, t] of history = (times, values, m) (``delays.integrate``)."""
    qd, qd_dot, _ = desired
    e1 = np.asarray(qd, float) - np.asarray(q, float)
    e1_dot = np.asarray(qd_dot, float) - np.asarray(q_dot, float)
    e_z = integrate(*history, t - h, t)  # zero before the first command
    rho = e1_dot + cfg.kappa * e1 - cfg.vartheta @ e_z
    return cfg.k_b * rho


class ArolcController:
    """Adaptive-robust law bound to a plant's nominal model, holding its state."""

    def __init__(self, sc, trace):
        self.cfg = sc.controller
        self.plant = sc.plant
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
        nominal = self.plant.nominal_mass_matrix(q), self.plant.nominal_bias_vector(q, q_dot)
        record = arolc_step(self.state, q, q_dot, desired, nominal, t, self.dt, self.cfg)
        self.state = record.state
        return record


class PconController:
    """Predictor baseline at row k of trace: integrates the commands of rows
    before k over the true delay, the trace's h row k, or cfg.h_estimate."""

    def __init__(self, sc, trace):
        self.cfg = sc.controller
        self.trace = trace
        self.k = 0

    def step(self, t, q, q_dot, desired) -> StepRecord:
        k, self.k = self.k, self.k + 1
        # a Python float, so that the window's ends are Python floats too
        h = self.trace.h.item(k) if self.cfg.h_estimate is None else self.cfg.h_estimate
        history = self.trace.t, self.trace.tau_cmd, k
        return StepRecord(pcon_step(history, h, q, q_dot, desired, t, self.cfg))


class ZeroController:
    """No controller config: the plant runs open loop under zero torque."""

    def __init__(self, sc, trace):
        self.n = sc.plant.dim

    def step(self, t, q, q_dot, desired) -> StepRecord:
        return StepRecord(np.zeros(self.n))


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
