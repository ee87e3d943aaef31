"""Delay-margin and ultimate-bound analysis for the delayed tracking-error loop.

The closed-loop tracking error e = [e1; e1_dot] of an Euler-Lagrange system
under the adaptive-robust outer-loop controller obeys

    e_dot(t) = A1 e(t) + B1 e(t - h) + B (sigma - du(t - h)),

with A1 = [[0, I], [0, 0]], B1 = [[0, 0], [-K1, -K2]], A = A1 + B1 Hurwitz,
and B = [0; I]. A Razumikhin-type argument with Lyapunov matrix P solving
A^T P + P A = -Q bounds the admissible input delay by

    h < lambda_min(Q) / ||E||,
    E = beta P B1 (A1 P^-1 A1^T + B1 P^-1 B1^T + P^-1) B1^T P + 2 (r/beta) P,

where r > 1 is the Razumikhin factor and beta > 0 a free Young-inequality
scalar. For feasible delays (Psi = Q - h E > 0) the error is uniformly
ultimately bounded; six bound formulas cover the combinations of switching
regime (outside/inside the boundary layer) and adaptive-gain branch.

Each piece of the analysis is computed once per GainSet instance and
stored on it:

- lambda_min(Q), the symmetrized Q and max|Q|, when the GainSet is built
  (the check that Q is SPD);
- the error system (P, E and the norms ||E||, ||B^T P||), on the first
  analysis call;
- lambda_min(Psi(h)) for the last delay h that ultimate_bound was asked
  for, which all six bound cases share. Only that one h is kept, so the
  store does not grow.

Each invariant is checked once: GainSet checks the gains; linalg's
Lyapunov core, in one stacked Cholesky call, shows the kept Q positive
definite and A Hurwitz; symmetrize tests E; one finiteness test on Psi,
symmetrized here, precedes its one eigvalsh call.

GainSet keeps read-only copies of K1, K2 and Q, and the ErrorSystem arrays
are read-only too, so the stored results cannot go stale; copy and pickle
rebuild a GainSet through __init__ from its gains alone, without them
(``_ValueEquality``, as the controller configs). ``_checks.require``
states the range checks of the scalars.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._checks import require
from .linalg import (
    _invert,
    _min_eig,
    _solve_lyapunov,
    _symmetric_part,
    solve_lyapunov,  # noqa: F401 - the build calls the core; tools patch this name here
    spectral_norm,
    symmetrize,
)

__all__ = [
    "GainSet",
    "ErrorSystem",
    "BoundParams",
    "build_error_system",
    "delay_margin",
    "check_feasibility",
    "ultimate_bound",
    "reaching_time",
]


def _read_only(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def _spd_or_raise(m: np.ndarray, name: str) -> tuple[np.ndarray, float, tuple]:
    """Read-only float copy of m, which must be symmetric positive definite,
    its smallest eigenvalue, and (its read-only symmetrized copy, max|.|)."""
    m = np.array(m, dtype=float)
    lam, sym, scale = _min_eig(m)
    if lam <= 0.0:
        raise ValueError(f"{name} must be symmetric positive definite")
    return _read_only(m), lam, (_read_only(sym), scale)


class _ValueEquality:
    """Equality and hash by value for a frozen dataclass (declared with
    eq=False) whose compared fields may hold read-only float arrays: two
    instances of one class are equal when every compared field is, an array
    by its shape and entries, and the hash is taken over the same key, an
    array as its bytes. Values cached in an instance's __dict__ outside its
    fields (an analysis result, a bound law) take no part in either. pickle
    and copy rebuild an instance through __init__ from its init fields: numpy
    would restore an array writable, next to derived values it could outdate."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def _key(self) -> tuple:
        # + 0.0 reads -0.0 as 0.0, so that equal entries have equal bytes;
        # the arrays are finite, so bytes equality is value equality
        return tuple((x.shape, (x + 0.0).tobytes()) if isinstance(x, np.ndarray) else x
                     for x in (getattr(self, f.name) for f in fields(self) if f.compare))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class GainSet(_ValueEquality):
    """Controller gains plus the scalar analysis parameters.

    K1, K2 are the position/velocity error gains (n x n, SPD), Q the
    Lyapunov right-hand side (2n x 2n, SPD), r > 1 the Razumikhin factor,
    beta > 0 the Young-inequality scalar. The matrices are stored as
    read-only copies, so the error system cached on the instance by
    build_error_system always matches them. _q_min is lambda_min(Q), kept
    from the SPD check for the error system's q_min, and _q_sym the
    (symmetrized Q, max|Q|) it read, for the Lyapunov solve. Two gain sets
    are equal when their gains are (``_ValueEquality``).
    """

    K1: np.ndarray
    K2: np.ndarray
    Q: np.ndarray
    r: float = 1.1
    beta: float = 1.0
    _q_min: float = field(init=False, repr=False, compare=False)
    _q_sym: tuple[np.ndarray, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k1, _, _ = _spd_or_raise(self.K1, "K1")
        k2, _, _ = _spd_or_raise(self.K2, "K2")
        q, q_min, q_sym = _spd_or_raise(self.Q, "Q")
        n = k1.shape[0]
        if k2.shape != (n, n):
            raise ValueError("K1 and K2 must have identical shape")
        if q.shape != (2 * n, 2 * n):
            raise ValueError("Q must be 2n x 2n")
        require("above 1", r=self.r)
        require("positive", beta=self.beta)
        object.__setattr__(self, "K1", k1)
        object.__setattr__(self, "K2", k2)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "_q_min", q_min)
        object.__setattr__(self, "_q_sym", q_sym)

    @property
    def n(self) -> int:
        return self.K1.shape[0]

    @classmethod
    def identity(cls, n: int, k1: float = 1.0, k2: float = 1.0, q: float = 1.0,
                 r: float = 1.1, beta: float = 1.0) -> "GainSet":
        """Scalar-times-identity gains, the common tuning in practice."""
        return cls(k1 * np.eye(n), k2 * np.eye(n), q * np.eye(2 * n), r, beta)


@dataclass(frozen=True)
class ErrorSystem:
    """Matrices of the delayed error dynamics, the margin matrix E, and the
    norms the analysis reads: q_min = lambda_min(Q), e_norm = ||E||,
    bp_norm = ||B^T P||. The arrays are read-only."""

    A1: np.ndarray
    B1: np.ndarray
    A: np.ndarray
    B: np.ndarray
    P: np.ndarray
    E: np.ndarray
    q_min: float
    e_norm: float
    bp_norm: float

    @property
    def n(self) -> int:
        return self.B.shape[1]


@functools.cache
def _constant_blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A1 = [[0, I], [0, 0]] and B = [0; I] of the n-joint error system,
    read-only."""
    return _read_only(np.eye(2 * n, k=n)), _read_only(np.eye(2 * n, n, k=-n))


def build_error_system(gains: GainSet) -> ErrorSystem:
    """Assemble the error-dynamics blocks, solve for P, and form E.

    The first call for a GainSet instance stores the result on it; later
    calls return that same object.
    """
    cached = gains.__dict__.get("_system")
    if cached is not None:
        return cached
    n = gains.n
    a1, b = _constant_blocks(n)
    b1 = np.zeros((2 * n, 2 * n))
    b1[n:, :n] = -gains.K1
    b1[n:, n:] = -gains.K2
    # companion form of e1_ddot + K2 e1_dot + K1 e1 = 0; SPD gains make it
    # Hurwitz, and the Lyapunov solve raises if it is not; its entries are
    # finite, 1 or the checked gains'
    a = a1 + b1
    p = _solve_lyapunov(a, np.abs(a).max(), *gains._q_sym)
    p_inv = _invert(p)
    # gains as large as 1e200 overflow E: symmetrize rejects its non-finite
    # entries, so that the overflow is a ValueError that names E, and not a
    # warning
    with np.errstate(over="ignore", invalid="ignore"):
        inner = a1 @ p_inv @ a1.T + b1 @ p_inv @ b1.T + p_inv
        e = gains.beta * (p @ b1 @ inner @ b1.T @ p) + 2.0 * (gains.r / gains.beta) * p
    try:
        e = symmetrize(e)  # symmetric by construction; remove float drift
    except ValueError:
        raise ValueError("E has non-finite entries: the gains overflow the margin "
                         "analysis") from None
    system = ErrorSystem(
        a1, _read_only(b1), _read_only(a), b, _read_only(p), _read_only(e),
        q_min=gains._q_min,
        e_norm=spectral_norm(e),
        bp_norm=spectral_norm(b.T @ p),
    )
    gains.__dict__["_system"] = system
    return system


def delay_margin(gains: GainSet) -> float:
    """Maximum admissible input delay in seconds: lambda_min(Q) / ||E||."""
    system = build_error_system(gains)
    return system.q_min / system.e_norm


def check_feasibility(gains: GainSet, h: float) -> bool:
    """True iff delay h satisfies lambda_min(Q) > h ||E||."""
    require("nonnegative", delay=h)
    system = build_error_system(gains)
    return system.q_min > h * system.e_norm


@dataclass(frozen=True)
class BoundParams:
    """Scalars entering the ultimate-bound formulas.

    c        assumed (unknown) bound on the lumped uncertainty norm
    Gamma    bound on the integrated delay-window disturbance energy
    theta_norm  norm of the switching-input increment du(t) - du(t-h)
    alpha    switching-gain multiplier, > 1
    epsilon  boundary-layer width
    gamma    adaptive-gain floor
    c_hat    switching-gain value at which the bound is evaluated
    h        input delay in seconds
    """

    c: float = 0.0
    Gamma: float = 0.0
    theta_norm: float = 0.0
    alpha: float = 2.0
    epsilon: float = 0.1
    gamma: float = 1e-3
    c_hat: float = 1e-3
    h: float = 0.0

    def __post_init__(self):
        require("nonnegative", c=self.c, Gamma=self.Gamma, theta_norm=self.theta_norm,
                h=self.h)
        require("positive", epsilon=self.epsilon, gamma=self.gamma, c_hat=self.c_hat)
        require("above 1", alpha=self.alpha)


def ultimate_bound(case_id: int, gains: GainSet, bp: BoundParams) -> float:
    """Ultimate tracking-error bound for one of the six switching regimes.

    Cases 1-3 hold outside the boundary layer (||s|| >= epsilon), 4-6 inside;
    within each group the branches follow the adaptive law: gain increasing,
    gain decreasing, gain at its floor. Negative intermediate factors are
    clamped to zero: a negative factor means the decrease condition already
    holds for every error, so zero is the valid conservative value. A bound
    whose terms overflow the float range (c, c_hat or theta_norm near
    1e308) is +inf, also where two overflowed terms meet in inf - inf or
    inf / inf. A delay whose h E overflows is too large for the bound, as
    is one with lambda_min(Q - h E) <= 0.
    """
    if case_id not in (1, 2, 3, 4, 5, 6):
        raise ValueError("case_id must be 1..6")
    system = build_error_system(gains)
    h, lam = gains.__dict__.get("_psi", (None, None))
    if h != bp.h:
        # Psi = Q - h E and its smallest eigenvalue, kept for the last h only
        h = bp.h
        with np.errstate(over="ignore", invalid="ignore"):
            psi = gains.Q - h * system.E
        scale = np.abs(psi).max()
        # Q and E are finite, so a non-finite Psi is h E overflowed, and so
        # far beyond lambda_min(Q) that no such delay is feasible
        lam = (float(np.linalg.eigvalsh(_symmetric_part(psi, scale))[0])
               if scale < math.inf else -math.inf)
        gains.__dict__["_psi"] = (h, lam)
    if lam <= 0.0:
        raise ValueError("delay too large for bound")
    bp_norm = system.bp_norm
    alpha, eps, gam = bp.alpha, bp.epsilon, bp.gamma
    c, c_hat, theta = bp.c, bp.c_hat, bp.theta_norm

    if case_id == 1:
        mu = theta * bp_norm / lam
        return mu + math.sqrt(2.0 * bp.Gamma / lam + mu * mu)
    if case_id == 2:
        mu = _positive_part(2.0 * c - (alpha + 1.0) * c_hat + theta) * bp_norm / lam
        return mu + math.sqrt(2.0 * bp.Gamma / lam + mu * mu)
    if case_id == 3:
        mu = _positive_part(c - alpha * c_hat + theta) / lam
        return mu + math.sqrt(2.0 * (bp.Gamma + gam * gam) / lam + mu * mu)
    if case_id == 4:
        num, x = 4.0 * alpha * bp.Gamma * c_hat, c_hat + theta
    elif case_id == 5:
        num, x = 4.0 * alpha * bp.Gamma * c_hat, _positive_part(2.0 * c - c_hat + theta)
    else:
        num, x = 4.0 * alpha * c_hat * (bp.Gamma + gam * gam), c + theta
    # a float's ** 2 raises OverflowError where * gives inf; ** stays, as x * x
    # rounds some squares otherwise
    try:
        bound = math.sqrt((num + eps * x ** 2) / (2.0 * alpha * c_hat * lam))
    except OverflowError:
        return math.inf
    # NaN is inf / inf: the numerator and the denominator both overflowed
    return bound if bound == bound else math.inf


def _positive_part(x: float) -> float:
    """max(0, x) of a bound's factor, +inf where x is NaN: an inf - inf of
    two terms that overflowed, whose sign the floats no longer hold."""
    return x if x > 0.0 else 0.0 if x <= 0.0 else math.inf


def reaching_time(e0_norm: float, bound: float, c0: float) -> float:
    """Worst-case time to reach the ultimate-bound ball from ||e(t0)|| = e0_norm.

    Zero when the initial error already lies inside the ball. c0 is the
    assumed decay-rate margin of the Lyapunov derivative, c0 > 0.
    """
    require("positive", c0=c0)
    if not (0.0 <= e0_norm < math.inf and 0.0 <= bound < math.inf):
        raise ValueError("e0_norm and bound must be finite and nonnegative")
    return max(0.0, (e0_norm - bound) / c0)
