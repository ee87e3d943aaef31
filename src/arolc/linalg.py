"""Small dense linear algebra used by the stability analysis and the simulator.

Everything here operates on plain numpy arrays, and direct dense methods
are used throughout. The matrices are small: the error system of an n-joint
plant is m x m, m = 2n, and its Lyapunov solve works on the dense r x r
system in the r = m(m+1)/2 free entries of the symmetric P, built by one
np.bincount from an index plan cached per m: 78 x 78 for the n = 6 gain
sets that the delay-margin benchmark draws.

Each invariant is checked once. A public function checks its input in one
pass per array: ``_as_square`` tests a square matrix's entries for
finiteness, and ``_as_symmetric`` takes that test from the same max|M| that
scales its symmetry tolerance. The cores ``_solve_lyapunov`` and ``_invert``
take checked input: ``stability.GainSet`` keeps the symmetrized Q and max|Q|
of its SPD check (``_min_eig``) for the Lyapunov core, whose P is finite and
goes to ``_invert``. The core's one stacked Cholesky call shows Q positive
definite and certifies A Hurwitz.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "solve_lyapunov",
    "min_eig_symmetric",
    "spectral_norm",
    "invert",
    "is_hurwitz",
    "symmetrize",
]

# Relative symmetry tolerance: M counts as symmetric if
# max|M - M^T| <= SYMMETRY_RTOL * max|M|.
SYMMETRY_RTOL = 1e-9

_LYAPUNOV_RTOL = 1e-10
_INVERT_ATOL = 1e-10
# solve_lyapunov's certificate accepts an n x n A only when every A + D
# with ||D||_2 <= _HURWITZ_RTOL * n * max|A| is Hurwitz as well: far beyond
# the reach of an eigenvalue solve's rounding, so that is_hurwitz agrees
_HURWITZ_RTOL = 1e-8
# below this max|M|, M + M^T cannot overflow
_HALF_MAX = 0.5 * np.finfo(float).max


def _square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_square(m) -> np.ndarray:
    a = _square(m)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _scaled(m) -> tuple[np.ndarray, float]:
    """m as a square float array with finite entries, and max|m|. max|m|
    is NaN or inf exactly when an entry is not finite, so one pass over |m|
    gives both the finiteness test and the scale."""
    a = _square(m)
    scale = np.abs(a).max()
    if not scale < math.inf:
        raise ValueError("matrix has non-finite entries")
    return a, scale


def _as_symmetric(m, what: str) -> tuple[np.ndarray, float]:
    """(M + M^T)/2 and its largest absolute entry, for a square M with
    finite entries that is symmetric within SYMMETRY_RTOL; what names M
    in the asymmetry's message."""
    a, scale = _scaled(m)
    if scale == 0.0:
        return a, scale
    asymmetry = np.abs(a - a.T).max()
    if asymmetry == 0.0:
        return a, scale
    if asymmetry > SYMMETRY_RTOL * scale:
        raise ValueError(f"{what} is not symmetric")
    a = _symmetric_part(a, scale)
    return a, np.abs(a).max()


def _symmetric_part(a: np.ndarray, scale: float) -> np.ndarray:
    """(A + A^T)/2 of an A with finite entries and max|A| = scale, halving
    first where A + A^T would overflow."""
    return 0.5 * (a + a.T) if scale <= _HALF_MAX else 0.5 * a + 0.5 * a.T


def symmetrize(m) -> np.ndarray:
    """Return (M + M^T)/2, halving first where M + M^T would overflow."""
    return _symmetric_part(*_scaled(m))


def is_hurwitz(a) -> bool:
    """True iff every eigenvalue of A has strictly negative real part."""
    a = _as_square(a)
    return bool(np.all(np.linalg.eigvals(a).real < 0.0))


def min_eig_symmetric(m) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    The input is symmetrized before the eigensolve; inputs that are
    asymmetric beyond a small relative tolerance are rejected.
    """
    return _min_eig(m)[0]


def _min_eig(m) -> tuple[float, np.ndarray, float]:
    """min_eig_symmetric(m), the symmetrized m it read, and its max|.|."""
    a, scale = _as_symmetric(m, "min_eig_symmetric input")
    return float(np.linalg.eigvalsh(a)[0]), a, scale


def spectral_norm(m) -> float:
    """Largest singular value (induced 2-norm). Accepts rectangular input."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        return float(np.linalg.norm(a))
    if a.size == 0:
        return 0.0
    # svd returns the singular values in descending order; norm(a, 2) is
    # their maximum, reached through its axis handling
    return float(np.linalg.svd(a, compute_uv=False)[0])


def invert(m) -> np.ndarray:
    """Matrix inverse with a residual guarantee.

    Raises ValueError when the matrix is singular or so badly conditioned
    that max|M M^-1 - I| exceeds 1e-10.
    """
    return _invert(_as_square(m))


def _invert(a: np.ndarray) -> np.ndarray:
    """invert(a) for a square a with finite entries."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular matrix") from exc
    residual = np.abs(a @ inv - np.eye(a.shape[0])).max()
    if not np.isfinite(residual) or residual > _INVERT_ATOL:
        raise ValueError(
            f"matrix is too ill-conditioned to invert (residual {residual:.2e})"
        )
    return inv


@functools.cache
def _lyapunov_plan(m: int) -> tuple[np.ndarray, ...]:
    """Index plan of the symmetric Lyapunov system of an m x m A.

    The unknowns are P[a, b], a <= b, and the equations the entries (i, j),
    i <= j, of A^T P + P A = -Q, both in np.triu_indices order;
    unknown[a, b] = unknown[b, a] numbers the unknown P[a, b]. Equation
    (i, j), i < j, has 2m terms, A[k, i] P[k, j] and P[i, k] A[k, j] for
    k < m; equation (i, i), whose two sums are equal, is taken halved as
    (A^T P)[i, i] = -Q[i, i] / 2, with m terms. The r x r operator,
    r = m(m+1)/2, is np.bincount(target, weights=A.ravel()[source]): target
    is a term's flat position in the operator, source its entry of A. Only
    P[i, j]'s two terms in equation (i, j) share a position, so every
    entry of the operator is an entry of A or A[i, i] + A[j, j], as in the
    Kronecker operator, whatever the order of the terms. rhs_scale is 1/2
    on the equations (i, i) and 1 on the others. Returns (rows, cols,
    unknown, rhs_scale, target, source), all read-only.
    """
    rows, cols = np.triu_indices(m)
    r = rows.size
    unknown = np.empty((m, m), dtype=np.intp)
    unknown[rows, cols] = unknown[cols, rows] = np.arange(r)
    k = np.arange(m)
    eq = r * np.arange(r)[:, None]
    strict = rows < cols
    target = np.concatenate([(eq + unknown[k, cols[:, None]]).ravel(),
                             (eq + unknown[rows[:, None], k])[strict].ravel()])
    source = np.concatenate([(m * k + rows[:, None]).ravel(),
                             (m * k + cols[:, None])[strict].ravel()])
    plan = rows, cols, unknown, np.where(strict, 1.0, 0.5), target, source
    for array in plan:
        array.setflags(write=False)
    return plan


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve A^T P + P A = -Q for symmetric positive definite P.

    P and A^T P + P A are symmetric, so the solve takes the r = m(m+1)/2
    equations (i, j), i <= j, in the r unknowns P[a, b], a <= b, of an m x m
    A: 10 x 10 at m = 4, 78 x 78 at m = 12, where the Kronecker
    vectorization (I (x) A^T + A^T (x) I) vec(P) = -vec(Q) is m^2 x m^2. The
    operator is one np.bincount over a cached index plan per m
    (_lyapunov_plan), its entries those of the Kronecker operator; it is
    solved with one step of iterative refinement, and the solution fills
    both triangles of P, so P is exactly symmetric. A must be Hurwitz and Q
    symmetric positive definite; the returned P satisfies
    max|A^T P + P A + Q| <= 1e-10 * max|Q|.

    The solve itself certifies A Hurwitz, by Lyapunov's theorem: with
    W = -(A^T P + P A) = Q - resid, resid the computed residual, Cholesky
    factors of P and of W - 2 sigma trace(P) I make every A + D with
    ||D||_2 <= sigma Hurwitz, since (A + D)^T P + P (A + D) = -W + D^T P
    + P D and ||P||_2 <= trace(P). For an n x n A, sigma = 1e-8 n max|A|,
    at least 1e-8 ||A||_2, keeps the certified eigenvalues far beyond the
    rounding of an eigenvalue solve. One np.linalg.cholesky call on the
    stack of Q, P and that W shows Q positive definite too. Only a failed
    solve (a singular operator, a non-finite P, a residual out of reach) or
    factorization tests Q alone ("Q must be positive definite"), then runs
    is_hurwitz, which picks the message: "A is not Hurwitz to working
    precision" for an A that it finds not Hurwitz (an eigenvalue whose real
    part rounds to 0 counts, as for k2 = 1e-300 or 1e200), the solve's own
    failure otherwise. A Hurwitz A whose solve succeeds returns P without a
    certificate.
    """
    a, a_scale = _scaled(a)
    q, scale = _as_symmetric(q, "Q")
    if a.shape != q.shape:
        raise ValueError(f"dimension mismatch: A {a.shape}, Q {q.shape}")
    return _solve_lyapunov(a, a_scale, q, scale)


def _solve_lyapunov(a: np.ndarray, a_scale: float, q: np.ndarray, scale: float) -> np.ndarray:
    """solve_lyapunov(a, q) for a square, finite a with max|a| = a_scale and
    a symmetric, finite q of its shape with max|q| = scale. P is finite: a
    Hurwitz A has no zero row, so a non-finite P has a non-finite residual."""
    n = a.shape[0]
    rows, cols, unknown, rhs_scale, target, source = _lyapunov_plan(n)
    r = rows.size

    def _solve(rhs: np.ndarray) -> np.ndarray:
        try:
            x = np.linalg.solve(k, rhs_scale * rhs[rows, cols])
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular Lyapunov system") from exc
        return x[unknown]

    tol = _LYAPUNOV_RTOL * scale
    # entries of A near the float range can overflow the operator, and an A
    # that is not Hurwitz P, its residual or the certificate's margin: every
    # test below reads NaN and inf as a failure
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.bincount(target, weights=a.ravel()[source], minlength=r * r).reshape(r, r)
        try:
            p = _solve(-q)
            resid = a.T @ p + p @ a + q
            if not np.abs(resid).max() <= tol:
                if not np.isfinite(p).all():
                    raise ValueError("Lyapunov solve gave a non-finite P")
                p = p - _solve(resid)
                resid = a.T @ p + p @ a + q
                if not np.abs(resid).max() <= tol:
                    raise ValueError("Lyapunov solve did not reach required residual")
        except ValueError:
            _raise_for_q_or_a(q, a)
            raise
        w = q - resid
        w.flat[::n + 1] -= (2.0 * _HURWITZ_RTOL * n * a_scale) * p.trace()
        try:
            np.linalg.cholesky(np.stack((q, p, w)))
        except np.linalg.LinAlgError:
            _raise_for_q_or_a(q, a)
    return p


def _raise_for_q_or_a(q: np.ndarray, a: np.ndarray) -> None:
    """Raise the message of a failed solve or factorization that Q or A
    explains, Q's first."""
    try:
        np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        raise ValueError("Q must be positive definite") from None
    if not is_hurwitz(a):
        raise ValueError("A is not Hurwitz to working precision") from None
