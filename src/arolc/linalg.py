"""Small dense linear algebra used by the stability analysis and the simulator.

Everything here operates on plain numpy arrays, and direct dense methods
are used throughout. The matrices are small: the error system of an n-joint
plant is 2n x 2n, and its Lyapunov solve works on the dense (2n)^2 x (2n)^2
Kronecker operator, 144 x 144 for the n = 6 gain sets that the delay-margin
benchmark draws. Each public function checks its input in one pass per
array: ``_as_square`` tests a square matrix's entries for finiteness, and
``_as_symmetric`` takes the finiteness test from the same max|M| that
scales its symmetry tolerance.
"""

from __future__ import annotations

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
    a = symmetrize(a)
    return a, np.abs(a).max()


def _positive_definite(m: np.ndarray) -> bool:
    """True iff the Cholesky factorization of m's lower triangle succeeds."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def symmetrize(m) -> np.ndarray:
    """Return (M + M^T)/2, halving first where M + M^T would overflow."""
    a, scale = _scaled(m)
    return 0.5 * (a + a.T) if scale <= _HALF_MAX else 0.5 * a + 0.5 * a.T


def is_hurwitz(a) -> bool:
    """True iff every eigenvalue of A has strictly negative real part."""
    a = _as_square(a)
    return bool(np.all(np.linalg.eigvals(a).real < 0.0))


def min_eig_symmetric(m) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    The input is symmetrized before the eigensolve; inputs that are
    asymmetric beyond a small relative tolerance are rejected.
    """
    a, _ = _as_symmetric(m, "min_eig_symmetric input")
    return float(np.linalg.eigvalsh(a)[0])


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
    a = _as_square(m)
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


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve A^T P + P A = -Q for symmetric positive definite P.

    Uses the Kronecker vectorization (I (x) A^T + A^T (x) I) vec(P) = -vec(Q)
    with one step of iterative refinement. The operator is one broadcast
    product pair, entry (i n + k, j n + l) = I[i, j] A^T[k, l] + A^T[i, j]
    I[k, l], so its entries are exactly those of the two np.kron products
    summed. A must be Hurwitz and Q symmetric positive definite (checked by
    its Cholesky factorization); the returned P is symmetrized and satisfies
    max|A^T P + P A + Q| <= 1e-10 * max|Q|.

    The solve itself certifies A Hurwitz, by Lyapunov's theorem: with
    W = -(A^T P + P A) = Q - resid, resid the computed residual, Cholesky
    factors of P and of W - 2 sigma trace(P) I make every A + D with
    ||D||_2 <= sigma Hurwitz, since (A + D)^T P + P (A + D) = -W + D^T P
    + P D and ||P||_2 <= trace(P). For an n x n A, sigma = 1e-8 n max|A|,
    at least 1e-8 ||A||_2, keeps the certified eigenvalues far beyond the
    rounding of an eigenvalue solve. Only a solve that fails (a singular
    operator, a non-finite P, a residual out of reach) or a certificate
    that fails runs that eigenvalue test, is_hurwitz, which picks the
    message: "A is not Hurwitz to working precision" for an A that it finds
    not Hurwitz (an eigenvalue whose real part rounds to 0 counts, as for
    k2 = 1e-300 or 1e200), the solve's own failure otherwise. A Hurwitz A
    whose solve succeeds returns P without a certificate.
    """
    a, a_scale = _scaled(a)
    q, scale = _as_symmetric(q, "Q")
    if a.shape != q.shape:
        raise ValueError(f"dimension mismatch: A {a.shape}, Q {q.shape}")
    if not _positive_definite(q):
        raise ValueError("Q must be positive definite")

    n = a.shape[0]
    eye, at = np.eye(n), a.T

    def _solve(rhs: np.ndarray) -> np.ndarray:
        try:
            x = np.linalg.solve(k, rhs.flatten(order="F"))
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular Lyapunov system") from exc
        return x.reshape((n, n), order="F")

    tol = _LYAPUNOV_RTOL * scale
    # entries of A near the float range can overflow the operator, and an A
    # that is not Hurwitz P, its residual or the certificate's margin: every
    # test below reads NaN and inf as a failure
    with np.errstate(over="ignore", invalid="ignore"):
        k = (eye[:, None, :, None] * at[None, :, None, :]
             + at[:, None, :, None] * eye[None, :, None, :]).reshape(n * n, n * n)
        try:
            p = _solve(-q)
            p = 0.5 * (p + p.T)
            resid = a.T @ p + p @ a + q
            if not np.abs(resid).max() <= tol:
                if not np.isfinite(p).all():
                    raise ValueError("Lyapunov solve gave a non-finite P")
                p = p - _solve(resid)
                p = 0.5 * (p + p.T)
                resid = a.T @ p + p @ a + q
                if not np.abs(resid).max() <= tol:
                    raise ValueError("Lyapunov solve did not reach required residual")
        except ValueError:
            if not is_hurwitz(a):
                raise ValueError("A is not Hurwitz to working precision") from None
            raise
        w = q - resid
        w.flat[::n + 1] -= (2.0 * _HURWITZ_RTOL * n * a_scale) * p.trace()
        if not (_positive_definite(p) and _positive_definite(w)) and not is_hurwitz(a):
            raise ValueError("A is not Hurwitz to working precision")
    return p
