"""Small dense linear algebra used by the stability analysis and the simulator.

Everything here operates on plain numpy arrays. Matrices in this package are
tiny (state dimension 2n <= 10), so direct dense methods are used throughout.
"""

from __future__ import annotations

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


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def symmetrize(m) -> np.ndarray:
    """Return (M + M^T)/2."""
    a = _as_square(m)
    return 0.5 * (a + a.T)


def _check_symmetric(a: np.ndarray, what: str) -> np.ndarray:
    scale = np.abs(a).max()
    if scale == 0.0:
        return a
    if np.abs(a - a.T).max() > SYMMETRY_RTOL * scale:
        raise ValueError(f"{what} is not symmetric")
    return 0.5 * (a + a.T)


def is_hurwitz(a) -> bool:
    """True iff every eigenvalue of A has strictly negative real part."""
    a = _as_square(a)
    return bool(np.all(np.linalg.eigvals(a).real < 0.0))


def min_eig_symmetric(m) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    The input is symmetrized before the eigensolve; inputs that are
    asymmetric beyond a small relative tolerance are rejected.
    """
    a = _check_symmetric(_as_square(m), "min_eig_symmetric input")
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
    """
    a = _as_square(a)
    q = _check_symmetric(_as_square(q), "Q")
    if a.shape != q.shape:
        raise ValueError(f"dimension mismatch: A {a.shape}, Q {q.shape}")
    try:
        np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Q must be positive definite") from exc
    if not is_hurwitz(a):
        raise ValueError("unstable A")

    n = a.shape[0]
    eye, at = np.eye(n), a.T
    k = (eye[:, None, :, None] * at[None, :, None, :]
         + at[:, None, :, None] * eye[None, :, None, :]).reshape(n * n, n * n)

    def _solve(rhs: np.ndarray) -> np.ndarray:
        try:
            x = np.linalg.solve(k, rhs.flatten(order="F"))
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular Lyapunov system") from exc
        return x.reshape((n, n), order="F")

    p = _solve(-q)
    p = 0.5 * (p + p.T)
    tol = _LYAPUNOV_RTOL * np.abs(q).max()
    resid = a.T @ p + p @ a + q
    if np.abs(resid).max() > tol:
        p = p - _solve(resid)
        p = 0.5 * (p + p.T)
        resid = a.T @ p + p @ a + q
        if np.abs(resid).max() > tol:
            raise ValueError("Lyapunov solve did not reach required residual")
    return p
