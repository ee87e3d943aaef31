"""The Razumikhin analysis against the eigenvalue-first formulation.

solve_lyapunov certifies A Hurwitz by the Cholesky factors of P and of
Q - resid, and runs the eigenvalue test only when the solve or the
certificate fails. The reference below is the earlier path as it was
written: every check first (the square and finite test, the symmetry test,
the Cholesky factor of Q and is_hurwitz's np.linalg.eigvals), then the
solve; E through symmetrize, and lambda_min(Psi) through symmetrize before
min_eig_symmetric, each re-checking its input. The analysis must return the
same bytes wherever the reference returns, and raise the same message
wherever it raises.
"""

import numpy as np
import pytest

from arolc import linalg
from arolc.linalg import solve_lyapunov
from arolc.stability import (
    BoundParams,
    GainSet,
    build_error_system,
    check_feasibility,
    delay_margin,
    ultimate_bound,
)


# ---- the reference: the eigenvalue-first path, check for check ----

def _ref_as_square(m):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def _ref_symmetrize(m):
    a = _ref_as_square(m)
    return 0.5 * (a + a.T)


def _ref_check_symmetric(a, what):
    scale = np.abs(a).max()
    if scale == 0.0:
        return a
    if np.abs(a - a.T).max() > 1e-9 * scale:
        raise ValueError(f"{what} is not symmetric")
    return 0.5 * (a + a.T)


def _ref_is_hurwitz(a):
    a = _ref_as_square(a)
    return bool(np.all(np.linalg.eigvals(a).real < 0.0))


def _ref_min_eig(m):
    a = _ref_check_symmetric(_ref_as_square(m), "min_eig_symmetric input")
    return float(np.linalg.eigvalsh(a)[0])


def _ref_spectral_norm(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _ref_invert(m):
    a = _ref_as_square(m)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular matrix") from exc
    residual = np.abs(a @ inv - np.eye(a.shape[0])).max()
    if not np.isfinite(residual) or residual > 1e-10:
        raise ValueError(f"matrix is too ill-conditioned to invert (residual {residual:.2e})")
    return inv


def ref_solve_lyapunov(a, q):
    a = _ref_as_square(a)
    q = _ref_check_symmetric(_ref_as_square(q), "Q")
    if a.shape != q.shape:
        raise ValueError(f"dimension mismatch: A {a.shape}, Q {q.shape}")
    try:
        np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Q must be positive definite") from exc
    if not _ref_is_hurwitz(a):
        raise ValueError("A is not Hurwitz to working precision")
    n = a.shape[0]
    eye, at = np.eye(n), a.T
    k = (eye[:, None, :, None] * at[None, :, None, :]
         + at[:, None, :, None] * eye[None, :, None, :]).reshape(n * n, n * n)

    def solve(rhs):
        try:
            x = np.linalg.solve(k, rhs.flatten(order="F"))
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular Lyapunov system") from exc
        return x.reshape((n, n), order="F")

    p = solve(-q)
    p = 0.5 * (p + p.T)
    tol = 1e-10 * np.abs(q).max()
    resid = a.T @ p + p @ a + q
    if np.abs(resid).max() > tol:
        p = p - solve(resid)
        p = 0.5 * (p + p.T)
        resid = a.T @ p + p @ a + q
        if np.abs(resid).max() > tol:
            raise ValueError("Lyapunov solve did not reach required residual")
    return p


def ref_error_system(k1, k2, q, r, beta):
    """(P, E, lambda_min(Q), ||E||, ||B^T P||) of the reference path."""
    n = k1.shape[0]
    q_min = _ref_min_eig(q)
    a1 = np.eye(2 * n, k=n)
    b1 = np.zeros((2 * n, 2 * n))
    b1[n:, :n] = -k1
    b1[n:, n:] = -k2
    a = a1 + b1
    b = np.eye(2 * n, n, k=-n)
    p = ref_solve_lyapunov(a, q)
    p_inv = _ref_invert(p)
    inner = a1 @ p_inv @ a1.T + b1 @ p_inv @ b1.T + p_inv
    e = beta * (p @ b1 @ inner @ b1.T @ p) + 2.0 * (r / beta) * p
    e = _ref_symmetrize(e)
    return p, e, q_min, _ref_spectral_norm(e), _ref_spectral_norm(b.T @ p)


def ref_bounds(q, e, bp_norm, bp):
    """The six ultimate bounds through the reference Psi and np.sqrt."""
    lam = _ref_min_eig(_ref_symmetrize(q - bp.h * e))
    alpha, eps, gam = bp.alpha, bp.epsilon, bp.gamma
    c, c_hat, theta = bp.c, bp.c_hat, bp.theta_norm
    mu1 = theta * bp_norm / lam
    mu2 = max(0.0, 2.0 * c - (alpha + 1.0) * c_hat + theta) * bp_norm / lam
    mu3 = max(0.0, c - alpha * c_hat + theta) / lam
    den = 2.0 * alpha * c_hat * lam
    return (mu1 + np.sqrt(2.0 * bp.Gamma / lam + mu1 * mu1),
            mu2 + np.sqrt(2.0 * bp.Gamma / lam + mu2 * mu2),
            mu3 + np.sqrt(2.0 * (bp.Gamma + gam * gam) / lam + mu3 * mu3),
            np.sqrt((4.0 * alpha * bp.Gamma * c_hat + eps * (c_hat + theta) ** 2) / den),
            np.sqrt((4.0 * alpha * bp.Gamma * c_hat
                     + eps * max(0.0, 2.0 * c - c_hat + theta) ** 2) / den),
            np.sqrt((4.0 * alpha * c_hat * (bp.Gamma + gam * gam) + eps * (c + theta) ** 2) / den))


def outcome(func, *args):
    """("ok", the result's bytes) or ("raises", the ValueError's message)."""
    try:
        result = func(*args)
    except ValueError as exc:
        return "raises", str(exc)
    return "ok", np.asarray(result).tobytes()


def ref_outcome(func, *args):
    """outcome() of a reference call, whose overflow warnings are silenced:
    the reference let an overflowed E reach symmetrize's finiteness test."""
    with np.errstate(all="ignore"):
        return outcome(func, *args)


# ---- seeded inputs ----

def _spd(rng, k, lo, hi):
    basis, _ = np.linalg.qr(rng.standard_normal((k, k)))
    m = (basis * rng.uniform(lo, hi, k)) @ basis.T
    return 0.5 * (m + m.T)


def _skew_within_tolerance(rng, m):
    """m plus an antisymmetric part of at most 0.4e-9 max|m| per entry, so
    that max|m - m^T| stays within the 1e-9 max|m| symmetry tolerance."""
    w = rng.uniform(-1.0, 1.0, m.shape)
    return m + 0.2e-9 * np.abs(m).max() * (w - w.T)


def _draw(seed, n, asymmetric=False):
    rng = np.random.default_rng([seed, n, 35])
    k1, k2 = _spd(rng, n, 0.05, 30.0), _spd(rng, n, 0.05, 30.0)
    q = _spd(rng, 2 * n, 0.01, 20.0)
    if asymmetric:
        k1, k2, q = (_skew_within_tolerance(rng, m) for m in (k1, k2, q))
    r, beta = 2.0 - rng.random(), 2.0 - 1.5 * rng.random()
    bp = dict(c=rng.uniform(0.0, 2.0), Gamma=rng.uniform(0.0, 1.0),
              theta_norm=rng.uniform(0.0, 0.5), alpha=rng.uniform(1.5, 3.0),
              epsilon=rng.uniform(0.05, 0.2), c_hat=rng.uniform(0.01, 2.0))
    return (k1, k2, q, r, beta), bp


def _hexes(values):
    return [float(v).hex() for v in values]


class TestSameAnalysis:
    @pytest.mark.parametrize("asymmetric", [False, True], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_byte_equal(self, n, asymmetric):
        for seed in range(12):
            args, bp = _draw(seed, n, asymmetric)
            if asymmetric:
                assert args[2].tobytes() != args[2].T.tobytes()
            p, e, q_min, e_norm, bp_norm = ref_error_system(*args)
            gains = GainSet(*args)
            system = build_error_system(gains)
            assert system.P.tobytes() == p.tobytes()
            assert system.E.tobytes() == e.tobytes()
            assert (_hexes((system.q_min, system.e_norm, system.bp_norm))
                    == _hexes((q_min, e_norm, bp_norm)))
            margin = delay_margin(gains)
            assert float(margin).hex() == (q_min / e_norm).hex()
            for h in (0.0, margin * (1.0 - 1e-6), margin, margin * (1.0 + 1e-6), 2.0 * margin):
                assert check_feasibility(gains, h) == (q_min > h * e_norm)
            for h in (0.5 * margin, 0.9 * margin):
                params = BoundParams(h=h, **bp)
                got = [ultimate_bound(case, gains, params) for case in range(1, 7)]
                assert _hexes(got) == _hexes(ref_bounds(args[2], e, bp_norm, params))


def _similar(rng, blocks):
    """A real matrix similar to the block diagonal of blocks, through a
    random basis of condition number at most about 10."""
    m = sum(b.shape[0] for b in blocks)
    d = np.zeros((m, m))
    i = 0
    for b in blocks:
        d[i:i + b.shape[0], i:i + b.shape[0]] = b
        i += b.shape[0]
    basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
    scale = np.diag(rng.uniform(1.0, 3.0, m))
    s = basis @ scale
    return s @ d @ np.linalg.inv(s)


def _rotation(real, imag):
    return np.array([[real, imag], [-imag, real]])


def _unstable(rng):
    m = int(rng.integers(1, 7))
    return rng.standard_normal((m, m)) + rng.uniform(0.0, 2.0) * np.eye(m)


def _marginal(rng):
    """Eigenvalues on the imaginary axis next to stable ones: a zero, a
    rotation pair, or both."""
    blocks = [np.array([[-rng.uniform(0.5, 2.0)]])]
    kind = int(rng.integers(3))
    if kind != 1:
        blocks.append(np.zeros((1, 1)))
    if kind != 0:
        blocks.append(_rotation(0.0, rng.uniform(0.1, 5.0)))
    return _similar(rng, blocks)


def _ill_conditioned(rng):
    """Hurwitz, or nearly so, and hard to solve for: lightly damped pairs,
    a Jordan-like block with a large coupling, or a spread of decay rates."""
    kind = int(rng.integers(3))
    if kind == 0:
        blocks = [_rotation(-10.0 ** rng.uniform(-14, -4), rng.uniform(0.1, 20.0))
                  for _ in range(int(rng.integers(1, 3)))]
    elif kind == 1:
        lam = -10.0 ** rng.uniform(-3, 0)
        blocks = [np.array([[lam, 10.0 ** rng.uniform(3, 9)], [0.0, lam]])]
    else:
        blocks = [np.diag(-(10.0 ** rng.uniform(-12, 6, int(rng.integers(2, 5)))))]
    return _similar(rng, blocks)


class TestSameRejection:
    @pytest.mark.parametrize("seed, family", [(3502, _unstable), (3503, _marginal),
                                              (3504, _ill_conditioned)],
                             ids=["unstable", "marginal", "ill-conditioned"])
    def test_random_a(self, seed, family):
        rng = np.random.default_rng(seed)
        raised = 0
        for _ in range(200):
            a = family(rng)
            q = _spd(rng, a.shape[0], 0.1, 5.0)
            expected = ref_outcome(ref_solve_lyapunov, a, q)
            raised += expected[0] == "raises"
            assert outcome(solve_lyapunov, a, q) == expected
        assert raised > 0

    @pytest.mark.parametrize("gain", [1e-300, 1e-320, 1e200])
    @pytest.mark.parametrize("key", ["k1", "k2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_extreme_scalar_gains(self, gain, key, n):
        gains = GainSet.identity(n, **{key: gain})

        def ref_margin():
            _, _, q_min, e_norm, _ = ref_error_system(gains.K1, gains.K2, gains.Q, gains.r,
                                                      gains.beta)
            return q_min / e_norm

        assert outcome(delay_margin, gains) == ref_outcome(ref_margin)


class TestEigenSolveOnlyOnFailure:
    @staticmethod
    def count_eigvals(monkeypatch):
        calls = []
        real = np.linalg.eigvals

        def counting(m):
            calls.append(1)
            return real(m)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        return calls

    def test_successful_solves_skip_eigvals(self, monkeypatch):
        calls = self.count_eigvals(monkeypatch)
        for n in (1, 2, 3, 6):
            for seed in range(4):
                args, bp = _draw(seed, n)
                gains = GainSet(*args)
                params = BoundParams(h=0.5 * delay_margin(gains), **bp)
                for case in range(1, 7):
                    ultimate_bound(case, gains, params)
        solve_lyapunov(np.array([[0.0, 1.0], [-1.0, -1.0]]), np.eye(2))
        assert calls == []

    def test_failed_solve_runs_eigvals_once(self, monkeypatch):
        calls = self.count_eigvals(monkeypatch)
        with pytest.raises(ValueError, match="^A is not Hurwitz to working precision$"):
            solve_lyapunov(np.array([[0.0, 1.0], [1.0, -1.0]]), np.eye(2))
        assert len(calls) == 1

    def test_uncertified_solve_runs_eigvals(self, monkeypatch):
        # the solve reaches its residual, but P = diag(-1/2, 1/4) is
        # indefinite: the eigenvalue test finds A (eigenvalues 1, -2) unstable
        a = np.diag([1.0, -2.0])
        calls = self.count_eigvals(monkeypatch)
        with pytest.raises(ValueError, match="^A is not Hurwitz to working precision$"):
            solve_lyapunov(a, np.eye(2))
        assert len(calls) == 1
        assert not linalg.is_hurwitz(a)

