"""The Razumikhin analysis against the eigenvalue-first formulation.

solve_lyapunov certifies A Hurwitz by the Cholesky factors of P and of
Q - resid, and runs the eigenvalue test only when the solve or the
certificate fails. The reference below is the earlier path as it was
written: every check first (the square and finite test, the symmetry test,
the Cholesky factor of Q and is_hurwitz's np.linalg.eigvals), then the
solve on the m^2 x m^2 Kronecker operator; E through symmetrize, and
lambda_min(Psi) through symmetrize before min_eig_symmetric, each
re-checking its input. solve_lyapunov now solves the m(m+1)/2 equations in
P's free entries, so its P rounds otherwise: the analysis must return
values within the stated relative bounds of the reference's wherever the
reference returns, with P exactly symmetric and within the 1e-10 max|Q|
residual, and raise the same message wherever it raises, except on the
named draws whose outcome moved.
"""

import numpy as np
import pytest

from arolc import linalg
from arolc.linalg import solve_lyapunov, symmetrize
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


# Relative bounds against the reference, max|got - ref| <= RTOL * max|ref|
# for P, E, ||E||, ||B^T P|| and the margin. Largest measured over
# TestSameAnalysis's draws (n = 1, 2, 3, 6): P 1.6e-15, E 8.2e-15, ||E||
# 8.5e-15, ||B^T P|| 1.6e-15, the margin 8.6e-15.
RTOL = 1e-13
# Each ultimate bound, relative to the reference's: 3.6e-14 measured. At
# h = 0.9 margin, lambda_min(Q - h E) keeps about a tenth of lambda_min(Q),
# which multiplies E's relative error about tenfold.
BOUND_RTOL = 1e-12
# P of a draw that both paths solve, relative to the reference's. Both meet
# the residual contract, but an ill-conditioned operator leaves the rest of
# P free: 1.4e-10 measured (seed 3504, draw 111), 6.6e-16 on the unstable
# family's Hurwitz draws.
SOLVED_P_RTOL = 1e-9


def assert_close(got, ref, rtol):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max(), (got, ref)


def assert_lyapunov_solution(a, q, p):
    """P exactly symmetric, within the residual contract."""
    np.testing.assert_array_equal(p, p.T)
    assert np.abs(a.T @ p + p @ a + q).max() <= 1e-10 * np.abs(q).max()


class TestSameAnalysis:
    @pytest.mark.parametrize("asymmetric", [False, True], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_byte_equal(self, n, asymmetric):
        # byte-equal up to the Kronecker solve's rounding: within RTOL and
        # BOUND_RTOL of the reference, lambda_min(Q) byte for byte
        for seed in range(12):
            args, bp = _draw(seed, n, asymmetric)
            if asymmetric:
                assert args[2].tobytes() != args[2].T.tobytes()
            p, e, q_min, e_norm, bp_norm = ref_error_system(*args)
            gains = GainSet(*args)
            system = build_error_system(gains)
            assert_lyapunov_solution(system.A, symmetrize(args[2]), system.P)
            assert_close(system.P, p, RTOL)
            assert_close(system.E, e, RTOL)
            assert float(system.q_min).hex() == float(q_min).hex()
            assert_close(system.e_norm, e_norm, RTOL)
            assert_close(system.bp_norm, bp_norm, RTOL)
            margin = delay_margin(gains)
            assert_close(margin, q_min / e_norm, RTOL)
            assert check_feasibility(gains, margin) == (system.q_min > margin * system.e_norm)
            for h in (0.0, margin * (1.0 - 1e-6), margin * (1.0 + 1e-6), 2.0 * margin):
                assert check_feasibility(gains, h) == (q_min > h * e_norm)
            for h in (0.5 * margin, 0.9 * margin):
                params = BoundParams(h=h, **bp)
                got = [ultimate_bound(case, gains, params) for case in range(1, 7)]
                for value, ref in zip(got, ref_bounds(args[2], e, bp_norm, params)):
                    assert_close(value, ref, BOUND_RTOL)


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


OK = "ok"
SINGULAR = "singular Lyapunov system"
RESIDUAL = "Lyapunov solve did not reach required residual"

# (seed, draw): (the reference's outcome, solve_lyapunov's) of the draws of
# test_random_a whose outcome moved with the m(m+1)/2 system, each with its
# m and the range of the real parts of A's eigenvalues. Every "A is not
# Hurwitz to working precision" of the reference holds (351 of 600). Near
# the imaginary axis (the marginal family, and lightly damped or Jordan-like
# ill-conditioned draws) the two operators round to an exactly singular
# factor on different draws, and a draw that one finds singular the other
# misses the residual on. One draw that the reference solves is rejected:
# its residual stalls at 1.4 to 1.8 times the 1e-10 max|Q| bound under
# repeated refinement, the rounding floor of that operator (condition
# number 1.4e7).
MOVED = {
    (3503, 15): (RESIDUAL, SINGULAR),  # m = 4, Re eig -1.73 .. -2.89e-17
    (3503, 16): (SINGULAR, RESIDUAL),  # m = 3, Re eig -0.508 .. -1.08e-16
    (3503, 36): (SINGULAR, RESIDUAL),  # m = 3, Re eig -1.39 .. -2.94e-15
    (3503, 53): (SINGULAR, RESIDUAL),  # m = 3, Re eig -0.521 .. -2.22e-16
    (3503, 55): (SINGULAR, RESIDUAL),  # m = 3, Re eig -0.749 .. -1.67e-16
    (3503, 58): (SINGULAR, RESIDUAL),  # m = 2, Re eig -1.42 .. -6.94e-18
    (3503, 63): (SINGULAR, RESIDUAL),  # m = 3, Re eig -0.945 .. -3.33e-16
    (3503, 91): (SINGULAR, RESIDUAL),  # m = 3, Re eig -1.58 .. -8.33e-17
    (3503, 170): (SINGULAR, RESIDUAL),  # m = 3, Re eig -1.29 .. -2.78e-16
    (3503, 174): (SINGULAR, RESIDUAL),  # m = 3, Re eig -0.567 .. -1.22e-15
    (3504, 2): (SINGULAR, RESIDUAL),  # m = 2, Re eig -0.00359 .. -0.00359
    (3504, 11): (RESIDUAL, SINGULAR),  # m = 2, Re eig -0.0683 .. -0.0683
    (3504, 28): (RESIDUAL, SINGULAR),  # m = 2, Re eig -0.145 .. -0.144
    (3504, 29): (SINGULAR, RESIDUAL),  # m = 2, Re eig -0.0281 .. -0.0281
    (3504, 40): (RESIDUAL, SINGULAR),  # m = 2, Re eig -0.00677 .. -0.00677
    (3504, 107): (OK, RESIDUAL),  # m = 4, Re eig -2.23e+03 .. -0.000178
    (3504, 142): (SINGULAR, RESIDUAL),  # m = 2, Re eig -0.702 .. -0.702
}

# delay_margin's message where the reference's symmetrize found E non-finite
E_OVERFLOW = "E has non-finite entries: the gains overflow the margin analysis"


class TestSameRejection:
    @pytest.mark.parametrize("seed, family", [(3502, _unstable), (3503, _marginal),
                                              (3504, _ill_conditioned)],
                             ids=["unstable", "marginal", "ill-conditioned"])
    def test_random_a(self, seed, family):
        rng = np.random.default_rng(seed)
        raised = 0
        for draw in range(200):
            a = family(rng)
            q = _spd(rng, a.shape[0], 0.1, 5.0)
            try:
                with np.errstate(all="ignore"):
                    ref = ref_solve_lyapunov(a, q)
                expected = OK
            except ValueError as exc:
                expected = str(exc)
            raised += expected != OK
            try:
                p = solve_lyapunov(a, q)
                got = OK
            except ValueError as exc:
                got = str(exc)
            assert (expected, got) == MOVED.get((seed, draw), (expected, expected)), draw
            if got == OK:
                assert_lyapunov_solution(a, q, p)
                if expected == OK:
                    assert_close(p, ref, SOLVED_P_RTOL)
        assert raised > 0

    @pytest.mark.parametrize("gain", [1e-300, 1e-320, 1e200])
    @pytest.mark.parametrize("key", ["k1", "k2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_extreme_scalar_gains(self, gain, key, n):
        # identity-scaled gains keep the margin byte for byte
        gains = GainSet.identity(n, **{key: gain})

        def ref_margin():
            _, _, q_min, e_norm, _ = ref_error_system(gains.K1, gains.K2, gains.Q, gains.r,
                                                      gains.beta)
            return q_min / e_norm

        expected = ref_outcome(ref_margin)
        if expected == ("raises", "matrix has non-finite entries"):
            expected = ("raises", E_OVERFLOW)
        assert outcome(delay_margin, gains) == expected


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



class TestOneLyapunovCore:
    """build_error_system hands GainSet's checked Q to the core that
    solve_lyapunov calls after its own checks: one solve, one set of
    messages."""

    @pytest.mark.parametrize("asymmetric", [False, True], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_build_p_byte_equal_to_public_solve(self, n, asymmetric):
        for seed in range(12):
            args, _ = _draw(seed, n, asymmetric)
            system = build_error_system(GainSet(*args))
            assert system.P.tobytes() == solve_lyapunov(system.A, args[2]).tobytes()

    @pytest.mark.parametrize("a", [
        np.zeros((2, 2)),  # a singular operator: the solve fails
        np.diag([1.0, -2.0]),  # the solve succeeds, the factorization fails
        np.array([[0.0, 1.0], [1.0, -1.0]]),
    ], ids=["singular", "indefinite-p", "saddle"])
    def test_q_message_before_a_message(self, a):
        # Q was checked before the solve: an indefinite Q still names Q
        # first, whichever step of the solve fails, though A is not Hurwitz
        assert not linalg.is_hurwitz(a)
        with pytest.raises(ValueError, match="^Q must be positive definite$"):
            solve_lyapunov(a, np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="^A is not Hurwitz to working precision$"):
            solve_lyapunov(a, np.eye(2))
