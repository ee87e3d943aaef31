import math

import numpy as np
import pytest

from arolc.linalg import (
    invert,
    is_hurwitz,
    min_eig_symmetric,
    solve_lyapunov,
    spectral_norm,
    symmetrize,
)


def random_hurwitz(rng, n):
    r = rng.standard_normal((n, n))
    return -(r.T @ r + (0.5 + rng.random()) * np.eye(n))


def random_spd(rng, n):
    r = rng.standard_normal((n, n))
    return r.T @ r + (0.1 + rng.random()) * np.eye(n)


class TestSolveLyapunov:
    def test_scalar(self):
        # scalar case: -2p = -2
        p = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert p == pytest.approx(np.array([[1.0]]))

    def test_diagonal(self):
        p = solve_lyapunov(-np.eye(2), 2.0 * np.eye(2))
        np.testing.assert_allclose(p, np.eye(2), atol=1e-12)

    def test_companion_2x2(self):
        # Hand solve of the 3-unknown system for A = [[0,1],[-1,-1]], Q = I:
        # -2b = -1, a - b - c = 0, 2(b - c) = -1  =>  P = [[1.5, 0.5], [0.5, 1.0]]
        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        p = solve_lyapunov(a, np.eye(2))
        np.testing.assert_allclose(p, [[1.5, 0.5], [0.5, 1.0]], atol=1e-12)
        resid = a.T @ p + p @ a + np.eye(2)
        assert np.abs(resid).max() <= 1e-10

    def test_random_residual_and_spd(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 13))  # through the 12 x 12 error system of n = 6
            a = random_hurwitz(rng, n)
            q = random_spd(rng, n)
            p = solve_lyapunov(a, q)
            resid = np.abs(a.T @ p + p @ a + q).max()
            assert resid <= 1e-10 * np.abs(q).max()
            assert min_eig_symmetric(p) > 0.0

    def test_unstable_a_rejected(self):
        with pytest.raises(ValueError, match="A is not Hurwitz to working precision"):
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_non_finite_p_rejected(self):
        # A is Hurwitz (eigenvalue -1e-320), but P = 1/(2e-320) overflows:
        # a NaN-safe residual test reports it, with no warning on the way
        with pytest.raises(ValueError, match="^Lyapunov solve gave a non-finite P$"):
            solve_lyapunov(np.array([[-1e-320]]), np.eye(1))

    def test_indefinite_q_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("q", [np.diag([1.0, 0.0]), np.ones((2, 2))], ids=["diag", "rank-1"])
    def test_semidefinite_q_rejected(self, q):
        with pytest.raises(ValueError, match="Q must be positive definite"):
            solve_lyapunov(-np.eye(2), q)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"dimension mismatch: A \(2, 2\), Q \(3, 3\)"):
            solve_lyapunov(-np.eye(2), np.eye(3))

    @staticmethod
    def count_solves(monkeypatch):
        calls = []
        real = np.linalg.solve

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        return calls

    def test_refinement_step_reaches_the_residual(self, monkeypatch):
        # lightly damped (eigenvalues -1.1e-6 +- 6.33j): the first solve
        # misses the 1e-10 max|Q| residual by about 9x, the refined P meets
        # it with about 16x to spare
        a = np.array([[-0.020429249827821034, -2.1839269725590658],
                      [18.335499685873227, 0.020426961449230757]])
        q = np.eye(2)
        calls = self.count_solves(monkeypatch)
        p = solve_lyapunov(a, q)
        assert len(calls) == 2
        assert np.abs(a.T @ p + p @ a + q).max() <= 1e-10 * np.abs(q).max()
        np.testing.assert_array_equal(p, p.T)

    def test_residual_out_of_reach_rejected(self, monkeypatch):
        # eigenvalues -1.5e-8 +- 0.187j: the operator is so ill-conditioned
        # that the refined P still misses the residual by about 1000x
        a = np.array([[-0.3313915091304589, 1.8912750043832163],
                      [-0.07647299408067113, 0.33139147984378714]])
        calls = self.count_solves(monkeypatch)
        with pytest.raises(ValueError, match="did not reach required residual"):
            solve_lyapunov(a, np.eye(2))
        assert len(calls) == 2


class TestMinEigSymmetric:
    def test_identity(self):
        assert min_eig_symmetric(np.eye(2)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert min_eig_symmetric(np.diag([2.0, 5.0])) == pytest.approx(2.0)

    def test_2x2(self):
        # characteristic polynomial (2-x)^2 - 1 = 0 -> x in {1, 3}
        assert min_eig_symmetric([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 4) - 2.0 * np.eye(4)
        m = 0.5 * (m + m.T)
        for c in [0.25, 1.0, 3.5]:
            assert min_eig_symmetric(c * m) == pytest.approx(
                c * min_eig_symmetric(m), rel=1e-10, abs=1e-12
            )

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            min_eig_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_tiny_asymmetry_tolerated(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        assert min_eig_symmetric(m) == pytest.approx(1.0, rel=1e-9)

    def test_all_zero_input(self):
        # no scale to measure the asymmetry against: symmetric as it stands
        assert min_eig_symmetric(np.zeros((3, 3))) == 0.0

    def test_entries_at_the_float_limit(self):
        # M + M^T overflows here: a symmetric M is its own symmetric part, an
        # asymmetric one within tolerance is halved before the sum
        big = np.finfo(float).max
        assert min_eig_symmetric(np.diag([big, 1e308])) == 1e308
        m = np.array([[1e308, 1e308], [1e308 * (1 + 1e-12), 1e308]])
        assert np.isfinite(symmetrize(m)).all()
        assert symmetrize(m)[0, 1] == symmetrize(m)[1, 0] > 1e308


class TestSpectralNorm:
    def test_zero(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_symmetric_2x2(self):
        # eigenvalues (10 +- sqrt(36.2)) / 2 of this symmetric matrix
        m = np.array([[4.2, 2.9], [2.9, 5.8]])
        expected = (10.0 + math.sqrt(36.2)) / 2.0
        assert spectral_norm(m) == pytest.approx(expected, rel=1e-12)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            assert spectral_norm(m) == pytest.approx(spectral_norm(m.T), rel=1e-12)

    def test_vector_is_its_euclidean_norm(self):
        assert spectral_norm([3.0, 4.0]) == 5.0

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_input(self, shape):
        assert spectral_norm(np.zeros(shape)) == 0.0


class TestInvert:
    def test_identity(self):
        np.testing.assert_allclose(invert(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14
        )

    def test_lyapunov_solution_inverse(self):
        # adjugate over det = 1.25
        m = np.array([[1.5, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(
            invert(m), [[0.8, -0.4], [-0.4, 1.2]], atol=1e-12
        )

    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_spd(rng, 4)
            np.testing.assert_allclose(invert(invert(m)), m, atol=1e-9)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            invert(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_ill_conditioned_rejected(self):
        # the 8 x 8 Hilbert matrix (condition number about 1.5e10) has an
        # inverse in floats, but max|M M^-1 - I| is about 1e-7
        hilbert = 1.0 / (np.arange(8)[:, None] + np.arange(8)[None, :] + 1.0)
        with pytest.raises(ValueError, match="too ill-conditioned to invert"):
            invert(hilbert)


@pytest.mark.parametrize("func", [is_hurwitz, min_eig_symmetric, invert,
                                  lambda m: solve_lyapunov(m, np.eye(2))],
                         ids=["is_hurwitz", "min_eig_symmetric", "invert", "solve_lyapunov"])
@pytest.mark.parametrize("m, message", [
    (np.ones((2, 3)), r"expected a square matrix, got shape \(2, 3\)"),
    (np.ones(2), r"expected a square matrix, got shape \(2,\)"),
    (np.array([[-1.0, 0.0], [0.0, math.nan]]), "matrix has non-finite entries"),
    (np.array([[-1.0, math.inf], [0.0, -1.0]]), "matrix has non-finite entries"),
], ids=["2x3", "vector", "nan", "inf"])
def test_square_finite_input_required(func, m, message):
    with pytest.raises(ValueError, match=message):
        func(m)


class TestIsHurwitz:
    def test_negative_identity(self):
        assert is_hurwitz(-np.eye(3))

    def test_double_integrator(self):
        assert not is_hurwitz(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_companion(self):
        # roots of s^2 + s + 1: real part -1/2
        assert is_hurwitz(np.array([[0.0, 1.0], [-1.0, -1.0]]))
