import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arolc import linalg, stability
from arolc.linalg import is_hurwitz, min_eig_symmetric, solve_lyapunov, spectral_norm
from arolc.stability import (
    BoundParams,
    GainSet,
    build_error_system,
    check_feasibility,
    delay_margin,
    reaching_time,
    ultimate_bound,
)

IDENTITY_GAINS = GainSet.identity(1)  # K1 = K2 = 1, Q = I2, r = 1.1, beta = 1

# margin from the hand-assembled E = [[4.2, 2.9], [2.9, 5.8]]:
# ||E|| = (10 + sqrt(36.2)) / 2, margin = 1 / ||E||
HAND_MARGIN = 2.0 / (10.0 + math.sqrt(36.2))


def _spd(rng, k, lo, hi):
    """Random SPD k x k matrix with eigenvalues in [lo, hi)."""
    basis, _ = np.linalg.qr(rng.standard_normal((k, k)))
    m = (basis * rng.uniform(lo, hi, k)) @ basis.T
    return 0.5 * (m + m.T)


def _pinned_case(seed):
    """Seeded gain set (n = 1, 2, 3, 6 by seed) and BoundParams scalars."""
    rng = np.random.default_rng(seed)
    n = (1, 2, 3, 6)[seed % 4]
    gains = GainSet(_spd(rng, n, 0.5, 3.0), _spd(rng, n, 0.5, 3.0), _spd(rng, 2 * n, 0.5, 2.0),
                    r=2.0 - rng.random(), beta=2.0 - 1.5 * rng.random())
    bp = dict(c=rng.uniform(0.0, 2.0), Gamma=rng.uniform(0.0, 1.0),
              theta_norm=rng.uniform(0.0, 0.5), alpha=rng.uniform(1.5, 3.0),
              epsilon=rng.uniform(0.05, 0.2), c_hat=rng.uniform(0.01, 2.0))
    return gains, bp


# seed: (delay_margin, ||E||, ultimate bounds 1-6 at h = margin / 2) as
# float.hex, recorded before the error system was cached on the GainSet,
# from the Kronecker solve of P. The m(m+1)/2 system holds them within
# PINNED_RTOL: 1.4e-15 measured (seed 5), 0 at n = 1 (seeds 0 and 4).
PINNED_RTOL = 1e-13
PINNED = {
    0: ('0x1.f5f4f8c19ac3bp-5', '0x1.577d5bb37f7d1p+4',
        ('0x1.4eb761bc8698cp+1', '0x1.6683b83807d0ap+2', '0x1.1c982cc9dffc2p-1', '0x1.d25b0511ee65ap-2', '0x1.6e9f3fbd250b8p-1', '0x1.293f9ce0fad14p-1')),
    1: ('0x1.c32ff1421d06ep-7', '0x1.877baf481c150p+5',
        ('0x1.ef05ce72b6dc2p+0', '0x1.8db35305ef672p+2', '0x1.214b43e901d5ap+2', '0x1.e88e05e3b6cfap+0', '0x1.32498cacd9c44p+1', '0x1.072cac094ecb0p+1')),
    2: ('0x1.9301e8caec8aap-8', '0x1.58a9636e324b6p+6',
        ('0x1.473239db27fb6p+1', '0x1.fe659e973a86ep+0', '0x1.fe65b98dded08p+0', '0x1.0413ebecbce67p+1', '0x1.01f2e67bc620ap+1', '0x1.02f07c87319cfp+1')),
    3: ('0x1.6c210f55dd999p-8', '0x1.f96611b258081p+6',
        ('0x1.dbb2ad3745bf9p+0', '0x1.7b34e8327e6d9p+0', '0x1.7b34fac5f3603p+0', '0x1.8212531fb9122p+0', '0x1.80246ab5d1a74p+0', '0x1.811182e4ef1b1p+0')),
    4: ('0x1.2c276627f326ap-4', '0x1.1f5167aebafb4p+4',
        ('0x1.6ff41fbfdc90ep+1', '0x1.69be23faf0998p+0', '0x1.69be33013a930p+0', '0x1.7998bd4018028p+0', '0x1.6a1cd4fb401aap+0', '0x1.6f12256c3e74fp+0')),
    5: ('0x1.4e77435119da1p-7', '0x1.894b8137576e4p+5',
        ('0x1.9704c313fd474p+1', '0x1.27226bc8b6e6ep+0', '0x1.2722898bcc73ep+0', '0x1.30a46e5aabe5dp+0', '0x1.27226bc8b6e6ep+0', '0x1.291381712efe6p+0')),
    6: ('0x1.53c5c5fcd57fbp-7', '0x1.3ae08a13cc6f6p+6',
        ('0x1.3c15ee5f52cc3p+1', '0x1.2c49e7c20876bp+0', '0x1.2c49fa3214b0dp+0', '0x1.32d9f2ed020fdp+0', '0x1.3da2a993cb7d7p+0', '0x1.37a2ca64cdc45p+0')),
    7: ('0x1.013ad8580f7b3p-10', '0x1.132f74856b878p+9',
        ('0x1.2af31c803c7f6p+1', '0x1.6b648398a3b53p-1', '0x1.6b64dca4f8c36p-1', '0x1.7f61d3830122ap-1', '0x1.8036ca46df053p-1', '0x1.7fcc2341fc479p-1')),
}


class TestBuildErrorSystem:
    def test_blocks_and_p(self):
        sys_ = build_error_system(IDENTITY_GAINS)
        np.testing.assert_allclose(sys_.A, [[0.0, 1.0], [-1.0, -1.0]])
        np.testing.assert_allclose(sys_.B, [[0.0], [1.0]])
        np.testing.assert_allclose(sys_.P, [[1.5, 0.5], [0.5, 1.0]], atol=1e-12)

    def test_margin_matrix_hand_assembly(self):
        # inner sum A1 P^-1 A1^T + B1 P^-1 B1^T + P^-1 = [[2.0, -0.4], [-0.4, 2.4]],
        # then E = P B1 (inner) B1^T P + 2.2 P = [[4.2, 2.9], [2.9, 5.8]]
        sys_ = build_error_system(IDENTITY_GAINS)
        np.testing.assert_allclose(sys_.E, [[4.2, 2.9], [2.9, 5.8]], atol=1e-10)

    def test_a_hurwitz_for_random_spd_gains(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            w1 = rng.standard_normal((n, n))
            w2 = rng.standard_normal((n, n))
            g = GainSet(
                w1.T @ w1 + 0.2 * np.eye(n),
                w2.T @ w2 + 0.2 * np.eye(n),
                np.eye(2 * n),
            )
            assert is_hurwitz(build_error_system(g).A)

    def test_e_symmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            w1 = rng.standard_normal((n, n))
            w2 = rng.standard_normal((n, n))
            wq = rng.standard_normal((2 * n, 2 * n))
            g = GainSet(
                w1.T @ w1 + 0.3 * np.eye(n),
                w2.T @ w2 + 0.3 * np.eye(n),
                wq.T @ wq + 0.3 * np.eye(2 * n),
                r=1.0 + rng.random(),
                beta=0.5 + rng.random(),
            )
            e = build_error_system(g).E
            assert np.abs(e - e.T).max() <= 1e-9 * np.abs(e).max()


class TestErrorSystemCache:
    def test_same_object(self):
        gains = GainSet.identity(2)
        assert build_error_system(gains) is build_error_system(gains)

    def test_one_lyapunov_solve_per_gain_set(self, monkeypatch):
        solves = []
        real = stability._solve_lyapunov

        def counting(*args):
            solves.append(1)
            return real(*args)

        monkeypatch.setattr(stability, "_solve_lyapunov", counting)
        gains = GainSet.identity(2)
        margin = delay_margin(gains)
        check_feasibility(gains, 0.5 * margin)
        check_feasibility(gains, 2.0 * margin)
        bp = BoundParams(c=1.0, Gamma=0.4, theta_norm=0.2, c_hat=0.5, h=0.5 * margin)
        for case in range(1, 7):
            ultimate_bound(case, gains, bp)
        assert len(solves) == 1

    def test_arrays_read_only(self):
        gains = GainSet.identity(1)
        system = build_error_system(gains)
        for m in (gains.K1, gains.K2, gains.Q, system.A1, system.B1, system.A,
                  system.B, system.P, system.E):
            with pytest.raises(ValueError):
                m[0, 0] = 5.0

    def test_caller_arrays_copied(self):
        k1 = np.eye(1)
        gains = GainSet(k1, np.eye(1), np.eye(2))
        k1[0, 0] = 50.0  # before the first analysis call
        assert delay_margin(gains) == delay_margin(IDENTITY_GAINS)
        k1[0, 0] = 0.01  # after it
        assert delay_margin(gains) == delay_margin(IDENTITY_GAINS)
        assert gains.K1[0, 0] == 1.0

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda g: pickle.loads(pickle.dumps(g))])
    def test_copies_stay_read_only(self, clone):
        gains = GainSet.identity(2, r=1.3)
        margin = delay_margin(gains)
        twin = clone(gains)
        assert not any(m.flags.writeable for m in (twin.K1, twin.K2, twin.Q))
        assert twin.r == 1.3
        assert delay_margin(twin) == margin

    def test_cached_norms(self):
        gains, _ = _pinned_case(2)
        system = build_error_system(gains)
        assert system.q_min == min_eig_symmetric(gains.Q)
        assert system.e_norm == spectral_norm(system.E)
        assert system.bp_norm == spectral_norm(system.B.T @ system.P)

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_bit_identical_to_recorded_values(self, seed):
        # bit-identical up to the Kronecker solve's rounding: PINNED_RTOL
        gains, bp = _pinned_case(seed)
        margin_hex, e_norm_hex, bounds_hex = PINNED[seed]
        margin = delay_margin(gains)
        assert margin == pytest.approx(float.fromhex(margin_hex), rel=PINNED_RTOL, abs=0.0)
        assert (spectral_norm(build_error_system(gains).E)
                == pytest.approx(float.fromhex(e_norm_hex), rel=PINNED_RTOL, abs=0.0))
        params = BoundParams(h=0.5 * margin, **bp)
        bounds = [ultimate_bound(c, gains, params) for c in range(1, 7)]
        assert bounds == pytest.approx([float.fromhex(b) for b in bounds_hex], rel=PINNED_RTOL,
                                       abs=0.0)


def _kron_solve_lyapunov(a, q):
    """Reference Lyapunov solve, as solve_lyapunov was before it solved for
    P's m(m+1)/2 free entries: the m^2 x m^2 operator from two np.kron
    products, one solve and at most one refinement step."""
    m = a.shape[0]
    eye = np.eye(m)
    k = np.kron(eye, a.T) + np.kron(a.T, eye)

    def solve(rhs):
        return np.linalg.solve(k, rhs.flatten(order="F")).reshape((m, m), order="F")

    p = solve(-q)
    p = 0.5 * (p + p.T)
    resid = a.T @ p + p @ a + q
    if np.abs(resid).max() > 1e-10 * np.abs(q).max():
        p = p - solve(resid)
        p = 0.5 * (p + p.T)
    return p


def _block_error_system(gains):
    """Reference P, E, lambda_min(Q), ||E|| and ||B^T P||: the blocks from
    np.block/np.vstack, P from _kron_solve_lyapunov, the norms from
    np.linalg.norm(., 2)."""
    n = gains.n
    zero, eye = np.zeros((n, n)), np.eye(n)
    a1 = np.block([[zero, eye], [zero, zero]])
    b1 = np.block([[zero, zero], [-gains.K1, -gains.K2]])
    b = np.vstack([zero, eye])
    q = 0.5 * (gains.Q + gains.Q.T)
    p = _kron_solve_lyapunov(a1 + b1, q)
    p_inv = np.linalg.inv(p)
    inner = a1 @ p_inv @ a1.T + b1 @ p_inv @ b1.T + p_inv
    e = gains.beta * (p @ b1 @ inner @ b1.T @ p) + 2.0 * (gains.r / gains.beta) * p
    e = 0.5 * (e + e.T)
    return (p, e, float(np.linalg.eigvalsh(q)[0]), float(np.linalg.norm(e, 2)),
            float(np.linalg.norm(b.T @ p, 2)))


def _seeded_gains(seed, n):
    rng = np.random.default_rng([seed, n])
    return GainSet(_spd(rng, n, 0.05, 30.0), _spd(rng, n, 0.05, 30.0), _spd(rng, 2 * n, 0.01, 20.0),
                   r=2.0 - rng.random(), beta=2.0 - 1.5 * rng.random())


# Relative bound, max|got - ref| <= REFERENCE_RTOL * max|ref|, on P, E,
# ||E|| and ||B^T P|| against the np.block/np.kron/norm(., 2) formulation.
# Largest measured: P 2.3e-15, E 9.0e-15, ||E|| 8.6e-15, ||B^T P|| 2.6e-15
# (the seeded gain sets, n = 2 and 6), P 1.0e-15 from the operator test.
REFERENCE_RTOL = 1e-13


def _assert_close(got, ref, rtol):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max(), (got, ref)


def _assert_lyapunov_solution(a, q, p):
    """P exactly symmetric, within the residual contract."""
    np.testing.assert_array_equal(p, p.T)
    assert np.abs(a.T @ p + p @ a + q).max() <= 1e-10 * np.abs(q).max()


class TestReferenceFormulation:
    """The error system against the np.block/np.kron/norm(., 2) formulation,
    within REFERENCE_RTOL (lambda_min(Q) byte for byte). P matters beyond
    the margin: ArolcConfig.rows = B^T P feeds every AROLC trace."""

    @staticmethod
    def assert_matches_reference(gains):
        system = build_error_system(gains)
        p, e, q_min, e_norm, bp_norm = _block_error_system(gains)
        _assert_lyapunov_solution(system.A, 0.5 * (gains.Q + gains.Q.T), system.P)
        _assert_close(system.P, p, REFERENCE_RTOL)
        _assert_close(system.E, e, REFERENCE_RTOL)
        assert float(system.q_min).hex() == q_min.hex()
        _assert_close(system.e_norm, e_norm, REFERENCE_RTOL)
        _assert_close(system.bp_norm, bp_norm, REFERENCE_RTOL)

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_pinned_cases(self, seed):
        self.assert_matches_reference(_pinned_case(seed)[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_seeded_gain_sets(self, n):
        for seed in range(12):
            self.assert_matches_reference(_seeded_gains(seed, n))

    def test_identity_gains(self):
        # exact zeros in P: only their signs move, so P's values, E and the
        # B^T P rows that the AROLC law reads stay byte for byte
        for n in (1, 2, 3, 6):
            gains = GainSet.identity(n, k1=2.0, k2=3.0, q=0.5)
            system = build_error_system(gains)
            p, e, _, _, _ = _block_error_system(gains)
            np.testing.assert_array_equal(system.P, p)
            assert system.E.tobytes() == e.tobytes()
            assert (system.B.T @ system.P).tobytes() == (system.B.T @ p).tobytes()

    def test_lyapunov_operator(self):
        rng = np.random.default_rng(31)
        for m in range(1, 13):
            a = rng.standard_normal((m, m))
            a -= (np.abs(a).sum(axis=1).max() + 1.0) * np.eye(m)  # Gershgorin discs in Re <= -1
            q = _spd(rng, m, 0.1, 5.0)
            p = solve_lyapunov(a, q)
            _assert_lyapunov_solution(a, q, p)
            _assert_close(p, _kron_solve_lyapunov(a, q), REFERENCE_RTOL)

    def test_spectral_norm(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            x = rng.standard_normal((int(rng.integers(1, 13)), int(rng.integers(1, 13))))
            assert float(spectral_norm(x)).hex() == float(np.linalg.norm(x, 2)).hex()


class TestSymmetricLyapunovSystem:
    """solve_lyapunov's r x r system in P's r = m(m+1)/2 free entries."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_operator_is_the_upper_triangle_of_the_lyapunov_map(self, m, seed, scale):
        # the operator of the plan on X's upper triangle: (A^T X + X A)[i, j]
        # for i < j, half of it for i = j
        rng = np.random.default_rng(seed)
        a = scale * rng.standard_normal((m, m))
        x = rng.standard_normal((m, m))
        x = x + x.T
        rows, cols, unknown, rhs_scale, target, source = linalg._lyapunov_plan(m)
        r = rows.size
        assert r == m * (m + 1) // 2
        np.testing.assert_array_equal(x[rows, cols][unknown], x)
        k = np.bincount(target, weights=a.ravel()[source], minlength=r * r).reshape(r, r)
        want = rhs_scale * (a.T @ x + x @ a)[rows, cols]
        # each entry sums at most 2m products of |A| |X|, rounded
        tol = 8 * m * np.finfo(float).eps * np.abs(a).max() * np.abs(x).max()
        np.testing.assert_allclose(k @ x[rows, cols], want, rtol=0.0, atol=tol)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_identity_gains_byte_equal_to_kronecker(self, n):
        # the shipped gains: P, and with it every AROLC trace, as before
        gains = GainSet.identity(n)
        system = build_error_system(gains)
        assert system.P.tobytes() == _kron_solve_lyapunov(system.A, gains.Q).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_residual_contract_on_margin_grid_draws(self, n):
        # gains drawn as the margin_grid benchmark draws them
        for seed in range(16):
            rng = np.random.default_rng([seed, n, 37])
            gains = GainSet(_spd(rng, n, 0.5, 3.0), _spd(rng, n, 0.5, 3.0),
                            _spd(rng, 2 * n, 0.5, 2.0), r=2.0 - rng.random(),
                            beta=2.0 - 1.5 * rng.random())
            system = build_error_system(gains)
            _assert_lyapunov_solution(system.A, gains.Q, system.P)


class TestPsiReuse:
    @staticmethod
    def count_psi_solves(monkeypatch):
        # ultimate_bound's eigvalsh call on Psi, the one eigvalsh call of an
        # analysis once the GainSet is built
        solves = []
        real = np.linalg.eigvalsh

        def counting(m, *args, **kwargs):
            solves.append(1)
            return real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return solves

    def test_one_psi_solve_per_gain_set_and_delay(self, monkeypatch):
        gains, bp = _pinned_case(5)
        margin = delay_margin(gains)
        solves = self.count_psi_solves(monkeypatch)
        for h in (0.5 * margin, 0.25 * margin):
            params = BoundParams(h=h, **bp)
            for case in range(1, 7):
                ultimate_bound(case, gains, params)
            ultimate_bound(3, gains, params)
        assert len(solves) == 2

    def test_one_lambda_min_of_q_per_gain_set(self, monkeypatch):
        gains, bp = _pinned_case(6)
        q = 0.5 * (gains.Q + gains.Q.T)
        inputs = []
        real = np.linalg.eigvalsh

        def recording(m, *args, **kwargs):
            inputs.append(np.array(m))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        twin = GainSet(gains.K1, gains.K2, gains.Q, gains.r, gains.beta)
        margin = delay_margin(twin)
        check_feasibility(twin, 0.5 * margin)
        params = BoundParams(h=0.5 * margin, **bp)
        for case in range(1, 7):
            ultimate_bound(case, twin, params)
        assert sum(m.shape == q.shape and np.array_equal(m, q) for m in inputs) == 1

    def test_revisited_delay_matches_fresh_gain_sets(self):
        gains, bp = _pinned_case(3)
        margin = delay_margin(gains)
        for h in (0.5 * margin, 0.2 * margin, 0.5 * margin, 0.0, 0.2 * margin):
            params = BoundParams(h=h, **bp)
            fresh, _ = _pinned_case(3)
            for case in range(1, 7):
                got = float(ultimate_bound(case, gains, params))
                assert got.hex() == float(ultimate_bound(case, fresh, params)).hex()

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda g: pickle.loads(pickle.dumps(g))])
    def test_copies_carry_no_stored_psi(self, clone):
        gains, bp = _pinned_case(1)
        params = BoundParams(h=0.5 * delay_margin(gains), **bp)
        bound = ultimate_bound(2, gains, params)
        assert "_psi" in gains.__dict__
        twin = clone(gains)
        assert "_psi" not in twin.__dict__ and "_system" not in twin.__dict__
        assert float(ultimate_bound(2, twin, params)).hex() == float(bound).hex()

    def test_infeasible_delay_raises_on_every_call(self, monkeypatch):
        gains = GainSet.identity(1)  # margin 0.1249
        solves = self.count_psi_solves(monkeypatch)
        bp = BoundParams(h=0.2)
        for case in (1, 1, 2, 3, 4, 5, 6, 1):
            with pytest.raises(ValueError, match="delay too large"):
                ultimate_bound(case, gains, bp)
        assert len(solves) == 1
        assert ultimate_bound(1, gains, BoundParams(Gamma=0.5, h=0.0)) == pytest.approx(1.0)


class TestCallBudget:
    """The factorizations and eigenvalue solves of one analysis of a fresh
    GainSet: Q is checked when it is built, so the rest costs one stacked
    Cholesky call (Q, P and the certificate's W), one eigvalsh call on Psi
    and no eigvals call."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_one_cholesky_one_psi_eigvalsh_no_eigvals(self, n, monkeypatch):
        calls = {"cholesky": [], "eigvalsh": [], "eigvals": []}
        for name, record in calls.items():
            def counting(m, *args, _real=getattr(np.linalg, name), _record=record, **kwargs):
                _record.append(np.shape(m))
                return _real(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        for seed in range(4):
            gains = _seeded_gains(seed, n)
            for record in calls.values():
                record.clear()
            margin = delay_margin(gains)
            check_feasibility(gains, 0.5 * margin)
            check_feasibility(gains, 2.0 * margin)
            bp = BoundParams(c=1.0, Gamma=0.4, theta_norm=0.2, c_hat=0.5, h=0.5 * margin)
            for case in range(1, 7):
                ultimate_bound(case, gains, bp)
            m = 2 * n
            assert calls == {"cholesky": [(3, m, m)], "eigvalsh": [(m, m)], "eigvals": []}


class TestDelayMargin:
    def test_reference_margin(self):
        # 125 ms for the identity tuning
        assert delay_margin(IDENTITY_GAINS) == pytest.approx(0.125, abs=1e-3)

    def test_hand_derived_value(self):
        assert delay_margin(IDENTITY_GAINS) == pytest.approx(HAND_MARGIN, rel=1e-12)

    def test_monotone_in_r(self):
        g2 = GainSet.identity(1, r=2.2)
        assert delay_margin(g2) < delay_margin(IDENTITY_GAINS)

    def test_scale_invariance_in_q(self):
        rng = np.random.default_rng(4)
        base = delay_margin(IDENTITY_GAINS)
        for _ in range(10):
            c = 0.1 + 9.9 * rng.random()
            g = GainSet.identity(1, q=c)
            assert delay_margin(g) == pytest.approx(base, rel=1e-9)

    def test_dimension_independence_for_scalar_gains(self):
        margins = [delay_margin(GainSet.identity(n)) for n in (1, 2, 3)]
        assert margins[1] == pytest.approx(margins[0], abs=1e-8)
        assert margins[2] == pytest.approx(margins[0], abs=1e-8)


class TestCheckFeasibility:
    def test_zero_delay_always_feasible(self):
        assert check_feasibility(IDENTITY_GAINS, 0.0)

    def test_reference_thresholds(self):
        assert check_feasibility(IDENTITY_GAINS, 0.120)
        assert not check_feasibility(IDENTITY_GAINS, 0.130)

    def test_equivalence_with_margin(self):
        margin = delay_margin(IDENTITY_GAINS)
        for h in np.linspace(0.0, 0.3, 31):
            assert check_feasibility(IDENTITY_GAINS, float(h)) == (h < margin)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            check_feasibility(IDENTITY_GAINS, -0.01)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -0.01])
    def test_non_finite_delay_rejected(self, h):
        with pytest.raises(ValueError, match="delay") as info:
            check_feasibility(IDENTITY_GAINS, h)
        assert str(info.value).startswith("delay must be ")


class TestInputValidation:
    @pytest.mark.parametrize("field, value", [
        ("c", math.nan), ("Gamma", math.inf), ("theta_norm", math.nan), ("h", math.inf),
        ("h", math.nan), ("epsilon", math.nan), ("gamma", math.inf), ("c_hat", math.nan),
        ("alpha", math.nan), ("alpha", math.inf), ("c", -1.0), ("epsilon", 0.0),
        ("c", math.inf), ("Gamma", math.nan), ("Gamma", -1.0), ("theta_norm", math.inf),
        ("theta_norm", -1.0), ("h", -1.0), ("epsilon", math.inf), ("gamma", math.nan),
        ("gamma", 0.0), ("c_hat", math.inf), ("c_hat", -1.0), ("alpha", 1.0),
    ])
    def test_bound_params_rejected(self, field, value):
        with pytest.raises(ValueError, match=field) as info:
            BoundParams(**{field: value})
        assert str(info.value).startswith(f"{field} must be ")  # scenario_io's key

    @pytest.mark.parametrize("field, value", [
        ("r", math.inf), ("r", math.nan), ("r", 1.0),
        ("beta", math.inf), ("beta", math.nan), ("beta", 0.0),
    ])
    def test_gain_set_scalars_rejected(self, field, value):
        with pytest.raises(ValueError, match=field) as info:
            GainSet.identity(1, **{field: value})
        assert str(info.value).startswith(f"{field} must be ")

    @pytest.mark.parametrize("changes, message", [
        ({"K1": np.diag([1.0, -1.0])}, "K1 must be symmetric positive definite"),
        ({"K2": np.zeros((2, 2))}, "K2 must be symmetric positive definite"),
        ({"Q": np.diag([1.0, 1.0, 1.0, 0.0])}, "Q must be symmetric positive definite"),
        ({"K2": np.eye(3)}, "K1 and K2 must have identical shape"),
        ({"Q": np.eye(2)}, "Q must be 2n x 2n"),
    ], ids=["K1-indefinite", "K2-zero", "Q-semidefinite", "K2-shape", "Q-shape"])
    def test_gain_set_matrices_rejected(self, changes, message):
        gains = {"K1": np.eye(2), "K2": np.eye(2), "Q": np.eye(4), **changes}
        with pytest.raises(ValueError, match=f"^{message}$"):
            GainSet(**gains)


class TestUltimateBound:
    def test_case1_zero_disturbance(self):
        bp = BoundParams(Gamma=0.0, theta_norm=0.0, h=0.0)
        assert ultimate_bound(1, IDENTITY_GAINS, bp) == 0.0

    def test_case1_unit_psi(self):
        # h = 0 makes Psi = Q = I, lambda_min = 1; bound = sqrt(2 * 0.5 / 1) = 1
        bp = BoundParams(Gamma=0.5, theta_norm=0.0, h=0.0)
        assert ultimate_bound(1, IDENTITY_GAINS, bp) == pytest.approx(1.0)

    def test_case4_vanishes_with_epsilon(self):
        b1 = ultimate_bound(4, IDENTITY_GAINS, BoundParams(Gamma=0.0, epsilon=1e-6))
        b2 = ultimate_bound(4, IDENTITY_GAINS, BoundParams(Gamma=0.0, epsilon=1e-12))
        assert b2 < b1 < 1e-2

    def test_all_cases_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            bp = BoundParams(
                c=float(rng.random() * 3),
                Gamma=float(rng.random()),
                theta_norm=float(rng.random()),
                alpha=1.0 + float(rng.random() * 3),
                epsilon=0.01 + float(rng.random()),
                gamma=1e-3,
                c_hat=1e-3 + float(rng.random() * 5),
                h=float(rng.random() * 0.1),
            )
            for case in range(1, 7):
                assert ultimate_bound(case, IDENTITY_GAINS, bp) >= 0.0

    def test_bounds_shrink_with_larger_psi(self):
        # smaller h -> larger lambda_min(Psi) -> no larger bound
        tight = BoundParams(c=1.0, Gamma=0.4, theta_norm=0.2, c_hat=0.5, h=0.10)
        loose = BoundParams(c=1.0, Gamma=0.4, theta_norm=0.2, c_hat=0.5, h=0.02)
        for case in range(1, 7):
            assert ultimate_bound(case, IDENTITY_GAINS, loose) <= ultimate_bound(
                case, IDENTITY_GAINS, tight
            )

    def test_infeasible_delay_rejected(self):
        with pytest.raises(ValueError, match="delay too large"):
            ultimate_bound(1, IDENTITY_GAINS, BoundParams(h=0.2))

    def test_bad_case_id(self):
        with pytest.raises(ValueError):
            ultimate_bound(7, IDENTITY_GAINS, BoundParams())

    @pytest.mark.parametrize("case", range(1, 7))
    def test_delay_whose_h_e_overflows_is_too_large(self, case):
        # h E overflows Psi: the delay's own message, and no warning
        gains = GainSet.identity(2)
        for _ in range(2):  # the stored lambda_min answers the second call
            with pytest.raises(ValueError, match="^delay too large for bound$"):
                ultimate_bound(case, gains, BoundParams(h=1e308))

    # the scalars that each case reads, past Psi's lambda_min
    READS = {1: {"theta_norm", "Gamma"}, 2: {"c", "theta_norm", "Gamma"},
             3: {"c", "theta_norm", "Gamma"}, 4: {"theta_norm", "Gamma"},
             5: {"c", "theta_norm", "Gamma"}, 6: {"c", "theta_norm", "Gamma"}}

    @pytest.mark.parametrize("field", ["c", "theta_norm", "Gamma"])
    @pytest.mark.parametrize("case", range(1, 7))
    def test_overflowing_terms_give_inf(self, case, field):
        # c or theta_norm = 1e308 overflowed ** 2 into an OverflowError
        # (cases 4-6); every case that reads the scalar now reads +inf, and
        # one that does not keeps its bound
        gains = GainSet.identity(2)
        got = ultimate_bound(case, gains, BoundParams(h=0.05, **{field: 1e308}))
        want = math.inf if field in self.READS[case] else ultimate_bound(
            case, gains, BoundParams(h=0.05))
        assert got == want


class TestReachingTime:
    def test_outside_ball(self):
        assert reaching_time(2.0, 1.0, 0.5) == pytest.approx(2.0)

    def test_inside_ball_is_zero(self):
        assert reaching_time(0.5, 1.0, 1.0) == 0.0

    def test_boundary(self):
        assert reaching_time(1.0, 1.0, 1.0) == 0.0

    def test_c0_positive_required(self):
        with pytest.raises(ValueError):
            reaching_time(1.0, 0.5, 0.0)

    @pytest.mark.parametrize("args", [
        (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 0.1, math.nan),
        (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 0.1, math.inf), (-1.0, 0.1, 1.0),
        (1.0, 0.1, -1.0),
    ])
    def test_non_finite_or_negative_rejected(self, args):
        with pytest.raises(ValueError) as info:
            reaching_time(*args)
        # c0 is checked before the pair, each message naming its arguments first
        bad_c0 = not 0.0 < args[2] < math.inf
        assert str(info.value).startswith("c0 must be " if bad_c0 else "e0_norm and bound ")
