"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Several criteria share the batch of wheeled-robot comparison runs,
which a module-scoped fixture executes once.
"""

import re
import warnings

import numpy as np
import pytest

from arolc.cli import main as cli_main
from arolc.controllers import ArolcConfig, ArolcState, arolc_step
from arolc.delays import DelayProfile, max_delay
from arolc.linalg import min_eig_symmetric, solve_lyapunov
from arolc.metrics import metrics_from_trace
from arolc.plants import oscillator_plant, point_mass_plant
from arolc.scenario_io import load_scenario
from arolc.sim import Scenario, error_dynamics_residual, simulate
from arolc.stability import GainSet, delay_margin
from arolc.trajectories import SinusoidTrajectory

from sampled_data import point_mass_states


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def wmr_runs():
    """AROLC/baseline runs of the shipped robot scenarios, keyed by file stem."""
    names = ["wmr_s1_arolc", "wmr_s1_pcon", "wmr_s2_arolc", "wmr_s2_pcon",
             "wmr_s3_arolc", "wmr_s4_arolc"]
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # S2 peak delay touches the margin
        for name in names:
            sc = load_scenario(f"scenarios/{name}.ini")
            trace = simulate(sc)
            out[name] = metrics_from_trace(trace, sc.trajectory.diameter)
    return out


def test_criterion_1_delay_margin(capsys):
    code = cli_main(["bound", "scenarios/margin_reference.ini"])
    out = capsys.readouterr().out
    match = re.search(r"delay margin \[s\]:\s*([0-9.]+)", out)
    margin = float(match.group(1)) if match else float("nan")
    ok = code == 0 and abs(margin - 0.125) <= 1e-3
    with capsys.disabled():
        verdict(1, ok, f"bound reports {margin:.6f} s (target 0.125 +- 0.001)")


def test_criterion_2_lyapunov_solver():
    rng = np.random.default_rng(42)
    worst_resid = 0.0
    min_p_eig = np.inf
    for _ in range(100):
        n = int(rng.integers(1, 11))  # up to 10x10
        r = rng.standard_normal((n, n))
        a = -(r.T @ r + (0.5 + rng.random()) * np.eye(n))
        w = rng.standard_normal((n, n))
        q = w.T @ w + (0.1 + rng.random()) * np.eye(n)
        p = solve_lyapunov(a, q)
        resid = np.abs(a.T @ p + p @ a + q).max() / np.abs(q).max()
        worst_resid = max(worst_resid, resid)
        min_p_eig = min(min_p_eig, min_eig_symmetric(p))
    ok = worst_resid <= 1e-10 and min_p_eig > 0.0
    verdict(2, ok, f"100 random solves: worst residual {worst_resid:.2e} "
                   f"(<= 1e-10 * ||Q||), min eig(P) {min_p_eig:.2e} > 0")


def test_criterion_3_error_dynamics_identity():
    sc = load_scenario("scenarios/two_link_s1_arolc.ini")
    assert sc.dt == pytest.approx(1e-4) and sc.duration == pytest.approx(10.0)
    trace = simulate(sc, diagnostics=True)
    _, resid = error_dynamics_residual(trace, sc)
    worst = float(resid.max())
    ok = worst <= 1e-4 and len(resid) > 50000
    verdict(3, ok, f"10 s mismatched run: max ||e1_ddot + K2 e1_dot_h + "
                   f"K1 e1_h - sigma + du_h|| = {worst:.2e} (<= 1e-4)")


def test_criterion_4_uub():
    # same plant/controller/delay scenario run for 60 s; the integrator step
    # is coarsened to 1e-3 to fit the runtime budget (state difference vs
    # 1e-4 is far below the bound being checked)
    sc = load_scenario("scenarios/two_link_s1_arolc.ini")
    sc.duration = 60.0
    sc.dt = 1e-3
    margin = delay_margin(sc.controller.gains)
    assert max_delay(sc.delay) < margin
    trace = simulate(sc)
    gamma = sc.controller.gamma
    half = len(trace) // 2
    e1_dot = np.array([sc.trajectory(float(t))[1] for t in trace.t]) - trace.q_dot
    e_norm = np.linalg.norm(np.hstack([trace.e1, e1_dot]), axis=1)[half:]
    sup_tail = float(e_norm.max())
    med_tail = float(np.median(e_norm))
    gain_ok = bool(np.all(trace.c_hat >= gamma - 1e-15))
    ok = sup_tail < 5.0 * med_tail and gain_ok
    verdict(4, ok, f"60 s run: sup ||e|| tail {sup_tail:.4f} < 5 x median "
                   f"{med_tail:.4f}; adaptive gain >= gamma throughout: {gain_ok}")


def test_criterion_5_tracking_error_ordering(wmr_runs):
    msgs = []
    ok = True
    for s in ("s1", "s2"):
        a = wmr_runs[f"wmr_{s}_arolc"].ae_per_dim
        p = wmr_runs[f"wmr_{s}_pcon"].ae_per_dim
        ok = ok and a[0] < p[0] and a[1] < p[1]
        msgs.append(f"{s.upper()}: arolc [{a[0]:.4f}, {a[1]:.4f}] vs "
                    f"baseline [{p[0]:.4f}, {p[1]:.4f}]")
    verdict(5, ok, "adaptive controller strictly lower AE per wheel; " +
            "; ".join(msgs))


def test_criterion_6_tv_trend(wmr_runs):
    tv_a = wmr_runs["wmr_s1_arolc"].tv
    tv_p = wmr_runs["wmr_s1_pcon"].tv
    tv_s3 = wmr_runs["wmr_s3_arolc"].tv
    tv_s4 = wmr_runs["wmr_s4_arolc"].tv
    ok = tv_a < tv_p and tv_s4 > tv_s3
    verdict(6, ok, f"S1: TV arolc {tv_a:.4f} < baseline {tv_p:.4f}; "
                   f"fixed delays: TV(S4) {tv_s4:.4f} > TV(S3) {tv_s3:.4f}")


def test_criterion_7_switching_law():
    gains = GainSet.identity(2)
    cfg = ArolcConfig(gains, alpha=2.0, epsilon=0.1, gamma=1e-3, c_hat_init=1e-3)
    dt = 1e-2  # control period of the adaptation steps
    torque = point_mass_plant(2).torque
    assert [row[2:] for row in cfg.rows[0]] == [[1.0, 0.0], [0.0, 1.0]]

    def law_at(s, state, t=0.0):
        # the law simulate runs, at the sliding variable s: e1 = 0 and
        # e1_dot = s give s exactly, the e1_dot block of the identity
        # gains' B^T P being I
        zero = [0.0, 0.0]
        return arolc_step(state, zero, zero, (zero, [float(x) for x in s], zero), torque, t,
                          dt, cfg)

    # continuity across the boundary layer
    rng = np.random.default_rng(3)
    jump = 0.0
    for _ in range(100):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        c_hat = float(rng.random() * 3 + 1e-3)
        lo = law_at((cfg.epsilon - 1e-14) * direction, ArolcState(c_hat)).du
        hi = law_at((cfg.epsilon + 1e-14) * direction, ArolcState(c_hat)).du
        jump = max(jump, float(np.abs(np.subtract(lo, hi)).max()))
    # magnitude cap on random inputs
    cap_ok = True
    for _ in range(10_000):
        s = rng.standard_normal(2) * 10.0 ** rng.integers(-4, 3)
        c_hat = float(rng.random() * 5 + 1e-4)
        du = law_at(s, ArolcState(c_hat)).du
        if np.linalg.norm(du) > cfg.alpha * c_hat * (1.0 + 1e-12):
            cap_ok = False
            break
    # adaptation branch selection on constructed slope signs
    state = ArolcState(c_hat=1.0, s_prev=[1.0, 0.0], t_prev=0.0)
    grew = law_at([2.0, 0.0], state, 0.01).c_hat
    state = ArolcState(c_hat=1.0, s_prev=[2.0, 0.0], t_prev=0.0)
    shrank = law_at([1.0, 0.0], state, 0.01).c_hat
    state = ArolcState(c_hat=0.5e-3)
    floored = law_at([9.0, 0.0], state, 0.01).c_hat
    branch_ok = (grew == pytest.approx(1.0 + 2.0 * dt)
                 and shrank == pytest.approx(1.0 - 1.0 * dt)
                 and floored == pytest.approx(max(0.5e-3 + cfg.gamma * dt, cfg.gamma)))
    ok = jump < 1e-12 and cap_ok and branch_ok
    verdict(7, ok, f"boundary-layer jump {jump:.2e} < 1e-12; ||du|| <= "
                   f"alpha c_hat on 10^4 draws: {cap_ok}; adaptation branches: "
                   f"{branch_ok}")


def test_criterion_8_integrator_order():
    def osc_scenario(dt, duration):
        return Scenario(
            plant=oscillator_plant(stiffness=1.0, mass=1.0),
            trajectory=SinusoidTrajectory(amplitude=(1e-12,), frequency=(1.0,)),
            delay=DelayProfile("none"),
            duration=duration, dt=dt, dt_control=1e-2,
            q0=np.array([1.0]), qdot0=np.array([0.0]),
        )

    errors = []
    for dt in (2e-3, 1e-3):
        trace = simulate(osc_scenario(dt, 5.0))
        errors.append(abs(trace.q[-1, 0] - np.cos(trace.t[-1])))
    ratio = errors[0] / errors[1]
    trace = simulate(osc_scenario(1e-4, 10.0))
    energy = 0.5 * (trace.q_dot[:, 0] ** 2 + trace.q[:, 0] ** 2)
    drift = float(np.abs(energy - energy[0]).max())
    ok = 8.0 < ratio < 32.0 and drift < 1e-8
    verdict(8, ok, f"error ratio on halving dt: {ratio:.1f} (target ~16 in "
                   f"[8, 32]); energy drift {drift:.2e} < 1e-8 over 10 s")


def test_criterion_9_linear_closed_loop_oracle():
    gains = GainSet.identity(1)
    cfg = ArolcConfig(gains, switching=False)
    traj = SinusoidTrajectory(amplitude=(0.5,), frequency=(0.8,))
    sc = Scenario(
        plant=point_mass_plant(1), trajectory=traj,
        delay=DelayProfile("none"), controller=cfg,
        duration=5.0, dt=1e-4, dt_control=1e-2,
        q0=np.array([traj(0.0)[0][0] - 1.0]),
        qdot0=np.array([traj(0.0)[1][0] + 0.5]),
    )
    trace = simulate(sc)
    expected = point_mass_states(traj, gains, np.concatenate([sc.q0, sc.qdot0]),
                                 sc.dt_control, len(trace) - 1)
    worst = float(np.abs(np.hstack([trace.q, trace.q_dot]) - expected).max())
    ok = worst < 1e-6
    verdict(9, ok, f"zero-delay perfect-model sampled loop vs its exact "
                   f"discretization: max error {worst:.2e} < 1e-6 over 5 s")
