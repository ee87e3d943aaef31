"""Closed-loop run on the two-link arm and the error-dynamics identity.

Simulates the shipped two-link scenario (20% inertia mismatch, unmodeled
friction, delay profile S1) with fine-grid diagnostics, then verifies that
the realized error acceleration matches the delayed error dynamics

    e1_ddot = -K2 e1_dot(t - h) - K1 e1(t - h) + sigma - du(t - h)

with the lumped uncertainty sigma evaluated independently of the controller.
A tight residual certifies the whole control/plant/delay pipeline at once.
"""

import sys

from arolc import error_dynamics_residual, load_scenario, metrics_from_trace, simulate

RESIDUAL_BOUND = 1e-4  # acceptance criterion 3

sc = load_scenario("scenarios/two_link_s1_arolc.ini")
print(f"scenario: two-link arm, controller={type(sc.controller).__name__}, "
      f"delay={sc.delay.kind}, duration={sc.duration} s, dt={sc.dt} s")

trace = simulate(sc, diagnostics=True)
report = metrics_from_trace(trace, sc.trajectory.diameter)
print(f"tracking: AE per joint = {[f'{a:.4f}' for a in report.ae_per_dim]} rad, "
      f"input TV = {report.tv:.3f}")
print(f"adaptive gain: start {trace.c_hat[0]:.4f}, "
      f"end {trace.c_hat[-1]:.4f}, max {trace.c_hat.max():.4f}")

times, resid = error_dynamics_residual(trace, sc)
print(f"\nerror-dynamics identity over {len(resid)} fine-grid instants:")
print(f"  max residual  = {resid.max():.3e}")
print(f"  mean residual = {resid.mean():.3e}")
if not resid.max() <= RESIDUAL_BOUND:
    sys.exit(f"the identity fails: max residual above {RESIDUAL_BOUND:g}")
print("  (finite-difference and interpolation error only; the identity holds)")
