"""Tracking degradation as a fixed input delay grows toward the margin.

Sweeps a constant delay over the two-link scenario and reports the average
error and the tail of ||e1||. The Razumikhin margin for these gains is
about 125 ms; tracking degrades gracefully inside it, consistent with the
ultimate bounds growing as lambda_min(Q - h E) shrinks.
"""

from arolc import (
    DelayProfile,
    delay_margin,
    load_scenario,
    metrics_from_trace,
    simulate,
)

sc0 = load_scenario("scenarios/two_link_s1_arolc.ini")
margin = delay_margin(sc0.controller.gains)
print(f"delay margin for these gains: {margin * 1000:.1f} ms\n")
print(f"{'h [ms]':>7s} {'AE joint 1':>11s} {'AE joint 2':>11s} {'sup ||e1|| tail':>16s}")

for h in (0.0, 0.02, 0.045, 0.08, 0.1, 0.12):
    sc = load_scenario("scenarios/two_link_s1_arolc.ini")
    sc.delay = DelayProfile("constant", h0=h)
    sc.duration = 20.0
    sc.dt = 1e-3
    trace = simulate(sc)
    rep = metrics_from_trace(trace, sc.trajectory.diameter)
    print(f"{h * 1000:7.1f} {rep.ae_per_dim[0]:11.4f} {rep.ae_per_dim[1]:11.4f} "
          f"{rep.sup_error_tail:16.4f}")

# h0 applies only to kind = constant, so the command line sweeps a copy of
# the file with that kind
print("\nsame sweep through the command-line interface:")
print("  mkdir -p out")
print("  sed 's/^kind = S1$/kind = constant/' scenarios/two_link_s1_arolc.ini "
      "> out/two_link_constant.ini")
print("  arolc sweep out/two_link_constant.ini --param delay.h0 "
      "--range 0:0.12:0.02 --out out/sweep")
