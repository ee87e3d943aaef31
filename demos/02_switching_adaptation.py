"""The switching law and its online gain adaptation, in isolation.

Shows the boundary-layer profile of the robust term (continuous through
||s|| = epsilon), its magnitude cap, and how the adaptive gain rises while
the sliding variable grows and relaxes once the error contracts. Every
number comes from arolc_step, the law the simulator runs, on a unit point
mass at the sliding variable s: with identity gains, the errors e1 = 0 and
e1_dot = s give exactly that s.
"""

import numpy as np

from arolc import ArolcConfig, ArolcState, GainSet, arolc_step, point_mass_plant

cfg = ArolcConfig(GainSet.identity(1), alpha=2.0, epsilon=0.1, gamma=1e-3,
                  c_hat_init=1e-3)
dt = 0.01  # control period: the Euler step of the adaptation
torque = point_mass_plant(1).torque


def law_at(s, state, t):
    """The law's record at the sliding variable [s] and time t."""
    return arolc_step(state, [0.0], [0.0], ([0.0], [s], [0.0]), torque, t, dt, cfg)


print("robust-term magnitude along a ray through the boundary layer "
      f"(alpha * c_hat = {cfg.alpha * 1.0}):")
for s in (0.0, 0.02, 0.05, 0.08, 0.0999, 0.1, 0.1001, 0.2, 1.0, 10.0):
    du = law_at(s, ArolcState(c_hat=1.0), 0.0).du
    print(f"  ||s|| = {s:7.4f} -> ||du|| = {np.linalg.norm(du):.6f}")

print("\nadaptive gain under a grow-then-shrink sliding variable:")
state = ArolcState(c_hat=cfg.c_hat_init)
t = 0.0
profile = list(np.linspace(0.0, 2.0, 40)) + list(np.linspace(2.0, 0.05, 60))
for i, s_val in enumerate(profile):
    t += dt
    record = law_at(s_val, state, t)
    state = record.state
    if i % 10 == 9:
        print(f"  t = {t:5.2f} s  ||s|| = {s_val:6.3f}  c_hat = {record.c_hat:.4f}")

print("\nthe gain never leaves its positive floor:")
for _ in range(200):
    t += dt
    state = law_at(0.0, state, t).state
print(f"  after 2 s of s = 0: c_hat = {state.c_hat:.6f} (floor {cfg.gamma})")
