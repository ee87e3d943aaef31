"""The switching law and its online gain adaptation, in isolation.

Shows the boundary-layer profile of the robust term (continuous through
||s|| = epsilon), its magnitude cap, and how the adaptive gain rises while
the sliding variable grows and relaxes once the error contracts.
"""

import numpy as np

from arolc import ArolcConfig, ArolcState, GainSet, adapt_gain, switching_control

cfg = ArolcConfig(GainSet.identity(1), alpha=2.0, epsilon=0.1, gamma=1e-3,
                  c_hat_init=1e-3)
dt = 0.01  # control period: the Euler step of the adaptation

print("robust-term magnitude along a ray through the boundary layer "
      f"(alpha * c_hat = {cfg.alpha * 1.0}):")
for s in (0.0, 0.02, 0.05, 0.08, 0.0999, 0.1, 0.1001, 0.2, 1.0, 10.0):
    du = switching_control([s], 1.0, cfg)
    print(f"  ||s|| = {s:7.4f} -> ||du|| = {np.linalg.norm(du):.6f}")

print("\nadaptive gain under a grow-then-shrink sliding variable:")
state = ArolcState(c_hat=cfg.c_hat_init)
t = 0.0
profile = list(np.linspace(0.0, 2.0, 40)) + list(np.linspace(2.0, 0.05, 60))
for i, s_val in enumerate(profile):
    t += dt
    state = adapt_gain(state, [s_val], t, dt, cfg)
    if i % 10 == 9:
        print(f"  t = {t:5.2f} s  ||s|| = {s_val:6.3f}  c_hat = {state.c_hat:.4f}")

print("\nthe gain never leaves its positive floor:")
for _ in range(200):
    t += dt
    state = adapt_gain(state, [0.0], t, dt, cfg)
print(f"  after 2 s of s = 0: c_hat = {state.c_hat:.6f} (floor {cfg.gamma})")
