"""A test-only closed-form plant beyond the shipped ones, and its ndarray faces.

``coupled_plant`` builds a three-coordinate plant stated as the plants
module states its own: a tridiagonal mass matrix (coupled, with M13 left
structurally zero), a bias of even velocity terms plus viscous friction, a
time-only schedule (a load factor p that switches every 2 s) and a
disturbance. Its solve is the Thomas algorithm for the tridiagonal M.
``reference_faces`` writes the same M and N in ndarray arithmetic, the
byte-level reference of its mass_matrix and bias_vector.
"""

import math

import numpy as np

from arolc.plants import _KernelPlant


class CoupledPlant(_KernelPlant):
    """M = [[j0 p + k01 c1, k01 c1, 0], [k01 c1, j1 p, k12 s2], [0, k12 s2,
    j2]] with c1 = cos q1, s2 = sin q2; N = stiff q plus even velocity
    terms plus friction v. Diagonally dominant, so SPD for p >= 1."""

    dim = 3
    _MASS = """\
c1 = k01 * cos(q1)
m0_0 = j0 * p + c1
m0_1 = c1
m1_1 = j1 * p
m1_2 = k12 * sin(q2)
m2_2 = j2
"""
    _BIAS = """\
n0 = stiff * q0 + k01 * sin(q1) * (v1 * v1)
n1 = stiff * q1 - k01 * sin(q1) * (v0 * v1)
n2 = stiff * q2 + k12 * cos(q2) * (v1 * v1)
if friction:
    n0, n1, n2 = n0 + friction * v0, n1 + friction * v1, n2 + friction * v2
"""
    _SOLVE = """\
r0, r1, r2 = u0 - n0, u1 - n1, u2 - n2
if disturbance:
    d0, d1, d2 = disturbance(t).tolist()
    r0, r1, r2 = r0 - d0, r1 - d1, r2 - d2
w1 = m0_1 / m0_0
b1 = m1_1 - w1 * m0_1
r1 = r1 - w1 * r0
w2 = m1_2 / b1
b2 = m2_2 - w2 * m1_2
a2 = (r2 - w2 * r1) / b2
a1 = (r1 - m1_2 * a2) / b1
a0 = (r0 - m0_1 * a1) / m0_0
"""
    PARAMS = dict(j0=2.0, j1=3.0, j2=1.5, k01=0.5, k12=0.4, stiff=0.7)

    def __init__(self, friction=0.0, switching=False, nominal=None, disturbance_amp=0.0):
        super().__init__(nominal, disturbance_amp, 1.3, (0.3, 1.1, -0.4))
        self.friction = friction
        self.switching = switching

    def _constants(self):
        return dict(self.PARAMS, friction=self.friction)

    # p = 1.5 in every second 2 s window while switching, else 1.0
    _phases = (1.0, 1.5)

    def _phase(self, t):
        if not self.switching or t is None:
            return np.zeros(t.shape, int) if isinstance(t, np.ndarray) else 0
        phase = (t // 2.0) % 2.0
        return phase.astype(int) if isinstance(t, np.ndarray) else int(phase)


def coupled_plant():
    """The switching, disturbed plant with friction; its nominal side has
    none of the three."""
    return CoupledPlant(0.2, True, CoupledPlant(), disturbance_amp=0.05)


def reference_faces(plant, q, q_dot, t):
    """M and N (with the disturbance at t) of one state in ndarray
    arithmetic, the operations of the plant's strings in their order and
    the math module's cos and sin."""
    k = plant.PARAMS
    p = plant._schedule(t)
    q = np.asarray(q, float)
    v = np.asarray(q_dot, float)
    c1 = k["k01"] * math.cos(q[1])
    s2 = k["k12"] * math.sin(q[2])
    m = np.array([[k["j0"] * p + c1, c1, 0.0],
                  [c1, k["j1"] * p, s2],
                  [0.0, s2, k["j2"]]])
    n = k["stiff"] * q + np.array([k["k01"] * math.sin(q[1]) * (v[1] * v[1]),
                                   -(k["k01"] * math.sin(q[1]) * (v[0] * v[1])),
                                   k["k12"] * math.cos(q[2]) * (v[1] * v[1])])
    if plant.friction:
        n = n + plant.friction * v
    if plant.disturbance_amp and t is not None:
        n = n + plant.disturbance(t)
    return m, n
