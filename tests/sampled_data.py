"""Exact discretization of the sampled closed loop on a linear plant.

Between control instants t_k = k T a linear plant x' = A x + B tau sees
the actuator signal of ``arolc.delays``. Under a constant delay of d
periods that signal is, on [t_k, t_{k+1}), the linear interpolation from
tau_{k-d} to tau_{k-d+1} (d >= 1), or the held tau_k (d = 0). Over one
period the state therefore moves exactly by

    x_{k+1} = Phi x_k + (G - H) tau_{k-d} + H tau_{k-d+1}    (d >= 1),
    x_{k+1} = Phi x_k + G tau_k                               (d = 0),

with Phi = e^{AT}, G = int_0^T e^{A(T-s)} B ds and
H = int_0^T e^{A(T-s)} B s/T ds, the blocks of one matrix exponential
(Van Loan, IEEE TAC 23, 1978):

    expm([[A, B, 0], [0, 0, I/T], [0, 0, 0]] T) = [[Phi, G, H], ...].

Commands tau_j with j < 0 are zero. The actuator is zero before the first
command and then steps to tau_0, while the recursion ramps from zero to
tau_0 over period d - 1; the two agree when tau_0 = 0.
"""

import numpy as np
from scipy.linalg import expm


def exact_discretization(a, b, period):
    """Phi, G and H of one control period of x' = A x + B tau."""
    ns, nu = b.shape
    m = np.zeros((ns + 2 * nu, ns + 2 * nu))
    m[:ns, :ns] = a
    m[:ns, ns:ns + nu] = b
    m[ns:ns + nu, ns + nu:] = np.eye(nu) / period
    e = expm(m * period)
    return e[:ns, :ns], e[:ns, ns:ns + nu], e[:ns, ns + nu:]


def point_mass_states(trajectory, gains, x0, period, n_periods, delay_periods=0):
    """The rows (q, q_dot) at t_0 .. t_{n_periods} of a unit point mass under
    the adaptive-robust law without switching, tau_k = qdd_d + K2 e1_dot +
    K1 e1 at t_k (the nominal model is exact: Mhat = I, Nhat = 0), its
    commands delayed by delay_periods control periods."""
    n = gains.K1.shape[0]
    a = np.block([[np.zeros((n, n)), np.eye(n)], [np.zeros((n, 2 * n))]])
    b = np.vstack([np.zeros((n, n)), np.eye(n)])
    phi, g, h = exact_discretization(a, b, period)
    d = delay_periods
    xs = [np.asarray(x0, float)]
    taus = []

    def command(j):
        return taus[j] if j >= 0 else np.zeros(n)

    for k in range(n_periods):
        x = xs[k]
        qd, qd_dot, qd_ddot = trajectory(k * period)
        taus.append(qd_ddot + gains.K2 @ (qd_dot - x[n:]) + gains.K1 @ (qd - x[:n]))
        if d == 0:
            step = g @ taus[k]
        else:
            step = (g - h) @ command(k - d) + h @ command(k - d + 1)
        xs.append(phi @ x + step)
    return np.array(xs)
