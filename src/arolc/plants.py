"""Plant models exposing M(q) and N(q, q_dot, t) for M qdd + N = tau_applied.

Every plant carries two faces: the true dynamics (with friction, payload and
disturbance terms) used by the integrator, and the deterministic nominal
model the controller believes, ``plant.nominal``. The nominal model is a
plant of the same kind built from the nominal parameters, without payload,
friction or disturbance, or the plant itself where the controller knows it
exactly; nominal_mass_matrix and nominal_bias_vector read it. Time enters
the true side only, through disturbances and the payload schedule.

``reduced_wmr_dynamics`` returns the 2-DOF wheel-space (theta_r, theta_l)
plant of the differential drive, derived from the kinetic energy written
at the axle midpoint:

    T = 1/2 m v^2 + 1/2 (I_bar + m d^2) w^2 + 1/2 I_w (tr^2 + tl^2),
    v = r_bar (tr + tl) / 2,  w = r_bar (tr - tl) / (2 b),

giving a constant SPD wheel-space inertia and the gyroscopic bias
2 K a c^2 (tr - tl) [tl, -tr] from the centre-of-mass offset. Posture
(x_c, y_c, phi) is reconstructed kinematically from wheel rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "PlantModel",
    "el_accel",
    "WmrParams",
    "PayloadSchedule",
    "payload_mass",
    "reduced_wmr_dynamics",
    "TwoLinkParams",
    "two_link_matrices",
    "two_link_plant",
    "point_mass_plant",
    "oscillator_plant",
    "body_twist",
    "reconstruct_posture",
]


class PlantModel:
    """Base class for second-order plants M(q) qdd + N(q, qd, t) = tau.

    nominal is the time-free model the controller believes (the plant itself
    by default); disturbance_amp, disturbance_freq and phases describe the
    additive torque disturbance amp * sin(freq * t + phases) of the true side.
    """

    dim: int = 0

    def __init__(self, nominal=None, disturbance_amp=0.0, disturbance_freq=1.0,
                 phases=None):
        self.nominal = self if nominal is None else nominal
        self.disturbance_amp = disturbance_amp
        self.disturbance_freq = disturbance_freq
        self.phases = np.zeros(self.dim) if phases is None else np.asarray(phases, float)

    def disturbance(self, t: float) -> np.ndarray:
        return self.disturbance_amp * np.sin(self.disturbance_freq * t + self.phases)

    def mass_matrix(self, q, t: float | None = None) -> np.ndarray:
        raise NotImplementedError

    def bias_vector(self, q, q_dot, t: float) -> np.ndarray:
        raise NotImplementedError

    def nominal_mass_matrix(self, q) -> np.ndarray:
        return self.nominal.mass_matrix(q)

    def nominal_bias_vector(self, q, q_dot) -> np.ndarray:
        return self.nominal.bias_vector(q, q_dot, None)

    def accel(self, q, q_dot, tau_applied, t: float) -> list[float]:
        """Forward dynamics qdd = M(q)^-1 (tau_applied - N(q, q_dot, t)).

        q, q_dot and tau_applied are any length-dim sequences of floats
        (list, tuple or ndarray); the result is a list of dim Python floats.
        The integrator calls this at every RK4 stage on plain lists, so
        subclasses override it with a float closed form; el_accel stays the
        ndarray reference.
        """
        return el_accel(self, q, q_dot, tau_applied, t).tolist()


def el_accel(plant: PlantModel, q, q_dot, tau_applied, t: float) -> np.ndarray:
    """qdd = M(q)^-1 (tau_applied - N(q, q_dot, t))."""
    m = plant.mass_matrix(q, t)
    n = plant.bias_vector(q, q_dot, t)
    try:
        return np.linalg.solve(m, np.asarray(tau_applied, float) - n)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular mass matrix") from exc


_VELTKAMP = 134217729.0  # 2**27 + 1: splits a binary64 into two 26-bit halves


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add rounds it.

    Veltkamp's split makes the four partial products of a * b exact, and
    math.fsum rounds their exact sum with c correctly. Exact for finite
    operands whose partial products neither overflow nor underflow; falls
    back to the twice-rounded a * b + c where fsum cannot sum (infinities or
    overflow, only reached by a state that is diverging).
    """
    t = _VELTKAMP * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _VELTKAMP * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    try:
        return math.fsum((c, a_hi * b_hi, a_hi * b_lo, a_lo * b_hi, a_lo * b_lo))
    except (ValueError, OverflowError):
        return a * b + c


# ---------------------------------------------------------------------------
# Wheeled mobile robot
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WmrParams:
    """Differential-drive parameters.

    m     total mass [kg]
    I_bar body inertia about the vertical axis [kg m^2]
    K     mass-offset product m * d [kg m]
    d     centre-of-mass offset from the wheel axle [m]
    r_bar wheel radius [m]
    b     half axle width [m]
    I_w   wheel spin inertia [kg m^2]
    """

    m: float = 10.0
    I_bar: float = 0.5
    K: float = 0.5
    d: float = 0.05
    r_bar: float = 0.0975
    b: float = 0.165
    I_w: float = 0.0025

    def __post_init__(self):
        for name in ("m", "I_bar", "K", "d", "r_bar", "b", "I_w"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not self.d < self.b:
            raise ValueError("d must be smaller than b")


@dataclass(frozen=True)
class PayloadSchedule:
    """Square-wave payload: extra_mass held for period_on, removed for
    period_off, placed at the next body-frame offset each cycle."""

    extra_mass: float = 3.5
    period_on: float = 5.0
    period_off: float = 5.0
    offsets: tuple[tuple[float, float], ...] = ((0.05, 0.02),)

    def __post_init__(self):
        if not 0.0 <= self.extra_mass < math.inf:
            raise ValueError("extra_mass must be finite and nonnegative")
        if not (0.0 < self.period_on < math.inf and 0.0 < self.period_off < math.inf):
            raise ValueError("periods must be finite and positive")
        if not self.offsets:
            raise ValueError("at least one offset is required")
        offsets = tuple((float(dx), float(dy)) for dx, dy in self.offsets)
        if not all(math.isfinite(x) for pair in offsets for x in pair):
            raise ValueError("offsets must be finite")
        object.__setattr__(self, "offsets", offsets)


def payload_mass(sched: PayloadSchedule, t: float):
    """(mass_delta, (dx, dy)) at time t; the first on-window starts at t = 0."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    period = sched.period_on + sched.period_off
    cycle = int(t // period)
    phase = t - cycle * period
    if phase < sched.period_on:
        return sched.extra_mass, sched.offsets[cycle % len(sched.offsets)]
    return 0.0, (0.0, 0.0)


class _ReducedWmrPlant(PlantModel):
    """Wheel-space (theta_r, theta_l) dynamics of the differential drive."""

    dim = 2

    def __init__(self, params, payload=None, viscous=0.0, nominal=None,
                 disturbance_amp=0.0, disturbance_freq=1.0, phases=None):
        super().__init__(nominal, disturbance_amp, disturbance_freq, phases)
        self.params = params
        self.payload = payload
        self.viscous = viscous
        self._phase_cache: dict = {}

    def _effective(self, t: float | None):
        p = self.params
        m_eff = p.m
        j_eff = p.I_bar + p.m * p.d ** 2
        k_eff = p.K
        if self.payload is not None and t is not None:
            dm, (dx, dy) = payload_mass(self.payload, max(t, 0.0))
            m_eff += dm
            j_eff += dm * (dx * dx + dy * dy)
            k_eff += dm * dx
        return m_eff, j_eff, k_eff

    @staticmethod
    def _inertia(params_m, params_j, r_bar, b, i_w):
        a = r_bar / 2.0
        c = r_bar / (2.0 * b)
        diag = params_m * a * a + params_j * c * c + i_w
        off = params_m * a * a - params_j * c * c
        return np.array([[diag, off], [off, diag]])

    def mass_matrix(self, q, t: float | None = None) -> np.ndarray:
        m_eff, j_eff, _ = self._effective(t)
        return self._inertia(m_eff, j_eff, self.params.r_bar, self.params.b,
                             self.params.I_w)

    @staticmethod
    def _gyro_gain(k_eff, r_bar, b):
        # centre-of-mass offset couples spin rate into both wheels
        a = r_bar / 2.0
        c = r_bar / (2.0 * b)
        return 2.0 * k_eff * a * c * c

    def bias_vector(self, q, q_dot, t: float | None) -> np.ndarray:
        q_dot = np.asarray(q_dot, float)
        m_eff, _, k_eff = self._effective(t)
        z = q_dot[0] - q_dot[1]
        n = self._gyro_gain(k_eff, self.params.r_bar, self.params.b) * z * np.array(
            [q_dot[1], -q_dot[0]])
        if self.viscous:
            # rolling resistance scales with the carried weight
            n = n + self.viscous * (m_eff / self.params.m) * q_dot
        if self.disturbance_amp:
            n = n + self.disturbance(t)
        return n

    def _phase_constants(self, t: float):
        """The factors of accel that only the payload changes, cached per
        payload phase: the inertia entries, its LU factors, the gyroscopic
        gain and the viscous factor."""
        key = None if self.payload is None else payload_mass(self.payload, max(t, 0.0))
        consts = self._phase_cache.get(key)
        if consts is None:
            p = self.params
            m_eff, j_eff, k_eff = self._effective(t)
            (diag, off), _ = self._inertia(m_eff, j_eff, p.r_bar, p.b, p.I_w).tolist()
            # LU with partial pivoting keeps row 0: diag - |off| = I_w +
            # 2 min(m a^2, j c^2) > 0. l is scaled by the reciprocal pivot.
            lower = off * (1.0 / diag)
            consts = (diag, -off, -lower, diag - lower * off,
                      self._gyro_gain(k_eff, p.r_bar, p.b),
                      self.viscous * (m_eff / p.m))
            self._phase_cache[key] = consts
        return consts

    def accel(self, q, q_dot, tau_applied, t: float) -> list[float]:
        """Closed form of el_accel in float arithmetic.

        The bias repeats bias_vector operation for operation; the 2 x 2 solve
        is the LU solve rounded as LAPACK's dgesv rounds it when its kernels
        fuse multiply-adds (OpenBLAS on x86-64 with FMA), which makes it equal
        to el_accel bit for bit there and to rounding elsewhere.
        """
        diag, neg_off, neg_lower, upper, gyro, visc = self._phase_constants(t)
        qd0, qd1 = q_dot
        tau0, tau1 = tau_applied
        s = gyro * (qd0 - qd1)
        n0, n1 = s * qd1, s * -qd0
        if self.viscous:
            n0, n1 = n0 + visc * qd0, n1 + visc * qd1
        if self.disturbance_amp:
            d0, d1 = self.disturbance(t).tolist()
            n0, n1 = n0 + d0, n1 + d1
        b0, b1 = tau0 - n0, tau1 - n1
        x1 = _fma(neg_lower, b0, b1) / upper
        return [_fma(neg_off, x1, b0) / diag, x1]


def reduced_wmr_dynamics(params: WmrParams, mismatch: float = 0.0,
                         payload: PayloadSchedule | None = None,
                         viscous: float = 0.0,
                         disturbance_amp: float = 0.0,
                         disturbance_freq: float = 1.0,
                         phases=None) -> PlantModel:
    """2-DOF wheel-space plant; the nominal side scales the inertial
    parameters by (1 - mismatch) and omits payload, friction, disturbance."""
    if not -1.0 < mismatch < 1.0:
        raise ValueError("mismatch must lie in (-1, 1)")
    scale = 1.0 - mismatch
    nominal = _ReducedWmrPlant(replace(
        params, m=params.m * scale, I_bar=params.I_bar * scale,
        K=params.K * scale, I_w=params.I_w * scale))
    return _ReducedWmrPlant(params, payload, viscous, nominal,
                            disturbance_amp, disturbance_freq, phases)


def body_twist(q_dot, params: WmrParams):
    """(forward speed, turn rate) from wheel rates (theta_r_dot, theta_l_dot)."""
    q_dot = np.asarray(q_dot, float)
    v = params.r_bar * (q_dot[0] + q_dot[1]) / 2.0
    w = params.r_bar * (q_dot[0] - q_dot[1]) / (2.0 * params.b)
    return v, w


def reconstruct_posture(times, q_dots, params: WmrParams, pose0=(0.0, 0.0, 0.0)):
    """Integrate the rolling kinematics to recover (x_c, y_c, phi) series.

    times and q_dots are sampled series (wheel rates per row); trapezoidal
    integration of the heading and midpoint integration of the position.
    Returns an array of shape (len(times), 3). The reported (x_c, y_c) is
    the centre of mass, offset d ahead of the axle midpoint.
    """
    times = np.asarray(times, float)
    q_dots = np.asarray(q_dots, float)
    out = np.zeros((len(times), 3))
    x, y, phi = pose0
    x_a = x - params.d * math.cos(phi)
    y_a = y - params.d * math.sin(phi)
    out[0] = (x, y, phi)
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        v0, w0 = body_twist(q_dots[i - 1], params)
        v1, w1 = body_twist(q_dots[i], params)
        phi_mid = phi + 0.25 * (w0 + w1) * dt
        v_mid = 0.5 * (v0 + v1)
        x_a += v_mid * math.cos(phi_mid) * dt
        y_a += v_mid * math.sin(phi_mid) * dt
        phi += 0.5 * (w0 + w1) * dt
        out[i] = (x_a + params.d * math.cos(phi),
                  y_a + params.d * math.sin(phi), phi)
    return out


# ---------------------------------------------------------------------------
# Two-link manipulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoLinkParams:
    """Planar two-revolute-link arm; lc_i is the centre-of-mass distance
    along link i, I_i the link inertia about its centre of mass. Point-mass
    links correspond to lc_i = l_i, I_i = 0. viscous adds -viscous * q_dot
    friction (true model only; nominal parameter sets use viscous = 0)."""

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 1.0
    lc1: float = 0.5
    lc2: float = 0.5
    I1: float = 0.05
    I2: float = 0.05
    gravity: float = 9.81
    viscous: float = 0.0

    def __post_init__(self):
        for name in ("m1", "m2", "l1", "l2", "lc1", "lc2"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("I1", "I2", "viscous"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not math.isfinite(self.gravity):
            raise ValueError("gravity must be finite")


def _two_link_inertia_terms(q1: float, p: TwoLinkParams):
    """(M11, M12, M22) of the arm's symmetric inertia at elbow angle q1."""
    c2 = math.cos(q1)
    a11 = p.m1 * p.lc1 ** 2 + p.I1 + p.I2 + p.m2 * (
        p.l1 ** 2 + p.lc2 ** 2 + 2.0 * p.l1 * p.lc2 * c2
    )
    a12 = p.m2 * (p.lc2 ** 2 + p.l1 * p.lc2 * c2) + p.I2
    a22 = p.m2 * p.lc2 ** 2 + p.I2
    return a11, a12, a22


def _two_link_bias_terms(q0: float, q1: float, qd0: float, qd1: float,
                         p: TwoLinkParams):
    """(N1, N2): Coriolis plus gravity, plus viscous friction when set."""
    h = p.m2 * p.l1 * p.lc2 * math.sin(q1)
    g = p.gravity
    grav2 = p.m2 * p.lc2 * g * math.cos(q0 + q1)
    n0 = -h * qd1 * (2.0 * qd0 + qd1) + (
        (p.m1 * p.lc1 + p.m2 * p.l1) * g * math.cos(q0) + grav2)
    try:
        # libm pow, as numpy's float64 ** rounds it (qd0 * qd0 can differ
        # in the last bit)
        qd0_sq = qd0 ** 2
    except OverflowError:  # where numpy returns inf; only a diverging state
        qd0_sq = math.inf
    n1 = h * qd0_sq + grav2
    if p.viscous:
        n0, n1 = n0 + p.viscous * qd0, n1 + p.viscous * qd1
    return n0, n1


def _two_link_inertia(q, p: TwoLinkParams) -> np.ndarray:
    a11, a12, a22 = _two_link_inertia_terms(float(q[1]), p)
    return np.array([[a11, a12], [a12, a22]])


def _two_link_bias(q, q_dot, p: TwoLinkParams) -> np.ndarray:
    q0, q1 = map(float, q)
    qd0, qd1 = map(float, q_dot)
    return np.array(_two_link_bias_terms(q0, q1, qd0, qd1, p))


def two_link_matrices(q, q_dot, params: TwoLinkParams):
    """Mass matrix and bias (Coriolis + gravity + viscous) of the arm.

    Joint angles are measured from the horizontal, so gravity torques go
    with cos(q). Setting gravity = 0 and q_dot = 0 gives N = 0.
    """
    return _two_link_inertia(q, params), _two_link_bias(q, q_dot, params)


class _TwoLinkPlant(PlantModel):
    dim = 2

    def __init__(self, params, nominal=None, disturbance_amp=0.0,
                 disturbance_freq=1.0, phases=None):
        super().__init__(nominal, disturbance_amp, disturbance_freq, phases)
        self.params = params

    def mass_matrix(self, q, t: float | None = None) -> np.ndarray:
        return _two_link_inertia(q, self.params)

    def bias_vector(self, q, q_dot, t: float | None) -> np.ndarray:
        n = _two_link_bias(q, q_dot, self.params)
        if self.disturbance_amp:
            n = n + self.disturbance(t)
        return n

    def accel(self, q, q_dot, tau_applied, t: float) -> list[float]:
        """Closed form of el_accel: the 2 x 2 inverse through its determinant."""
        p = self.params
        q0, q1 = q
        qd0, qd1 = q_dot
        tau0, tau1 = tau_applied
        a11, a12, a22 = _two_link_inertia_terms(q1, p)
        n0, n1 = _two_link_bias_terms(q0, q1, qd0, qd1, p)
        r0, r1 = tau0 - n0, tau1 - n1
        if self.disturbance_amp:
            d0, d1 = self.disturbance(t).tolist()
            r0, r1 = r0 - d0, r1 - d1
        det = a11 * a22 - a12 * a12
        return [float((a22 * r0 - a12 * r1) / det), float((a11 * r1 - a12 * r0) / det)]


def two_link_plant(params: TwoLinkParams, mismatch: float = 0.0,
                   disturbance_amp: float = 0.0,
                   disturbance_freq: float = 1.0,
                   phases=None) -> PlantModel:
    """Two-link arm; nominal side scales masses/inertias by (1 - mismatch)
    and never includes friction or disturbances."""
    if not -1.0 < mismatch < 1.0:
        raise ValueError("mismatch must lie in (-1, 1)")
    scale = 1.0 - mismatch
    nominal = _TwoLinkPlant(replace(
        params, m1=params.m1 * scale, m2=params.m2 * scale,
        I1=params.I1 * scale, I2=params.I2 * scale, viscous=0.0))
    return _TwoLinkPlant(params, nominal, disturbance_amp, disturbance_freq,
                         phases)


# ---------------------------------------------------------------------------
# Simple test plants
# ---------------------------------------------------------------------------


class _PointMassPlant(PlantModel):
    def __init__(self, n, mass):
        self.dim = n
        super().__init__()
        self.mass = mass

    def mass_matrix(self, q, t=None):
        return self.mass * np.eye(self.dim)

    def bias_vector(self, q, q_dot, t):
        return np.zeros(self.dim)

    def accel(self, q, q_dot, tau_applied, t):
        return [float(u) / self.mass for u in tau_applied]


class _OscillatorPlant(PlantModel):
    dim = 1

    def __init__(self, stiffness, mass):
        super().__init__()
        self.stiffness = stiffness
        self.mass = mass

    def mass_matrix(self, q, t=None):
        return np.array([[self.mass]])

    def bias_vector(self, q, q_dot, t):
        return np.array([self.stiffness * np.asarray(q, float)[0]])

    def accel(self, q, q_dot, tau_applied, t):
        return [(float(tau_applied[0]) - self.stiffness * float(q[0])) / self.mass]


def point_mass_plant(n: int = 1, mass: float = 1.0) -> PlantModel:
    """Friction-free unit plant M = mass * I, N = 0."""
    if n < 1 or mass <= 0.0:
        raise ValueError("need n >= 1 and positive mass")
    return _PointMassPlant(n, mass)


def oscillator_plant(stiffness: float = 1.0, mass: float = 1.0) -> PlantModel:
    """Undamped linear oscillator; conserves energy under zero input."""
    if stiffness <= 0.0 or mass <= 0.0:
        raise ValueError("stiffness and mass must be positive")
    return _OscillatorPlant(stiffness, mass)
