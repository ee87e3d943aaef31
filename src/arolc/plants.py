"""Plant models exposing M(q) and N(q, q_dot, t) for M qdd + N = tau_applied.

Every plant carries two faces: the true dynamics (with friction, payload and
disturbance terms) used by the integrator, and the deterministic nominal
model the controller believes, ``plant.nominal``. The nominal model is a
plant of the same kind built from the nominal parameters, without payload,
friction or disturbance, or the plant itself where the controller knows it
exactly; nominal_mass_matrix and nominal_bias_vector read it. Time enters
the true side only, through disturbances and the payload schedule.

Shape contract: ``mass_matrix(q, t)`` and ``bias_vector(q, q_dot, t)``
take one state, q and q_dot of shape (n,) and a float t, and return (n, n)
and (n,); or a stack of B states, q and q_dot of shape (B, n) and t of
shape (B,), and return (B, n, n) and (B, n), row b equal to the single-state
call on row b. A time-free face (the nominal model) takes t = None.
``accel`` takes one state only and works on Python floats. Both methods
evaluate one expression per entry: on Python floats (``math``
trigonometry) for a single state, on the (B,) columns (numpy's) for a
stack, with the same operations in the same order, so that the rows agree
bit for bit wherever numpy's cos and sin round as libm's.

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
        for name, value in (("disturbance_amp", disturbance_amp),
                            ("disturbance_freq", disturbance_freq)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        phases = np.zeros(self.dim) if phases is None else np.asarray(phases, float)
        if phases.shape != (self.dim,) or not np.isfinite(phases).all():
            raise ValueError(f"phases must be {self.dim} finite numbers, one per plant "
                             f"coordinate, got shape {phases.shape}")
        self.nominal = self if nominal is None else nominal
        self.disturbance_amp = disturbance_amp
        self.disturbance_freq = disturbance_freq
        self.phases = phases

    def disturbance(self, t) -> np.ndarray:
        """The (n,) disturbance at a float t; a (B, 1) column of times gives
        its (B, n) rows."""
        return self.disturbance_amp * np.sin(self.disturbance_freq * t + self.phases)

    def _disturbed(self, n: np.ndarray, t, batch: int | None) -> np.ndarray:
        """The bias n plus the disturbance at t (at each row's time for a
        stack of batch rows)."""
        if not self.disturbance_amp:
            return n
        return n + self.disturbance(t if batch is None else np.asarray(t, float)[:, None])

    def mass_matrix(self, q, t=None) -> np.ndarray:
        raise NotImplementedError

    def bias_vector(self, q, q_dot, t) -> np.ndarray:
        raise NotImplementedError

    def nominal_mass_matrix(self, q) -> np.ndarray:
        return self.nominal.mass_matrix(q)

    def nominal_bias_vector(self, q, q_dot) -> np.ndarray:
        return self.nominal.bias_vector(q, q_dot, None)

    def accel(self, q, q_dot, tau_applied, t: float) -> list[float]:
        """Forward dynamics qdd = M(q)^-1 (tau_applied - N(q, q_dot, t)).

        q, q_dot and tau_applied are any length-dim sequences of floats
        (list, tuple or ndarray); the result is a list of dim Python floats.
        The integrator calls this at every RK4 stage on tuples of floats
        and unpacks the result (any length-dim sequence), so subclasses
        override it with a float closed form; el_accel stays the ndarray
        reference.
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


def _columns(x):
    """(columns, batch) of a state: the n Python floats of a single (n,)
    state with batch None, or the n (B,) columns of a (B, n) stack with
    batch B."""
    x = np.asarray(x, float)
    if x.ndim == 1:
        return x.tolist(), None
    return list(x.T), len(x)


def _stack(entries, batch: int | None) -> np.ndarray:
    """np.array of nested entries. For a stack of batch rows the entries are
    (B,) arrays, or floats shared by every row, and the row axis comes
    first: (n,) entries give (B, n), (n, n) entries (B, n, n)."""
    if batch is None:
        return np.array(entries)
    if isinstance(entries, (list, tuple)):
        return np.stack([_stack(e, batch) for e in entries], axis=1)
    return np.broadcast_to(entries, (batch,))


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
        for name in ("period_on", "period_off"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not self.offsets:
            raise ValueError("at least one offset is required")
        offsets = tuple((float(dx), float(dy)) for dx, dy in self.offsets)
        if not all(math.isfinite(x) for pair in offsets for x in pair):
            raise ValueError("offsets must be finite")
        object.__setattr__(self, "offsets", offsets)


def _payload_phase(sched: PayloadSchedule, t):
    """The payload phase at time t >= 0: k while offsets[k] is carried, -1
    in an off-window; the first on-window starts at t = 0.

    Written in operators only, so that a float t gives a float and an array
    of times an array of the same values: numpy's floor_divide rounds as
    Python's // does.
    """
    period = sched.period_on + sched.period_off
    cycle = t // period
    on = t - cycle * period < sched.period_on
    return (cycle % len(sched.offsets) + 1.0) * on - 1.0


def payload_mass(sched: PayloadSchedule, t: float):
    """(mass_delta, (dx, dy)) at time t; the first on-window starts at t = 0."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    k = _payload_phase(sched, t)
    if k < 0.0:
        return 0.0, (0.0, 0.0)
    return sched.extra_mass, sched.offsets[int(k)]


class _ReducedWmrPlant(PlantModel):
    """Wheel-space (theta_r, theta_l) dynamics of the differential drive."""

    dim = 2

    def __init__(self, params, payload=None, viscous=0.0, nominal=None,
                 disturbance_amp=0.0, disturbance_freq=1.0, phases=None):
        super().__init__(nominal, disturbance_amp, disturbance_freq, phases)
        self.params = params
        self.payload = payload
        self.viscous = viscous
        # _payload_phase's operands, held so that accel's key reads no
        # schedule attribute
        self._phase_terms = None if payload is None else (
            payload.period_on + payload.period_off, payload.period_on, len(payload.offsets))
        # the wheel-to-body factors a = r/2 (forward speed) and c = r/(2b)
        # (turn rate), and the load (dm, dx, dy) of each payload phase: row 0
        # the bare body, whose zero load leaves every sum exact, row k + 1
        # while offsets[k] is carried
        a, c = params.r_bar / 2.0, params.r_bar / (2.0 * params.b)
        offsets = () if payload is None else payload.offsets
        loads = [(0.0, 0.0, 0.0)] + [(payload.extra_mass, dx, dy) for dx, dy in offsets]
        self._phases = []
        for dm, dx, dy in loads:
            m_eff = params.m + dm
            j_eff = params.I_bar + params.m * params.d ** 2 + dm * (dx * dx + dy * dy)
            linear, spin = m_eff * a * a, j_eff * c * c
            diag, off = linear + spin + params.I_w, linear - spin
            # the centre-of-mass offset couples spin rate into both wheels;
            # rolling resistance scales with the carried weight
            gyro = 2.0 * (params.K + dm * dx) * a * c * c
            visc = viscous * (m_eff / params.m)
            # accel's LU factors: partial pivoting keeps row 0, as diag - |off|
            # = I_w + 2 min(m a^2, j c^2) > 0, and l is scaled by the
            # reciprocal pivot
            lower = off * (1.0 / diag)
            self._phases.append((diag, off, gyro, visc, lower, diag - lower * off))

    def _factors(self, t):
        """(diag, off, gyro, visc, lower, upper) of the payload phase at t:
        floats at a float t, (B,) columns over a (B,) array of times; row 0
        at t = None."""
        if self.payload is None or t is None:
            return self._phases[0]
        if np.ndim(t):
            rows = _payload_phase(self.payload, np.maximum(t, 0.0)) + 1.0
            return np.array(self._phases)[rows.astype(int)].T
        return self._phases[int(_payload_phase(self.payload, max(t, 0.0))) + 1]

    def mass_matrix(self, q, t=None) -> np.ndarray:
        diag, off, *_ = self._factors(t)
        # the inertia is constant in q; the state only sets the batch
        return _stack([[diag, off], [off, diag]], None if np.ndim(q) == 1 else len(q))

    def bias_vector(self, q, q_dot, t) -> np.ndarray:
        (qd0, qd1), batch = _columns(q_dot)
        _, _, gyro, visc, *_ = self._factors(t)
        s = gyro * (qd0 - qd1)
        n0, n1 = s * qd1, s * -qd0
        if self.viscous:
            n0, n1 = n0 + visc * qd0, n1 + visc * qd1
        return self._disturbed(_stack([n0, n1], batch), t, batch)

    def accel(self, q, q_dot, tau_applied, t: float) -> list[float]:
        """Closed form of el_accel in float arithmetic.

        The bias repeats bias_vector operation for operation; the 2 x 2 solve
        is a plain LU solve on the phase row's factors, equal to el_accel to
        rounding.
        """
        terms = self._phase_terms
        if terms is None:
            row = 0
        else:
            # the row _payload_phase(self.payload, max(t, 0.0)) + 1.0: its
            # operations, operation for operation, without the final - 1.0
            period, period_on, count = terms
            t_on = 0.0 if 0.0 > t else t
            cycle = t_on // period
            row = int((cycle % count + 1.0) * (t_on - cycle * period < period_on))
        diag, off, gyro, visc, lower, upper = self._phases[row]
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
        x1 = float((b1 - lower * b0) / upper)
        return [float((b0 - off * x1) / diag), x1]


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
    if not 0.0 <= viscous < math.inf:
        raise ValueError("viscous must be finite and nonnegative")
    scale = 1.0 - mismatch
    nominal = _ReducedWmrPlant(replace(
        params, m=params.m * scale, I_bar=params.I_bar * scale,
        K=params.K * scale, I_w=params.I_w * scale))
    return _ReducedWmrPlant(params, payload, viscous, nominal,
                            disturbance_amp, disturbance_freq, phases)


def body_twist(q_dot, params: WmrParams):
    """(forward speed, turn rate) from wheel rates (theta_r_dot, theta_l_dot):
    of one pair, or (N,) series of an (N, 2) series of pairs."""
    q_dot = np.asarray(q_dot, float)
    v = params.r_bar * (q_dot[..., 0] + q_dot[..., 1]) / 2.0
    w = params.r_bar * (q_dot[..., 0] - q_dot[..., 1]) / (2.0 * params.b)
    return v, w


def reconstruct_posture(times, q_dots, params: WmrParams, pose0=(0.0, 0.0, 0.0)):
    """Integrate the rolling kinematics to recover (x_c, y_c, phi) series.

    times and q_dots are sampled series (wheel rates per row); trapezoidal
    integration of the heading and midpoint integration of the position.
    Returns an array of shape (len(times), 3). The reported (x_c, y_c) is
    the centre of mass, offset d ahead of the axle midpoint.

    Each running sum is a cumsum from its start value, which adds the steps
    in the order, and with the roundings, of a loop over the rows.
    """
    times = np.asarray(times, float)
    q_dots = np.asarray(q_dots, float)
    if times.ndim != 1 or not len(times) or q_dots.shape != (len(times), 2):
        raise ValueError(f"times and q_dots must be N >= 1 times and N pairs of wheel "
                         f"rates, got shapes {times.shape} and {q_dots.shape}")
    v, w = body_twist(q_dots, params)
    dt = np.diff(times)
    w_pair = w[:-1] + w[1:]
    x, y, phi0 = pose0
    x_a0 = x - params.d * math.cos(phi0)
    y_a0 = y - params.d * math.sin(phi0)
    phi = np.cumsum(np.concatenate([[phi0], 0.5 * w_pair * dt]))
    phi_mid = phi[:-1] + 0.25 * w_pair * dt
    v_mid = 0.5 * (v[:-1] + v[1:])
    x_a = np.cumsum(np.concatenate([[x_a0], v_mid * np.cos(phi_mid) * dt]))
    y_a = np.cumsum(np.concatenate([[y_a0], v_mid * np.sin(phi_mid) * dt]))
    out = np.stack([x_a + params.d * np.cos(phi), y_a + params.d * np.sin(phi), phi],
                   axis=1)
    out[0] = (x, y, phi0)
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


def _two_link_coefficients(p: TwoLinkParams):
    """The parameter products of the arm's M and N: (inertia, bias) tuples.

    Each product is a left-to-right prefix of the expression it was written
    in, e.g. m1 lc1^2 + I1 + I2 of M11 = m1 lc1^2 + I1 + I2 + m2 (l1^2 +
    lc2^2 + 2 l1 lc2 cos q1), so hoisting it keeps every rounding.
    """
    inertia = (
        p.m1 * p.lc1 ** 2 + p.I1 + p.I2,
        p.m2,
        p.l1 ** 2 + p.lc2 ** 2,
        2.0 * p.l1 * p.lc2,
        p.lc2 ** 2,
        p.l1 * p.lc2,
        p.I2,
        p.m2 * p.lc2 ** 2 + p.I2,
    )
    bias = (
        p.m2 * p.l1 * p.lc2,
        (p.m1 * p.lc1 + p.m2 * p.l1) * p.gravity,
        p.m2 * p.lc2 * p.gravity,
        p.viscous,
    )
    return inertia, bias


def _two_link_inertia_terms(k, c2):
    """(M11, M12, M22) of the arm's symmetric inertia at c2 = cos(q1), the
    elbow angle's cosine (a float, or (B,) values with M22 shared)."""
    base11, m2, l1_lc2_sq, two_l1_lc2, lc2_sq, l1_lc2, i2, a22 = k
    return (base11 + m2 * (l1_lc2_sq + two_l1_lc2 * c2),
            m2 * (lc2_sq + l1_lc2 * c2) + i2, a22)


# (cos, sin) for Python floats and for (B,) arrays
_FLOAT_OPS = (math.cos, math.sin)
_ARRAY_OPS = (np.cos, np.sin)


def _two_link_bias_terms(k, q0, q1, qd0, qd1, ops):
    """(N1, N2): Coriolis plus gravity, plus viscous friction when set."""
    h_gain, grav1, grav2_gain, viscous = k
    cos, sin = ops
    h = h_gain * sin(q1)
    grav2 = grav2_gain * cos(q0 + q1)
    n0 = -h * qd1 * (2.0 * qd0 + qd1) + (grav1 * cos(q0) + grav2)
    n1 = h * (qd0 * qd0) + grav2
    if viscous:
        n0, n1 = n0 + viscous * qd0, n1 + viscous * qd1
    return n0, n1


def two_link_matrices(q, q_dot, params: TwoLinkParams):
    """Mass matrix and bias (Coriolis + gravity + viscous) of the arm.

    Joint angles are measured from the horizontal, so gravity torques go
    with cos(q). Setting gravity = 0 and q_dot = 0 gives N = 0.
    """
    arm = _TwoLinkPlant(params)
    return arm.mass_matrix(q), arm.bias_vector(q, q_dot, None)


class _TwoLinkPlant(PlantModel):
    dim = 2

    def __init__(self, params, nominal=None, disturbance_amp=0.0,
                 disturbance_freq=1.0, phases=None):
        super().__init__(nominal, disturbance_amp, disturbance_freq, phases)
        self.params = params
        self._inertia_k, self._bias_k = _two_link_coefficients(params)

    def mass_matrix(self, q, t=None) -> np.ndarray:
        (_, q1), batch = _columns(q)
        cos = math.cos if batch is None else np.cos
        a11, a12, a22 = _two_link_inertia_terms(self._inertia_k, cos(q1))
        return _stack([[a11, a12], [a12, a22]], batch)

    def bias_vector(self, q, q_dot, t) -> np.ndarray:
        (q0, q1), batch = _columns(q)
        (qd0, qd1), _ = _columns(q_dot)
        ops = _FLOAT_OPS if batch is None else _ARRAY_OPS
        n = _two_link_bias_terms(self._bias_k, q0, q1, qd0, qd1, ops)
        return self._disturbed(_stack(n, batch), t, batch)

    def accel(self, q, q_dot, tau_applied, t: float) -> list[float]:
        """Closed form of el_accel: the 2 x 2 inverse through its determinant."""
        q0, q1 = q
        qd0, qd1 = q_dot
        tau0, tau1 = tau_applied
        a11, a12, a22 = _two_link_inertia_terms(self._inertia_k, math.cos(q1))
        n0, n1 = _two_link_bias_terms(self._bias_k, q0, q1, qd0, qd1, _FLOAT_OPS)
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


class _LinearPlant(PlantModel):
    """M = mass I, N = stiffness q: the point mass (stiffness 0) and the
    undamped oscillator."""

    def __init__(self, n, mass, stiffness=0.0):
        self.dim = n
        super().__init__()
        self.mass = mass
        self.stiffness = stiffness

    def mass_matrix(self, q, t=None):
        return self.mass * np.broadcast_to(np.eye(self.dim), np.shape(q) + (self.dim,))

    def bias_vector(self, q, q_dot, t):
        return self.stiffness * np.asarray(q, float)

    def accel(self, q, q_dot, tau_applied, t):
        return [(float(u) - self.stiffness * float(x)) / self.mass
                for u, x in zip(tau_applied, q)]


def point_mass_plant(n: int = 1, mass: float = 1.0) -> PlantModel:
    """Friction-free unit plant M = mass * I, N = 0."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < mass < math.inf:
        raise ValueError("mass must be finite and positive")
    return _LinearPlant(n, mass)


def oscillator_plant(stiffness: float = 1.0, mass: float = 1.0) -> PlantModel:
    """Undamped linear oscillator; conserves energy under zero input."""
    for name, value in (("stiffness", stiffness), ("mass", mass)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive")
    return _LinearPlant(1, mass, stiffness)
