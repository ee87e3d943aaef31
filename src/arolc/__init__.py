"""Adaptive-robust tracking control for input-delayed Euler-Lagrange systems.

The package provides:

* dense small-matrix linear algebra (Lyapunov solve, symmetric eigenvalues,
  spectral norm),
* Razumikhin delay margins and ultimate bounds for the delayed error loop,
* the adaptive-robust outer-loop controller and a predictor baseline,
* Euler-Lagrange plant models (two-link arm, differential-drive robot),
* a deterministic fixed-step simulator of the delayed closed loop,
* tracking/effort metrics, scenario files, and a CLI.
"""

from .controllers import (
    ArolcConfig,
    ArolcState,
    PconConfig,
    StepRecord,
    arolc_step,
    make_controller,
    pcon_step,
    uncertainty_residual,
)
from .delays import DelayBuffer, DelayProfile, delay_at, max_delay
from .linalg import (
    invert,
    is_hurwitz,
    min_eig_symmetric,
    solve_lyapunov,
    spectral_norm,
)
from .metrics import (
    MetricsReport,
    absolute_average_error,
    metrics_from_json,
    metrics_from_trace,
    metrics_to_json,
    percent_error,
    total_variation,
)
from .plants import (
    PayloadSchedule,
    PlantModel,
    TwoLinkParams,
    WmrParams,
    body_twist,
    el_accel,
    oscillator_plant,
    payload_mass,
    point_mass_plant,
    reconstruct_posture,
    reduced_wmr_dynamics,
    two_link_plant,
)
from .scenario_io import (
    ScenarioError,
    apply_override,
    build_gains,
    build_scenario,
    load_config,
    load_scenario,
    scenario_hash,
)
from .sim import (
    FineRecord,
    Scenario,
    SimulationDiverged,
    Trace,
    error_dynamics_residual,
    simulate,
    trace_to_csv,
)
from .stability import (
    BoundParams,
    ErrorSystem,
    GainSet,
    build_error_system,
    check_feasibility,
    delay_margin,
    reaching_time,
    ultimate_bound,
)
from .trajectories import (
    CircleTrajectory,
    SinusoidTrajectory,
    WheelRampTrajectory,
)

__version__ = "0.1.0"
