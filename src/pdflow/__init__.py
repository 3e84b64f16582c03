"""Primal-dual gradient flow in Brayton-Moser form with switched inequality handling.

Simulates the continuous-time saddle dynamics of convex programs, tracks the
Krasovskii and per-mode storage functions along trajectories, verifies the
associated passivity and convergence certificates numerically, and ships a
multi-zone building energy management case study driven by time-of-use prices.
"""

from .problem import (
    AffineMap,
    AffineScalar,
    ConvexProblem,
    InfeasibleProblemError,
    KktPoint,
    KktResidual,
    OracleCapabilityError,
    Quadratic,
    QuadraticScalar,
    SmoothScalar,
    active_set_oracle,
    kkt_residual,
    lagrangian_gradient,
    quadratic_problem,
    sized,
)
from .brayton_moser import (
    BmSystem,
    bm_vector_field,
    krasovskii_storage,
    mixed_potential,
    storage_rate,
)
from .switching import (
    ProjectionSystem,
    StepTooLargeError,
    SwitchEvent,
    classify_switch,
    compute_sigma,
    output_port_rate,
    positive_projection,
    switched_storage,
)
from .interconnect import (
    AffineField,
    ComposedSystem,
    FullState,
    GenericField,
    compiled_field,
    compose,
    composed_vector_field,
    full_state,
)
from .integrator import (
    DivergenceError,
    EventIsolationError,
    IntegratorOptions,
    Trajectory,
    concat_trajectories,
    simulate,
    simulate_projection,
    write_ledger_csv,
    write_trajectory_csv,
)
from .monitor import (
    CertificateReport,
    check_composite_decrease,
    check_convergence,
    check_hybrid_passivity,
    check_hybrid_passivity_all,
    check_quadratic_norm,
    check_switch_ledger,
    check_unforced_decrease,
    run_certificates,
)
from .hvac import (
    DayResult,
    HvacSystem,
    IntervalConvergenceError,
    ThermalNetwork,
    TouSchedule,
    WelfareParams,
    build_hvac_system,
    build_welfare_problem,
    run_tou_scenario,
    steady_state_constraint,
    synth_internal_load,
    zone_cooling_loads,
)
from .scenario import Scenario, ScenarioError, load_scenario, resolve_scenario, scenario_to_dict

__version__ = "0.1.0"
