"""Period-1 logistic growth with proportional harvesting impulses.

Closed-form solution evaluation, the corrected periodic orbit and its
refuted legacy counterpart, an independent RK4 oracle, and verification
reports; see the README for the CLI.
"""

from .analysis import (
    CheckRecord,
    VerificationReport,
    compare_solutions,
    critical_harvest,
    fixed_point_scan,
    trajectory_closed_form,
    verify_impulse_condition,
    verify_periodicity,
)
from .closed_form import (
    ImpulseLimits,
    ModelParams,
    NoPeriodicSolutionError,
    PeriodTable,
    SolutionConstants,
    derive_constants,
    legacy_periodic_at,
    one_sided_limits,
    period_table,
    periodic_grid,
    periodic_orbit_mean,
    poincare_map,
    solution_grid,
)
from .coefficients import (
    CoefficientPair,
    ConstantCoefficient,
    PeriodicCoefficient,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
    coefficient_from_dict,
    compute_A,
    compute_B,
    forcing_integral,
)
from .integrator import (
    ImpulseEvent,
    IntegrationError,
    StepControl,
    Trajectory,
    integrate,
)

__version__ = "0.1.0"

__all__ = [
    "CheckRecord",
    "CoefficientPair",
    "ConstantCoefficient",
    "ImpulseEvent",
    "ImpulseLimits",
    "IntegrationError",
    "ModelParams",
    "NoPeriodicSolutionError",
    "PeriodTable",
    "PeriodicCoefficient",
    "PiecewiseConstantCoefficient",
    "SinusoidCoefficient",
    "SolutionConstants",
    "StepControl",
    "Trajectory",
    "VerificationReport",
    "coefficient_from_dict",
    "compare_solutions",
    "compute_A",
    "compute_B",
    "critical_harvest",
    "derive_constants",
    "fixed_point_scan",
    "forcing_integral",
    "integrate",
    "legacy_periodic_at",
    "one_sided_limits",
    "period_table",
    "periodic_grid",
    "periodic_orbit_mean",
    "poincare_map",
    "solution_grid",
    "trajectory_closed_form",
    "verify_impulse_condition",
    "verify_periodicity",
]
