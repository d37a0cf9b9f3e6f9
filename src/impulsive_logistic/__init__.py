"""Period-1 logistic growth with proportional harvesting impulses.

Closed-form solution evaluation, the corrected periodic orbit and its
refuted legacy counterpart, an independent RK4 oracle, and verification
reports; see the README for the CLI.
"""

from .analysis import (
    CheckRecord,
    VerificationReport,
    compare_solutions,
    fixed_point_scan,
    trajectory_closed_form,
    verify_impulse_condition,
    verify_periodicity,
)
from .closed_form import (
    AnchorUnderflowError,
    ModelParams,
    NoPeriodicSolutionError,
    PeriodTable,
    SolutionConstants,
    derive_constants,
    legacy_grid,
    period_table,
    periodic_grid,
    periodic_orbit_mean,
    poincare_map,
    require_orbit,
    solution_grid,
)
from .coefficients import (
    CoefficientPair,
    ConstantCoefficient,
    PeriodicCoefficient,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
    coefficient_from_dict,
    compute_B,
    forcing_integrals,
)
from .integrator import (
    IntegrationError,
    Trajectory,
    integrate,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorUnderflowError",
    "CheckRecord",
    "CoefficientPair",
    "ConstantCoefficient",
    "IntegrationError",
    "ModelParams",
    "NoPeriodicSolutionError",
    "PeriodTable",
    "PeriodicCoefficient",
    "PiecewiseConstantCoefficient",
    "SinusoidCoefficient",
    "SolutionConstants",
    "Trajectory",
    "VerificationReport",
    "coefficient_from_dict",
    "compare_solutions",
    "compute_B",
    "derive_constants",
    "fixed_point_scan",
    "forcing_integrals",
    "integrate",
    "legacy_grid",
    "period_table",
    "periodic_grid",
    "periodic_orbit_mean",
    "poincare_map",
    "require_orbit",
    "solution_grid",
    "trajectory_closed_form",
    "verify_impulse_condition",
    "verify_periodicity",
]
