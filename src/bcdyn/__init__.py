"""Dynamics toolkit for a five-compartment tumor-immune-endocrine model.

State (N, T, I, E, M): normal cells, tumor cells, immune effector cells,
estrogen, and immunotherapy agent, under three treatment knobs: ketogenic
diet strength d, endocrine-therapy efficacy k, and immunotherapy dosing
v_M.  The package integrates trajectories, enumerates every equilibrium
family, classifies local stability by eigenvalues, Routh-Hurwitz minors
(two paths that share only the Jacobian) and the printed conditions,
and sweeps or bisects treatment parameters to localize stability
transitions.
"""
from .equilibria import (
    Equilibrium,
    estrogen_level,
    find_all,
    tumor_free,
)
from .integrator import (
    IntegrationConfig,
    PositivityError,
    StepUnderflowError,
    Trajectory,
    integrate,
    settle,
)
from .model import (
    DomainError,
    ModelParams,
    ReproductionNumbers,
    SystemState,
    jacobian,
    make_jacobian,
    make_rhs,
    reproduction_numbers,
    residual_norm,
    rhs,
    validate_params,
)
from .numerics import (
    HurwitzVerdict,
    NewtonError,
    NumericsError,
    RootSet,
    newton_solve,
    poly_roots,
    routh_hurwitz,
)
from .scenario import Scenario, ScenarioError, default_scenario, load_scenario, parse_scenario
from .stability import StabilityReport, classify
from .sweep import BifurcationResult, SweepSpec, build_grid, run_bifurcate, run_sweep
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "ModelParams",
    "SystemState",
    "ReproductionNumbers",
    "validate_params",
    "make_rhs",
    "make_jacobian",
    "rhs",
    "residual_norm",
    "jacobian",
    "reproduction_numbers",
    "RootSet",
    "HurwitzVerdict",
    "NumericsError",
    "NewtonError",
    "poly_roots",
    "routh_hurwitz",
    "newton_solve",
    "IntegrationConfig",
    "Trajectory",
    "PositivityError",
    "StepUnderflowError",
    "integrate",
    "settle",
    "Equilibrium",
    "estrogen_level",
    "tumor_free",
    "find_all",
    "StabilityReport",
    "classify",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "parse_scenario",
    "default_scenario",
    "SweepSpec",
    "BifurcationResult",
    "build_grid",
    "run_sweep",
    "run_bifurcate",
    "run_validation",
]
