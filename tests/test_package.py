"""Package metadata agrees with the installed module."""
import re
from pathlib import Path

import bcdyn


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = pyproject.read_text(encoding="utf-8").split("[project]", 1)[1]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
    assert bcdyn.__version__ == declared


PUBLIC = [
    "BifurcationResult", "DomainError", "Equilibrium", "HurwitzVerdict",
    "IntegrationConfig", "ModelParams", "NewtonError", "NumericsError",
    "PositivityError", "ReproductionNumbers",
    "Scenario", "ScenarioError", "StabilityReport", "StepUnderflowError",
    "SweepSpec", "SystemState", "Trajectory", "__version__",
    "build_grid", "classify", "default_scenario",
    "estrogen_level", "find_all", "integrate", "jacobian", "load_scenario",
    "make_jacobian", "make_rhs", "newton_solve",
    "parse_scenario", "poly_roots", "reproduction_numbers", "residual_norm",
    "rhs", "routh_hurwitz", "run_bifurcate", "run_sweep", "run_validation",
    "settle", "tumor_free", "validate_params",
]

#: Names deleted for want of a consumer, or moved to ``bcdyn.formats``, by
#: the module that held them.
DELETED = {
    "equilibria": [
        "reduced_polynomials", "ReducedPolynomials", "_dead1_quadratic_printed",
        "catalog_to_json", "catalog_to_csv", "_json_num",
    ],
    "model": ["coefficients", "CoefficientSet"],
    "stability": [
        "empirical_check", "theorem_conditions",
        "report_to_json", "summary_csv_header", "summary_csv_row", "block_spectrum",
        "_band_char_poly", "_trace",
    ],
    "numerics": ["eigenvalues", "Polynomial", "char_poly", "_trace", "RootSet", "_root_key"],
    "sweep": ["sweep_to_csv", "bifurcation_to_json"],
    "integrator": ["trajectory_to_csv"],
}


def test_public_surface_is_pinned():
    """Adding or removing a public name is a deliberate edit of PUBLIC."""
    assert sorted(bcdyn.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(bcdyn, name)


def test_deleted_names_stay_deleted():
    for module, names in DELETED.items():
        for name in names:
            assert not hasattr(bcdyn, name)
            assert not hasattr(getattr(bcdyn, module), name)
    assert not hasattr(bcdyn.Trajectory, "iter_states")
