"""Local stability classification of equilibria.

Three verdicts are computed and compared:

* eigenvalues of the analytic Jacobian (authoritative), straight from
  LAPACK (``np.linalg.eigvals``),
* Routh-Hurwitz minors of its Faddeev-LeVerrier characteristic polynomial,
* the family-specific printed conditions (reproduction numbers and
  coefficient-sign tests), reported but never used to override.

The first two share only the Jacobian: an error in char_poly moves the
Hurwitz verdict alone and shows as an eigen/Hurwitz disagreement, while
an error in the Jacobian reaches both.

The printed conditions live in one table, ``_RULES``, with one rules
function per equilibrium family, as ``equilibria._TABLE`` holds one finder
row per family.  Given the point, its Jacobian and Hurwitz verdict, each
returns the reproduction numbers its conditions read, the conditions by
name and the paper's sufficient-condition claim: R0 and R1 for tumor-free,
R_IM and the B-signs for dead1, the C-cubic for dead2 (necessary only, so
no claim) and the Hurwitz minors for coexisting.  :func:`classify` and
:func:`theorem_conditions` both read the table.

The printed tumor-free conditions carry known sign slips relative to the
derived Jacobian blocks, so in addition to the verbatim R0/R1 predicates
the derived block conditions (trace/determinant of the actual 2x2 blocks)
are evaluated; those are exact for the block-reducible T = 0 families.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .equilibria import Equilibrium, _json_num
from .integrator import default_horizon, settle
from .model import (
    DomainError,
    ModelParams,
    ReproductionNumbers,
    SystemState,
    _at_dead1_state,
    _coefficients,
    _reproduction,
    jacobian,
)
from .numerics import (
    MARGINAL_RE,
    HurwitzVerdict,
    Polynomial,
    RootSet,
    _root_set,
    char_poly,
    poly_roots,
    routh_hurwitz,
)

__all__ = [
    "ConditionCheck",
    "StabilityReport",
    "classify",
    "theorem_conditions",
    "empirical_check",
    "block_spectrum",
    "report_to_json",
    "summary_csv_header",
    "summary_csv_row",
]


@dataclass(frozen=True)
class ConditionCheck:
    """A named inequality with the two sides it compares."""

    name: str
    holds: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class StabilityReport:
    equilibrium: Equilibrium
    jacobian: np.ndarray
    char_coeffs: Polynomial
    eigenvalues: RootSet
    hurwitz: HurwitzVerdict
    verdict: str
    repro: ReproductionNumbers | None
    theorem_checks: dict[str, ConditionCheck] = field(default_factory=dict)
    agreement: dict[str, bool | None] = field(default_factory=dict)

    @property
    def max_real(self) -> float:
        return self.eigenvalues.max_real


def _eig_verdict(max_re: float) -> str:
    if max_re < -MARGINAL_RE:
        return "stable"
    if max_re > MARGINAL_RE:
        return "unstable"
    return "inconclusive"


def _spectra(Js: np.ndarray) -> list[RootSet]:
    """Sorted eigenvalues of each Jacobian of a (B, 5, 5) stack, from one
    LAPACK call; the same bits as one call per Jacobian."""
    return [_root_set(w) for w in np.linalg.eigvals(Js)] if len(Js) else []


def _repro(eq: Equilibrium, params: ModelParams, B=None) -> ReproductionNumbers | None:
    """R0 and R1 from the A family, and R_IM from the B family where the
    point has N = T = 0: the reproduction numbers of the tumor-free and
    dead1 rules.  None for the other families.  ``B`` is the B family at
    the point when the caller has it already.  ``params`` must already be
    validated."""
    if eq.family not in ("tumor_free", "dead1"):
        return None
    point = eq.point
    A = _coefficients(point, params, "A")
    if not _at_dead1_state(point):
        return _reproduction(A, None)
    return _reproduction(A, B if B is not None else _coefficients(point, params, "B"))


def block_spectrum(J: np.ndarray) -> tuple[RootSet, RootSet]:
    """Eigenvalues of the (N, T) and (I, M) 2x2 blocks of a Jacobian.

    At any state with T = 0 the full spectrum is the union of these two
    block spectra plus {-theta} (the block-reducible structure of the
    linearization at tumor-free and dead type-1 states)."""
    nt = J[np.ix_((0, 1), (0, 1))]
    im = J[np.ix_((2, 4), (2, 4))]
    return poly_roots(char_poly(nt)), poly_roots(char_poly(im))


def _block_conditions(J: np.ndarray) -> dict[str, ConditionCheck]:
    """Derived stability conditions of the two 2x2 blocks: negative trace
    and positive determinant of each.  Exact at T = 0."""
    checks = {}
    for name, idx in (("nt", (0, 1)), ("im", (2, 4))):
        block = J[np.ix_(idx, idx)]
        tr = float(np.trace(block))
        det = float(np.linalg.det(block))
        checks[f"derived_{name}_trace_neg"] = ConditionCheck(
            f"derived_{name}_trace_neg", tr < 0.0, tr, 0.0
        )
        checks[f"derived_{name}_det_pos"] = ConditionCheck(
            f"derived_{name}_det_pos", det > 0.0, det, 0.0
        )
    return checks


def _tumor_free_rules(eq: Equilibrium, params: ModelParams, J: np.ndarray, hv: HurwitzVerdict):
    """R0 < 1 and R1 < 1, the auxiliary bounds on I and the derived block
    conditions.  R_IM is defined only where the point also has N = 0."""
    point = eq.point
    rn = _repro(eq, params)
    checks = {
        "R0_lt_1": ConditionCheck("R0_lt_1", rn.r0_defined and rn.r0 < 1.0, rn.r0, 1.0),
        "R1_lt_1": ConditionCheck("R1_lt_1", rn.r1_defined and rn.r1 < 1.0, rn.r1, 1.0),
    }
    # Informational auxiliary bounds on I (not part of any verdict; the upper
    # bound uses a2(1+d), which appears nowhere else in the analysis).
    lower = params.s * point.M / params.v_M if params.v_M > 0 else math.inf
    upper_num = (
        params.a2 * (1.0 + params.d)
        - 2.0 * params.b1 * point.N
        - params.l1 * point.E * (1.0 - params.k)
        - params.m_d
    )
    upper = upper_num / params.g1 if params.g1 > 0 else math.inf
    checks["aux_I_lower"] = ConditionCheck("aux_I_lower", lower < point.I, lower, point.I)
    checks["aux_I_upper"] = ConditionCheck("aux_I_upper", point.I < upper, point.I, upper)
    checks.update(_block_conditions(J))
    return rn, checks, checks["R0_lt_1"].holds and checks["R1_lt_1"].holds


def _dead1_rules(eq: Equilibrium, params: ModelParams, J: np.ndarray, hv: HurwitzVerdict):
    """R_IM < 1 and negative B0, B2, B4, B8, plus the derived block
    conditions."""
    B = _coefficients(eq.point, params, "B")
    rn = _repro(eq, params, B)
    checks = {
        "R_IM_lt_1": ConditionCheck("R_IM_lt_1", rn.r_im_defined and rn.r_im < 1.0, rn.r_im, 1.0)
    }
    for idx in (0, 2, 4, 8):
        checks[f"B{idx}_neg"] = ConditionCheck(f"B{idx}_neg", B[idx] < 0.0, B[idx], 0.0)
    claim = all(check.holds for check in checks.values())
    checks.update(_block_conditions(J))
    return rn, checks, claim


def _dead2_rules(eq: Equilibrium, params: ModelParams, J: np.ndarray, hv: HurwitzVerdict):
    """Invasion blocked and the two C-cubic coefficient signs.  These are
    only necessary conditions, so the family makes no claim."""
    point = eq.point
    C = _coefficients(point, params, "C")
    rhs_i = params.d1 * point.T / (1.0 + params.epsilon * point.T) - params.l1 * point.E
    lin = C[6] * C[8] - C[5] * C[9] - C[3] * C[4] - C[2] * C[9] - C[2] * C[5]
    const = C[2] * C[5] * C[9] - C[2] * C[6] * C[8] + C[3] * C[4] * C[9]
    checks = (
        ConditionCheck("invasion_blocked", params.a1 < rhs_i, params.a1, rhs_i),
        ConditionCheck("reduced_cubic_mid_pos", lin > 0.0, lin, 0.0),
        ConditionCheck("reduced_cubic_const_pos", const > 0.0, const, 0.0),
    )
    return None, {check.name: check for check in checks}, None


def _coexisting_rules(eq: Equilibrium, params: ModelParams, J: np.ndarray, hv: HurwitzVerdict):
    """Eigenvalue signs, checked through the Hurwitz minors."""
    check = ConditionCheck("hurwitz_minors_positive", hv.all_positive, min(hv.minors), 0.0)
    return None, {check.name: check}, check.holds


#: Per family, ``rules(eq, params, J, hv) -> (repro, checks, claim)`` with
#: ``J`` the Jacobian at ``eq`` and ``hv`` its Hurwitz verdict; ``claim`` is
#: None when the family has no closed claim.  ``params`` must already be
#: validated (:func:`jacobian` does it).
_RULES = {
    "tumor_free": _tumor_free_rules,
    "dead1": _dead1_rules,
    "dead2": _dead2_rules,
    "coexisting": _coexisting_rules,
}


def theorem_conditions(eq: Equilibrium, params: ModelParams) -> dict[str, ConditionCheck]:
    """Family-specific printed stability conditions with their evaluated
    left/right-hand values."""
    J = jacobian(eq.point, params)
    return _RULES[eq.family](eq, params, J, routh_hurwitz(char_poly(J)))[1]


def classify(eq: Equilibrium, params: ModelParams) -> StabilityReport:
    """Classify local stability of ``eq`` by eigenvalues, Routh-Hurwitz and
    the family-specific printed conditions."""
    if eq.residual >= 1e-8:
        raise DomainError(
            f"refusing to classify a point with residual {eq.residual:.3e} >= 1e-8"
        )
    J = jacobian(eq.point, params)
    cp = char_poly(J)
    eig = _spectra(J[None])[0]
    hv = routh_hurwitz(cp)
    verdict = _eig_verdict(eig.max_real)

    theta_gap = min(abs(z - (-params.theta)) for z in eig.roots)
    repro, checks, claim = _RULES[eq.family](eq, params, J, hv)

    agreement: dict[str, bool | None] = {}
    if verdict == "inconclusive" or hv.verdict == "inconclusive":
        agreement["eigen_hurwitz"] = None
    else:
        agreement["eigen_hurwitz"] = verdict == hv.verdict
    if claim is None or verdict == "inconclusive":
        agreement["theorem_eigen"] = None
    else:
        agreement["theorem_eigen"] = claim == (verdict == "stable")
    agreement["theta_in_spectrum"] = theta_gap < 1e-8

    return StabilityReport(
        equilibrium=eq,
        jacobian=J,
        char_coeffs=cp,
        eigenvalues=eig,
        hurwitz=hv,
        verdict=verdict,
        repro=repro,
        theorem_checks=checks,
        agreement=agreement,
    )


def empirical_check(
    report: StabilityReport,
    params: ModelParams,
    seed: int = 0,
    n_directions: int = 10,
    rel_perturbation: float = 1e-3,
    return_tol: float = 1e-4,
    horizon: float | None = None,
) -> bool:
    """Confirm a stable verdict by simulation: perturb the equilibrium in
    seeded random directions (projected to the nonnegative orthant) and
    check that every run settles back within ``return_tol`` relative."""
    if report.verdict != "stable":
        raise DomainError(f"empirical_check requires a stable verdict, got {report.verdict}")
    point = report.equilibrium.point.as_array()
    scale = 1.0 + float(np.max(np.abs(point)))
    if horizon is None:
        horizon = min(default_horizon(params), 40.0 / max(-report.max_real, 1e-3))
    window = horizon / 10.0
    rng = np.random.default_rng(seed)
    for _ in range(n_directions):
        direction = rng.standard_normal(5)
        direction /= float(np.max(np.abs(direction)))
        x0 = np.maximum(point + rel_perturbation * scale * direction, 0.0)
        settled, limit = settle(
            SystemState.from_sequence(x0), params, horizon, window, eps=return_tol / 10.0
        )
        gap = float(np.max(np.abs(limit.as_array() - point))) / scale
        if not settled or gap > return_tol:
            return False
    return True


def report_to_json(report: StabilityReport) -> str:
    eq = report.equilibrium
    payload = {
        "family": eq.family,
        "point": {"N": eq.point.N, "T": eq.point.T, "I": eq.point.I,
                  "E": eq.point.E, "M": eq.point.M},
        "residual": eq.residual,
        "verdict": report.verdict,
        "max_real_eigenvalue": report.max_real,
        "char_coeffs": list(report.char_coeffs.coeffs),
        "eigenvalues": [{"re": z.real, "im": z.imag} for z in report.eigenvalues.roots],
        "hurwitz": {
            "minors": list(report.hurwitz.minors),
            "all_positive": report.hurwitz.all_positive,
            "verdict": report.hurwitz.verdict,
        },
        "reproduction_numbers": (
            None
            if report.repro is None
            else {
                "R0": _json_num(report.repro.r0),
                "R1": _json_num(report.repro.r1),
                "R_IM": _json_num(report.repro.r_im),
                "R0_defined": report.repro.r0_defined,
                "R1_defined": report.repro.r1_defined,
                "R_IM_defined": report.repro.r_im_defined,
            }
        ),
        "theorem_checks": {
            name: {"holds": c.holds, "lhs": _json_num(c.lhs), "rhs": _json_num(c.rhs)}
            for name, c in report.theorem_checks.items()
        },
        "agreement": report.agreement,
    }
    return json.dumps(payload, indent=2) + "\n"


def summary_csv_header() -> str:
    return "family,verdict,maxReLambda,R0,R1,R_IM,eigen_hurwitz_agree,theorem_eigen_agree,theta_in_spectrum"


def summary_csv_row(report: StabilityReport) -> str:
    rn = report.repro
    r0 = f"{rn.r0:.17g}" if rn is not None else "nan"
    r1 = f"{rn.r1:.17g}" if rn is not None else "nan"
    rim = f"{rn.r_im:.17g}" if rn is not None else "nan"

    def agree(key: str) -> str:
        value = report.agreement.get(key)
        return "na" if value is None else str(value).lower()

    return ",".join(
        [
            report.equilibrium.family,
            report.verdict,
            f"{report.max_real:.17g}",
            r0,
            r1,
            rim,
            agree("eigen_hurwitz"),
            agree("theorem_eigen"),
            str(report.agreement.get("theta_in_spectrum", False)).lower(),
        ]
    )
