"""Local stability classification of equilibria.

Three verdicts are computed and compared:

* eigenvalues of the analytic Jacobian (authoritative),
* Routh-Hurwitz minors of the characteristic polynomial,
* the family-specific printed conditions (reproduction numbers and
  coefficient-sign tests), reported but never used to override.

The first two are not independent: the eigenvalues are the roots of
Faddeev-LeVerrier characteristic polynomials of the Jacobian's blocks,
and the Hurwitz minors come from the same recurrence on the same
Jacobian, so an error in the Jacobian or in char_poly reaches both.

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
    coefficients,
    jacobian,
    reproduction_numbers,
)
from .numerics import (
    MARGINAL_RE,
    HurwitzVerdict,
    Polynomial,
    RootSet,
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


def _structured_spectrum(J: np.ndarray, theta: float, cp: Polynomial) -> RootSet:
    """Spectrum of the model Jacobian through its exact factorizations.

    The E row carries only the diagonal entry -theta, so -theta splits off
    exactly.  When the remaining 4x4 has no (N, T) <- (I, M) coupling (true
    at every T = 0 state) the quartic factors into the two 2x2 blocks.
    This keeps clustered eigenvalues far better conditioned than rooting
    the full quintic.  Residuals are reported against the full
    characteristic polynomial ``cp``.
    """
    idx = (0, 1, 2, 4)
    J4 = J[np.ix_(idx, idx)]
    decoupled = (
        J4[0, 2] == 0.0 and J4[0, 3] == 0.0 and J4[1, 2] == 0.0 and J4[1, 3] == 0.0
    )
    if decoupled:
        nt = poly_roots(char_poly(J4[:2, :2]))
        im = poly_roots(char_poly(J4[2:, 2:]))
        roots = list(nt.roots) + list(im.roots)
        iterations = nt.iterations + im.iterations
    else:
        rs = poly_roots(char_poly(J4))
        roots = list(rs.roots)
        iterations = rs.iterations
    roots.append(complex(-theta))
    roots.sort(key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    residuals = tuple(abs(cp(z)) for z in roots)
    return RootSet(roots=tuple(roots), residuals=residuals, iterations=iterations)


def _eig_verdict(max_re: float) -> str:
    if max_re < -MARGINAL_RE:
        return "stable"
    if max_re > MARGINAL_RE:
        return "unstable"
    return "inconclusive"


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


def _repro(eq: Equilibrium, params: ModelParams) -> ReproductionNumbers | None:
    """R0, R1 and R_IM for the families whose conditions use them."""
    if eq.family in ("tumor_free", "dead1"):
        return reproduction_numbers(eq.point, params)
    return None


def theorem_conditions(eq: Equilibrium, params: ModelParams) -> dict[str, ConditionCheck]:
    """Family-specific printed stability conditions with their evaluated
    left/right-hand values."""
    J = jacobian(eq.point, params)
    return _conditions(eq, params, J, routh_hurwitz(char_poly(J)), _repro(eq, params))


def _conditions(
    eq: Equilibrium, params: ModelParams, J: np.ndarray, hv: HurwitzVerdict, rn: ReproductionNumbers | None
) -> dict[str, ConditionCheck]:
    """:func:`theorem_conditions` from the Jacobian ``J`` at ``eq``, its
    Hurwitz verdict ``hv`` and the reproduction numbers ``rn``."""
    point = eq.point
    checks: dict[str, ConditionCheck] = {}
    if eq.family == "tumor_free":
        checks["R0_lt_1"] = ConditionCheck("R0_lt_1", rn.r0_defined and rn.r0 < 1.0, rn.r0, 1.0)
        checks["R1_lt_1"] = ConditionCheck("R1_lt_1", rn.r1_defined and rn.r1 < 1.0, rn.r1, 1.0)
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
    elif eq.family == "dead1":
        B = coefficients(point, params, "B")
        checks["R_IM_lt_1"] = ConditionCheck(
            "R_IM_lt_1", rn.r_im_defined and rn.r_im < 1.0, rn.r_im, 1.0
        )
        for idx in (0, 2, 4, 8):
            checks[f"B{idx}_neg"] = ConditionCheck(f"B{idx}_neg", B[idx] < 0.0, B[idx], 0.0)
        checks.update(_block_conditions(J))
    elif eq.family == "dead2":
        C = coefficients(point, params, "C")
        rhs_i = (
            params.d1 * point.T / (1.0 + params.epsilon * point.T)
            - params.l1 * point.E
        )
        checks["invasion_blocked"] = ConditionCheck("invasion_blocked", params.a1 < rhs_i, params.a1, rhs_i)
        lin = C[6] * C[8] - C[5] * C[9] - C[3] * C[4] - C[2] * C[9] - C[2] * C[5]
        checks["reduced_cubic_mid_pos"] = ConditionCheck("reduced_cubic_mid_pos", lin > 0.0, lin, 0.0)
        const = C[2] * C[5] * C[9] - C[2] * C[6] * C[8] + C[3] * C[4] * C[9]
        checks["reduced_cubic_const_pos"] = ConditionCheck("reduced_cubic_const_pos", const > 0.0, const, 0.0)
    else:  # coexisting: eigenvalue signs, checked via Hurwitz minors
        smallest = min(hv.minors)
        checks["hurwitz_minors_positive"] = ConditionCheck(
            "hurwitz_minors_positive", hv.all_positive, smallest, 0.0
        )
    return checks


def _theorem_claim(family: str, checks: dict[str, ConditionCheck]) -> bool | None:
    """The printed sufficient-condition predicate per family, or None
    when the family has no closed claim."""
    if family == "tumor_free":
        return checks["R0_lt_1"].holds and checks["R1_lt_1"].holds
    if family == "dead1":
        return all(
            checks[name].holds for name in ("R_IM_lt_1", "B0_neg", "B2_neg", "B4_neg", "B8_neg")
        )
    if family == "dead2":
        return None  # only necessary conditions are available
    return checks["hurwitz_minors_positive"].holds


def classify(eq: Equilibrium, params: ModelParams) -> StabilityReport:
    """Classify local stability of ``eq`` by eigenvalues, Routh-Hurwitz and
    the family-specific printed conditions."""
    if eq.residual >= 1e-8:
        raise DomainError(
            f"refusing to classify a point with residual {eq.residual:.3e} >= 1e-8"
        )
    J = jacobian(eq.point, params)
    cp = char_poly(J)
    eig = _structured_spectrum(J, params.theta, cp)
    hv = routh_hurwitz(cp)
    verdict = _eig_verdict(eig.max_real)

    theta_gap = min(abs(z - (-params.theta)) for z in eig.roots)
    repro = _repro(eq, params)
    checks = _conditions(eq, params, J, hv, repro)

    agreement: dict[str, bool | None] = {}
    if verdict == "inconclusive" or hv.verdict == "inconclusive":
        agreement["eigen_hurwitz"] = None
    else:
        agreement["eigen_hurwitz"] = verdict == hv.verdict
    claim = _theorem_claim(eq.family, checks)
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
