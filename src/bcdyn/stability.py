"""Local stability classification of equilibria.

Three verdicts are computed and compared:

* eigenvalues of the analytic Jacobian (authoritative), straight from
  LAPACK's ``dgeev`` (:func:`~bcdyn.numerics._eigvals`, the kernel of
  ``np.linalg.eigvals`` without its per-call wrapper),
* Routh-Hurwitz minors of its characteristic polynomial, kept in the
  report as a tuple of coefficients in descending degree
  (``char_coeffs``).  The polynomial comes from the Jacobian's structure
  (:func:`char_poly`): the decoupled E row deflates as the factor
  (lambda + theta), and what remains over (N, T, I, M) is tridiagonal,
  so a continuant recurrence of a few dozen float operations gives the rest,
  and the minors are closed forms in plain floats
  (:func:`~bcdyn.numerics._hurwitz`, the core of
  :func:`~bcdyn.numerics.routh_hurwitz` without its input checks, which
  :func:`char_poly` has already made),
* the family-specific printed conditions (reproduction numbers and
  coefficient-sign tests), reported but never used to override.

The first two share only the Jacobian: an error in the polynomial moves
the Hurwitz verdict alone and shows as an eigen/Hurwitz disagreement,
while an error in the Jacobian reaches both.  :func:`classify` is one pass
over one point: it calls ``jacobian`` once and :func:`char_poly` once, by
those module names (``perfbench/tracer.py`` counts both), and reads the
Jacobian's rows into Python floats once, for all the rules.  ``dgeev`` is
the one LAPACK call; :func:`char_poly` refuses a non-finite Jacobian
before it.  The minors and the 2x2 block determinants are closed forms in
plain floats, rescaled by a power of two only where one overflows.
Against exact rational elimination each minor keeps its sign class and
lies within 1e-9 relative of the exact one, and each block determinant
within 4 eps (|ad| + |bc|) of a d - b c
(``tests/test_numerics.py``, ``tests/test_stability.py``).

The printed conditions live in one table, ``_RULES``, with one rules
function per equilibrium family, as ``equilibria._TABLE`` holds one finder
row per family.  Given the point, its Jacobian rows and Hurwitz verdict,
each returns the reproduction numbers its conditions read, the conditions by
name and the paper's sufficient-condition claim: R0 and R1 for tumor-free,
R_IM and the B-signs for dead1, invasion and the C-cubic for dead2
(necessary only, so no claim) and the Hurwitz minors for coexisting.  :func:`classify` reads
the table; its ``theorem_checks`` are the only place the conditions are
evaluated.  Every printed A, B or C coefficient these conditions read is
an entry of the analytic Jacobian at the family's point, so the rules
read them off the one Jacobian :func:`classify` evaluates, as Python
floats; there is no second transcription of the coefficient families.

The printed tumor-free conditions carry known sign slips relative to the
derived Jacobian blocks, so in addition to the verbatim R0/R1 predicates
the derived block conditions (trace/determinant of the actual 2x2 blocks)
are evaluated; those are exact for the block-reducible T = 0 families.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .equilibria import Equilibrium
from .model import (
    DomainError,
    ModelParams,
    ReproductionNumbers,
    _at_dead1_state,
    _reproduction,
    jacobian,
)
from .numerics import (
    MARGINAL_RE,
    HurwitzVerdict,
    NumericsError,
    _eigvals,
    _homogeneous,
    _hurwitz,
    _root_set,
)

# perfbench/tracer.py counts calls by wrapping poly_roots on this module, so
# it stays importable here; classify itself roots no polynomial.
from .numerics import poly_roots  # noqa: F401

__all__ = [
    "ConditionCheck",
    "StabilityReport",
    "classify",
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
    char_coeffs: tuple[float, ...]
    eigenvalues: tuple[complex, ...]
    hurwitz: HurwitzVerdict
    verdict: str
    repro: ReproductionNumbers | None
    theorem_checks: dict[str, ConditionCheck] = field(default_factory=dict)
    agreement: dict[str, bool | None] = field(default_factory=dict)

    @property
    def max_real(self) -> float:
        return max(z.real for z in self.eigenvalues)


def char_poly(J: np.ndarray) -> tuple[float, ...]:
    """Coefficients, in descending degree, of det(lambda*I - J) for a
    Jacobian ``J`` of the model, from its band structure.

    The E row is (0, 0, 0, -theta, 0), so expanding along it gives
    (lambda - J33) * det(lambda*I - J'), with J' the Jacobian over
    (N, T, I, M).  J' is tridiagonal: its only couplings are N-T (J01,
    J10), T-I (J12, J21) and I-M (J24, J42); every other entry is a
    literal 0.0 in ``model._bind``'s ``jac``.  Its polynomial is the
    continuant p_k = (lambda - a_k) p_{k-1} - b_k c_k p_{k-2}, with a_k
    the diagonal and b_k c_k the k-th coupling product: La Budde's
    recurrence for a Hessenberg matrix, which is all a tridiagonal one
    needs (Wilkinson, *The Algebraic Eigenvalue Problem*, ch. 6).  No
    matrix power is formed, so the coefficients hold when the spectrum
    spans many orders of magnitude.  Raises :class:`NumericsError` on a
    non-finite entry or coefficient."""
    rows = J.tolist()
    if not all(map(math.isfinite, itertools.chain(*rows))):
        raise NumericsError("non-finite matrix entry")
    (a0, b1, _, _, _), (c1, a1, b2, _, _), (_, c2, a2, _, b3), e_row, m_row = rows
    e, c3, a3 = e_row[3], m_row[2], m_row[4]
    q1, q2, q3 = b1 * c1, b2 * c2, b3 * c3
    # p1 = (1, -a0); p2 = (1, u1, u2); p3 = (1, v1, v2, v3);
    # p4 = (1, w1, w2, w3, w4).
    u1, u2 = -a0 - a1, a0 * a1 - q1
    v1, v2, v3 = u1 - a2, u2 - a2 * u1 - q2, q2 * a0 - a2 * u2
    w1, w2, w3, w4 = v1 - a3, v2 - a3 * v1 - q3, v3 - a3 * v2 - q3 * u1, -a3 * v3 - q3 * u2
    coeffs = (1.0, w1 - e, w2 - e * w1, w3 - e * w2, w4 - e * w3, -e * w4)
    if not all(map(math.isfinite, coeffs)):
        raise NumericsError("characteristic polynomial overflows")
    return coeffs


def _eig_verdict(max_re: float) -> str:
    if max_re < -MARGINAL_RE:
        return "stable"
    if max_re > MARGINAL_RE:
        return "unstable"
    return "inconclusive"


def _repro(eq: Equilibrium, J) -> ReproductionNumbers | None:
    """R0 and R1, and R_IM where the point has N = T = 0, from the
    Jacobian rows ``J`` at the point: the reproduction numbers of the
    tumor-free and dead1 rules.  None for the other families."""
    if eq.family not in ("tumor_free", "dead1"):
        return None
    return _reproduction(J, _at_dead1_state(eq.point))


def _det2(a, b, c, d):
    return (a * d - b * c,)


def _block_conditions(rows) -> dict[str, ConditionCheck]:
    """Derived stability conditions of the (N, T) and (I, M) 2x2 blocks of
    the Jacobian rows ``rows``: negative trace and positive determinant of
    each.  Exact at T = 0.

    Each trace adds the diagonal onto +0.0 as Python floats, the bits of
    ``np.trace`` with a plain ``bool`` verdict.  Each determinant is
    a d - b c in plain floats, scaled as the Hurwitz minors are only where
    a product overflows (+-inf past the float range)."""
    (j00, j01, _, _, _), (j10, j11, _, _, _), (_, _, j22, _, j24), _, (_, _, j42, _, j44) = rows
    nt_tr = 0.0 + j00 + j11
    im_tr = 0.0 + j22 + j44
    nt_det = j00 * j11 - j01 * j10
    if not math.isfinite(nt_det):
        [nt_det] = _homogeneous(_det2, (j00, j01, j10, j11), (2,))
    im_det = j22 * j44 - j24 * j42
    if not math.isfinite(im_det):
        [im_det] = _homogeneous(_det2, (j22, j24, j42, j44), (2,))
    return {
        "derived_nt_trace_neg": ConditionCheck("derived_nt_trace_neg", nt_tr < 0.0, nt_tr, 0.0),
        "derived_nt_det_pos": ConditionCheck("derived_nt_det_pos", nt_det > 0.0, nt_det, 0.0),
        "derived_im_trace_neg": ConditionCheck("derived_im_trace_neg", im_tr < 0.0, im_tr, 0.0),
        "derived_im_det_pos": ConditionCheck("derived_im_det_pos", im_det > 0.0, im_det, 0.0),
    }


def _tumor_free_rules(eq: Equilibrium, params: ModelParams, rows, hv: HurwitzVerdict):
    """R0 < 1 and R1 < 1, the auxiliary bounds on I and the derived block
    conditions.  R_IM is defined only where the point also has N = 0."""
    point = eq.point
    rn = _repro(eq, rows)
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
    checks.update(_block_conditions(rows))
    return rn, checks, checks["R0_lt_1"].holds and checks["R1_lt_1"].holds


def _dead1_rules(eq: Equilibrium, params: ModelParams, rows, hv: HurwitzVerdict):
    """R_IM < 1 and negative B0, B2, B4, B8 (at N = T = 0 these are J00,
    J11, J22, J44), plus the derived block conditions."""
    rn = _repro(eq, rows)
    b0, b2, b4, b8 = rows[0][0], rows[1][1], rows[2][2], rows[4][4]
    checks = {
        "R_IM_lt_1": ConditionCheck("R_IM_lt_1", rn.r_im_defined and rn.r_im < 1.0, rn.r_im, 1.0),
        "B0_neg": ConditionCheck("B0_neg", b0 < 0.0, b0, 0.0),
        "B2_neg": ConditionCheck("B2_neg", b2 < 0.0, b2, 0.0),
        "B4_neg": ConditionCheck("B4_neg", b4 < 0.0, b4, 0.0),
        "B8_neg": ConditionCheck("B8_neg", b8 < 0.0, b8, 0.0),
    }
    claim = all(check.holds for check in checks.values())
    checks.update(_block_conditions(rows))
    return rn, checks, claim


def _dead2_rules(eq: Equilibrium, params: ModelParams, rows, hv: HurwitzVerdict):
    """Invasion blocked and the two C-cubic coefficient signs.  These are
    only necessary conditions, so the family makes no claim.  At N = 0 the
    printed C2, C3, C4, C5, C6, C8, C9 are J11, J21, -J12, J22, J42, J24,
    J44.

    At N = 0 the N row of the Jacobian is (J00, 0, 0, 0, 0), so J00 is an
    exact eigenvalue, and the derived invasion condition is J00 < 0, that
    is a1 < d1 T/(1 + eps T) + l1 E (1 - k).  The printed
    ``invasion_blocked`` has its l1 E term with the other sign and no
    factor 1 - k, so it can disagree with the sign of J00; both are
    reported, as the tumor-free rules add the derived block conditions."""
    point = eq.point
    c2, c3, c4, c5 = rows[1][1], rows[2][1], -rows[1][2], rows[2][2]
    c6, c8, c9 = rows[4][2], rows[2][4], rows[4][4]
    rhs_i = params.d1 * point.T / (1.0 + params.epsilon * point.T) - params.l1 * point.E
    lin = c6 * c8 - c5 * c9 - c3 * c4 - c2 * c9 - c2 * c5
    const = c2 * c5 * c9 - c2 * c6 * c8 + c3 * c4 * c9
    j00 = rows[0][0]
    checks = {
        "invasion_blocked": ConditionCheck("invasion_blocked", params.a1 < rhs_i, params.a1, rhs_i),
        "derived_invasion_J00_neg": ConditionCheck(
            "derived_invasion_J00_neg", j00 < 0.0, j00, 0.0
        ),
        "reduced_cubic_mid_pos": ConditionCheck("reduced_cubic_mid_pos", lin > 0.0, lin, 0.0),
        "reduced_cubic_const_pos": ConditionCheck(
            "reduced_cubic_const_pos", const > 0.0, const, 0.0
        ),
    }
    return None, checks, None


def _coexisting_rules(eq: Equilibrium, params: ModelParams, rows, hv: HurwitzVerdict):
    """Eigenvalue signs, checked through the Hurwitz minors."""
    check = ConditionCheck("hurwitz_minors_positive", hv.all_positive, min(hv.minors), 0.0)
    return None, {"hurwitz_minors_positive": check}, check.holds


#: Per family, ``rules(eq, params, rows, hv) -> (repro, checks, claim)``
#: with ``rows`` the Jacobian at ``eq`` as rows of Python floats and ``hv``
#: its Hurwitz verdict; ``claim`` is None when the family has no closed
#: claim.
_RULES = {
    "tumor_free": _tumor_free_rules,
    "dead1": _dead1_rules,
    "dead2": _dead2_rules,
    "coexisting": _coexisting_rules,
}


def classify(eq: Equilibrium, params: ModelParams) -> StabilityReport:
    """Classify local stability of ``eq`` by eigenvalues, Routh-Hurwitz and
    the family-specific printed conditions."""
    if not eq.residual < 1e-8:
        raise DomainError(
            f"refusing to classify a point with residual {eq.residual:.3e}, not below 1e-8"
        )
    J = jacobian(eq.point, params)
    # char_poly refuses a non-finite J, so dgeev and the rules see finite
    # entries, and its coefficients need none of routh_hurwitz's checks.
    cp = char_poly(J)
    rows = J.tolist()
    eig = _root_set(_eigvals(J))
    hv = _hurwitz(cp)
    # The spectrum is sorted by real part, so its last entry leads.
    verdict = _eig_verdict(eig[-1].real)

    theta_gap = min(abs(z - (-params.theta)) for z in eig)
    repro, checks, claim = _RULES[eq.family](eq, params, rows, hv)

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
