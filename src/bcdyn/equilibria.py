"""Location, refinement and classification of all equilibrium families.

Four families are searched:

* tumor_free:  T = 0, N > 0
* dead1:       N = T = 0
* dead2:       N = 0, T > 0
* coexisting:  all five components > 0

Every family shares the estrogen component E* = p(1-k)/theta because the
estrogen equation is linear and decoupled.  Each finder eliminates
variables down to one polynomial, takes its positive real roots and
polishes them with Newton on the steady subsystem: M(I) from the drug
equation turns the immune equation into R(T) I^2 + S(T) I + U(T) = 0,
which is a quadratic in I at T = 0 (tumor_free, dead1), a quartic in T
once the tumor equation gives I(T) at N = 0 (dead2), and an octic in T
once it gives I(T) with the closed-form N(T) (coexisting).  Polynomial
roots come from companion-matrix eigenvalues, so no grid or seed decides
which points are found.  With g1 = 0 the tumor equation does not involve
I; it fixes T instead and I comes from the immune quadratic.  The paper's
printed polynomials are kept only for :func:`reduced_polynomials` and its
mismatch report.

A note on the tumor-free family: with T = 0 the tumor equation still
carries the transformation feed l1*N*E*(1-k), so the classical tumor-free
point is an exact equilibrium only when that feed vanishes (k = 1, l1 = 0
or p = 0).  The finder always reports the closed-form candidate together
with its true residual; only candidates whose full residual is below
1e-10 count as confirmed.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    DENOM_GUARD,
    DomainError,
    ModelParams,
    SystemState,
    jacobian,
    residual_norm,
    rhs,
    validate_params,
)
from .numerics import NewtonError, Polynomial, newton_solve
# No finder calls poly_roots any more (roots come from np.roots), but
# perfbench/tracer.py wraps it by name on this module, so the name stays.
from .numerics import poly_roots  # noqa: F401

__all__ = [
    "FAMILIES",
    "CONFIRM_TOL",
    "Equilibrium",
    "ReducedPolynomials",
    "estrogen_level",
    "immune_clearance_rate",
    "drug_level",
    "tumor_free",
    "dead_type1",
    "dead_type2",
    "coexisting",
    "find_all",
    "reduced_polynomials",
    "catalog_to_json",
    "catalog_to_csv",
]

log = logging.getLogger(__name__)

FAMILIES = ("tumor_free", "dead1", "dead2", "coexisting")

#: An equilibrium counts as confirmed when ||rhs||_inf is below this.
CONFIRM_TOL = 1e-10
#: Components in (-SNAP_TOL, 0) are snapped to zero before classification.
SNAP_TOL = 1e-9
#: Relative infinity-norm distance below which two points are duplicates.
DEDUP_TOL = 1e-6

#: Roots with |imag| below this fraction of their modulus are taken as real.
NEAR_REAL_TOL = 1e-6


@dataclass(frozen=True)
class Equilibrium:
    """A candidate steady state with its family tag, true residual and the
    named existence-condition flags (with the quantities they compare)."""

    point: SystemState
    family: str
    residual: float
    existence_flags: dict[str, bool] = field(default_factory=dict)
    flag_values: dict[str, float] = field(default_factory=dict)
    provenance: str = "newton_refined"

    @property
    def confirmed(self) -> bool:
        return self.residual < CONFIRM_TOL


@dataclass(frozen=True)
class ReducedPolynomials:
    """Reduced steady-state polynomials: the derived dead1 quadratic in I,
    the derived dead2 quartic and coexisting octic in T (None when g1 = 0,
    where the tumor equation cannot be solved for I), the printed variants,
    and the per-coefficient mismatch between the derived and printed dead1
    forms (both normalized to unit max-abs coefficient before comparison)."""

    dead1_quadratic: Polynomial
    dead1_quadratic_paper: Polynomial
    dead2_quartic: Polynomial | None
    dead2_cubic: Polynomial | None
    coexist_octic: Polynomial | None
    coexist_quadratic: Polynomial | None
    mismatch_report: dict[str, object]


def estrogen_level(params: ModelParams) -> float:
    """Shared estrogen component E* = p(1-k)/theta of every equilibrium."""
    return params.p * (1.0 - params.k) / params.theta


def immune_clearance_rate(params: ModelParams, E: float) -> float:
    """Total linear loss rate of immune cells at T = 0:
    m + l3*E*(1-k)/(g+E)."""
    return params.m + params.l3 * E * (1.0 - params.k) / (params.g + E)


def drug_level(params: ModelParams, I: float) -> float | None:
    """Steady drug level M(I) = v_M (xi+I) / (n_M (xi+I) - chi I), or None
    when the denominator is not safely positive (the drug compartment has
    no finite positive steady state there)."""
    den = params.n_M * (params.xi + I) - params.chi * I
    if den < DENOM_GUARD:
        return None
    return params.v_M * (params.xi + I) / den


def _dead1_quadratic_derived(params: ModelParams) -> tuple[float, float, float]:
    """Quadratic in I obtained by substituting M(I) into the steady immune
    equation at N = T = 0 and clearing denominators.  Descending order."""
    E = estrogen_level(params)
    A = immune_clearance_rate(params, E)
    q0 = params.xi * (params.j_M * params.n_M + params.v_M)
    q1 = params.j_M * (params.n_M - params.chi) + params.v_M
    c2 = params.p_M * params.v_M - A * q1
    c1 = params.s * q1 - A * q0 + params.p_M * params.v_M * params.xi
    c0 = params.s * q0
    return (c2, c1, c0)


def _immune_quadratic(params: ModelParams, E: float):
    """Coefficients (R, S, U) in T of the steady immune equation with M(I)
    substituted and the denominators (o+T)(q1*I + q0) cleared:
    R(T)*I^2 + S(T)*I + U(T) = 0.  Each is a descending coefficient array
    of length 3 (U has degree 1)."""
    A = immune_clearance_rate(params, E)
    q1 = params.v_M + params.j_M * (params.n_M - params.chi)
    q0 = params.xi * (params.v_M + params.j_M * params.n_M)
    pv = params.p_M * params.v_M
    o_plus_T = np.array([0.0, 1.0, params.o])
    L = np.array([-params.g2, params.r - params.g2 * params.o - A, -A * params.o])
    R = q1 * L + pv * o_plus_T
    S = (params.s * q1 + pv * params.xi) * o_plus_T + q0 * L
    U = params.s * q0 * o_plus_T
    return R, S, U


def _dead2_quartic(params: ModelParams, E: float) -> np.ndarray:
    """g1^2 times the immune equation with I = (a2*d - m_d - b2*T)/g1
    substituted: a quartic in T, descending."""
    R, S, U = _immune_quadratic(params, E)
    g1 = params.g1
    g1_I = np.array([-params.b2, params.a2 * params.d - params.m_d])
    return np.polyadd(
        np.polyadd(np.convolve(R, np.convolve(g1_I, g1_I)), g1 * np.convolve(S, g1_I)),
        g1 * g1 * U,
    )


def _coexist_tumor_numerator(params: ModelParams, E: float) -> np.ndarray:
    """P3 with I = P3/Q2 from the steady tumor equation once N(T) is
    substituted; Q2 = g1*b1*T*(1 + epsilon*T).  A cubic in T, descending."""
    c = params.l1 * E * (1.0 - params.k)
    eps = params.epsilon
    net_growth = np.array([-params.b2, params.a2 * params.d - params.m_d])
    growth = params.b1 * np.convolve([eps, 1.0, 0.0], net_growth)
    feed = c * np.array([0.0, 0.0, (params.a1 - c) * eps - params.d1, params.a1 - c])
    return growth + feed


def _coexist_octic(params: ModelParams, E: float) -> np.ndarray:
    """R*P3^2 + S*P3*Q2 + U*Q2^2: the immune equation with I = P3/Q2
    substituted and Q2^2 cleared.  Degree 8 in T, descending."""
    R, S, U = _immune_quadratic(params, E)
    P3 = _coexist_tumor_numerator(params, E)
    Q2 = params.g1 * params.b1 * np.array([params.epsilon, 1.0, 0.0])
    return np.polyadd(
        np.polyadd(np.convolve(R, np.convolve(P3, P3)), np.convolve(S, np.convolve(P3, Q2))),
        np.convolve(U, np.convolve(Q2, Q2)),
    )


def _dead1_quadratic_printed(params: ModelParams) -> tuple[float, float, float]:
    """The printed dead1 quadratic, transcribed as printed (it omits j_M
    entirely; kept for the mismatch report)."""
    E = estrogen_level(params)
    A = immune_clearance_rate(params, E)
    c2 = A * params.chi + params.p_M * params.v_M
    c1 = -(A * params.n_M - params.p_M * params.v_M * params.xi + params.s * params.chi)
    c0 = params.s * params.n_M
    return (c2, c1, c0)


def printed_dead2_cubic(params: ModelParams, I: float) -> Polynomial | None:
    """The printed cubic in T for the dead type-2 family, transcribed as
    printed, with its C term evaluated at the trial immune level ``I``.
    The printed form treats C as constant in T, so it is kept only for
    :func:`reduced_polynomials`; the finder uses the derived quartic."""
    M = drug_level(params, I)
    if M is None:
        return None
    E = estrogen_level(params)
    C = (
        params.l3 * E * (1.0 - params.k) / (params.g + E)
        - params.p_M * M / (params.j_M + M)
    )
    a2d = params.a2 * params.d
    b2, g2, m, r, o = params.b2, params.g2, params.m, params.r, params.o
    m_d, g1, s, theta = params.m_d, params.g1, params.s, params.theta
    c3 = b2 * g2
    c2 = b2 * m + b2 * g2 * o - b2 * r + b2 * C - a2d * g2 - a2d * C + m_d * g2
    c1 = (
        b2 * m * o + b2 * C * o - a2d * m - a2d * g2 * o + r * a2d - a2d * o * C
        + g1 * s + m_d * m + m_d * g2 * theta - r * m_d + m_d * C
    )
    c0 = m_d * C * o + m_d * m * o + g1 * s * o - a2d * m * o
    if c3 == 0.0:
        return None
    return Polynomial((c3, c2, c1, c0))


def coexist_quadratic(params: ModelParams, N_e: float, E_e: float) -> Polynomial:
    """Quadratic in T for the coexisting family at given N_e, E_e:
    b2*T^2 + (g1*I_e + m_d - a2*d)*T - l1*N_e*E_e*(1-k) with the I-dependent
    middle coefficient left to the caller through its sign analysis; here
    the I-free parts are assembled for the b/c sign-case bookkeeping."""
    b = params.m_d - params.a2 * params.d  # g1*I_e added by the caller
    c = -params.l1 * N_e * E_e * (1.0 - params.k)
    return Polynomial((params.b2, b, c))


def reduced_polynomials(
    params: ModelParams,
    dead2_trial_I: float | None = None,
    coexist_N: float | None = None,
) -> ReducedPolynomials:
    """Assemble the reduced polynomials and the derived-vs-printed dead1
    mismatch report.  The printed dead2 cubic needs a trial immune level
    and the coexisting quadratic a trial N; each is None without it."""
    derived = _dead1_quadratic_derived(params)
    printed = _dead1_quadratic_printed(params)

    def normalized(coeffs):
        scale = max(abs(c) for c in coeffs)
        return [c / scale for c in coeffs] if scale > 0 else list(coeffs)

    nd, npr = normalized(derived), normalized(printed)
    deviations = {
        f"I^{2 - i}": abs(a - b) / max(1.0, abs(a)) for i, (a, b) in enumerate(zip(nd, npr))
    }
    report = {
        "coefficient_deviations": deviations,
        "printed_form_confirmed": all(v < 1e-12 for v in deviations.values()),
        "notes": [
            "derived quadratic from M(I) substituted into the steady immune equation governs",
            "printed form omits j_M and is kept for reference only",
            "xi_i / xi_1 subscripts in the printed dead1 and type-1 stability formulas are read as the single parameter xi",
        ],
    }
    dead2 = printed_dead2_cubic(params, dead2_trial_I) if dead2_trial_I is not None else None
    coexist = (
        coexist_quadratic(params, coexist_N, estrogen_level(params))
        if coexist_N is not None
        else None
    )

    def as_poly(coeffs):
        if coeffs[0] == 0.0:
            coeffs = (1e-300, *coeffs[1:])  # keep a degenerate quadratic representable
        return Polynomial(coeffs)

    def derived_in_T(coeffs):
        coeffs = np.trim_zeros(coeffs, "f")
        return Polynomial(tuple(coeffs)) if params.g1 > 0 and coeffs.size else None

    E = estrogen_level(params)
    return ReducedPolynomials(
        dead1_quadratic=as_poly(derived),
        dead1_quadratic_paper=as_poly(printed),
        dead2_quartic=derived_in_T(_dead2_quartic(params, E)),
        dead2_cubic=dead2,
        coexist_octic=derived_in_T(_coexist_octic(params, E)),
        coexist_quadratic=coexist,
        mismatch_report=report,
    )


def _quadratic_positive_roots(coeffs: tuple[float, float, float]) -> list[float]:
    c2, c1, c0 = coeffs
    scale = max(abs(c2), abs(c1), abs(c0), 1e-300)
    if abs(c2) <= 1e-14 * scale:
        if abs(c1) <= 1e-14 * scale:
            return []
        root = -c0 / c1
        return [root] if root > 0 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0:
        return []
    sq = math.sqrt(disc)
    # Numerically stable quadratic formula.
    q = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0 else 0.5 * sq
    roots = []
    if q != 0:
        roots = [q / c2, c0 / q]
    else:
        roots = [0.0, -c1 / c2]
    return sorted({r for r in roots if r > 0})


def _subsystem(params: ModelParams, active: tuple[int, ...], template: list[float]):
    """Steady-state residual and Jacobian restricted to ``active`` state
    indices, with the remaining components frozen at ``template``."""

    def assemble(x: np.ndarray) -> SystemState:
        vals = list(template)
        for idx, xi in zip(active, x):
            vals[idx] = float(xi)
        return SystemState.from_sequence(vals)

    def F(x: np.ndarray) -> np.ndarray:
        full = rhs(assemble(x), params)
        return np.array([full[i] for i in active])

    def J(x: np.ndarray) -> np.ndarray:
        full = jacobian(assemble(x), params)
        return full[np.ix_(active, active)]

    return assemble, F, J


def _dedup(points: list[SystemState]) -> list[SystemState]:
    kept: list[SystemState] = []
    for pt in points:
        arr = pt.as_array()
        scale = 1.0 + float(np.max(np.abs(arr)))
        if all(
            float(np.max(np.abs(arr - q.as_array()))) / scale > DEDUP_TOL for q in kept
        ):
            kept.append(pt)
    return kept


def _snap(point: SystemState) -> SystemState:
    return SystemState.from_sequence(
        0.0 if -SNAP_TOL < v < 0.0 else v for v in point.as_tuple()
    )


def _drug_admissible(params: ModelParams, M: float) -> bool:
    """M > 0, or M = 0 exactly when there is no infusion (v_M = 0 makes
    M = 0 the drug's steady state)."""
    return M > 0 or (M == 0 and params.v_M == 0)


def _im_candidates(params: ModelParams) -> list[tuple[float, float]]:
    """Admissible steady (I, M) pairs of the immune/drug subsystem at
    N = T = 0: positive roots of the derived quadratic, Newton-refined on
    the 2-D subsystem."""
    E = estrogen_level(params)
    derived = _dead1_quadratic_derived(params)
    candidates = []
    for I0 in _quadratic_positive_roots(derived):
        M0 = drug_level(params, I0)
        if M0 is None:
            continue
        assemble, F, J = _subsystem(params, (2, 4), [0.0, 0.0, I0, E, M0])
        try:
            sol = newton_solve(F, J, np.array([I0, M0]), tol=1e-13)
        except NewtonError as exc:
            log.debug("immune/drug refinement failed from I=%g: %s", I0, exc)
            continue
        I_ref, M_ref = float(sol[0]), float(sol[1])
        if I_ref > 0 and _drug_admissible(params, M_ref) and drug_level(params, I_ref) is not None:
            candidates.append((I_ref, M_ref))
    # Deduplicate refined pairs.
    unique: list[tuple[float, float]] = []
    for cand in candidates:
        if all(
            max(abs(cand[0] - u[0]), abs(cand[1] - u[1])) / (1.0 + abs(cand[0]) + abs(cand[1]))
            > DEDUP_TOL
            for u in unique
        ):
            unique.append(cand)
    return unique


def _tumor_free_flags(params: ModelParams, I0: float, M0: float, E0: float):
    pm = params
    omk = 1.0 - pm.k
    flags: dict[str, bool] = {}
    values: dict[str, float] = {}

    bound_i = pm.a1 / (pm.l1 * omk) if pm.l1 * omk > 0 else math.inf
    flags["estrogen_within_bound"] = E0 <= bound_i and pm.k < 1.0
    values["estrogen_bound"] = bound_i

    bound_ii = pm.m / pm.p_M if pm.p_M > 0 else math.inf
    flags["drug_within_bound"] = M0 <= bound_ii
    values["drug_bound"] = bound_ii

    if pm.chi > pm.n_M:
        bound_iii = pm.n_M * pm.xi / (pm.chi - pm.n_M)
    else:
        bound_iii = math.inf
    flags["immune_within_bound"] = I0 <= bound_iii
    values["immune_bound"] = bound_iii

    # One printed existence bound uses an ambiguous growth-rate symbol; both the
    # a1 and a2 readings are evaluated and reported.
    if omk > 0:
        bound_iv_a1 = pm.theta * pm.a1 / (pm.p * omk**2) if pm.p > 0 else math.inf
        bound_iv_a2 = pm.theta * pm.a2 / (pm.p * omk**2) if pm.p > 0 else math.inf
    else:
        bound_iv_a1 = bound_iv_a2 = math.inf
    flags["l1_within_bound_a1"] = pm.l1 <= bound_iv_a1
    flags["l1_within_bound_a2"] = pm.l1 <= bound_iv_a2
    values["l1_bound_a1"] = bound_iv_a1
    values["l1_bound_a2"] = bound_iv_a2
    flags["k_lt_1"] = pm.k < 1.0
    return flags, values


def tumor_free(params: ModelParams) -> list[Equilibrium]:
    """Tumor-free candidates: N and E in closed form, (I, M) from the
    immune/drug subsystem.  The reported residual includes the tumor
    equation's transformation feed (see module docstring)."""
    _check(params)
    E0 = estrogen_level(params)
    N0 = (params.a1 - params.l1 * E0 * (1.0 - params.k)) / params.b1
    if N0 <= 0:
        log.debug("no tumor-free candidate: closed-form N = %g <= 0", N0)
        return []
    results = []
    for I0, M0 in _im_candidates(params):
        point = SystemState(N0, 0.0, I0, E0, M0)
        flags, values = _tumor_free_flags(params, I0, M0, E0)
        feed = params.l1 * N0 * E0 * (1.0 - params.k)
        flags["tumor_feed_zero"] = abs(feed) < CONFIRM_TOL
        values["tumor_feed"] = feed
        results.append(
            Equilibrium(
                point=point,
                family="tumor_free",
                residual=residual_norm(point, params),
                existence_flags=flags,
                flag_values=values,
                provenance="closed_form" if params.chi == 0 and params.p_M == 0 else "newton_refined",
            )
        )
    return results


def dead_type1(params: ModelParams) -> list[Equilibrium]:
    """Dead type-1 equilibria: N = T = 0, I from the derived quadratic,
    M = M(I), refined on the immune/drug subsystem."""
    _check(params)
    E = estrogen_level(params)
    derived = _dead1_quadratic_derived(params)
    c2, c1, c0 = derived
    if abs(c2) > 1e-14 * max(abs(c1), abs(c0), 1.0):
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0:
            log.debug("dead1: negative discriminant %g of the derived quadratic", disc)
            return []
    A = immune_clearance_rate(params, E)
    results = []
    for I0, M0 in _im_candidates(params):
        point = SystemState(0.0, 0.0, I0, E, M0)
        flags: dict[str, bool] = {}
        values: dict[str, float] = {}
        den = params.s * params.chi * A * params.n_M
        ratio = (
            params.p_M * params.v_M * params.xi / den if abs(den) > DENOM_GUARD else math.inf
        )
        flags["drug_feed_ratio_lt_1"] = ratio < 1.0
        values["drug_feed_ratio"] = ratio
        flags["partial_blockade"] = params.k < 1.0
        production = params.chi * I0 / (params.xi + I0)
        flags["drug_clearance_dominates"] = params.n_M >= production
        values["drug_production_rate"] = production
        results.append(
            Equilibrium(
                point=point,
                family="dead1",
                residual=residual_norm(point, params),
                existence_flags=flags,
                flag_values=values,
                provenance="poly_root",
            )
        )
    return results


def _positive_real_roots(coeffs) -> list[float]:
    """Positive roots of a real polynomial from its companion-matrix
    eigenvalues.  A root whose imaginary part is below NEAR_REAL_TOL of its
    modulus is the rounded image of a (near-)double real root and is taken
    as real; the polish decides whether it is an equilibrium."""
    # Trailing zeros are roots at T = 0, never positive.
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float))
    if coeffs.size < 2:
        return []
    # The companion matrix divides by the leading coefficient; when that is
    # the smaller end (epsilon near 0 makes it subnormal) it can overflow,
    # so root the reversed polynomial in 1/T instead.
    if abs(coeffs[0]) >= abs(coeffs[-1]):
        roots = np.roots(coeffs)
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            roots = 1.0 / np.roots(coeffs[::-1])
    return sorted(
        {
            float(z.real)
            for z in roots
            if 0 < z.real < math.inf and abs(z.imag) <= NEAR_REAL_TOL * abs(z)
        }
    )


def _polish(params: ModelParams, active: tuple[int, ...], template: list[float]):
    """Newton-polish a root of the eliminated polynomial on the steady
    subsystem over ``active``; the snapped full state, or None on failure."""
    assemble, F, J = _subsystem(params, active, template)
    try:
        sol = newton_solve(F, J, np.array([template[i] for i in active]), tol=1e-13)
    except (NewtonError, DomainError) as exc:
        log.debug("polish failed from %s: %s", template, exc)
        return None
    return _snap(assemble(sol))


def dead_type2(params: ModelParams) -> list[Equilibrium]:
    """Dead type-2 equilibria: N = 0, T > 0.  With g1 > 0 the tumor
    equation gives I = (a2*d - m_d - b2*T)/g1, and the immune equation with
    M(I) substituted becomes a quartic in T; its positive real roots with
    admissible I and M are Newton-polished on the (T, I, M) subsystem.
    With g1 = 0 the tumor equation fixes T = (a2*d - m_d)/b2 and I comes
    from the immune quadratic at that T."""
    _check(params)
    a2d = params.a2 * params.d
    T_max = (a2d - params.m_d) / params.b2
    if T_max <= 0:
        return []
    E = estrogen_level(params)

    if params.g1 > 0:
        seeds = [
            (T, (a2d - params.m_d - params.b2 * T) / params.g1)
            for T in _positive_real_roots(_dead2_quartic(params, E))
        ]
    else:
        R, S, U = _immune_quadratic(params, E)
        quad = tuple(float(np.polyval(c, T_max)) for c in (R, S, U))
        seeds = [(T_max, I) for I in _quadratic_positive_roots(quad)]

    points: list[SystemState] = []
    for T0, I0 in seeds:
        if I0 < -SNAP_TOL:
            continue
        I0 = max(I0, 0.0)
        M0 = drug_level(params, I0)
        if M0 is None:
            continue
        point = _polish(params, (1, 2, 4), [0.0, T0, I0, E, M0])
        if point is None or point.T <= 0 or point.I < 0 or not _drug_admissible(params, point.M):
            continue
        points.append(point)

    results = []
    for point in _dedup(points):
        flags: dict[str, bool] = {"partial_blockade": params.k < 1.0}
        values: dict[str, float] = {}
        den = params.b2 * (params.chi - params.g1 * params.n_M)
        lower = (
            T_max - params.g1**2 * params.n_M / den if abs(den) > DENOM_GUARD else -math.inf
        )
        flags["tumor_within_band"] = lower <= point.T <= T_max
        values["tumor_band_lower"] = lower
        values["tumor_band_upper"] = T_max
        results.append(
            Equilibrium(
                point=point,
                family="dead2",
                residual=residual_norm(point, params),
                existence_flags=flags,
                flag_values=values,
                provenance="newton_refined",
            )
        )
    return results


def _coexist_closed_N(params: ModelParams, T: float, E: float) -> float:
    return (
        params.a1
        - params.d1 * T / (1.0 + params.epsilon * T)
        - params.l1 * E * (1.0 - params.k)
    ) / params.b1


def coexisting(params: ModelParams) -> list[Equilibrium]:
    """Coexisting equilibria: all components positive.  N(T) is closed
    form; with g1 > 0 the tumor equation gives I = P3/Q2, and the immune
    equation with M(I) substituted becomes an octic in T.  Its positive
    real roots with N, I, M > 0 are Newton-polished on the (N, T, I, M)
    subsystem.  With g1 = 0 the tumor equation reduces to P3(T) = 0 and I
    comes from the immune quadratic at each root.  An empty list is a valid
    outcome."""
    _check(params)
    E = estrogen_level(params)
    a2d = params.a2 * params.d
    feed_rate = params.l1 * E * (1.0 - params.k)

    seeds: list[tuple[float, float]] = []
    if params.g1 > 0:
        for T in _positive_real_roots(_coexist_octic(params, E)):
            N = _coexist_closed_N(params, T, E)
            I = (T * (a2d - params.m_d - params.b2 * T) + feed_rate * N) / (params.g1 * T)
            seeds.append((T, I))
    else:
        R, S, U = _immune_quadratic(params, E)
        for T in _positive_real_roots(_coexist_tumor_numerator(params, E)):
            quad = tuple(float(np.polyval(poly, T)) for poly in (R, S, U))
            seeds.extend((T, I) for I in _quadratic_positive_roots(quad))

    points: list[SystemState] = []
    for T0, I0 in seeds:
        N0 = _coexist_closed_N(params, T0, E)
        M0 = drug_level(params, I0) if I0 > 0 else None
        if N0 <= 0 or M0 is None:
            continue
        # E is pinned at its closed form so every family shares the
        # identical float value; the E equation is decoupled anyway.
        point = _polish(params, (0, 1, 2, 4), [N0, T0, I0, E, M0])
        if (
            point is not None
            and all(v > 0 for v in point.as_tuple()[:4])
            and _drug_admissible(params, point.M)
        ):
            points.append(point)

    results = []
    for point in _dedup(points):
        b = params.g1 * point.I + params.m_d - a2d
        c = -params.l1 * point.N * point.E * (1.0 - params.k)
        flags: dict[str, bool] = {}
        values: dict[str, float] = {"coexist_b": b, "coexist_c": c}
        if params.g1 > 0:
            upper = (a2d - params.m_d) / params.g1
            flags["immune_within_band"] = 0.0 < point.I < upper and params.k < 1.0
            values["immune_band_upper"] = upper
        else:
            flags["immune_within_band"] = False
            values["immune_band_upper"] = math.inf
        flags["single_positive_root"] = c < 0
        flags["no_realistic_roots"] = b > 0 and c > 0
        results.append(
            Equilibrium(
                point=point,
                family="coexisting",
                residual=residual_norm(point, params),
                existence_flags=flags,
                flag_values=values,
                provenance="newton_refined",
            )
        )
    return results


def _check(params: ModelParams) -> None:
    violations = validate_params(params)
    if violations:
        raise DomainError("invalid parameters: " + "; ".join(violations))


def find_all(params: ModelParams) -> list[Equilibrium]:
    """Union of the four family finders, deduplicated across families and
    sorted by family order then tumor load."""
    catalog: list[Equilibrium] = []
    for finder in (tumor_free, dead_type1, dead_type2, coexisting):
        catalog.extend(finder(params))
    kept: list[Equilibrium] = []
    for eq in catalog:
        arr = eq.point.as_array()
        scale = 1.0 + float(np.max(np.abs(arr)))
        duplicate = any(
            float(np.max(np.abs(arr - other.point.as_array()))) / scale <= DEDUP_TOL
            for other in kept
        )
        if not duplicate:
            kept.append(eq)
    kept.sort(key=lambda eq: (FAMILIES.index(eq.family), eq.point.T))
    return kept


def catalog_to_json(catalog: list[Equilibrium]) -> str:
    """Equilibrium catalog as a JSON array."""
    payload = [
        {
            "family": eq.family,
            "point": {"N": eq.point.N, "T": eq.point.T, "I": eq.point.I,
                      "E": eq.point.E, "M": eq.point.M},
            "residual": eq.residual,
            "confirmed": eq.confirmed,
            "flags": dict(eq.existence_flags),
            "flag_values": {k: _json_num(v) for k, v in eq.flag_values.items()},
            "provenance": eq.provenance,
        }
        for eq in catalog
    ]
    return json.dumps(payload, indent=2) + "\n"


def _json_num(v: float):
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def catalog_to_csv(catalog: list[Equilibrium]) -> str:
    """Equilibrium catalog as CSV: one row per equilibrium."""
    lines = ["family,N,T,I,E,M,residual,confirmed,provenance"]
    for eq in catalog:
        nums = ",".join(f"{v:.17g}" for v in (*eq.point.as_tuple(), eq.residual))
        lines.append(f"{eq.family},{nums},{str(eq.confirmed).lower()},{eq.provenance}")
    return "\n".join(lines) + "\n"
