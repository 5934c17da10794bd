"""Location, refinement and classification of all equilibrium families.

Four families are searched:

* tumor_free:  T = 0, N > 0
* dead1:       N = T = 0
* dead2:       N = 0, T > 0
* coexisting:  N, T > 0

Every family shares the estrogen component E* = p(1-k)/theta because the
estrogen equation is linear and decoupled.  The drug equation gives M(I),
which turns the immune equation into R(T) I^2 + S(T) I + U(T) = 0.

One pipeline runs a four-row family table.  A row says whether N is free
(the closed form N(T), else 0) and whether T is free (else 0), and gives
the family's flags and provenance.  T is 0 or a positive real root of
R P^2 + S P Q + U Q^2, where I = P/Q solves the steady tumor equation (the
roots of P when g1 = 0 makes Q vanish).  I is P/Q or a root of the immune
quadratic, which has the exact root I = 0 when s = 0 (the polynomial is then
P (R P + S Q), and a root of P seeds I = 0).  The polynomial products are
straight-line plain-float kernels, one per family shape
(:func:`_eliminate_quartic`, :func:`_eliminate_octic` and the s = 0
factors :func:`_ratio_factor_cubic`, :func:`_ratio_factor_quintic`), so no
BLAS kernel sets their bits.  Roots come from companion-matrix
eigenvalues, so no grid decides which points are found; a batch of
parameter sets roots all its companions of one size with one stacked
LAPACK call, and one set is a batch of one.  Those eigenvalue digits
are the host LAPACK's, and the polish settles them: 5,000 seeded catalogs
are byte-identical under OpenBLAS's SkylakeX and Haswell kernels.
Newton polishes the free components with E pinned.  A seed whose free
components of the vector field are already below Newton's 1e-13 tolerance
takes no step, and the field evaluated there is the point's residual
unless the snap of tiny negative components moves it.  One test admits a
point: free N > 0, free T > 0, I > 0 (or I = 0 when s = 0) and M > 0 (or
M = 0 when v_M = 0).  E is not tested, so k = 1 and p = 0, where E* = 0,
keep their interior points.  With v_M = 0 and chi > n_M, M(I) has no value
at I >= I* = n_M*xi/(chi - n_M); a seed there takes M = 0, or, on the line
I = I*, the M that the immune equation sets (:func:`_free_drug`).  None of
the paper's printed polynomials is transcribed: the printed dead1 quadratic
omits j_M, and the derived one (the immune quadratic at T = 0) is the one
solved.

A note on the tumor-free family: with T = 0 the tumor equation still
carries the transformation feed l1*N*E*(1-k), so the classical tumor-free
point is an exact equilibrium only when that feed vanishes (k = 1, l1 = 0
or p = 0).  The finder always reports the closed-form candidate together
with its true residual; only candidates whose full residual is below
1e-10 count as confirmed.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    DENOM_GUARD,
    DomainError,
    ModelParams,
    SystemState,
    _bind,
    _inf_norm,
)
from .numerics import MAX_DEGREE, NewtonError, NumericsError, _eigvals

# perfbench/tracer.py counts calls by wrapping these names on this module,
# so they stay importable here; the finders evaluate the closures of
# model._bind instead of rhs/jacobian and root with stacked companion
# eigenvalues, so only newton_solve is still called through this binding.
from .model import jacobian, rhs, validate_params  # noqa: F401
from .numerics import newton_solve, poly_roots  # noqa: F401

__all__ = [
    "FAMILIES",
    "CONFIRM_TOL",
    "Equilibrium",
    "estrogen_level",
    "immune_clearance_rate",
    "drug_level",
    "tumor_free",
    "dead_type1",
    "dead_type2",
    "coexisting",
    "find_all",
]

log = logging.getLogger(__name__)

FAMILIES = ("tumor_free", "dead1", "dead2", "coexisting")

#: An equilibrium counts as confirmed when ||rhs||_inf is below this.
CONFIRM_TOL = 1e-10
#: Components in (-SNAP_TOL, 0) are snapped to zero before classification.
SNAP_TOL = 1e-9
#: Relative infinity-norm distance below which two points are duplicates.
DEDUP_TOL = 1e-6
#: Newton stops once every polished component of the vector field is below
#: this in magnitude.
POLISH_TOL = 1e-13

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


def _immune_quadratic(params: ModelParams, E: float):
    """Coefficients (R, S, U) in T of the steady immune equation with M(I)
    substituted and the denominators (o+T)(q1*I + q0) cleared:
    R(T)*I^2 + S(T)*I + U(T) = 0.  Each is a descending coefficient tuple
    of length 3 (U has degree 1).  Plain floats, not arrays: the T = 0
    rows only evaluate them, where numpy costs more than the arithmetic."""
    A = immune_clearance_rate(params, E)
    q1 = params.v_M + params.j_M * (params.n_M - params.chi)
    q0 = params.xi * (params.v_M + params.j_M * params.n_M)
    pv = params.p_M * params.v_M
    o = params.o
    L = (-params.g2, params.r - params.g2 * o - A, -A * o)
    sv = params.s * q1 + pv * params.xi
    R = (q1 * L[0], q1 * L[1] + pv, q1 * L[2] + pv * o)
    S = (q0 * L[0], sv + q0 * L[1], sv * o + q0 * L[2])
    U = (0.0, params.s * q0, params.s * q0 * o)
    return R, S, U


def _tumor_ratio(params: ModelParams, E: float, n_free: bool):
    """(P, Q), descending in T, with I = P(T)/Q(T) from the steady tumor
    equation.  At N = 0, I = (a2*d - m_d - b2*T)/g1.  With the closed-form
    N(T) both are multiplied by b1*(1 + epsilon*T): P is a cubic and
    Q = g1*b1*T*(1 + epsilon*T).  Q vanishes when g1 = 0.  The product
    (epsilon*T^2 + T)*(a2*d - m_d - b2*T) in P is written out as the
    elimination kernels below are (:func:`_eliminate_quartic`,
    :func:`_eliminate_octic`), its structural 1.0 and 0.0 factors
    included."""
    n0, n1 = -params.b2, params.a2 * params.d - params.m_d
    if not n_free:
        return [n0, n1], [params.g1]
    c = params.l1 * E * (1.0 - params.k)
    eps, b1 = params.epsilon, params.b1
    a1c = params.a1 - c
    gb = params.g1 * b1
    P = [
        b1 * (0.0 + eps * n0) + c * 0.0,
        b1 * (0.0 + eps * n1 + 1.0 * n0) + c * 0.0,
        b1 * (0.0 + 1.0 * n1 + 0.0 * n0) + c * (a1c * eps - params.d1),
        b1 * (0.0 + 0.0 * n1) + c * a1c,
    ]
    return P, [gb * eps, gb * 1.0, gb * 0.0]


# The elimination kernels: products of descending coefficient sequences,
# written out for the two family shapes and named by index (p0 leads P).
# Each coefficient of a product sums its terms from +0.0 in the order of
# the left factor's index, and a sum of two products of unequal length
# pads the shorter with leading 0.0 addends, as a generic convolution
# would; every term is kept, structural zeros included (Q's constant, U's
# leading coefficient), so an overflow is inf or nan and reaches the
# caller's finiteness check.  Plain floats, so no BLAS kernel sets their
# bits; on (B,) float64 arrays, under np.errstate(all="ignore"), each row
# has the bits of the float call.


def _eliminate_quartic(R, S, U, P, Q) -> list[float]:
    """R*P^2 + S*P*Q + U*Q^2: the immune equation with I = P/Q substituted
    and Q^2 cleared, at N = 0, where P is linear and Q constant."""
    r0, r1, r2 = R
    s0, s1, s2 = S
    u0, u1, u2 = U
    p0, p1 = P
    (q0,) = Q
    pp0 = 0.0 + p0 * p0
    pp1 = 0.0 + p0 * p1 + p1 * p0
    pp2 = 0.0 + p1 * p1
    pq0 = 0.0 + p0 * q0
    pq1 = 0.0 + p1 * q0
    qq0 = 0.0 + q0 * q0
    return [
        (0.0 + r0 * pp0) + 0.0 + 0.0,
        (0.0 + r0 * pp1 + r1 * pp0) + (0.0 + s0 * pq0) + 0.0,
        (0.0 + r0 * pp2 + r1 * pp1 + r2 * pp0) + (0.0 + s0 * pq1 + s1 * pq0) + (0.0 + u0 * qq0),
        (0.0 + r1 * pp2 + r2 * pp1) + (0.0 + s1 * pq1 + s2 * pq0) + (0.0 + u1 * qq0),
        (0.0 + r2 * pp2) + (0.0 + s2 * pq1) + (0.0 + u2 * qq0),
    ]


def _eliminate_octic(R, S, U, P, Q) -> list[float]:
    """:func:`_eliminate_quartic`'s polynomial with the closed-form N(T),
    where P is cubic and Q quadratic."""
    r0, r1, r2 = R
    s0, s1, s2 = S
    u0, u1, u2 = U
    p0, p1, p2, p3 = P
    q0, q1, q2 = Q
    pp0 = 0.0 + p0 * p0
    pp1 = 0.0 + p0 * p1 + p1 * p0
    pp2 = 0.0 + p0 * p2 + p1 * p1 + p2 * p0
    pp3 = 0.0 + p0 * p3 + p1 * p2 + p2 * p1 + p3 * p0
    pp4 = 0.0 + p1 * p3 + p2 * p2 + p3 * p1
    pp5 = 0.0 + p2 * p3 + p3 * p2
    pp6 = 0.0 + p3 * p3
    pq0 = 0.0 + p0 * q0
    pq1 = 0.0 + p0 * q1 + p1 * q0
    pq2 = 0.0 + p0 * q2 + p1 * q1 + p2 * q0
    pq3 = 0.0 + p1 * q2 + p2 * q1 + p3 * q0
    pq4 = 0.0 + p2 * q2 + p3 * q1
    pq5 = 0.0 + p3 * q2
    qq0 = 0.0 + q0 * q0
    qq1 = 0.0 + q0 * q1 + q1 * q0
    qq2 = 0.0 + q0 * q2 + q1 * q1 + q2 * q0
    qq3 = 0.0 + q1 * q2 + q2 * q1
    qq4 = 0.0 + q2 * q2
    return [
        (0.0 + r0 * pp0) + 0.0 + 0.0,
        (0.0 + r0 * pp1 + r1 * pp0) + (0.0 + s0 * pq0) + 0.0,
        (0.0 + r0 * pp2 + r1 * pp1 + r2 * pp0) + (0.0 + s0 * pq1 + s1 * pq0) + (0.0 + u0 * qq0),
        (0.0 + r0 * pp3 + r1 * pp2 + r2 * pp1)
        + (0.0 + s0 * pq2 + s1 * pq1 + s2 * pq0)
        + (0.0 + u0 * qq1 + u1 * qq0),
        (0.0 + r0 * pp4 + r1 * pp3 + r2 * pp2)
        + (0.0 + s0 * pq3 + s1 * pq2 + s2 * pq1)
        + (0.0 + u0 * qq2 + u1 * qq1 + u2 * qq0),
        (0.0 + r0 * pp5 + r1 * pp4 + r2 * pp3)
        + (0.0 + s0 * pq4 + s1 * pq3 + s2 * pq2)
        + (0.0 + u0 * qq3 + u1 * qq2 + u2 * qq1),
        (0.0 + r0 * pp6 + r1 * pp5 + r2 * pp4)
        + (0.0 + s0 * pq5 + s1 * pq4 + s2 * pq3)
        + (0.0 + u0 * qq4 + u1 * qq3 + u2 * qq2),
        (0.0 + r1 * pp6 + r2 * pp5) + (0.0 + s1 * pq5 + s2 * pq4) + (0.0 + u1 * qq4 + u2 * qq3),
        (0.0 + r2 * pp6) + (0.0 + s2 * pq5) + (0.0 + u2 * qq4),
    ]


def _ratio_factor_cubic(R, S, P, Q) -> list[float]:
    """R*P + S*Q at N = 0: the factor of R*P^2 + S*P*Q whose roots have
    I = P/Q > 0 when s = 0 makes U vanish."""
    r0, r1, r2 = R
    s0, s1, s2 = S
    p0, p1 = P
    (q0,) = Q
    return [
        (0.0 + r0 * p0) + 0.0,
        (0.0 + r0 * p1 + r1 * p0) + (0.0 + s0 * q0),
        (0.0 + r1 * p1 + r2 * p0) + (0.0 + s1 * q0),
        (0.0 + r2 * p1) + (0.0 + s2 * q0),
    ]


def _ratio_factor_quintic(R, S, P, Q) -> list[float]:
    """:func:`_ratio_factor_cubic`'s factor with the closed-form N(T)."""
    r0, r1, r2 = R
    s0, s1, s2 = S
    p0, p1, p2, p3 = P
    q0, q1, q2 = Q
    return [
        (0.0 + r0 * p0) + 0.0,
        (0.0 + r0 * p1 + r1 * p0) + (0.0 + s0 * q0),
        (0.0 + r0 * p2 + r1 * p1 + r2 * p0) + (0.0 + s0 * q1 + s1 * q0),
        (0.0 + r0 * p3 + r1 * p2 + r2 * p1) + (0.0 + s0 * q2 + s1 * q1 + s2 * q0),
        (0.0 + r1 * p3 + r2 * p2) + (0.0 + s1 * q2 + s2 * q1),
        (0.0 + r2 * p3) + (0.0 + s2 * q2),
    ]


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


def _dedup(items: list, key) -> list:
    """Keep each item whose ``key`` vector is farther than DEDUP_TOL, in the
    infinity norm relative to 1 + its own largest magnitude, from every
    item kept before it."""
    if len(items) < 2:
        return list(items)
    kept, kept_keys = [], []
    for item in items:
        a = key(item)
        scale = 1.0 + max(map(abs, a))
        if all(max(abs(x - y) for x, y in zip(a, b)) / scale > DEDUP_TOL for b in kept_keys):
            kept.append(item)
            kept_keys.append(a)
    return kept


def _snap(vals) -> list[float]:
    return [0.0 if -SNAP_TOL < v < 0.0 else v for v in vals]


#: The companion matrix of each coefficient count, as ``np.roots`` lays it
#: out, with its first row still zero.
_COMPANIONS = {size: np.diag(np.ones(size - 2), -1) for size in range(2, MAX_DEGREE + 2)}


def _positive_roots_each(polys, names) -> list[list[float]]:
    """Positive roots of each real polynomial of ``polys`` (sequences of
    finite floats, degree at most MAX_DEGREE) from its companion-matrix
    eigenvalues, laid out as ``np.roots`` lays them out; a linear one has
    its root in closed form.  The companions of one size go through one
    stacked LAPACK ``dgeev`` call (:func:`~bcdyn.numerics._eigvals`).  A
    root whose imaginary part is below NEAR_REAL_TOL of its modulus is the
    rounded image of a (near-)double real root and is taken as real; the
    polish decides whether it is an equilibrium.  A finite polynomial
    whose companion row overflows when divided by its leading coefficient
    raises :class:`NumericsError` naming its entry of ``names``."""
    if not polys:
        return []
    found: list[list[float]] = [[] for _ in polys]
    by_size: dict[int, list[tuple[int, bool, list[float]]]] = {}
    for i, (name, coeffs) in enumerate(zip(names, polys)):
        # Trailing zeros are roots at T = 0, never positive.
        nonzero = [k for k, c in enumerate(coeffs) if c != 0.0]
        if len(nonzero) < 2:
            continue
        coeffs = list(coeffs[nonzero[0]:nonzero[-1] + 1])
        if len(coeffs) == 2:
            # A linear factor has the one root -c1/c0, rounded once, where
            # a flipped 1x1 companion rounds twice.
            root = -coeffs[1] / coeffs[0]
            found[i] = [root] if 0 < root < math.inf else []
            continue
        # The companion matrix divides by the leading coefficient; when that
        # is the smaller end (epsilon near 0 makes it subnormal) it can
        # overflow, so root the reversed polynomial in 1/T instead.
        flip = abs(coeffs[0]) < abs(coeffs[-1])
        if flip:
            coeffs.reverse()
        top = [-c / coeffs[0] for c in coeffs[1:]]
        if not all(map(math.isfinite, top)):
            raise NumericsError(f"{name} polynomial in T overflows its companion matrix")
        by_size.setdefault(len(coeffs), []).append((i, flip, top))
    for size, group in by_size.items():
        stack = np.array([_COMPANIONS[size]] * len(group))
        stack[:, 0, :] = [top for _, _, top in group]
        for (i, flip, _), roots in zip(group, _eigvals(stack)):
            if flip:
                # numpy's division gives a zero root an infinite inverse,
                # where a Python complex division would raise.
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    roots = (1.0 / np.array(roots)).tolist()
            found[i] = sorted(
                {
                    z.real
                    for z in roots
                    if 0 < z.real < math.inf and abs(z.imag) <= NEAR_REAL_TOL * abs(z)
                }
            )
    return found


def _horner(coeffs: list[float], T: float) -> float:
    """Descending polynomial ``coeffs`` at T, in np.polyval's order, on
    plain floats: an overflow gives inf, not a numpy warning."""
    acc = 0.0
    for c in coeffs:
        acc = acc * T + c
    return acc


def _immune_roots(params: ModelParams, R, S, U, T: float) -> list[float]:
    """Admissible roots in I of the immune quadratic at ``T``: the positive
    ones, led by I = 0 when s = 0 (U vanishes identically then)."""
    roots = _quadratic_positive_roots([(c2 * T + c1) * T + c0 for c2, c1, c0 in (R, S, U)])
    return [0.0, *roots] if params.s == 0 else roots


def _closed_N(params: ModelParams, T: float, E: float) -> float:
    """N > 0 from the steady normal-cell equation at tumor load T."""
    return (
        params.a1
        - params.d1 * T / (1.0 + params.epsilon * T)
        - params.l1 * E * (1.0 - params.k)
    ) / params.b1


def _polish(bound, active: tuple[int, ...], template: list[float]):
    """Newton-polish a seed on the steady subsystem of the bound closures
    ``(f, jac)`` over the ``active`` state indices, the other components
    frozen at ``template``: the snapped full state with its residual, or
    None on failure.  A seed whose active components of the vector field
    are already below the tolerance is its own solution (the test
    :func:`newton_solve` makes before its first step), and the field
    evaluated there is its residual unless the snap moved it; the residual
    is None when it is still to be evaluated."""
    f, jac = bound
    try:
        full = f(*template)
    except DomainError as exc:
        log.debug("polish failed from %s: %s", template, exc)
        return None
    if all(abs(full[i]) < POLISH_TOL for i in active):
        snapped = _snap(template)
        return SystemState(*snapped), (_inf_norm(full) if snapped == template else None)

    def assemble(x: np.ndarray) -> list[float]:
        vals = list(template)
        for idx, xi in zip(active, x.tolist()):
            vals[idx] = xi
        return vals

    def F(x: np.ndarray) -> np.ndarray:
        full = f(*assemble(x))
        return np.array([full[i] for i in active])

    def J(x: np.ndarray) -> np.ndarray:
        rows = jac(*assemble(x))
        return np.array([[rows[i][j] for j in active] for i in active])

    try:
        sol = newton_solve(F, J, [template[i] for i in active], tol=POLISH_TOL)
    except (NewtonError, DomainError) as exc:
        log.debug("polish failed from %s: %s", template, exc)
        return None
    return SystemState(*_snap(assemble(sol))), None


def _tumor_free_flags(params: ModelParams, point: SystemState):
    pm = params
    I0, M0, E0 = point.I, point.M, point.E
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
    feed = pm.l1 * point.N * E0 * omk
    flags["tumor_feed_zero"] = abs(feed) < CONFIRM_TOL
    values["tumor_feed"] = feed
    return flags, values


def _dead1_flags(params: ModelParams, point: SystemState):
    A = immune_clearance_rate(params, point.E)
    flags: dict[str, bool] = {}
    values: dict[str, float] = {}
    den = params.s * params.chi * A * params.n_M
    ratio = params.p_M * params.v_M * params.xi / den if abs(den) > DENOM_GUARD else math.inf
    flags["drug_feed_ratio_lt_1"] = ratio < 1.0
    values["drug_feed_ratio"] = ratio
    flags["partial_blockade"] = params.k < 1.0
    production = params.chi * point.I / (params.xi + point.I)
    flags["drug_clearance_dominates"] = params.n_M >= production
    values["drug_production_rate"] = production
    return flags, values


def _dead2_flags(params: ModelParams, point: SystemState):
    T_max = (params.a2 * params.d - params.m_d) / params.b2
    flags: dict[str, bool] = {"partial_blockade": params.k < 1.0}
    values: dict[str, float] = {}
    den = params.b2 * (params.chi - params.g1 * params.n_M)
    lower = T_max - params.g1**2 * params.n_M / den if abs(den) > DENOM_GUARD else -math.inf
    flags["tumor_within_band"] = lower <= point.T <= T_max
    values["tumor_band_lower"] = lower
    values["tumor_band_upper"] = T_max
    return flags, values


def _coexisting_flags(params: ModelParams, point: SystemState):
    a2d = params.a2 * params.d
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
    return flags, values


class _Family(NamedTuple):
    """One row of the family table.  N is the closed form N(T) when
    ``n_free`` and 0 otherwise; T is a positive root of the eliminated
    polynomial when ``t_free`` and 0 otherwise."""

    n_free: bool
    t_free: bool
    flags: Callable[[ModelParams, SystemState], tuple[dict, dict]]
    provenance: Callable[[ModelParams], str]


_TABLE = {
    "tumor_free": _Family(
        True, False, _tumor_free_flags,
        lambda pm: "closed_form" if pm.chi == 0 and pm.p_M == 0 else "newton_refined",
    ),
    "dead1": _Family(False, False, _dead1_flags, lambda pm: "poly_root"),
    "dead2": _Family(False, True, _dead2_flags, lambda pm: "newton_refined"),
    "coexisting": _Family(True, True, _coexisting_flags, lambda pm: "newton_refined"),
}


#: The rows of the family table with T = 0.
_AT_ZERO = frozenset(family for family, row in _TABLE.items() if not row.t_free)

#: The fields that no T = 0 row reads.  At T = 0 each is absent or
#: multiplies T = 0.0 in ``f``, in :func:`_closed_N` and in the Jacobian
#: rows the T = 0 polish reads (N, I and M); the tumor equation's residual
#: is then the feed l1*N*E*(1-k) exactly; and no T = 0 flag, seed or
#: provenance reads one.  a2 is read: ``_tumor_free_flags`` reports
#: ``l1_bound_a2``.
_TUMOR_ONLY = frozenset({"d", "b2", "g1", "m_d", "d1", "epsilon"})


def _shareable(params: ModelParams, eqs: list[Equilibrium]) -> bool:
    """Whether T = 0.0 wipes the tumor-only fields from the T = 0 points
    ``eqs`` of ``params``, so that the points may stand for another set
    that differs only there: the terms T*(a2*d - b2*T) and g1*I*T of the
    tumor equation are 0.0 while a2*d and g1*I are finite.  Once either
    overflows they are nan (inf*0.0), so is the set's own residual, and
    the set is solved alone."""
    return math.isfinite(params.a2 * params.d) and all(
        math.isfinite(params.g1 * eq.point.I) for eq in eqs
    )


def _setup(params: ModelParams, families):
    """The setup of ``params`` that every row reads: ``(E, (R, S, U),
    at_zero)``, with E = E*, the immune quadratic R, S, U and the (T, I)
    seeds at T = 0 that the T = 0 rows share, None when ``families`` has
    no such row (a bisection midpoint of dead2 or coexisting needs none).
    No part reads a ``_TUMOR_ONLY`` field, so sets that differ only there
    have the same setup to the bit and may share one."""
    E = estrogen_level(params)
    R, S, U = _immune_quadratic(params, E)
    at_zero = None
    if not _AT_ZERO.isdisjoint(families):
        at_zero = tuple([(0.0, I) for I in _immune_roots(params, R, S, U, 0.0)])
    return E, (R, S, U), at_zero


def _prepare(params: ModelParams, families, setup=None):
    """The input :func:`_find_batch` takes for ``params`` and the rows
    ``families``: ``(params, (f, jac), setup)``, with the closures of
    ``model._bind`` and the :func:`_setup` of ``params``.  A caller that
    holds the setup of a set differing from ``params`` only in
    ``_TUMOR_ONLY`` fields, built for rows including ``families``, passes
    it as ``setup`` and so builds none."""
    return params, _bind(params), _setup(params, families) if setup is None else setup


def _find_batch(prepared, families, shared: list | None = None) -> list[list[Equilibrium]]:
    """Run the rows ``families`` of the family table on every parameter set
    of ``prepared``, each entry the set's :func:`_prepare`; the sets of one
    sweep group hold the same setup tuple, which is read and never
    written.  The eliminated polynomials of all sets and rows are rooted
    together (see :func:`_positive_roots_each`); seeding, polish,
    admission, dedup and flags stay per set.  Per set: its points, row by
    row in ``families`` order, each row deduplicated.

    T = 0 rows take their seeds from the setup.  Otherwise T runs over the
    positive roots of R*P^2 + S*P*Q + U*Q^2 and I = P/Q; with g1 = 0 (Q = 0)
    T runs over the roots of P and I comes from the immune quadratic at
    each.  With s = 0 (U = 0) the roots of the factors P and R*P + S*Q are
    found apart, and a root of P seeds I = 0 exactly, not the rounding
    noise of P/Q there.

    ``shared``, when given, holds per set a dict owned by the caller, or
    None.  Sets handed the same dict must differ only in ``_TUMOR_ONLY``
    fields, which the caller knows from how it built them (see
    ``sweep.run_sweep``).  A T = 0 row is admitted once per dict and its
    ``Equilibrium`` list handed out again, the same objects, which are
    frozen and whose dicts nothing mutates.  A list is stored and reused
    only where sharing it is exact to the bit (:func:`_shareable`).  The
    sweeps build their dicts in each call, so none outlives it."""
    rows = [(family, _TABLE[family]) for family in families]
    seeds, rooted, polys = [], [], []
    for i, (params, _, (E, (R, S, U), at_zero)) in enumerate(prepared):
        seeds.append([])
        for j, (family, row) in enumerate(rows):
            if not row.t_free:
                seeds[i].append(at_zero)
                continue
            seeds[i].append([])
            P, Q = _tumor_ratio(params, E, row.n_free)
            if not any(c > 0 for c in P):
                continue  # P < 0 for every T > 0: no seed has I = P/Q >= 0
            # Each polynomial rooted, with how its roots seed I.
            if params.g1 == 0:
                factors = [(P, "immune")]
            elif params.s == 0:
                # U = 0, so the eliminated polynomial is P*(R*P + S*Q), and
                # I = P/Q is 0 exactly at the roots of P.
                factor = _ratio_factor_quintic if row.n_free else _ratio_factor_cubic
                factors = [(P, "zero"), (factor(R, S, P, Q), "ratio")]
            else:
                eliminate = _eliminate_octic if row.n_free else _eliminate_quartic
                factors = [(eliminate(R, S, U, P, Q), "ratio")]
            for poly, how in factors:
                if not all(map(math.isfinite, poly)):
                    raise NumericsError(f"{family} polynomial in T overflows")
                rooted.append((i, j, how, P, Q))
                polys.append(poly)
    names = [rows[j][0] for _, j, *_ in rooted]
    for (i, j, how, P, Q), roots in zip(rooted, _positive_roots_each(polys, names)):
        if how == "immune":
            params, _, (_, (R, S, U), _) = prepared[i]
            seeds[i][j] += [(T, I) for T in roots for I in _immune_roots(params, R, S, U, T)]
        elif how == "zero":
            seeds[i][j] += [(T, 0.0) for T in roots]
        else:
            seeds[i][j] += [(T, _horner(P, T) / _horner(Q, T)) for T in roots]
    found = []
    for (params, bound, (E, *_)), set_seeds, group in zip(
        prepared, seeds, shared or [None] * len(prepared)
    ):
        eqs: list[Equilibrium] = []
        for (family, row), row_seeds in zip(rows, set_seeds):
            if group is None or row.t_free:
                eqs += _admit(params, bound, E, family, row, row_seeds)
                continue
            known = group.get(family)
            if known is None or not _shareable(params, known):
                known = _admit(params, bound, E, family, row, row_seeds)
                if _shareable(params, known):
                    group[family] = known
            eqs += known
        found.append(eqs)
    return found


def _free_drug(params: ModelParams, E: float, T: float, I: float) -> float | None:
    """The steady drug level at v_M = 0 where :func:`drug_level` has none,
    that is where chi*I/(xi + I) >= n_M.  The drug equation
    M*(chi*I/(xi + I) - n_M) = 0 then holds for M = 0 off the line
    I = I* = n_M*xi/(chi - n_M), and for every M on it, where the immune
    equation, linear in u = M/(j_M + M), sets
    u = (A + g2*T - r*T/(o + T) - s/I)/p_M, kept when 0 < u < 1.  A seed
    is on the line when I is within NEAR_REAL_TOL of I*, relative to I*:
    its I comes from a root, which is no more exact than that.  None when
    the line gives no such u.  With chi <= n_M there is no line, and
    drug_level refuses only a denominator n_M*(xi + I) - chi*I that is
    positive but below DENOM_GUARD, so M = 0."""
    if params.chi <= params.n_M:
        return 0.0
    I_star = params.n_M * params.xi / (params.chi - params.n_M)
    if abs(I - I_star) > NEAR_REAL_TOL * I_star:
        return 0.0
    if params.p_M == 0:
        return None
    A = immune_clearance_rate(params, E)
    u = (A + params.g2 * T - params.r * T / (params.o + T) - params.s / I) / params.p_M
    return params.j_M * u / (1.0 - u) if 0.0 < u < 1.0 else None


def _admit(params: ModelParams, bound, E: float, family: str, row: _Family, seeds):
    """Back-substitute N and M into each (T, I) seed of one family, polish
    the free components, admit, dedup and flag.  A point keeps the residual
    its polish evaluated and is evaluated again only when the polish moved
    or snapped it; a nan component makes it nan."""
    active = (0,) * row.n_free + (1,) * row.t_free + (2, 4)
    points: list[tuple[SystemState, float | None]] = []
    for T0, I0 in seeds:
        if I0 < -SNAP_TOL:
            continue
        I0 = max(I0, 0.0)
        N0 = _closed_N(params, T0, E) if row.n_free else 0.0
        M0 = drug_level(params, I0)
        if M0 is None and params.v_M == 0:
            M0 = _free_drug(params, E, T0, I0)
        if (row.n_free and N0 <= 0) or M0 is None:
            continue
        # E is pinned at its closed form so every family shares the
        # identical float value; the E equation is decoupled anyway.
        polished = _polish(bound, active, [N0, T0, I0, E, M0])
        if polished is None:
            continue
        point = polished[0]
        if (
            (point.N > 0 or not row.n_free)
            and (point.T > 0 or not row.t_free)
            and (point.I > 0 or (point.I == 0 and params.s == 0))
            and (point.M > 0 or (point.M == 0 and params.v_M == 0))
        ):
            points.append(polished)
    provenance = row.provenance(params)
    return [
        Equilibrium(
            point, family, _inf_norm(bound[0](*point.as_tuple())) if residual is None else residual,
            *row.flags(params, point), provenance=provenance,
        )
        for point, residual in _dedup(points, key=lambda pair: pair[0].as_tuple())
    ]


#: The :func:`_prepare` of the parameter set found last.
_last_prepared: tuple = (None, None, None)


def _find(params: ModelParams, family: str) -> list[Equilibrium]:
    """One row of the family table on one parameter set.

    :func:`find_all` calls the four finders by name, each a batch of one,
    because ``perfbench/tracer.py`` times them by wrapping those names.  So
    the setup every row shares is cached here, as ``model._bind`` caches
    the closures: one entry, the :func:`_prepare` of the set found last,
    keyed by identity (``params is`` its first item, which keeps the set
    alive, so its id cannot pass to another set).  A catalog then prepares
    its set once, not four times.  The entry is read once and replaced by
    a fresh tuple, so threads need no lock.  The batched sweep prepares
    its sets itself and leaves the entry alone.  Once the tracer no longer
    needs the named finders and find_all runs as one batch, this cache is
    dead code: delete it with the tracer shims."""
    global _last_prepared
    prepared = _last_prepared
    if prepared[0] is not params:
        prepared = _last_prepared = _prepare(params, FAMILIES)
    return _find_batch([prepared], (family,))[0]


def _catalog(equilibria: list[Equilibrium]) -> list[Equilibrium]:
    """Sort by family order, then tumor load."""
    return sorted(equilibria, key=lambda eq: (FAMILIES.index(eq.family), eq.point.T))


def tumor_free(params: ModelParams) -> list[Equilibrium]:
    """Tumor-free candidates: T = 0, N > 0.  The reported residual includes
    the tumor equation's transformation feed (see module docstring)."""
    return _find(params, "tumor_free")


def dead_type1(params: ModelParams) -> list[Equilibrium]:
    """Dead type-1 equilibria: N = T = 0."""
    return _find(params, "dead1")


def dead_type2(params: ModelParams) -> list[Equilibrium]:
    """Dead type-2 equilibria: N = 0, T > 0."""
    return _find(params, "dead2")


def coexisting(params: ModelParams) -> list[Equilibrium]:
    """Coexisting equilibria: N, T > 0.  An empty list is a valid outcome."""
    return _find(params, "coexisting")


def find_all(params: ModelParams) -> list[Equilibrium]:
    """Union of the four family finders, sorted by family order then tumor
    load.  No point is in two families, whose zeros of N and T differ."""
    catalog: list[Equilibrium] = []
    for finder in (tumor_free, dead_type1, dead_type2, coexisting):
        catalog.extend(finder(params))
    return _catalog(catalog)
