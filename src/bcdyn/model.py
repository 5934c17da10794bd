"""Core model: parameters, state, vector field, analytic Jacobian and the
reproduction numbers read off it.

The model couples five compartments: normal cells N, tumor cells T, immune
cells I, estrogen E and an immunotherapy drug M.

    dN/dt = N(a1 - b1 N) - d1 T N / (1 + epsilon T) - l1 N E (1-k)
    dT/dt = T(a2 d - b2 T) - g1 I T - m_d T + l1 N E (1-k)
    dI/dt = s + r I T/(o+T) - g2 I T - m I - l3 I E (1-k)/(g+E)
            + p_M I M/(j_M+M)
    dE/dt = p(1-k) - theta E
    dM/dt = v_M - n_M M + chi M I/(xi+I)

Treatment knobs: d (ketogenic diet factor on tumor growth), k (endocrine
therapy efficacy, scales every (1-k) term) and v_M (immunotherapy infusion).
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "PARAM_NAMES",
    "STATE_NAMES",
    "DENOM_GUARD",
    "ModelParams",
    "SystemState",
    "ReproductionNumbers",
    "validate_params",
    "make_rhs",
    "make_jacobian",
    "rhs",
    "jacobian",
    "reproduction_numbers",
]


class DomainError(ValueError):
    """An evaluation left the admissible domain (singular denominator,
    non-finite input, invalid parameters)."""


#: Any Michaelis-Menten style denominator below this magnitude is treated
#: as singular rather than evaluated.
DENOM_GUARD = 1e-12

PARAM_NAMES = (
    "a1", "b1", "d1", "epsilon", "l1", "k",
    "a2", "d", "b2", "g1", "m_d",
    "s", "r", "o", "g2", "m", "l3", "g", "p_M", "j_M",
    "p", "theta",
    "v_M", "n_M", "chi", "xi",
)

STATE_NAMES = ("N", "T", "I", "E", "M")

_FIELD_INDEX = {name: i for i, name in enumerate(PARAM_NAMES)}

_FLOAT_MAX = sys.float_info.max

# The most sample times, grid values or scan points one request may ask
# for; each is allocated up front, so a larger count is refused instead.
_MAX_POINTS = 10**6


def _check_count(name: str, value) -> None:
    """Refuse a count ``value`` for the argument ``name`` that is not an
    integer; a bool is refused too.  Callers check its range."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")


# Rates that may legitimately vanish (switching off a coupling or a source
# is a meaningful scenario: no diet interaction, no endocrine feed, no
# infusion, ...).  Everything else must be strictly positive.
_NONNEGATIVE_OK = frozenset(
    {"d1", "epsilon", "l1", "g1", "s", "r", "g2", "l3", "p_M", "p", "v_M", "chi"}
)


@dataclass(frozen=True)
class ModelParams:
    """The 26 rate and threshold constants of the model.

    Units are abstract: "cells", "concentration" and "per day"; no unit
    conversion is performed anywhere.

    Valid by construction: the constructor, :meth:`from_dict` and
    ``dataclasses.replace`` run :func:`validate_params`, and
    :meth:`replace` checks the fields it changes; each raises DomainError
    on a violation.
    """

    a1: float      # normal-cell logistic growth, per day
    b1: float      # normal-cell logistic death, per day*cell
    d1: float      # tumor-induced inhibition of normal cells, per day*cell
    epsilon: float # saturation coefficient of the inhibition, per cell
    l1: float      # estrogen-driven transformation rate, per day*conc
    k: float       # endocrine-therapy efficacy, dimensionless in [0, 1]
    a2: float      # tumor logistic growth, per day
    d: float       # ketogenic-diet dose factor, dimensionless > 0
    b2: float      # tumor logistic death, per day*cell
    g1: float      # immune kill rate of tumor, per day*cell
    m_d: float     # tumor starvation death rate, per day
    s: float       # immune source rate, cells/day
    r: float       # immune response rate, per day
    o: float       # immune threshold, cells
    g2: float      # immune inactivation by tumor, per day*cell
    m: float       # immune natural death, per day
    l3: float      # estrogen suppression of immunity, per day
    g: float       # estrogen threshold, concentration
    p_M: float     # immunotherapy activation rate of immune cells, per day
    j_M: float     # immunotherapy half-saturation, concentration
    p: float       # estrogen source rate, conc/day
    theta: float   # estrogen washout rate, per day
    v_M: float     # immunotherapy infusion rate, drug/day
    n_M: float     # drug turnover rate, per day
    chi: float     # drug production from activated immune cells, per day
    xi: float      # immune half-saturation for drug production, cells

    def __post_init__(self) -> None:
        violations = validate_params(self)
        if violations:
            raise DomainError("invalid parameters: " + "; ".join(violations))

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def replace(self, **changes: float) -> "ModelParams":
        """A copy with ``changes`` applied.  ``self`` is valid, so only the
        changed fields are checked, with the constructor's errors; the copy
        is built without running ``__init__``."""
        for name in changes:
            if name not in _FIELD_INDEX:
                raise TypeError(
                    f"{type(self).__name__}.__init__() got an unexpected keyword argument {name!r}"
                )
        violations = [
            violation
            for name in sorted(changes, key=_FIELD_INDEX.__getitem__)
            if (violation := _violation(name, changes[name])) is not None
        ]
        if violations:
            raise DomainError("invalid parameters: " + "; ".join(violations))
        new = object.__new__(type(self))
        vars(new).update(vars(self), **changes)
        return new

    @classmethod
    def from_dict(cls, values: dict[str, float]) -> "ModelParams":
        missing = [name for name in PARAM_NAMES if name not in values]
        unknown = [name for name in values if name not in PARAM_NAMES]
        if missing or unknown:
            raise DomainError(f"bad parameter set: missing={missing} unknown={unknown}")
        # A violating value (a string, an int beyond the float range) reaches the rule as is.
        return cls(**{
            name: values[name] if _violation(name, values[name]) else float(values[name])
            for name in PARAM_NAMES
        })


@dataclass(frozen=True)
class SystemState:
    """One point of the five-compartment phase space."""

    N: float
    T: float
    I: float
    E: float
    M: float

    # @dataclass keeps an __init__ the class defines.  This one fills the
    # instance dict directly, as ModelParams.replace does, where the
    # generated frozen __init__ calls object.__setattr__ once per field and
    # costs twice as much; the finders build several states per point.  A
    # new field needs its store here too (tests/test_records.py).
    def __init__(self, N: float, T: float, I: float, E: float, M: float) -> None:
        attrs = self.__dict__
        attrs["N"] = N
        attrs["T"] = T
        attrs["I"] = I
        attrs["E"] = E
        attrs["M"] = M

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.N, self.T, self.I, self.E, self.M)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple(), dtype=float)

    @classmethod
    def from_sequence(cls, values) -> "SystemState":
        vals = tuple(float(v) for v in values)
        if len(vals) != 5:
            raise DomainError(f"state needs 5 components, got {len(vals)}")
        return cls(*vals)

    def is_finite(self) -> bool:
        return all(map(math.isfinite, self.as_tuple()))


def _is_real(value) -> bool:
    """An int or float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _beyond_float(value) -> bool:
    """An int too large for a float.  Messages name such a value instead of
    printing it: its repr runs to hundreds of digits, and past 4,300 digits
    raises ValueError."""
    return isinstance(value, int) and abs(value) > _FLOAT_MAX


def _violation(name: str, value) -> str | None:
    """The constraint that ``value`` violates as parameter ``name``, or None."""
    # A float needs no isinstance checks; this runs 26 times per set built.
    if type(value) is not float:
        if not _is_real(value):
            return f"{name} must be a real number, got {value!r}"
        if _beyond_float(value):
            return f"{name} must be finite, got an integer beyond the float range"
    if not math.isfinite(value):
        return f"{name} must be finite, got {value!r}"
    if name == "k":
        return None if 0.0 <= value <= 1.0 else "k outside [0,1]"
    if name in _NONNEGATIVE_OK:
        return None if value >= 0.0 else f"{name} must be nonnegative"
    return None if value > 0.0 else f"{name} must be positive"


def validate_params(params: ModelParams) -> list[str]:
    """Report every violated parameter constraint; an empty list means valid."""
    violations: list[str] = []
    # PARAM_NAMES is the field order; dataclasses.fields() costs more than
    # the checks themselves.
    for name in PARAM_NAMES:
        violation = _violation(name, getattr(params, name))
        if violation is not None:
            violations.append(violation)
    return violations


# The five Michaelis-Menten denominators, in the order the closures of
# _closures compute them.
_DENOMINATORS = ("1 + epsilon*T", "o + T", "g + E", "j_M + M", "xi + I")


def _singular(dens) -> DomainError | None:
    """The error naming the first denominator in ``dens`` below
    DENOM_GUARD, or None when all are safe."""
    for name, value in zip(_DENOMINATORS, dens):
        if abs(value) < DENOM_GUARD:
            return DomainError(f"singular denominator {name}")
    return None


def _closures(params: ModelParams):
    """Build the vector-field and Jacobian closures ``(f, jac)`` of
    ``params``.  The denominator guards stay inline in both closures: they
    run on every evaluation, where a helper call would cost about half
    again as much per call."""
    a1, b1, d1, epsilon, l1 = params.a1, params.b1, params.d1, params.epsilon, params.l1
    a2, d, b2, g1, m_d = params.a2, params.d, params.b2, params.g1, params.m_d
    s, r, o, g2, m = params.s, params.r, params.o, params.g2, params.m
    l3, g, p_M, j_M = params.l3, params.g, params.p_M, params.j_M
    p, theta, v_M, n_M = params.p, params.theta, params.v_M, params.n_M
    chi, xi = params.chi, params.xi
    omk = 1.0 - params.k

    def f(N: float, T: float, I: float, E: float, M: float):
        den_sat = 1.0 + epsilon * T
        den_o = o + T
        den_g = g + E
        den_j = j_M + M
        den_xi = xi + I
        if (
            abs(den_sat) < DENOM_GUARD
            or abs(den_o) < DENOM_GUARD
            or abs(den_g) < DENOM_GUARD
            or abs(den_j) < DENOM_GUARD
            or abs(den_xi) < DENOM_GUARD
        ):
            raise _singular((den_sat, den_o, den_g, den_j, den_xi))
        transform = l1 * N * E * omk
        dN = N * (a1 - b1 * N) - d1 * T * N / den_sat - transform
        dT = T * (a2 * d - b2 * T) - g1 * I * T - m_d * T + transform
        dI = (
            s
            + r * I * T / den_o
            - g2 * I * T
            - m * I
            - l3 * I * E * omk / den_g
            + p_M * I * M / den_j
        )
        dE = p * omk - theta * E
        dM = v_M - n_M * M + chi * M * I / den_xi
        return dN, dT, dI, dE, dM

    def jac(N: float, T: float, I: float, E: float, M: float):
        den_sat = 1.0 + epsilon * T
        den_o = o + T
        den_g = g + E
        den_j = j_M + M
        den_xi = xi + I
        if (
            abs(den_sat) < DENOM_GUARD
            or abs(den_o) < DENOM_GUARD
            or abs(den_g) < DENOM_GUARD
            or abs(den_j) < DENOM_GUARD
            or abs(den_xi) < DENOM_GUARD
        ):
            raise _singular((den_sat, den_o, den_g, den_j, den_xi))
        try:
            return (
                # N row
                (
                    a1 - 2.0 * b1 * N - d1 * T / den_sat - l1 * E * omk,
                    -d1 * N / den_sat**2,
                    0.0,
                    -l1 * N * omk,
                    0.0,
                ),
                # T row
                (
                    l1 * E * omk,
                    a2 * d - 2.0 * b2 * T - g1 * I - m_d,
                    -g1 * T,
                    l1 * N * omk,
                    0.0,
                ),
                # I row
                (
                    0.0,
                    r * I * o / den_o**2 - g2 * I,
                    r * T / den_o
                    - g2 * T
                    - m
                    - l3 * E * omk / den_g
                    + p_M * M / den_j,
                    -l3 * I * g * omk / den_g**2,
                    p_M * I * j_M / den_j**2,
                ),
                # E row: linear, decoupled
                (0.0, 0.0, 0.0, -theta, 0.0),
                # M row
                (
                    0.0,
                    0.0,
                    chi * M * xi / den_xi**2,
                    0.0,
                    -n_M + chi * I / den_xi,
                ),
            )
        except OverflowError as exc:
            raise DomainError(
                f"Jacobian overflows at state {(N, T, I, E, M)}"
            ) from exc

    return f, jac


#: The parameter set bound last and its closures, as (params, (f, jac)).
_last_bound: tuple = (None, None)


def _bind(params: ModelParams):
    """The closures ``(f, jac)`` of ``params`` that :func:`make_rhs`,
    :func:`make_jacobian` and :func:`jacobian` hand out: the ones already
    built when ``params`` is the set bound last, else new ones from
    :func:`_closures`.

    One catalog (``find_all``, then ``classify`` of each confirmed point)
    so binds its set once, not once per finder and per ``classify``.  The
    one entry is keyed by identity, ``params is last``: ModelParams is
    frozen, so an object keeps its values, and hashing its 26 floats would
    cost as much as a bind.  The entry holds the set itself, so its id
    cannot pass to another set while cached.  It is read once into locals
    and replaced by a fresh tuple, so threads need no lock: two threads
    that alternate sets bind again, and each gets its own set's closures.
    """
    global _last_bound
    last, bound = _last_bound
    if params is not last:
        bound = _closures(params)
        _last_bound = (params, bound)
    return bound


def make_rhs(params: ModelParams):
    """Bind ``params`` into a scalar derivative function.

    Returns ``f(N, T, I, E, M) -> (dN, dT, dI, dE, dM)`` operating on plain
    floats.  This is the single source of truth for the vector field; both
    :func:`rhs` and the integrator delegate to it.
    """
    return _bind(params)[0]


def rhs(state: SystemState, params: ModelParams) -> tuple[float, float, float, float, float]:
    """Evaluate the vector field at ``state``."""
    if not state.is_finite():
        raise DomainError(f"non-finite state {state}")
    return make_rhs(params)(*state.as_tuple())


def _inf_norm(values) -> float:
    """max |v| over the sequence ``values``, nan when any v is: ``max`` alone
    passes over a nan that is not first.  A nan sum finds one cheaply (or
    is inf + -inf, which the exact test settles)."""
    total = sum(values)
    if total != total and any(map(math.isnan, values)):
        return math.nan
    return max(map(abs, values))


def residual_norm(state: SystemState, params: ModelParams) -> float:
    """Infinity norm of the vector field, nan if a component is; zero at an
    exact equilibrium."""
    return _inf_norm(rhs(state, params))


def make_jacobian(params: ModelParams):
    """Bind ``params`` into a scalar Jacobian function.

    Returns ``jac(N, T, I, E, M)`` giving the analytic 5x5 Jacobian of the
    vector field as five row tuples of plain floats, entry [i][j] =
    d(rhs_i)/d(state_j).  This is the single transcription of the
    Jacobian; :func:`jacobian` and the integrator's Rosenbrock step
    delegate to it.  A state whose entries overflow raises DomainError.
    """
    return _bind(params)[1]


def jacobian(state: SystemState, params: ModelParams) -> np.ndarray:
    """Analytic 5x5 Jacobian of :func:`rhs`, entry (i, j) = d(rhs_i)/d(state_j).

    Derived from the vector field itself, term by term; the E row is
    (0, 0, 0, -theta, 0) because the estrogen equation is linear and
    decoupled.
    """
    if not state.is_finite():
        raise DomainError(f"non-finite state {state}")
    return np.array(make_jacobian(params)(*state.as_tuple()))


@dataclass(frozen=True)
class ReproductionNumbers:
    """Treatment reproduction numbers, read off the analytic Jacobian J at
    the point.

    At T = 0 the entries are the printed A and B coefficients:
    ``r0 = J42*J24 / (J44*J22)`` is A6*A9 / (A10*A5) and
    ``r1 = J10*(-J01) / (J00*J11)`` is A1*A2 / (A0*A3);
    ``r_im = J42*J24 / (J22*J44)`` is B5*B7 / (B4*B8), defined only at
    states with N = T = 0.  A number whose denominator magnitude falls below
    1e-12 is flagged undefined (value NaN); no exact division by zero is
    ever performed.
    """

    r0: float
    r1: float
    r_im: float
    r0_defined: bool
    r1_defined: bool
    r_im_defined: bool

    # Fills the instance dict directly, as SystemState's __init__ does.
    def __init__(
        self, r0: float, r1: float, r_im: float,
        r0_defined: bool, r1_defined: bool, r_im_defined: bool,
    ) -> None:
        attrs = self.__dict__
        attrs["r0"] = r0
        attrs["r1"] = r1
        attrs["r_im"] = r_im
        attrs["r0_defined"] = r0_defined
        attrs["r1_defined"] = r1_defined
        attrs["r_im_defined"] = r_im_defined


def _safe_ratio(num: float, den: float) -> tuple[float, bool]:
    if abs(den) < DENOM_GUARD:
        return (math.nan, False)
    return (num / den + 0.0, True)  # + 0.0 normalizes -0.0


def reproduction_numbers(eq_point: SystemState, params: ModelParams) -> ReproductionNumbers:
    """Evaluate R0, R1 (and R_IM at dead type-1 states) at an equilibrium."""
    return _reproduction(jacobian(eq_point, params).tolist(), _at_dead1_state(eq_point))


def _at_dead1_state(state: SystemState) -> bool:
    """N = T = 0 to within 1e-9, where R_IM applies."""
    return abs(state.N) < 1e-9 and abs(state.T) < 1e-9


def _reproduction(J, with_r_im: bool) -> ReproductionNumbers:
    """R0 and R1 from the Jacobian rows ``J`` (Python floats); R_IM too
    when ``with_r_im``, else undefined.  R_IM = J42*J24 / (J22*J44) is R0:
    a float product does not depend on the order of its two factors."""
    r0, r0_ok = _safe_ratio(J[4][2] * J[2][4], J[4][4] * J[2][2])
    r1, r1_ok = _safe_ratio(J[1][0] * -J[0][1], J[0][0] * J[1][1])
    r_im, r_im_ok = (r0, r0_ok) if with_r_im else (math.nan, False)
    return ReproductionNumbers(
        r0=r0, r1=r1, r_im=r_im,
        r0_defined=r0_ok, r1_defined=r1_ok, r_im_defined=r_im_ok,
    )
