"""Treatment-parameter sweeps and bifurcation localization.

A sweep solves its whole grid (1-D or 2-D) in one batched call of the
equilibrium pipeline: a grid point's parameter set is the scenario's with
the swept fields replaced, which checks those fields only, and the
eliminated polynomials of all points are rooted together.  The setup
(E*, the immune quadratic, the T = 0 seeds) and the T = 0 rows
(tumor_free, dead1) read none of the tumor-only fields d, b2, g1, m_d, d1
and epsilon.  So each group of grid points, the points with the same grid
index in each swept field that is not tumor-only, builds one setup
(``equilibria._setup``) and admits its T = 0 rows once
(``equilibria._find_batch``): a d sweep is one group, a (k, d) grid one
group per k.  What is left per point is its ``replace`` and its
``model._bind``.  Each row then takes its verdict and max Re(lambda) from
one stacked spectrum of the Jacobians at all confirmed points, and R0 and
R1 from the entries of the same Jacobians, with the same bits as
:func:`classify` gives them (no branch continuation).
Of each spectrum only the leading eigenvalue is kept, the one
:func:`classify`'s sorted spectrum leads with; no spectrum is sorted.
The Jacobian rows are read into one (B, 5, 5) array in one flat pass,
which is checked finite as a whole before the stacked spectrum: that is
one call of LAPACK's ``dgeev`` (:func:`~bcdyn.numerics._eigvals`), where
``np.linalg.eigvals`` would have checked the entries.

The bifurcation scanner brackets sign changes of the leading eigenvalue
real part per family and bisects each bracket.  It solves its scan grid
for all families in one batch, and reads only eigenvalues: no
characteristic polynomial, Hurwitz minors or theorem rules.  A bisection
midpoint is a batch of one solved for the bracketed family only.  A scan
over a tumor-only field is one group, its midpoints included: it builds
one setup, from the scenario's set, and a tumor-free midpoint of a d scan
admits no point and computes only its Jacobian and eigenvalues.  A scan
over any other field prepares each value.  The bisection carries the
entries at both bracket ends, so the reported eigenvalues need no further
solve.  A bracket is halved down to its target width or until its ends
are adjacent floats.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .equilibria import _TUMOR_ONLY, FAMILIES, _catalog, _find_batch, _prepare, _setup
from .model import (
    _MAX_POINTS,
    PARAM_NAMES,
    DomainError,
    _beyond_float,
    _check_count,
    _violation,
)
from .numerics import NumericsError, _eigvals, _leading
from .scenario import Scenario
from .stability import _eig_verdict, _repro

# perfbench/tracer.py wraps these names on this module, so they stay
# importable here; the sweeps call the batched pipeline instead.
from .equilibria import find_all  # noqa: F401
from .stability import classify  # noqa: F401

__all__ = [
    "SweepSpec",
    "BifurcationResult",
    "build_grid",
    "run_sweep",
    "run_bifurcate",
]

@dataclass(frozen=True)
class SweepSpec:
    parameter_name: str
    grid: tuple[float, ...]
    second_parameter: str | None = None
    second_grid: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.second_parameter is None and self.second_grid:
            raise DomainError("a second grid needs a second parameter")
        if len(self.grid) * max(1, len(self.second_grid)) > _MAX_POINTS:
            raise DomainError(f"a sweep takes at most {_MAX_POINTS} grid points")
        _check_grid(self.parameter_name, self.grid)
        if self.second_parameter is not None:
            if self.second_parameter == self.parameter_name:
                # Its values would overwrite the first grid's at every point.
                raise DomainError(f"cannot sweep {self.parameter_name} against itself")
            _check_grid(self.second_parameter, self.second_grid)


def _check_grid(name: str, grid: tuple[float, ...]) -> None:
    """Each grid value passes the model's validity rule for ``name``, so
    every parameter set of a sweep over a valid scenario is valid."""
    if name not in PARAM_NAMES:
        raise DomainError(f"unknown parameter {name!r}")
    if not grid:
        raise DomainError(f"empty grid for {name}")
    for v in grid:
        violation = _violation(name, v)
        if violation is not None:
            # The rule names an int beyond the float range without its digits.
            shown = "" if _beyond_float(v) else f" {v}"
            raise DomainError(f"grid value{shown} invalid: {violation}")


def build_grid(lo: float, hi: float, count: int, spacing: str = "linear") -> tuple[float, ...]:
    if spacing not in ("linear", "log"):
        raise DomainError(f"unknown grid spacing {spacing!r}; expected 'linear' or 'log'")
    _check_count("count", count)
    if not 1 <= count <= _MAX_POINTS or hi < lo:
        raise DomainError(
            f"bad grid request [{lo}, {hi}] x {count}: need hi >= lo and 1 to {_MAX_POINTS} points"
        )
    if not math.isfinite(float(hi) - float(lo)):
        raise DomainError(f"grid bounds [{lo}, {hi}] must be finite with a finite span hi - lo")
    if count == 1:
        return (lo,)
    if spacing == "log":
        if lo <= 0:
            raise DomainError("log spacing requires a positive lower bound")
        # exp(log(x)) is off x by rounding; the bounds themselves stand at
        # the ends, and no interior point may step past them.
        grid = np.clip(np.exp(np.linspace(math.log(lo), math.log(hi), count)), lo, hi)
        grid[0], grid[-1] = lo, hi
        return tuple(grid)
    return tuple(np.linspace(lo, hi, count))


def _solve(prepared, families=FAMILIES, shared=None) -> list[list[tuple]]:
    """Per set of ``prepared``, each entry its ``equilibria._prepare``,
    its catalog restricted to the rows ``families`` as (equilibrium,
    Jacobian rows, leading eigenvalue) triples, the last two None for
    unconfirmed points.  All sets go through one batched solve, which
    shares the T = 0 rows through ``shared`` (see ``equilibria._find_batch``),
    and the Jacobians at all confirmed points through one stacked
    eigenvalue call, which refuses a non-finite entry with a
    :class:`NumericsError`.  Each set's Jacobians are its own: J11 reads d."""
    solved = [_catalog(eqs) for eqs in _find_batch(prepared, families, shared)]
    Js = [
        jac(*eq.point.as_tuple())
        for (_, (_, jac), _), catalog in zip(prepared, solved)
        for eq in catalog
        if eq.confirmed
    ]
    # One flat pass over the 25 entries of each 5x5 Jacobian, in row order.
    entries = itertools.chain.from_iterable(itertools.chain.from_iterable(Js))
    stack = np.fromiter(entries, float, 25 * len(Js)).reshape(len(Js), 5, 5)
    if not np.isfinite(stack).all():
        raise NumericsError("non-finite Jacobian entry")
    leads = map(_leading, _eigvals(stack)) if Js else ()
    found = zip(Js, leads)
    return [
        [(eq, *next(found)) if eq.confirmed else (eq, None, None) for eq in catalog]
        for catalog in solved
    ]


def run_sweep(scenario: Scenario, spec: SweepSpec) -> list[dict]:
    """One row per grid point per equilibrium, grid-major then family."""
    second = spec.second_grid or (None,)
    # A group of points, named by the grid index of each swept field the
    # T = 0 rows read, shares one setup and one dict of those rows; no
    # float is compared.
    reads = [name not in _TUMOR_ONLY for name in (spec.parameter_name, spec.second_parameter)]
    groups: dict[tuple, tuple] = {}
    points, prepared, shared = [], [], []
    for i, v1 in enumerate(spec.grid):
        for j, v2 in enumerate(second):
            overrides = {spec.parameter_name: float(v1)}
            if spec.second_parameter is not None:
                overrides[spec.second_parameter] = float(v2)
            params = scenario.params.replace(**overrides)
            key = (i if reads[0] else None, j if reads[1] else None)
            if key not in groups:
                groups[key] = ({}, _setup(params, FAMILIES))
            at_zero_rows, setup = groups[key]
            prepared.append(_prepare(params, FAMILIES, setup))
            points.append((v1, v2))
            shared.append(at_zero_rows)
    rows: list[dict] = []
    for (v1, v2), catalog in zip(points, _solve(prepared, FAMILIES, shared)):
        for eq, J, lead in catalog:
            row = {
                "parameter": spec.parameter_name,
                "value": float(v1),
                "family": eq.family,
                "N": eq.point.N, "T": eq.point.T, "I": eq.point.I,
                "E": eq.point.E, "M": eq.point.M,
                "residual": eq.residual,
            }
            if spec.second_parameter is not None:
                row["parameter2"] = spec.second_parameter
                row["value2"] = float(v2)
            if lead is not None:
                row["verdict"] = _eig_verdict(lead.real)
                row["maxReLambda"] = lead.real
                repro = _repro(eq, J)
                if repro is not None:
                    row["R0"] = repro.r0
                    row["R1"] = repro.r1
            rows.append(row)
    return rows


@dataclass(frozen=True)
class BifurcationResult:
    parameter_name: str
    critical_value: float
    bracketing_interval: tuple[float, float]
    crossing_eigenvalue: dict = field(default_factory=dict)
    equilibrium_family: str = ""


def _nearest(entries, point):
    """The first entry whose point is nearest ``point`` in the infinity
    norm, relative to 1 + its largest magnitude."""
    best = None
    best_dist = math.inf
    scale = 1.0 + max(map(abs, point))
    for entry in entries:
        dist = max(abs(x - y) for x, y in zip(entry[0], point)) / scale
        if dist < best_dist:
            best, best_dist = entry, dist
    return best


def run_bifurcate(
    scenario: Scenario,
    parameter_name: str,
    lo: float,
    hi: float,
    scan_points: int = 64,
    bracket_rel_width: float = 1e-6,
) -> list[BifurcationResult]:
    """Scan ``parameter_name`` over [lo, hi] at ``scan_points`` >= 2 values,
    bracket every sign change of max Re(lambda) per equilibrium family and
    bisect each bracket down to ``bracket_rel_width`` > 0 of the range, or
    until its ends are adjacent floats."""
    _check_grid(parameter_name, (lo, hi))
    if hi <= lo:
        raise DomainError(f"empty range [{lo}, {hi}]")
    _check_count("scan_points", scan_points)
    if not 2 <= scan_points <= _MAX_POINTS:
        raise DomainError(f"need 2 to {_MAX_POINTS} scan points, got {scan_points}")
    if not (math.isfinite(bracket_rel_width) and bracket_rel_width > 0):
        raise DomainError(
            f"bracket_rel_width must be finite and positive, got {bracket_rel_width}"
        )
    grid = [float(v) for v in np.linspace(lo, hi, scan_points)]
    width_target = bracket_rel_width * (hi - lo)
    # A scan over a tumor-only field is one group, its midpoints included:
    # every value takes the scenario's setup, and a tumor-free midpoint of
    # a d scan reuses the scan's T = 0 rows.  Each value of another scan is
    # a set of its own.
    group, setup = None, None
    if parameter_name in _TUMOR_ONLY:
        group, setup = {}, _setup(scenario.params, FAMILIES)

    def solve(values: list[float], families=FAMILIES) -> list[dict[str, list]]:
        """Per parameter value, each confirmed point of each of ``families``
        with its leading eigenvalue, from one batched solve."""
        found = [{fam: [] for fam in families} for _ in values]
        sets = [scenario.params.replace(**{parameter_name: v}) for v in values]
        prepared = [_prepare(pm, families, setup) for pm in sets]
        catalogs = _solve(prepared, families, [group] * len(values))
        for by_family, catalog in zip(found, catalogs):
            for eq, _, lead in catalog:
                if lead is not None:
                    by_family[eq.family].append((eq.point.as_tuple(), lead))
        return found

    values = list(dict.fromkeys(grid))
    solved = dict(zip(values, solve(values)))

    brackets = []
    for family in FAMILIES:
        for a0, b0 in zip(grid, grid[1:]):
            for start in solved[a0][family]:
                upper = _nearest(solved[b0][family], start[0])
                if upper is None:
                    continue  # family disappears mid-range; partial results
                fa, fb = start[1].real, upper[1].real
                if fa == 0.0 or fb == 0.0 or fa * fb > 0:
                    continue
                brackets.append((family, a0, b0, start, upper))

    results: list[BifurcationResult] = []
    for family, a, b, lower, upper in brackets:
        while b - a > width_target:
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break  # the ends are adjacent floats
            entry = _nearest(solve([mid], (family,))[0][family], lower[0])
            if entry is None:
                break
            if lower[1].real * entry[1].real <= 0:
                b, upper = mid, entry
            else:
                a, lower = mid, entry
        results.append(
            BifurcationResult(
                parameter_name=parameter_name,
                critical_value=0.5 * (a + b),
                bracketing_interval=(a, b),
                crossing_eigenvalue={
                    "at_lower": {"re": lower[1].real, "im": lower[1].imag},
                    "at_upper": {"re": upper[1].real, "im": upper[1].imag},
                },
                equilibrium_family=family,
            )
        )
    results.sort(key=lambda res: (res.equilibrium_family, res.critical_value))
    return results
