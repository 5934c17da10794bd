"""Treatment-parameter sweeps and bifurcation localization.

A sweep solves its whole grid (1-D or 2-D) in one batched call of the
equilibrium pipeline: every grid point is validated once and the
eliminated polynomials of all points are rooted together.  Each row then
takes its verdict, max Re(lambda), R0 and R1 from one stacked spectrum of
the Jacobians at all confirmed points, with the same bits as
:func:`classify` gives them (no branch continuation).

The bifurcation scanner brackets sign changes of the leading eigenvalue
real part per family and bisects each bracket.  It solves its scan grid
in one batch and each bisection midpoint as a batch of one, and reads only
eigenvalues: no characteristic polynomial, Hurwitz minors or theorem rules.
A memo local to each :func:`run_bifurcate` call keeps, per parameter
value, the confirmed points of every family with their leading
eigenvalues, so a value is solved at most once.  Brackets of different
families or branches in one scan interval share their midpoints, and the
bisection carries the entries at both bracket ends, so the reported
eigenvalues need no further solve.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .equilibria import FAMILIES, _find_all_batch
from .model import PARAM_NAMES, DomainError, _bind
from .scenario import Scenario, ScenarioError
from .stability import _eig_verdict, _repro, _spectra

# perfbench/tracer.py wraps these names on this module, so they stay
# importable here; the sweeps call the batched pipeline instead.
from .equilibria import find_all  # noqa: F401
from .stability import classify  # noqa: F401

__all__ = [
    "SweepSpec",
    "BifurcationResult",
    "build_grid",
    "run_sweep",
    "sweep_to_csv",
    "run_bifurcate",
    "bifurcation_to_json",
]

_VALID_RANGES = {"k": (0.0, 1.0)}  # everything else: positive reals


@dataclass(frozen=True)
class SweepSpec:
    parameter_name: str
    grid: tuple[float, ...]
    second_parameter: str | None = None
    second_grid: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _check_grid(self.parameter_name, self.grid)
        if self.second_parameter is not None:
            _check_grid(self.second_parameter, self.second_grid)


def _check_grid(name: str, grid: tuple[float, ...]) -> None:
    if name not in PARAM_NAMES:
        raise DomainError(f"unknown parameter {name!r}")
    if not grid:
        raise DomainError(f"empty grid for {name}")
    lo, hi = _VALID_RANGES.get(name, (0.0, math.inf))
    for v in grid:
        if not (lo <= v <= hi) or not math.isfinite(v):
            raise DomainError(f"grid value {v} outside the validity range of {name}")


def build_grid(lo: float, hi: float, count: int, spacing: str = "linear") -> tuple[float, ...]:
    if count < 1 or hi < lo:
        raise DomainError(f"bad grid request [{lo}, {hi}] x {count}")
    if count == 1:
        return (lo,)
    if spacing == "log":
        if lo <= 0:
            raise DomainError("log spacing requires a positive lower bound")
        return tuple(np.exp(np.linspace(math.log(lo), math.log(hi), count)))
    return tuple(np.linspace(lo, hi, count))


def _solve(bound_sets) -> list[list[tuple]]:
    """Per ``(params, model._bind(params))`` of ``bound_sets``, its catalog
    as (equilibrium, spectrum) pairs, the spectrum None for unconfirmed
    points.  All sets go through one batched solve, and the Jacobians at all
    confirmed points through one stacked eigenvalue call."""
    solved = _find_all_batch(bound_sets)
    Js = [
        jac(*eq.point.as_tuple())
        for (_, (_, jac)), catalog in zip(bound_sets, solved)
        for eq in catalog
        if eq.confirmed
    ]
    spectra = iter(_spectra(np.array(Js)))
    return [[(eq, next(spectra) if eq.confirmed else None) for eq in catalog] for catalog in solved]


def run_sweep(scenario: Scenario, spec: SweepSpec) -> list[dict]:
    """One row per grid point per equilibrium, grid-major then family."""
    second = spec.second_grid if spec.second_parameter else (None,)
    points, bound_sets = [], []
    for v1 in spec.grid:
        for v2 in second:
            overrides = {spec.parameter_name: float(v1)}
            if spec.second_parameter is not None:
                overrides[spec.second_parameter] = float(v2)
            try:
                params = scenario.params.replace(**overrides)
                bound_sets.append((params, _bind(params)))
            except DomainError as exc:
                raise ScenarioError(f"sweep point {overrides} invalid: {exc}") from exc
            points.append((v1, v2))
    rows: list[dict] = []
    for (v1, v2), (params, _), catalog in zip(points, bound_sets, _solve(bound_sets)):
        for eq, spectrum in catalog:
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
            if spectrum is not None:
                row["verdict"] = _eig_verdict(spectrum.max_real)
                row["maxReLambda"] = spectrum.max_real
                repro = _repro(eq, params)
                if repro is not None:
                    row["R0"] = repro.r0
                    row["R1"] = repro.r1
            rows.append(row)
    return rows


def sweep_to_csv(rows: list[dict], spec: SweepSpec) -> str:
    cols = ["parameter", "value"]
    if spec.second_parameter is not None:
        cols += ["parameter2", "value2"]
    cols += ["family", "N", "T", "I", "E", "M", "residual", "verdict", "maxReLambda", "R0", "R1"]
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for col in cols:
            value = row.get(col)
            if value is None:
                cells.append("na")
            elif isinstance(value, float):
                cells.append(f"{value:.17g}")
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BifurcationResult:
    parameter_name: str
    critical_value: float
    bracketing_interval: tuple[float, float]
    crossing_eigenvalue: dict = field(default_factory=dict)
    equilibrium_family: str = ""


def _nearest(entries, point):
    best = None
    best_dist = math.inf
    for entry in entries:
        dist = float(np.max(np.abs(entry[0] - point))) / (1.0 + float(np.max(np.abs(point))))
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
    """Scan ``parameter_name`` over [lo, hi], bracket every sign change of
    max Re(lambda) per equilibrium family and bisect each bracket."""
    _check_grid(parameter_name, (lo, hi))
    if hi <= lo:
        raise DomainError(f"empty range [{lo}, {hi}]")
    grid = [float(v) for v in np.linspace(lo, hi, scan_points)]
    width_target = bracket_rel_width * (hi - lo)
    solved: dict[float, dict[str, list]] = {}

    def solve(values: list[float]) -> None:
        """Solve new parameter values in one batch and keep, per value and
        family, each confirmed point with its leading eigenvalue."""
        params_list = [scenario.params.replace(**{parameter_name: v}) for v in values]
        catalogs = _solve([(params, _bind(params)) for params in params_list])
        for v, catalog in zip(values, catalogs):
            solved[v] = {fam: [] for fam in FAMILIES}
            for eq, spectrum in catalog:
                if spectrum is not None:
                    lead = max(spectrum.roots, key=lambda z: z.real)
                    solved[v][eq.family].append((eq.point.as_array(), lead))

    def branches(v: float) -> dict[str, list]:
        """Confirmed equilibria at ``v`` by family, each as (point, leading
        eigenvalue); a bisection midpoint is solved as a batch of one."""
        if v not in solved:
            solve([v])
        return solved[v]

    solve(list(dict.fromkeys(grid)))

    results: list[BifurcationResult] = []
    for family in FAMILIES:
        for a0, b0 in zip(grid, grid[1:]):
            for start in branches(a0)[family]:
                lower, upper = start, _nearest(branches(b0)[family], start[0])
                if upper is None:
                    continue  # family disappears mid-range; partial results
                fa, fb = start[1].real, upper[1].real
                if fa == 0.0 or fb == 0.0 or fa * fb > 0:
                    continue
                a, b = a0, b0
                while b - a > width_target:
                    mid = 0.5 * (a + b)
                    entry = _nearest(branches(mid)[family], lower[0])
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


def bifurcation_to_json(results: list[BifurcationResult]) -> str:
    payload = [
        {
            "parameter_name": res.parameter_name,
            "critical_value": res.critical_value,
            "bracketing_interval": list(res.bracketing_interval),
            "crossing_eigenvalue": res.crossing_eigenvalue,
            "equilibrium_family": res.equilibrium_family,
        }
        for res in results
    ]
    return json.dumps(payload, indent=2) + "\n"
