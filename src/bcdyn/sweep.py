"""Treatment-parameter sweeps and bifurcation localization.

A sweep re-solves the equilibrium catalog at every grid point (no branch
continuation); the bifurcation scanner brackets sign changes of the leading
eigenvalue real part per family and bisects each bracket.

Each :func:`run_bifurcate` call solves a parameter value at most once: a
memo local to the call keeps, per value, the confirmed points of every
family with their leading eigenvalues.  Brackets of different families or
branches in one scan interval share their midpoints, and the bisection
carries the entries at both bracket ends, so the reported eigenvalues need
no further solve.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .equilibria import FAMILIES, find_all
from .model import PARAM_NAMES, DomainError
from .scenario import Scenario, ScenarioError
from .stability import classify

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


def run_sweep(scenario: Scenario, spec: SweepSpec) -> list[dict]:
    """One row per grid point per equilibrium, grid-major then family."""
    rows: list[dict] = []
    second = spec.second_grid if spec.second_parameter else (None,)
    for v1 in spec.grid:
        for v2 in second:
            overrides = {spec.parameter_name: float(v1)}
            if spec.second_parameter is not None:
                overrides[spec.second_parameter] = float(v2)
            try:
                params = scenario.params.replace(**overrides)
                catalog = find_all(params)
            except DomainError as exc:
                raise ScenarioError(f"sweep point {overrides} invalid: {exc}") from exc
            for eq in catalog:
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
                if eq.confirmed:
                    rep = classify(eq, params)
                    row["verdict"] = rep.verdict
                    row["maxReLambda"] = rep.max_real
                    if rep.repro is not None:
                        row["R0"] = rep.repro.r0
                        row["R1"] = rep.repro.r1
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

    def branches(v: float) -> dict[str, list]:
        """Confirmed equilibria at ``v`` by family, each as (point, leading
        eigenvalue); solved once per distinct value."""
        if v not in solved:
            params = scenario.params.replace(**{parameter_name: v})
            solved[v] = {fam: [] for fam in FAMILIES}
            for eq in find_all(params):
                if eq.confirmed:
                    roots = classify(eq, params).eigenvalues.roots
                    lead = max(roots, key=lambda z: z.real)
                    solved[v][eq.family].append((eq.point.as_array(), lead))
        return solved[v]

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
