"""The text of every file the command-line front end writes, one rule per
format.  CSV: a float cell is ``{:.17g}`` (``nan``, ``inf``, ``-inf`` when
not finite), a boolean ``true``/``false``, a missing value ``na``.  JSON:
``indent=2`` plus a trailing newline, and strict RFC 8259, so a non-finite
float is the string ``"nan"``, ``"inf"`` or ``"-inf"``.  SVG: the chart
series of a trajectory or a sweep, drawn by :func:`bcdyn.plot.svg_line_chart`.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict

from .equilibria import Equilibrium
from .integrator import Trajectory
from .model import STATE_NAMES, SystemState
from .plot import svg_line_chart
from .stability import StabilityReport
from .sweep import BifurcationResult, SweepSpec

__all__ = [
    "catalog_to_json", "catalog_to_csv", "report_to_json", "stability_to_json",
    "stability_to_csv", "sweep_to_csv", "sweep_to_svg", "bifurcation_to_json",
    "trajectory_to_csv", "trajectory_to_json", "trajectory_to_svg",
]


def _cell(value) -> str:
    if value is None:
        return "na"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)] + [",".join(_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _strict(value):
    """``value`` with every non-finite float, at any depth, as a string."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _json(payload) -> str:
    return json.dumps(_strict(payload), indent=2, allow_nan=False) + "\n"


def _point(point: SystemState) -> dict[str, float]:
    return dict(zip(STATE_NAMES, point.as_tuple()))


def catalog_to_json(catalog: list[Equilibrium]) -> str:
    """Equilibrium catalog as a JSON array."""
    return _json([
        {
            "family": eq.family,
            "point": _point(eq.point),
            "residual": eq.residual,
            "confirmed": eq.confirmed,
            "flags": eq.existence_flags,
            "flag_values": eq.flag_values,
            "provenance": eq.provenance,
        }
        for eq in catalog
    ])


def catalog_to_csv(catalog: list[Equilibrium]) -> str:
    """Equilibrium catalog as CSV: one row per equilibrium."""
    return _csv(
        ["family", *STATE_NAMES, "residual", "confirmed", "provenance"],
        ([eq.family, *eq.point.as_tuple(), eq.residual, eq.confirmed, eq.provenance]
         for eq in catalog),
    )


def report_to_json(report: StabilityReport) -> str:
    """One stability report as a JSON object."""
    eq, rn = report.equilibrium, report.repro
    return _json({
        "family": eq.family,
        "point": _point(eq.point),
        "residual": eq.residual,
        "verdict": report.verdict,
        "max_real_eigenvalue": report.max_real,
        "char_coeffs": report.char_coeffs,
        "eigenvalues": [{"re": z.real, "im": z.imag} for z in report.eigenvalues],
        "hurwitz": {
            "minors": report.hurwitz.minors,
            "all_positive": report.hurwitz.all_positive,
            "verdict": report.hurwitz.verdict,
        },
        "reproduction_numbers": None if rn is None else {
            "R0": rn.r0, "R1": rn.r1, "R_IM": rn.r_im, "R0_defined": rn.r0_defined,
            "R1_defined": rn.r1_defined, "R_IM_defined": rn.r_im_defined,
        },
        "theorem_checks": {
            name: {"holds": c.holds, "lhs": c.lhs, "rhs": c.rhs}
            for name, c in report.theorem_checks.items()
        },
        "agreement": report.agreement,
    })


def stability_to_json(reports: list[StabilityReport]) -> str:
    """Stability reports as a JSON array whose objects start at column 0."""
    if not reports:
        return "[]\n"
    return "[\n" + ",\n".join(report_to_json(rep).rstrip("\n") for rep in reports) + "\n]\n"


def stability_to_csv(reports: list[StabilityReport]) -> str:
    """One summary row per stability report; R0, R1 and R_IM are nan for
    the families without reproduction numbers."""
    return _csv(
        ["family", "verdict", "maxReLambda", "R0", "R1", "R_IM",
         "eigen_hurwitz_agree", "theorem_eigen_agree", "theta_in_spectrum"],
        ([rep.equilibrium.family, rep.verdict, rep.max_real,
          *((math.nan,) * 3 if rep.repro is None else
            (rep.repro.r0, rep.repro.r1, rep.repro.r_im)),
          *map(rep.agreement.get, ("eigen_hurwitz", "theorem_eigen", "theta_in_spectrum"))]
         for rep in reports),
    )


def sweep_to_csv(rows: list[dict], spec: SweepSpec) -> str:
    """Sweep rows as CSV; a column a row lacks is ``na``."""
    cols = ["parameter", "value"]
    if spec.second_parameter is not None:
        cols += ["parameter2", "value2"]
    cols += ["family", *STATE_NAMES, "residual", "verdict", "maxReLambda", "R0", "R1"]
    return _csv(cols, ([row.get(col) for col in cols] for row in rows))


def _series(name: str, rows: list[dict], key: str) -> list:
    """The (name, values, ``key`` values) series of the rows with a finite
    ``key``, or none."""
    pts = [(r["value"], r[key]) for r in rows
           if isinstance(r.get(key), float) and r[key] == r[key]]
    return [(name, [x for x, _ in pts], [y for _, y in pts])] if pts else []


def sweep_to_svg(rows: list[dict], label: str) -> list[tuple[str, str]]:
    """Leading-eigenvalue and reproduction-number curves per family, as
    (file name, SVG text) pairs; a chart with no points is left out."""
    by_family: dict[str, list[dict]] = {}
    for row in rows:
        by_family.setdefault(row["family"], []).append(row)
    families = sorted(by_family.items())
    charts = (
        ("sweep", "max Re(lambda)",
         [s for fam, frows in families for s in _series(fam, frows, "maxReLambda")]),
        ("sweep_repro", "reproduction numbers",
         [s for fam, frows in families for key in ("R0", "R1")
          for s in _series(f"{fam} {key}", frows, key)]),
    )
    param = rows[0]["parameter"] if rows else "parameter"
    return [
        (f"{label}_{stem}.svg", svg_line_chart(series, f"{label}: {what} vs {param}", param))
        for stem, what, series in charts if series
    ]


def bifurcation_to_json(results: list[BifurcationResult]) -> str:
    """Bifurcation brackets as a JSON array of their fields."""
    return _json([asdict(res) for res in results])


def trajectory_to_csv(traj: Trajectory) -> str:
    """Trajectory as CSV text: header ``t,N,T,I,E,M``, 17 significant
    digits, LF line endings."""
    return _csv(["t", *STATE_NAMES], ((t, *row) for t, row in zip(traj.times, traj.states)))


def _columns(traj: Trajectory) -> list[tuple[str, list[float]]]:
    return [(name, traj.states[:, i].tolist()) for i, name in enumerate(STATE_NAMES)]


def trajectory_to_json(traj: Trajectory, label: str) -> str:
    """Trajectory samples by component, with the step counts and the time
    the run switched to the stiff method (null if it never did)."""
    return _json({
        "label": label,
        "t": traj.times.tolist(),
        "states": dict(_columns(traj)),
        "accepted_steps": traj.accepted_steps,
        "rejected_steps": traj.rejected_steps,
        "stiff_switch_time": traj.stiff_switch_time,
    })


def trajectory_to_svg(traj: Trajectory, label: str) -> str:
    """All five components against time in one chart."""
    series = [(name, traj.times.tolist(), values) for name, values in _columns(traj)]
    return svg_line_chart(series, f"{label}: state vs time", "t", "level")
