"""Command-line front end.

Every subcommand is a thin shell over library calls: load the scenario,
compute everything in memory, then write files.  Nothing touches disk
before the computation succeeds, so a failing run leaves no partial
output.  Exit codes: 0 success, 2 input or validation error, 3 runtime
numeric failure, 1 validation-suite failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .equilibria import catalog_to_csv, catalog_to_json, find_all
from .integrator import (
    PositivityError,
    StepUnderflowError,
    integrate,
    trajectory_to_csv,
)
from .model import DomainError
from .numerics import NumericsError
from .plot import svg_line_chart
from .scenario import Scenario, ScenarioError, default_scenario, load_scenario
from .stability import classify, report_to_json, summary_csv_header, summary_csv_row
from .sweep import SweepSpec, bifurcation_to_json, build_grid, run_bifurcate, run_sweep, sweep_to_csv
from .validation import run_validation

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_SUITE_FAILURE = 1
_EXIT_INPUT = 2
_EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcdyn",
        description="Simulate and analyze the five-compartment tumor model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        name: str, summary: str, fmt: bool = False, svg: bool = False
    ) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--scenario", type=str, default=None, help="scenario JSON path")
        sp.add_argument("--out", type=str, default=".", help="output directory")
        if fmt:
            sp.add_argument("--format", choices=("csv", "json", "both"), default="both")
        if svg:
            sp.add_argument("--svg", action="store_true", help="also write SVG charts")
        return sp

    common("simulate", "integrate the scenario and write the trajectory", fmt=True, svg=True)
    common("equilibria", "solve and catalog every equilibrium family", fmt=True)
    common("stability", "classify every cataloged equilibrium", fmt=True)

    sp = common("sweep", "re-analyze the model over a parameter grid", svg=True)
    sp.add_argument("--parameter", required=True, help="parameter to sweep")
    sp.add_argument("--min", dest="lo", type=float, required=True)
    sp.add_argument("--max", dest="hi", type=float, required=True)
    sp.add_argument("--count", type=int, default=11)
    sp.add_argument("--spacing", choices=("linear", "log"), default="linear")
    sp.add_argument("--parameter2", default=None, help="optional second sweep parameter")
    sp.add_argument("--min2", type=float, default=None)
    sp.add_argument("--max2", type=float, default=None)
    sp.add_argument("--count2", type=int, default=11)

    sp = common("bifurcate", "bracket stability flips along one parameter")
    sp.add_argument("--parameter", required=True)
    sp.add_argument("--min", dest="lo", type=float, required=True)
    sp.add_argument("--max", dest="hi", type=float, required=True)
    sp.add_argument("--scan-points", type=int, default=64)

    sp = sub.add_parser("validate", help="run the cross-module invariant suites")
    sp.add_argument("--seed", type=int, default=0)
    return parser


def _load(args: argparse.Namespace) -> Scenario:
    return default_scenario() if args.scenario is None else load_scenario(args.scenario)


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    traj = integrate(
        scenario.initial_state, scenario.params, scenario.integration,
        sample_count=scenario.sample_count,
    )
    files: list[tuple[str, str]] = []
    if args.format in ("csv", "both"):
        files.append((f"{scenario.label}_trajectory.csv", trajectory_to_csv(traj)))
    if args.format in ("json", "both"):
        payload = {
            "label": scenario.label,
            "t": list(traj.times),
            "states": {
                name: [float(v) for v in traj.states[:, i]]
                for i, name in enumerate("NTIEM")
            },
            "accepted_steps": traj.accepted_steps,
            "rejected_steps": traj.rejected_steps,
            "stiff_switch_time": traj.stiff_switch_time,
        }
        files.append((f"{scenario.label}_trajectory.json", json.dumps(payload, indent=2) + "\n"))
    if args.svg:
        series = [
            (name, list(traj.times), [float(v) for v in traj.states[:, i]])
            for i, name in enumerate("NTIEM")
        ]
        files.append(
            (f"{scenario.label}_trajectory.svg",
             svg_line_chart(series, f"{scenario.label}: state vs time", "t", "level"))
        )
    for name, text in files:
        _write(Path(args.out), name, text)
    return _EXIT_OK


def _cmd_equilibria(args: argparse.Namespace) -> int:
    scenario = _load(args)
    catalog = find_all(scenario.params)
    files = []
    if args.format in ("json", "both"):
        files.append((f"{scenario.label}_equilibria.json", catalog_to_json(catalog)))
    if args.format in ("csv", "both"):
        files.append((f"{scenario.label}_equilibria.csv", catalog_to_csv(catalog)))
    for name, text in files:
        _write(Path(args.out), name, text)
    return _EXIT_OK


def _cmd_stability(args: argparse.Namespace) -> int:
    scenario = _load(args)
    reports = [
        classify(eq, scenario.params)
        for eq in find_all(scenario.params)
        if eq.confirmed
    ]
    files = []
    if args.format in ("json", "both"):
        body = "[\n" + ",\n".join(report_to_json(rep).rstrip("\n") for rep in reports) + "\n]\n"
        if not reports:
            body = "[]\n"
        files.append((f"{scenario.label}_stability.json", body))
    if args.format in ("csv", "both"):
        lines = [summary_csv_header()] + [summary_csv_row(rep) for rep in reports]
        files.append((f"{scenario.label}_stability.csv", "\n".join(lines) + "\n"))
    for name, text in files:
        _write(Path(args.out), name, text)
    return _EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load(args)
    second = args.parameter2
    if second is not None and (args.min2 is None or args.max2 is None):
        raise ScenarioError("--parameter2 requires --min2 and --max2")
    spec = SweepSpec(
        parameter_name=args.parameter,
        grid=build_grid(args.lo, args.hi, args.count, args.spacing),
        second_parameter=second,
        second_grid=(
            build_grid(args.min2, args.max2, args.count2, args.spacing)
            if second is not None else ()
        ),
    )
    rows = run_sweep(scenario, spec)
    files = [(f"{scenario.label}_sweep.csv", sweep_to_csv(rows, spec))]
    if args.svg:
        files.extend(_sweep_charts(scenario.label, rows))
    for name, text in files:
        _write(Path(args.out), name, text)
    return _EXIT_OK


def _sweep_charts(label: str, rows: list[dict]) -> list[tuple[str, str]]:
    """Leading-eigenvalue and reproduction-number curves per family."""
    by_family: dict[str, list[dict]] = {}
    for row in rows:
        by_family.setdefault(row["family"], []).append(row)
    eig_series = []
    repro_series = []
    for family, frows in sorted(by_family.items()):
        pts = [(r["value"], r["maxReLambda"]) for r in frows if "maxReLambda" in r]
        if pts:
            eig_series.append((family, [p[0] for p in pts], [p[1] for p in pts]))
        for key in ("R0", "R1"):
            pts = [
                (r["value"], r[key]) for r in frows
                if isinstance(r.get(key), float) and r[key] == r[key]
            ]
            if pts:
                repro_series.append(
                    (f"{family} {key}", [p[0] for p in pts], [p[1] for p in pts])
                )
    out = []
    param = rows[0]["parameter"] if rows else "parameter"
    if eig_series:
        out.append(
            (f"{label}_sweep.svg",
             svg_line_chart(eig_series, f"{label}: max Re(lambda) vs {param}", param))
        )
    if repro_series:
        out.append(
            (f"{label}_sweep_repro.svg",
             svg_line_chart(repro_series, f"{label}: reproduction numbers vs {param}", param))
        )
    return out


def _cmd_bifurcate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    results = run_bifurcate(
        scenario, args.parameter, args.lo, args.hi, scan_points=args.scan_points
    )
    _write(Path(args.out), f"{scenario.label}_bifurcation.json", bifurcation_to_json(results))
    return _EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    report, passed = run_validation(args.seed)
    sys.stdout.write(report)
    return _EXIT_OK if passed else _EXIT_SUITE_FAILURE


_COMMANDS = {
    "simulate": _cmd_simulate,
    "equilibria": _cmd_equilibria,
    "stability": _cmd_stability,
    "sweep": _cmd_sweep,
    "bifurcate": _cmd_bifurcate,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ScenarioError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except (PositivityError, StepUnderflowError, NumericsError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
