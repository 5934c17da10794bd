"""Command-line front end.

Every subcommand is a thin shell over library calls: load the scenario,
compute everything in memory and return the files as (name, text) pairs
laid out by :mod:`bcdyn.formats`.  :func:`main` writes them only after
the command succeeds, so a failing run leaves no partial output.  Exit
codes: 0 success, 2 input or validation error or an output that cannot
be written, 3 runtime numeric failure, 1 validation-suite failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .equilibria import find_all
from .formats import (
    bifurcation_to_json, catalog_to_csv, catalog_to_json, stability_to_csv, stability_to_json,
    sweep_to_csv, sweep_to_svg, trajectory_to_csv, trajectory_to_json, trajectory_to_svg,
)
from .integrator import PositivityError, StepUnderflowError, integrate
from .model import DomainError
from .numerics import NumericsError
from .scenario import Scenario, ScenarioError, default_scenario, load_scenario
from .stability import classify
from .sweep import SweepSpec, build_grid, run_bifurcate, run_sweep
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
    sp.add_argument("--count2", type=int, default=None, help="default 11")

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


def _chosen(args: argparse.Namespace, stem: str, to_csv, to_json) -> list[tuple[str, str]]:
    """The ``stem.csv`` and ``stem.json`` files that ``--format`` selects;
    only their writers run."""
    return [
        (f"{stem}.{ext}", write())
        for ext, write in (("csv", to_csv), ("json", to_json))
        if args.format in (ext, "both")
    ]


def _cmd_simulate(args: argparse.Namespace) -> list[tuple[str, str]]:
    scenario = _load(args)
    traj = integrate(
        scenario.initial_state, scenario.params, scenario.integration,
        sample_count=scenario.sample_count,
    )
    stem = f"{scenario.label}_trajectory"
    files = _chosen(
        args, stem, lambda: trajectory_to_csv(traj),
        lambda: trajectory_to_json(traj, scenario.label),
    )
    if args.svg:
        files.append((f"{stem}.svg", trajectory_to_svg(traj, scenario.label)))
    return files


def _cmd_equilibria(args: argparse.Namespace) -> list[tuple[str, str]]:
    scenario = _load(args)
    catalog = find_all(scenario.params)
    return _chosen(
        args, f"{scenario.label}_equilibria",
        lambda: catalog_to_csv(catalog), lambda: catalog_to_json(catalog),
    )


def _cmd_stability(args: argparse.Namespace) -> list[tuple[str, str]]:
    scenario = _load(args)
    reports = [
        classify(eq, scenario.params)
        for eq in find_all(scenario.params)
        if eq.confirmed
    ]
    return _chosen(
        args, f"{scenario.label}_stability",
        lambda: stability_to_csv(reports), lambda: stability_to_json(reports),
    )


def _cmd_sweep(args: argparse.Namespace) -> list[tuple[str, str]]:
    second = args.parameter2
    if args.svg and second is not None:
        # The charts plot against the first parameter only.
        raise ScenarioError("--svg draws one-parameter sweeps only")
    scenario = _load(args)
    if second is not None and (args.min2 is None or args.max2 is None):
        raise ScenarioError("--parameter2 requires --min2 and --max2")
    if second is None and (args.min2 is not None or args.max2 is not None):
        raise ScenarioError("--min2 and --max2 require --parameter2")
    if second is None and args.count2 is not None:
        raise ScenarioError("--count2 requires --parameter2")
    spec = SweepSpec(
        parameter_name=args.parameter,
        grid=build_grid(args.lo, args.hi, args.count, args.spacing),
        second_parameter=second,
        second_grid=(
            build_grid(
                args.min2, args.max2, 11 if args.count2 is None else args.count2, args.spacing
            )
            if second is not None else ()
        ),
    )
    rows = run_sweep(scenario, spec)
    files = [(f"{scenario.label}_sweep.csv", sweep_to_csv(rows, spec))]
    if args.svg:
        files.extend(sweep_to_svg(rows, scenario.label))
    return files


def _cmd_bifurcate(args: argparse.Namespace) -> list[tuple[str, str]]:
    scenario = _load(args)
    results = run_bifurcate(
        scenario, args.parameter, args.lo, args.hi, scan_points=args.scan_points
    )
    return [(f"{scenario.label}_bifurcation.json", bifurcation_to_json(results))]


_COMMANDS = {
    "simulate": _cmd_simulate,
    "equilibria": _cmd_equilibria,
    "stability": _cmd_stability,
    "sweep": _cmd_sweep,
    "bifurcate": _cmd_bifurcate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            report, passed = run_validation(args.seed)
            sys.stdout.write(report)
            return _EXIT_OK if passed else _EXIT_SUITE_FAILURE
        files = _COMMANDS[args.command](args)
    except (ScenarioError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except (PositivityError, StepUnderflowError, NumericsError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files:
            with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
