"""Self-test of the benchmark: its checks reject corrupted results, inputs
follow the seed, and the tracer sees each equilibrium finder once per
find_all.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import dataclasses
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import bcdyn as bc  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_catalog_check_rejects_corrupted_points():
    params = bc.default_scenario().params
    catalog, reports = workloads.catalog_call(bc, params)
    assert workloads.check_catalog(bc, params, (catalog, reports)) is None

    i = next(i for i, eq in enumerate(catalog) if eq.confirmed)
    eq = catalog[i]

    def with_point(**change):
        moved = dataclasses.replace(eq, point=dataclasses.replace(eq.point, **change))
        return catalog[:i] + [moved] + catalog[i + 1:], reports

    assert "residual" in workloads.check_catalog(bc, params, with_point(N=eq.point.N + 1e-3))
    off_e = with_point(E=float(np.nextafter(eq.point.E, 1.0)))
    assert "estrogen_level" in workloads.check_catalog(bc, params, off_e)
    assert "reports" in workloads.check_catalog(bc, params, (catalog, reports[1:]))


def test_scan_checks_reject_misplaced_crossings():
    grid = (0.5, 1.5)
    rows = [
        {"family": "tumor_free", "value": 0.5, "verdict": "stable"},
        {"family": "tumor_free", "value": 1.5, "verdict": "unstable"},
    ]
    assert workloads.check_sweep(rows, grid, 1.0) is None
    flipped = [dict(rows[0], verdict="unstable"), rows[1]]
    assert workloads.check_sweep(flipped, grid, 1.0) is not None

    hit = bc.BifurcationResult("d", 1.0, (0.99, 1.01), {}, "tumor_free")
    assert workloads.check_bifurcation([hit], 1.0) is None
    beside = dataclasses.replace(hit, bracketing_interval=(1.01, 1.02))
    assert workloads.check_bifurcation([beside], 1.0) is not None
    other = dataclasses.replace(hit, equilibrium_family="dead2")
    assert workloads.check_bifurcation([other], 1.0) is not None


def test_trajectory_check_rejects_corrupted_samples():
    sc = bc.default_scenario()
    cfg = bc.IntegrationConfig(t0=0.0, t_end=10.0)
    traj = bc.integrate(sc.initial_state, sc.params, cfg, 51)
    assert workloads.check_trajectory(bc, sc.params, sc.initial_state, cfg, traj) is None

    states = traj.states.copy()
    states[-1, 3] *= 1.0 + 1e-5
    bad = dataclasses.replace(traj, states=states)
    assert "estrogen" in workloads.check_trajectory(bc, sc.params, sc.initial_state, cfg, bad)

    states = traj.states.copy()
    states[5, 0] = -1e-6
    bad = dataclasses.replace(traj, states=states, positivity_violations=(-1e-6, 0, 0, 0, 0))
    assert "floor" in workloads.check_trajectory(bc, sc.params, sc.initial_state, cfg, bad)


def test_inputs_follow_the_seed():
    for name in ("catalog", "stiff"):
        wl = workloads.WORKLOADS[name]
        first, again, other = (wl.make_inputs(bc, seed)[:16] for seed in (7, 7, 8))
        assert repr(first) == repr(again)
        assert repr(first) != repr(other)


def test_find_all_traces_each_finder_once():
    original = bc.equilibria.coexisting
    with tracer.Tracer() as tr:
        bc.find_all(bc.default_scenario().params)
    assert bc.equilibria.coexisting is original
    assert not tr.absent
    spans = tr.span_totals()
    for name in ("find_all", "tumor_free", "dead1", "dead2", "coexisting"):
        assert spans[f"equilibria.{name}"][0] == 1, name
    metrics = tracer.layer_metrics(tr, 0)
    assert metrics["equilibria.find_all_calls"][0] == 1
    assert metrics["model.validate_calls"][0] > 0


def test_missing_function_reads_as_absent(monkeypatch):
    gone = ("bcdyn.equilibria", "no_such_finder", "equilibria.gone", None)
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + (gone,))
    with tracer.Tracer() as tr:
        bc.find_all(bc.default_scenario().params)
    assert tr.absent == ["bcdyn.equilibria.no_such_finder"]


def test_run_without_sources_fails_without_a_result(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", "catalog", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
