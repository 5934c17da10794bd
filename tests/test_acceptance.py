"""Acceptance gate: the twelve release criteria, one printed verdict each.

Each test prints a single ``PASS criterion N`` / ``FAIL criterion N`` line
on the real terminal (outside pytest capture) so a full run shows the
criterion scoreboard.  Expensive artifacts (the 1000 positivity runs and
the 200-draw equilibrium catalogs) are computed once per session and
shared.
"""
import json
import math
import os

import numpy as np
import pytest

from bcdyn import (
    IntegrationConfig,
    SystemState,
    classify,
    default_scenario,
    integrate,
    jacobian,
    rhs,
)
from bcdyn.cli import main as cli_main
from bcdyn.equilibria import estrogen_level, find_all, tumor_free
from bcdyn.formats import trajectory_to_csv
from bcdyn.integrator import default_horizon, settle
from bcdyn.model import make_rhs
from bcdyn.numerics import poly_roots, routh_hurwitz
from bcdyn.scenario import Scenario
from bcdyn.sweep import run_bifurcate
from bcdyn.validation import draw_params, draw_state

from conftest import block_roots
from test_model import oracle_rhs


def verdict_line(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def positivity_runs():
    """1000 seeded simulations over [0, 100]; returns per-run worst
    negative excursion and the post-burn-in N ceiling data."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    ceiling_violation = 0.0
    for _ in range(1000):
        pm = draw_params(rng)
        x0 = draw_state(rng)
        traj = integrate(
            x0, pm, IntegrationConfig(t0=0.0, t_end=100.0), sample_count=101
        )
        worst = min(worst, min(traj.positivity_violations))
        burn_in = 20.0 / pm.a1
        cap = pm.a1 / pm.b1 * (1.0 + 1e-6)
        mask = traj.times >= burn_in
        if np.any(mask):
            excess = float(np.max(traj.states[mask, 0])) - cap
            ceiling_violation = max(ceiling_violation, excess)
    return worst, ceiling_violation


@pytest.fixture(scope="session")
def catalogs_200():
    """Equilibrium catalogs for 200 seeded parameter draws."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(200):
        pm = draw_params(rng)
        out.append((pm, find_all(pm)))
    return out


@pytest.fixture(scope="session")
def classified_200(catalogs_200):
    out = []
    for pm, catalog in catalogs_200:
        for eq in catalog:
            if eq.confirmed:
                out.append((pm, eq, classify(eq, pm)))
    return out


def test_criterion_1_vector_field(capsys):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        pm = draw_params(rng)
        st = draw_state(rng)
        got = rhs(st, pm)
        want = oracle_rhs(st, pm)
        for gi, wi in zip(got, want):
            worst = max(worst, abs(gi - wi) / max(1.0, abs(wi)))
        origin = rhs(SystemState(0, 0, 0, 0, 0), pm)
        if origin != (0.0, 0.0, pm.s, pm.p * (1.0 - pm.k), pm.v_M):
            verdict_line(capsys, 1, False, "origin image mismatch")
    verdict_line(
        capsys, 1, worst <= 1e-14,
        f"rhs vs term-by-term oracle, 1000 draws, worst rel err {worst:.3e}",
    )


def test_criterion_2_jacobian(capsys):
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(1000):
        pm = draw_params(rng)
        st = draw_state(rng)
        f = make_rhs(pm)
        J = jacobian(st, pm)
        x = st.as_array()
        for j in range(5):
            h = 1e-6 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (np.array(f(*xp)) - np.array(f(*xm))) / (2.0 * h)
            err = np.max(np.abs(fd - J[:, j]) / np.maximum(1.0, np.abs(J[:, j])))
            worst = max(worst, float(err))
    verdict_line(
        capsys, 2, worst < 1e-6,
        f"analytic Jacobian vs finite differences, 1000 draws, worst {worst:.3e}",
    )


def test_criterion_3_positivity(capsys, positivity_runs):
    worst, _ = positivity_runs
    verdict_line(
        capsys, 3, worst >= -1e-9,
        f"1000 simulations over [0, 100], worst excursion {worst:.3e}",
    )


def test_criterion_4_comparison_bound(capsys, positivity_runs):
    _, ceiling_violation = positivity_runs
    verdict_line(
        capsys, 4, ceiling_violation <= 0.0,
        f"N <= a1/b1 (1 + 1e-6) after burn-in, worst excess {ceiling_violation:.3e}",
    )


def test_criterion_5_estrogen_closed_form(capsys):
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        pm = draw_params(rng)
        x0 = draw_state(rng)
        e_star = estrogen_level(pm)
        t_end = 10.0 / pm.theta
        traj = integrate(
            x0, pm, IntegrationConfig(t0=0.0, t_end=t_end), sample_count=50
        )
        exact = e_star + (x0.E - e_star) * np.exp(-pm.theta * traj.times)
        scale = max(x0.E, e_star, 1e-3)
        worst = max(worst, float(np.max(np.abs(traj.states[:, 3] - exact))) / scale)
    verdict_line(
        capsys, 5, worst < 1e-6,
        f"E(t) closed form, 100 scenarios x 50 times, worst rel err {worst:.3e}",
    )


def test_criterion_6_equilibrium_residuals(capsys, catalogs_200):
    worst = 0.0
    confirmed_total = 0
    problems = []
    for pm, catalog in catalogs_200:
        e_star = estrogen_level(pm)
        confirmed = [eq for eq in catalog if eq.confirmed]
        confirmed_total += len(confirmed)
        if len(confirmed) > 7:
            problems.append(f"{len(confirmed)} confirmed points in one draw")
        for eq in catalog:
            if eq.point.E != e_star:
                problems.append("estrogen component not bit-identical")
        for eq in confirmed:
            worst = max(worst, eq.residual)
    ok = worst < 1e-10 and not problems and confirmed_total > 0
    verdict_line(
        capsys, 6, ok,
        f"200 draws, {confirmed_total} confirmed equilibria, worst residual "
        f"{worst:.3e}" + (f", problems: {problems[:2]}" if problems else ""),
    )


def test_criterion_7_spectrum_structure(capsys, classified_200):
    worst_theta = 0.0
    worst_union = 0.0
    t0_count = 0
    for pm, eq, rep in classified_200:
        worst_theta = max(
            worst_theta, min(abs(z - (-pm.theta)) for z in rep.eigenvalues)
        )
        if eq.point.T == 0.0:
            t0_count += 1
            expected = block_roots(rep.jacobian) + [complex(-pm.theta)]
            for z in rep.eigenvalues:
                nearest = min(expected, key=lambda w: abs(w - z))
                worst_union = max(worst_union, abs(nearest - z))
                expected.remove(nearest)
    ok = worst_theta < 1e-8 and worst_union < 1e-8 and t0_count > 0
    verdict_line(
        capsys, 7, ok,
        f"-theta gap {worst_theta:.3e}, block-union gap {worst_union:.3e} "
        f"({t0_count} T=0 equilibria)",
    )


def test_criterion_8_dual_path_stability(capsys, classified_200):
    eq_checked = eq_disagreements = 0
    for pm, eq, rep in classified_200:
        if rep.verdict == "inconclusive" or rep.hurwitz.verdict == "inconclusive":
            continue
        eq_checked += 1
        if rep.verdict != rep.hurwitz.verdict:
            eq_disagreements += 1
    rng = np.random.default_rng(88)
    poly_checked = poly_disagreements = 0
    for _ in range(1000):
        degree = int(rng.integers(1, 6))
        coeffs = rng.uniform(-2.0, 2.0, size=degree + 1)
        while abs(coeffs[0]) < 0.1:
            coeffs[0] = rng.uniform(-2.0, 2.0)
        p = tuple(coeffs)
        hv = routh_hurwitz(p)
        max_re = max(z.real for z in poly_roots(p))
        if hv.verdict == "inconclusive" or abs(max_re) < 1e-9:
            continue
        poly_checked += 1
        if hv.verdict != ("stable" if max_re < 0 else "unstable"):
            poly_disagreements += 1
    ok = eq_disagreements == 0 and poly_disagreements == 0 and eq_checked > 0
    verdict_line(
        capsys, 8, ok,
        f"Hurwitz vs eigenvalues: {eq_checked} equilibria + {poly_checked} "
        f"polynomials, {eq_disagreements + poly_disagreements} disagreements",
    )


def test_criterion_9_theory_vs_simulation(capsys, classified_200):
    stable = [(pm, rep) for pm, eq, rep in classified_200 if rep.verdict == "stable"]
    unstable = [(pm, rep) for pm, eq, rep in classified_200 if rep.verdict == "unstable"]
    families = {rep.equilibrium.family for _, rep in stable[:40]}
    rng = np.random.default_rng(99)
    settled_ok = 0
    for pm, rep in stable[:20]:
        point = rep.equilibrium.point.as_array()
        scale = 1.0 + float(np.max(np.abs(point)))
        horizon = min(default_horizon(pm), 40.0 / max(-rep.max_real, 1e-3))
        returned = True
        for _ in range(3):
            direction = rng.standard_normal(5)
            direction /= float(np.max(np.abs(direction)))
            x0 = np.maximum(point + 1e-3 * scale * direction, 0.0)
            settled, limit = settle(
                SystemState.from_sequence(x0), pm, horizon, horizon / 10.0, eps=1e-5
            )
            gap = float(np.max(np.abs(limit.as_array() - point))) / scale
            if not settled or gap > 1e-4:
                returned = False
        settled_ok += returned
    departed_ok = 0
    for pm, rep in unstable[:5]:
        point = rep.equilibrium.point.as_array()
        scale = 1.0 + float(np.max(np.abs(point)))
        horizon = min(default_horizon(pm), 60.0 / max(rep.max_real, 1e-2))
        departed = False
        for trial in range(6):
            direction = rng.standard_normal(5)
            direction /= float(np.max(np.abs(direction)))
            x0 = np.maximum(point + 1e-3 * scale * direction, 0.0)
            traj = integrate(
                SystemState.from_sequence(x0), pm,
                IntegrationConfig(t0=0.0, t_end=horizon), sample_count=201,
            )
            dev = np.max(np.abs(traj.states - point), axis=1) / scale
            if float(np.max(dev)) > 1e-2:
                departed = True
                break
        departed_ok += departed
    ok = settled_ok == 20 and departed_ok == min(5, len(unstable))
    verdict_line(
        capsys, 9, ok,
        f"{settled_ok}/20 stable returned (families {sorted(families)}), "
        f"{departed_ok}/{min(5, len(unstable))} unstable departed",
    )


def test_criterion_10_theorem_concordance(capsys):
    rng = np.random.default_rng(1010)
    derived_checked = derived_disagreements = 0
    printed_checked = printed_agreements = 0
    while derived_checked < 200:
        pm = draw_params(rng, k=1.0)
        for eq in tumor_free(pm):
            if not eq.confirmed:
                continue
            rep = classify(eq, pm)
            if rep.verdict == "inconclusive":
                continue
            checks = rep.theorem_checks
            derived_stable = all(
                checks[name].holds
                for name in (
                    "derived_nt_trace_neg", "derived_nt_det_pos",
                    "derived_im_trace_neg", "derived_im_det_pos",
                )
            )
            derived_checked += 1
            if derived_stable != (rep.verdict == "stable"):
                derived_disagreements += 1
            printed_claim = checks["R0_lt_1"].holds and checks["R1_lt_1"].holds
            printed_checked += 1
            printed_agreements += printed_claim == (rep.verdict == "stable")
    rate = printed_agreements / printed_checked
    verdict_line(
        capsys, 10, derived_disagreements == 0,
        f"derived block conditions vs eigenvalues: {derived_checked} checked, "
        f"{derived_disagreements} disagreements; printed condition (R0<1 and R1<1) "
        f"agreement rate {rate:.3f} (informational)",
    )


def test_criterion_11_bifurcation(capsys):
    sc = default_scenario()
    rng = np.random.default_rng(1111)
    instance = None
    for _ in range(120):
        pm = draw_params(rng, k=1.0)
        cands = [eq for eq in tumor_free(pm) if eq.confirmed]
        if not cands:
            continue
        eq = cands[0]
        d_star = (pm.g1 * eq.point.I + pm.m_d) / pm.a2
        lo, hi = 0.5 * d_star, 1.5 * d_star
        pm_lo, pm_hi = pm.replace(d=lo), pm.replace(d=hi)
        tf_lo = [e for e in tumor_free(pm_lo) if e.confirmed]
        tf_hi = [e for e in tumor_free(pm_hi) if e.confirmed]
        if not tf_lo or not tf_hi:
            continue
        if (
            classify(tf_lo[0], pm_lo).verdict == "stable"
            and classify(tf_hi[0], pm_hi).verdict == "unstable"
        ):
            instance = (pm, d_star, lo, hi)
            break
    assert instance is not None, "no planted instance found"
    pm, d_star, lo, hi = instance
    scenario = Scenario(
        params=pm, initial_state=sc.initial_state, integration=sc.integration,
        sample_count=sc.sample_count, seed=sc.seed, label="planted",
    )
    ok = True
    details = []
    criticals = []
    for scan in (32, 64):
        results = run_bifurcate(scenario, "d", lo, hi, scan_points=scan)
        tf = [r for r in results if r.equilibrium_family == "tumor_free"]
        if len(tf) != 1:
            ok = False
            details.append(f"scan {scan}: {len(tf)} tumor-free crossings")
            continue
        res = tf[0]
        a, b = res.bracketing_interval
        signs = (
            res.crossing_eigenvalue["at_lower"]["re"]
            * res.crossing_eigenvalue["at_upper"]["re"]
        )
        if b - a >= 1e-6 * (hi - lo) or signs >= 0:
            ok = False
            details.append(f"scan {scan}: bracket width {(b - a):.3e}, sign product {signs:.3e}")
        criticals.append(res.critical_value)
    if len(criticals) == 2 and abs(criticals[0] - criticals[1]) >= 1e-6 * (hi - lo):
        ok = False
        details.append("doubling the scan density moved the critical value")
    if criticals and abs(criticals[0] - d_star) > 1e-5 * d_star:
        ok = False
        details.append(f"critical {criticals[0]:.8g} vs closed form {d_star:.8g}")
    verdict_line(
        capsys, 11, ok,
        f"planted flip at d* = {d_star:.6g} localized to "
        f"{criticals[0] if criticals else math.nan:.8g}"
        + ("; " + "; ".join(details) if details else ""),
    )


def test_criterion_12_determinism_and_formats(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        for cmd in (
            ["simulate"],
            ["equilibria"],
            ["stability"],
            ["sweep", "--parameter", "k", "--min", "0", "--max", "1", "--count", "5"],
        ):
            assert cli_main(cmd + ["--out", str(out)]) == 0
    mismatched = [
        name for name in sorted(os.listdir(a))
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]
    headers = {
        "default_trajectory.csv": "t,N,T,I,E,M",
        "default_equilibria.csv": "family,N,T,I,E,M,residual,confirmed,provenance",
        "default_stability.csv": (
            "family,verdict,maxReLambda,R0,R1,R_IM,"
            "eigen_hurwitz_agree,theorem_eigen_agree,theta_in_spectrum"
        ),
        "default_sweep.csv": (
            "parameter,value,family,N,T,I,E,M,residual,verdict,maxReLambda,R0,R1"
        ),
    }
    bad_schema = []
    for name, header in headers.items():
        text = (a / name).read_text(encoding="utf-8")
        if text.split("\n", 1)[0] != header or "\r" in text:
            bad_schema.append(name)
    json_ok = True
    for name in ("default_trajectory.json", "default_equilibria.json",
                 "default_stability.json"):
        try:
            json.loads((a / name).read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            json_ok = False
            bad_schema.append(name)
    ok = not mismatched and not bad_schema and json_ok
    verdict_line(
        capsys, 12, ok,
        "byte-identical repeat runs, schemas verified"
        + (f"; mismatched {mismatched} bad {bad_schema}" if not ok else ""),
    )
