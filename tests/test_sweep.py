"""Parameter sweeps and bifurcation bracketing."""
import math

import numpy as np
import pytest

from bcdyn import (
    DomainError,
    SweepSpec,
    build_grid,
    classify,
    default_scenario,
    find_all,
    run_bifurcate,
    run_sweep,
)
from bcdyn.scenario import Scenario, ScenarioError
from bcdyn.sweep import sweep_to_csv

from conftest import random_params


def scenario_with(params):
    sc = default_scenario()
    return Scenario(
        params=params,
        initial_state=sc.initial_state,
        integration=sc.integration,
        sample_count=sc.sample_count,
        seed=sc.seed,
        label=sc.label,
    )


class TestGrid:
    def test_linear(self):
        assert build_grid(0.0, 1.0, 5) == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_log(self):
        grid = build_grid(0.1, 10.0, 3, "log")
        assert grid[1] == pytest.approx(1.0, rel=1e-12)

    def test_log_requires_positive(self):
        with pytest.raises(DomainError):
            build_grid(0.0, 1.0, 3, "log")

    def test_k_range_enforced(self):
        with pytest.raises(DomainError):
            SweepSpec(parameter_name="k", grid=(0.5, 1.2))

    def test_unknown_parameter(self):
        with pytest.raises(DomainError):
            SweepSpec(parameter_name="q", grid=(1.0,))


class TestSweep:
    def test_estrogen_column_closed_form(self):
        sc = default_scenario()
        spec = SweepSpec(parameter_name="k", grid=(0.0, 0.25, 0.5, 0.75, 1.0))
        rows = run_sweep(sc, spec)
        assert rows
        for row in rows:
            k = row["value"]
            assert row["E"] == sc.params.p * (1.0 - k) / sc.params.theta

    def test_monotone_in_k(self):
        """As endocrine blockade k rises, E* = p(1-k)/theta falls and the
        tumor-free N0 = (a1 - l1 E*(1-k))/b1 rises."""
        sc = default_scenario()
        spec = SweepSpec(parameter_name="k", grid=tuple(build_grid(0.0, 1.0, 9)))
        rows = run_sweep(sc, spec)
        tf = [(r["value"], r["E"], r["N"]) for r in rows if r["family"] == "tumor_free"]
        assert len(tf) >= 2
        for (k1, e1, n1), (k2, e2, n2) in zip(tf, tf[1:]):
            assert k2 > k1
            assert e2 <= e1
            assert n2 >= n1

    def test_row_order_grid_major(self):
        sc = default_scenario()
        spec = SweepSpec(parameter_name="d", grid=(0.5, 0.8, 1.1))
        rows = run_sweep(sc, spec)
        values = [r["value"] for r in rows]
        assert values == sorted(values)

    def test_csv_schema(self):
        sc = default_scenario()
        spec = SweepSpec(parameter_name="d", grid=(0.5, 0.8))
        text = sweep_to_csv(run_sweep(sc, spec), spec)
        header = text.split("\n", 1)[0]
        assert header == (
            "parameter,value,family,N,T,I,E,M,residual,verdict,maxReLambda,R0,R1"
        )

    def test_two_parameter_sweep(self):
        sc = default_scenario()
        spec = SweepSpec(
            parameter_name="d", grid=(0.5, 0.8),
            second_parameter="v_M", second_grid=(0.1, 0.3),
        )
        rows = run_sweep(sc, spec)
        assert {(r["value"], r["value2"]) for r in rows} == {
            (0.5, 0.1), (0.5, 0.3), (0.8, 0.1), (0.8, 0.3)
        }
        header = sweep_to_csv(rows, spec).split("\n", 1)[0]
        assert header.startswith("parameter,value,parameter2,value2,family")


def point_by_point_csv(scenario, spec):
    """sweep_to_csv of rows built from find_all and classify at each grid
    point in turn: the reference for the batched sweep."""
    rows = []
    second = spec.second_grid if spec.second_parameter else (None,)
    for v1 in spec.grid:
        for v2 in second:
            overrides = {spec.parameter_name: float(v1)}
            if spec.second_parameter is not None:
                overrides[spec.second_parameter] = float(v2)
            params = scenario.params.replace(**overrides)
            for eq in find_all(params):
                row = {
                    "parameter": spec.parameter_name, "value": float(v1), "family": eq.family,
                    "N": eq.point.N, "T": eq.point.T, "I": eq.point.I,
                    "E": eq.point.E, "M": eq.point.M, "residual": eq.residual,
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
    return sweep_to_csv(rows, spec)


class TestBatchedSweep:
    """run_sweep solves its grid in one batch; its bytes must equal the
    point-by-point find_all + classify rows."""

    def scenarios(self):
        return [default_scenario()] + [scenario_with(random_params(seed)) for seed in (3, 17)]

    def test_two_parameter_k_d_grid(self):
        spec = SweepSpec("k", build_grid(0.0, 1.0, 6), "d", build_grid(0.05, 5.0, 7))
        for sc in self.scenarios():
            assert sweep_to_csv(run_sweep(sc, spec), spec) == point_by_point_csv(sc, spec)

    @pytest.mark.parametrize(
        "spec",
        [
            # epsilon = 0 drops the octic's degree; at 1e-155 its leading
            # coefficient is subnormal, so the reversed polynomial is
            # rooted; k = 1 makes E* = 0.
            SweepSpec("epsilon", (0.0, 1e-300, 1e-155, 0.4), "k", (0.0, 0.6, 1.0)),
            # g1 = 0 roots P instead of the eliminated polynomial; s = 0
            # seeds I = 0.
            SweepSpec("g1", (0.0, 0.3), "s", (0.0, 0.4)),
            SweepSpec("k", (0.2, 1.0), "epsilon", (0.0, 0.5)),
        ],
    )
    def test_grids_mixing_polynomial_degrees(self, spec):
        for sc in self.scenarios():
            assert sweep_to_csv(run_sweep(sc, spec), spec) == point_by_point_csv(sc, spec)

    def test_one_validation_per_grid_point(self, monkeypatch):
        import bcdyn.model

        calls = []
        validate = bcdyn.model.validate_params

        def counted(params):
            calls.append(params)
            return validate(params)

        monkeypatch.setattr(bcdyn.model, "validate_params", counted)
        spec = SweepSpec("k", build_grid(0.0, 1.0, 4), "d", build_grid(0.5, 1.5, 3))
        run_sweep(default_scenario(), spec)
        assert len(calls) == 12

    def test_stacked_eigenvalue_calls_do_not_grow_with_the_grid(self, monkeypatch):
        counts = []
        eigvals = np.linalg.eigvals

        def counted(a):
            counts[-1] += 1
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        for count in (8, 32):
            counts.append(0)
            run_sweep(default_scenario(), SweepSpec("d", build_grid(0.5, 1.5, count)))
        assert counts[0] == counts[1] > 0

    def test_invalid_grid_point_names_the_point(self):
        spec = SweepSpec("d", (0.5, 0.0, 1.0))
        with pytest.raises(ScenarioError) as exc:
            run_sweep(default_scenario(), spec)
        assert str(exc.value) == (
            "sweep point {'d': 0.0} invalid: invalid parameters: d must be positive"
        )


class TestBifurcate:
    def planted_instance(self):
        """A total-blockade instance whose tumor-free point flips exactly at
        d* = (g1 I0 + m_d)/a2, with the immune/drug block kept stable."""
        from bcdyn import classify
        from bcdyn.equilibria import tumor_free

        for seed in range(80):
            pm = random_params(seed, k=1.0)
            cands = [eq for eq in tumor_free(pm) if eq.confirmed]
            if not cands:
                continue
            eq = cands[0]
            d_star = (pm.g1 * eq.point.I + pm.m_d) / pm.a2
            lo, hi = 0.5 * d_star, 1.5 * d_star
            rep_lo = classify(
                [e for e in tumor_free(pm.replace(d=lo)) if e.confirmed][0],
                pm.replace(d=lo),
            )
            rep_hi = classify(
                [e for e in tumor_free(pm.replace(d=hi)) if e.confirmed][0],
                pm.replace(d=hi),
            )
            if rep_lo.verdict == "stable" and rep_hi.verdict == "unstable":
                return pm, d_star, lo, hi
        pytest.fail("no planted instance found in the seed range")

    def test_no_flip_empty(self):
        pm, d_star, lo, hi = self.planted_instance()
        results = run_bifurcate(
            scenario_with(pm), "d", 0.1 * d_star, 0.4 * d_star, scan_points=8
        )
        assert [r for r in results if r.equilibrium_family == "tumor_free"] == []

    def test_planted_flip(self):
        pm, d_star, lo, hi = self.planted_instance()
        results = run_bifurcate(scenario_with(pm), "d", lo, hi, scan_points=32)
        tf = [r for r in results if r.equilibrium_family == "tumor_free"]
        assert len(tf) == 1
        res = tf[0]
        a, b = res.bracketing_interval
        assert b - a < 1e-6 * (hi - lo)
        assert res.crossing_eigenvalue["at_lower"]["re"] * \
            res.crossing_eigenvalue["at_upper"]["re"] < 0
        assert res.critical_value == pytest.approx(d_star, abs=1e-6 * (hi - lo) + 1e-9)

    def test_doubling_invariance(self):
        pm, d_star, lo, hi = self.planted_instance()
        res1 = run_bifurcate(scenario_with(pm), "d", lo, hi, scan_points=32)
        res2 = run_bifurcate(scenario_with(pm), "d", lo, hi, scan_points=64)
        c1 = [r.critical_value for r in res1 if r.equilibrium_family == "tumor_free"]
        c2 = [r.critical_value for r in res2 if r.equilibrium_family == "tumor_free"]
        assert len(c1) == len(c2) == 1
        assert abs(c1[0] - c2[0]) < 1e-6 * (hi - lo)

    def test_one_solve_per_parameter_value(self, monkeypatch):
        import bcdyn.sweep

        solved = []
        solve = bcdyn.sweep._solve

        def counted(bound_sets):
            solved.extend(params.d for params, _ in bound_sets)
            return solve(bound_sets)

        monkeypatch.setattr(bcdyn.sweep, "_solve", counted)
        results = run_bifurcate(default_scenario(), "d", 0.05, 5.0, scan_points=64)
        assert results
        assert len(solved) == len(set(solved))
        assert len(solved) >= 64

    def test_range_validation(self):
        pm, d_star, lo, hi = self.planted_instance()
        with pytest.raises(DomainError):
            run_bifurcate(scenario_with(pm), "d", hi, lo)
