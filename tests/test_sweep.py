"""Parameter sweeps and bifurcation bracketing."""
import hashlib
import itertools
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from bcdyn import (
    DomainError,
    SweepSpec,
    SystemState,
    build_grid,
    classify,
    default_scenario,
    find_all,
    jacobian,
    run_bifurcate,
    run_sweep,
)
from bcdyn.equilibria import (
    _TUMOR_ONLY,
    FAMILIES,
    _catalog,
    _find_batch,
    _prepare,
    estrogen_level,
    tumor_free,
)
from bcdyn.formats import bifurcation_to_json, sweep_to_csv
from bcdyn.model import _MAX_POINTS, _NONNEGATIVE_OK, PARAM_NAMES, STATE_NAMES, _bind
from bcdyn.numerics import NumericsError, _leading, _root_set
from bcdyn.scenario import Scenario
from bcdyn.validation import draw_params

from conftest import bounded, random_params, refuse


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

    # exp(log(10.0)) is 10.000000000000002, so the last point lay above the
    # bound given, and the CSV reported values beyond --max.
    @pytest.mark.parametrize(
        "lo, hi, count",
        [(0.1, 10.0, 3), (0.3, 7.0, 11), (1e-300, 1e300, 50), (2.5, 2.5, 4), (1, 1000, 4),
         (1.0, math.nextafter(1.0, 2.0), 5)],
    )
    def test_log_endpoints_are_the_bounds(self, lo, hi, count):
        grid = build_grid(lo, hi, count, "log")
        assert (grid[0], grid[-1]) == (lo, hi)
        assert all(a <= b for a, b in zip(grid, grid[1:]))

    def test_log_requires_positive(self):
        with pytest.raises(DomainError):
            build_grid(0.0, 1.0, 3, "log")

    def test_k_range_enforced(self):
        with pytest.raises(DomainError):
            SweepSpec(parameter_name="k", grid=(0.5, 1.2))

    @pytest.mark.parametrize("count", [1, 3])
    def test_unknown_spacing_is_rejected(self, count):
        with pytest.raises(DomainError, match="unknown grid spacing 'lgo'"):
            build_grid(0.1, 10.0, count, "lgo")

    def test_unknown_parameter(self):
        with pytest.raises(DomainError):
            SweepSpec(parameter_name="q", grid=(1.0,))

    # The second grid's value overwrote the first at every point, so the
    # rows labelled k = 0.1 carried the results of k = 0.5.
    def test_second_parameter_must_differ(self):
        with pytest.raises(DomainError, match="^cannot sweep k against itself$"):
            SweepSpec("k", (0.1, 0.9), "k", (0.5,))

    # A count that fit in memory only as a float was passed on to linspace.
    def test_count_is_capped_before_linspace(self, monkeypatch):
        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(DomainError, match=f"1 to {_MAX_POINTS} points"):
            build_grid(0.0, 1.0, _MAX_POINTS + 1)

    @pytest.mark.parametrize(
        "grid, second_grid",
        [((0.5,) * (_MAX_POINTS + 1), ()), ((0.5,) * 1001, (0.5,) * 1000)],
        ids=["one-grid", "product"],
    )
    def test_grid_points_are_capped(self, grid, second_grid):
        with pytest.raises(DomainError, match=f"^a sweep takes at most {_MAX_POINTS} grid points$"):
            SweepSpec("k", grid, "d" if second_grid else None, second_grid)

    # The orphan grid was ignored and the sweep ran over the first alone.
    @pytest.mark.parametrize(
        "grid, second_grid", [((0.1, 0.2), (0.5, 0.6, 0.7)), ((0.5,) * 1001, (0.5,) * 1000)]
    )
    def test_second_grid_needs_a_second_parameter(self, grid, second_grid):
        with pytest.raises(DomainError, match="^a second grid needs a second parameter$"):
            SweepSpec("k", grid, None, second_grid)

    # A fractional count reached linspace, which raised a bare TypeError.
    @pytest.mark.parametrize("count", [2.5, True, "3"])
    def test_count_must_be_an_integer(self, count):
        with pytest.raises(DomainError, match="^count must be an integer, got "):
            build_grid(0.0, 1.0, count)

    def test_grid_at_the_cap_is_accepted(self):
        assert len(SweepSpec("k", (0.5,) * 1000, "d", (0.5,) * 1000).grid) == 1000

    # numpy's linspace warned on these spans and returned NaN grid values.
    @pytest.mark.parametrize(
        "lo, hi", [(0.0, math.inf), (-1e308, 1e308), (-math.inf, 0.0), (math.nan, 1.0)]
    )
    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_bounds_need_a_finite_span(self, lo, hi, spacing):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"grid bounds [{lo}, {hi}] must be finite with a finite span hi - lo"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                build_grid(lo, hi, 3, spacing)


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

    def test_grid_values_are_checked_by_check_grid_only(self, monkeypatch):
        """Each grid value is checked once, by _check_grid when the spec is
        built; a grid point's parameter set validates no field again."""
        import bcdyn.model
        import bcdyn.sweep

        scenario = default_scenario()
        checked, validated = [], []
        check, validate = bcdyn.sweep._check_grid, bcdyn.model.validate_params

        def counted_check(name, grid):
            checked.append((name, tuple(grid)))
            return check(name, grid)

        def counted_validate(params):
            validated.append(params)
            return validate(params)

        monkeypatch.setattr(bcdyn.sweep, "_check_grid", counted_check)
        monkeypatch.setattr(bcdyn.model, "validate_params", counted_validate)
        k_grid, d_grid = build_grid(0.0, 1.0, 4), build_grid(0.5, 1.5, 3)
        spec = SweepSpec("k", k_grid, "d", d_grid)
        assert checked == [("k", k_grid), ("d", d_grid)]
        run_sweep(scenario, spec)
        run_bifurcate(scenario, "d", 0.05, 5.0, scan_points=8)
        assert validated == []

    def test_stacked_eigenvalue_calls_do_not_grow_with_the_grid(self, monkeypatch):
        """Counted at numerics._eigvals, the one eigenvalue call of the
        companion stacks and of the stacked Jacobians."""
        import bcdyn.equilibria
        import bcdyn.numerics
        import bcdyn.sweep

        counts = []
        eigvals = bcdyn.numerics._eigvals

        def counted(a):
            counts[-1] += 1
            return eigvals(a)

        for module in (bcdyn.equilibria, bcdyn.sweep):
            monkeypatch.setattr(module, "_eigvals", counted)
        for count in (8, 32):
            counts.append(0)
            run_sweep(default_scenario(), SweepSpec("d", build_grid(0.5, 1.5, count)))
        assert counts[0] == counts[1] > 0

    def test_overflowing_polynomial_raises_numerics_error(self):
        spec = SweepSpec("d", (1.0, 1e200))
        with pytest.raises(NumericsError, match="^dead2 polynomial in T overflows$"):
            run_sweep(default_scenario(), spec)

    def test_overflowing_companion_raises_numerics_error(self):
        """At d = 1e154 the coexisting octic is finite but its monic
        companion row is not; numpy's LinAlgError used to escape."""
        spec = SweepSpec("d", (1.0, 1e154))
        message = "^coexisting polynomial in T overflows its companion matrix$"
        with pytest.raises(NumericsError, match=message):
            run_sweep(default_scenario(), spec)

    def test_non_finite_jacobian_raises_numerics_error(self):
        """An infinite entry is refused before the stacked eigenvalue call,
        where numpy's wrapper used to raise LinAlgError.  The entry is the
        E diagonal, which no polish reads, so the points stay confirmed."""
        import bcdyn.sweep

        params = default_scenario().params
        f, jac = _bind(params)

        def overflowing(*state):
            rows = [list(row) for row in jac(*state)]
            rows[3][3] = -math.inf
            return rows

        assert any(eq.confirmed for eq in find_all(params))
        with pytest.raises(NumericsError, match="^non-finite Jacobian entry$"):
            bcdyn.sweep._solve([(params, (f, overflowing), _prepare(params, FAMILIES)[2])])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_in_a_later_jacobian_raises(self, monkeypatch, bad):
        """Only the last Jacobian of the stack has the bad entry, its E row's
        last column (which no polish reads); the stack is refused before
        the eigenvalue call all the same."""
        import bcdyn.sweep

        params = default_scenario().params
        f, jac = _bind(params)
        setup = _prepare(params, FAMILIES)[2]
        last = max(eq.point.T for eq in find_all(params) if eq.confirmed)

        def bad_at_last(*state):
            rows = [list(row) for row in jac(*state)]
            if state[1] == last:
                rows[3][4] = bad
            return rows

        monkeypatch.setattr(bcdyn.sweep, "_eigvals", refuse)
        prepared = [(params, (f, jac), setup), (params, (f, bad_at_last), setup)]
        with pytest.raises(NumericsError, match="^non-finite Jacobian entry$"):
            bcdyn.sweep._solve(prepared)

    def test_stack_holds_the_bits_of_each_jacobian(self, monkeypatch):
        """The (B, 5, 5) stack handed to the eigenvalue call is the array of
        the confirmed points' Jacobian rows, in catalog order, bit for bit."""
        import bcdyn.sweep

        stacks, solved = [], []
        eigvals, solve = bcdyn.sweep._eigvals, bcdyn.sweep._solve

        def recorded_eigvals(a):
            stacks.append(a)
            return eigvals(a)

        def recorded_solve(*args):
            solved.append(solve(*args))
            return solved[-1]

        monkeypatch.setattr(bcdyn.sweep, "_eigvals", recorded_eigvals)
        monkeypatch.setattr(bcdyn.sweep, "_solve", recorded_solve)
        run_sweep(default_scenario(), SweepSpec("k", build_grid(0.0, 1.0, 3), "d", (0.5, 2.0)))
        (stack,), (catalogs,) = stacks, solved
        want = np.array([J for catalog in catalogs for _, J, _ in catalog if J is not None])
        assert stack.dtype == want.dtype and stack.shape == want.shape == (len(want), 5, 5)
        assert stack.flags.c_contiguous and stack.tobytes() == want.tobytes()

    def test_sweep_without_a_confirmed_point_calls_no_eigenvalues(self, monkeypatch):
        """At k = 1 and g1 = 1.5e308, g1*I*T is nan at T = 0, so the T = 0
        points have nan residuals, and below d = m_d/a2 there is no T > 0
        point: every row is unconfirmed and no eigenvalue is asked for."""
        import bcdyn.sweep

        monkeypatch.setattr(bcdyn.sweep, "_eigvals", refuse)
        params = default_scenario().params.replace(k=1.0, g1=1.5e308, p_M=0.2)
        rows = run_sweep(scenario_with(params), SweepSpec("d", (0.1, 0.2)))
        assert [(row["value"], row["family"]) for row in rows] == [
            (d, family) for d in (0.1, 0.2) for family in ("tumor_free", "dead1")
        ]
        assert all(math.isnan(row["residual"]) and "verdict" not in row for row in rows)

    def test_invalid_grid_point_names_the_point(self):
        with pytest.raises(DomainError) as exc:
            SweepSpec("d", (0.5, 0.0, 1.0))
        assert str(exc.value) == "grid value 0.0 invalid: d must be positive"

    # The grid used to accept 0 for every field but k; such a spec failed
    # only inside run_sweep.
    @pytest.mark.parametrize(
        "name", sorted(set(PARAM_NAMES) - _NONNEGATIVE_OK - {"k"})
    )
    def test_zero_grid_value_of_a_positive_rate_is_rejected(self, name):
        message = f"grid value 0.0 invalid: {name} must be positive"
        with pytest.raises(DomainError, match=f"^{message}$"):
            SweepSpec(name, (0.0,))

    # The rule raised a bare OverflowError on an int beyond the float range.
    # Then the message printed all its digits, and past 4,300 digits str
    # raised ValueError; the rule names the value instead.
    def test_integer_beyond_the_float_range_is_rejected(self):
        rule = "must be finite, got an integer beyond the float range"
        for big in (10**400, 10**5000):
            with pytest.raises(DomainError) as exc:
                SweepSpec("d", (1.0, big))
            assert str(exc.value) == f"grid value invalid: d {rule}"
            with pytest.raises(DomainError) as exc:
                SweepSpec("d", (1.0,), "k", (0.5, big))
            assert str(exc.value) == f"grid value invalid: k {rule}"

    @pytest.mark.parametrize("value", [1.5, math.nan, "0.5", True])
    def test_second_grid_takes_the_same_rule(self, value):
        with pytest.raises(DomainError, match="^grid value .* invalid: k "):
            SweepSpec("d", (1.0,), "k", (0.5, value))


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

    def record_solves(self, monkeypatch, scenario, lo, hi, scan_points):
        """run_bifurcate with every ``_solve`` request recorded as
        {d: [families requested, in call order]}."""
        import bcdyn.sweep

        requests: dict[float, list[tuple[str, ...]]] = {}
        solve = bcdyn.sweep._solve

        def counted(prepared, families=FAMILIES, *rest):
            for params, *_ in prepared:
                requests.setdefault(params.d, []).append(families)
            return solve(prepared, families, *rest)

        monkeypatch.setattr(bcdyn.sweep, "_solve", counted)
        results = run_bifurcate(scenario, "d", lo, hi, scan_points=scan_points)
        grid = [float(v) for v in np.linspace(lo, hi, scan_points)]
        return results, requests, grid

    def test_one_solve_per_parameter_value(self, monkeypatch):
        """Each grid value is solved once for all families, and a midpoint
        once per bracket that reaches it, for that bracket's family only.
        The default scenario over [0.05, 5] brackets dead2 and coexisting
        in one interval around their shared crossing, so every midpoint is
        solved for dead2, then for coexisting."""
        results, requests, grid = self.record_solves(
            monkeypatch, default_scenario(), 0.05, 5.0, 64
        )
        assert {res.equilibrium_family for res in results} == {"dead2", "coexisting"}
        assert all(requests[v] == [FAMILIES] for v in grid)
        midpoints = [asked for v, asked in requests.items() if v not in grid]
        assert midpoints
        assert all(asked == [("dead2",), ("coexisting",)] for asked in midpoints)

    def test_coexisting_crossing_is_the_dead2_transcritical(self):
        """The coexisting branch leaves through N = 0 onto dead2 and the two
        exchange stability there: their brackets coincide."""
        results = run_bifurcate(default_scenario(), "d", 0.05, 5.0, scan_points=64)
        assert [res.equilibrium_family for res in results] == ["coexisting", "dead2"]
        coexisting, dead2 = results
        assert coexisting.bracketing_interval == dead2.bracketing_interval
        assert coexisting.critical_value == dead2.critical_value == 1.805299813406808

    def test_planted_midpoints_solve_tumor_free_only(self, monkeypatch):
        pm, d_star, lo, hi = self.planted_instance()
        results, requests, grid = self.record_solves(
            monkeypatch, scenario_with(pm), lo, hi, 32
        )
        assert [res.equilibrium_family for res in results] == ["tumor_free"]
        assert all(requests[v] == [FAMILIES] for v in grid)
        midpoints = [asked for v, asked in requests.items() if v not in grid]
        assert midpoints
        assert all(asked == [("tumor_free",)] for asked in midpoints)

    def test_range_validation(self):
        pm, d_star, lo, hi = self.planted_instance()
        with pytest.raises(DomainError):
            run_bifurcate(scenario_with(pm), "d", hi, lo)

    # Width 0 and below used to bisect forever; NaN skipped the bisection.
    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
    def test_bracket_width_must_be_positive(self, width):
        outcome = bounded(
            lambda: run_bifurcate(default_scenario(), "d", 0.05, 5.0, bracket_rel_width=width),
            seconds=2.0,
        )
        assert isinstance(outcome, DomainError)
        assert "bracket_rel_width" in str(outcome)

    # Fewer than two scan points used to return no crossings at all.
    @pytest.mark.parametrize("scan_points", [1, 0, -2])
    def test_needs_two_scan_points(self, scan_points):
        with pytest.raises(DomainError, match="scan points"):
            run_bifurcate(default_scenario(), "d", 0.05, 5.0, scan_points=scan_points)

    # A fractional count reached linspace, which raised a bare TypeError.
    @pytest.mark.parametrize("scan_points", [2.5, True])
    def test_scan_points_must_be_an_integer(self, scan_points):
        with pytest.raises(DomainError) as exc:
            run_bifurcate(default_scenario(), "d", 0.05, 5.0, scan_points=scan_points)
        assert str(exc.value) == f"scan_points must be an integer, got {scan_points!r}"

    # The scan grid and a batch of that many parameter sets were built.
    def test_scan_points_are_capped_before_the_scan(self, monkeypatch):
        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(DomainError) as exc:
            run_bifurcate(default_scenario(), "d", 0.05, 5.0, scan_points=_MAX_POINTS + 1)
        assert str(exc.value) == f"need 2 to {_MAX_POINTS} scan points, got {_MAX_POINTS + 1}"

    def test_bisection_stops_at_adjacent_floats(self):
        """A width below the float spacing bisects each bracket down to
        adjacent floats, and the crossings are those of the default width
        refined further."""
        sc = default_scenario()
        results = bounded(
            lambda: run_bifurcate(sc, "d", 0.05, 5.0, bracket_rel_width=1e-300), seconds=2.0
        )
        coarse = run_bifurcate(sc, "d", 0.05, 5.0)
        assert [r.equilibrium_family for r in results] == [
            r.equilibrium_family for r in coarse
        ]
        for res, ref in zip(results, coarse):
            a, b = res.bracketing_interval
            assert b == np.nextafter(a, math.inf)
            assert ref.bracketing_interval[0] <= a < b <= ref.bracketing_interval[1]


class TestSharedAtZeroRows:
    """One sweep or bifurcation call admits the T = 0 rows once per group of
    grid points, the points whose sets differ only in tumor-only fields,
    and hands them to every point of the group.  Its rows and results equal
    those of each value solved in its own call."""

    def scenarios(self):
        rng = np.random.default_rng(33)
        return [scenario_with(draw_params(rng, k=k)) for k in (1.0, None, 1.0, None)]

    @staticmethod
    def admitted(monkeypatch):
        """Every equilibria._admit call, recorded as (d, family)."""
        import bcdyn.equilibria

        calls = []
        admit = bcdyn.equilibria._admit

        def counted(params, bound, E, family, row, seeds):
            calls.append((params.d, family))
            return admit(params, bound, E, family, row, seeds)

        monkeypatch.setattr(bcdyn.equilibria, "_admit", counted)
        return calls

    @pytest.mark.parametrize("name", ["d", "b2", "g1", "m_d", "d1", "epsilon"])
    def test_sweep_over_a_tumor_only_field(self, name):
        for sc in self.scenarios():
            value = getattr(sc.params, name)
            grid = (0.0,) * (name in _NONNEGATIVE_OK) + (0.5 * value, value, 2.0 * value)
            alone = [row for v in grid for row in run_sweep(sc, SweepSpec(name, (v,)))]
            assert repr(run_sweep(sc, SweepSpec(name, grid))) == repr(alone)

    @staticmethod
    def axis(sc, name):
        """Distinct grid values of ``name``: k over [0, 1], d over [0.3, 3],
        l1 at both signs of zero and the scenario's value, and any other
        field at 0 (where valid), 0.5, 1 and 2 times the scenario's value."""
        if name == "k":
            return build_grid(0.0, 1.0, 4)
        if name == "d":
            return build_grid(0.3, 3.0, 5)
        value = getattr(sc.params, name)
        if name == "l1":
            return (-0.0, 0.0, value)
        return (0.0,) * (name in _NONNEGATIVE_OK) + (0.5 * value, value, 2.0 * value)

    def assert_grid_equals_points(self, first, second):
        for sc in self.scenarios():
            first_grid, second_grid = self.axis(sc, first), self.axis(sc, second)
            alone = [
                row
                for v1 in first_grid
                for v2 in second_grid
                for row in run_sweep(sc, SweepSpec(first, (v1,), second, (v2,)))
            ]
            spec = SweepSpec(first, first_grid, second, second_grid)
            assert repr(run_sweep(sc, spec)) == repr(alone)

    def test_two_parameter_k_d_grid(self):
        self.assert_grid_equals_points("k", "d")

    @pytest.mark.parametrize("first, second", [("d", "k"), ("d", "g1")])
    def test_two_parameter_grid_with_d_first(self, first, second):
        self.assert_grid_equals_points(first, second)

    @staticmethod
    def bifurcations_alone(monkeypatch, cases):
        """``run_bifurcate`` of each case with every ``_solve`` request split
        into one call per parameter set, which shares no T = 0 row."""
        import bcdyn.sweep

        solve = bcdyn.sweep._solve

        def alone(prepared, families=FAMILIES, *rest):
            return [solve([entry], families)[0] for entry in prepared]

        monkeypatch.setattr(bcdyn.sweep, "_solve", alone)
        return [run_bifurcate(sc, name, a, b, scan_points=16) for sc, name, a, b in cases]

    def test_bifurcation_over_d_and_g1(self, monkeypatch):
        """Every _solve request split into one call per parameter set gives
        the same crossings."""
        pm, d_star, lo, hi = TestBifurcate().planted_instance()
        cases = [(scenario_with(pm), "d", lo, hi)] + [
            (sc, name, 0.2 * getattr(sc.params, name), 3.0 * getattr(sc.params, name))
            for sc in self.scenarios()
            for name in ("d", "g1")
        ]
        shared = [run_bifurcate(sc, name, a, b, scan_points=16) for sc, name, a, b in cases]
        assert repr(shared) == repr(self.bifurcations_alone(monkeypatch, cases))
        crossed = {
            (name, res.equilibrium_family)
            for (_, name, _, _), results in zip(cases, shared)
            for res in results
        }
        assert {("d", "tumor_free"), ("g1", "tumor_free"), ("d", "dead2")} <= crossed

    def test_bifurcation_over_k(self, monkeypatch):
        """k is read by the T = 0 rows, so a k scan shares nothing, and its
        crossings equal those of every set solved alone."""
        rng = np.random.default_rng(33)
        draws = [draw_params(rng) for _ in range(9)]
        cases = [(scenario_with(pm), "k", 0.0, 1.0) for pm in draws[::4]]
        shared = [run_bifurcate(sc, name, a, b, scan_points=16) for sc, name, a, b in cases]
        assert repr(shared) == repr(self.bifurcations_alone(monkeypatch, cases))
        crossed = [[res.equilibrium_family for res in results] for results in shared]
        assert crossed == [["dead1"], ["coexisting"], ["dead2"]]

    @staticmethod
    def handed(monkeypatch):
        """Every sweep._find_batch call, recorded as the parameter set of
        each entry and the dict of T = 0 rows it was handed."""
        import bcdyn.sweep

        calls = []
        find_batch = bcdyn.sweep._find_batch

        def recorded(prepared, families, shared):
            calls.append(list(zip([entry[0] for entry in prepared], shared)))
            return find_batch(prepared, families, shared)

        monkeypatch.setattr(bcdyn.sweep, "_find_batch", recorded)
        return calls

    @pytest.mark.parametrize(
        "first, second",
        [("d", None), ("k", None), ("l1", None), ("k", "d"), ("d", "k"), ("d", "g1"), ("l1", "d")],
    )
    def test_groups_differ_only_in_tumor_only_fields(self, monkeypatch, first, second):
        """Two sets of a sweep get the same dict exactly when they differ
        only in tumor-only fields (compared by repr, so -0.0 is not 0.0)."""
        sc = default_scenario()
        calls = self.handed(monkeypatch)
        second_grid = self.axis(sc, second) if second else ()
        spec = SweepSpec(first, self.axis(sc, first), second, second_grid)
        run_sweep(sc, spec)
        (handed,) = calls
        assert len(handed) == len(spec.grid) * max(1, len(spec.second_grid))
        for (a, shared_a), (b, shared_b) in itertools.combinations(handed, 2):
            differ = {
                name for name in PARAM_NAMES if repr(getattr(a, name)) != repr(getattr(b, name))
            }
            assert (shared_a is not None and shared_a is shared_b) == (differ <= _TUMOR_ONLY)

    def test_bifurcation_groups(self, monkeypatch):
        """A d scan hands one dict to its grid and every midpoint; a k scan
        hands none."""
        pm, d_star, lo, hi = TestBifurcate().planted_instance()
        cases = [
            (scenario_with(pm), "d", lo, hi),
            (scenario_with(draw_params(np.random.default_rng(33))), "k", 0.0, 1.0),
        ]
        calls = self.handed(monkeypatch)
        for sc, name, lo, hi in cases:
            calls.clear()
            assert run_bifurcate(sc, name, lo, hi, scan_points=16)
            shared = [group for call in calls for _, group in call]
            assert len(calls) > 1
            if name == "d":
                assert shared[0] is not None and all(group is shared[0] for group in shared)
            else:
                assert shared == [None] * len(shared)

    def test_sweep_admits_each_t_zero_row_once(self, monkeypatch):
        calls = self.admitted(monkeypatch)
        run_sweep(default_scenario(), SweepSpec("d", build_grid(0.5, 1.5, 8)))
        assert Counter(family for _, family in calls) == {
            "tumor_free": 1, "dead1": 1, "dead2": 8, "coexisting": 8,
        }

    def test_d_g1_grid_admits_each_t_zero_row_once(self, monkeypatch):
        calls = self.admitted(monkeypatch)
        g1 = default_scenario().params.g1
        spec = SweepSpec("d", build_grid(0.5, 1.5, 4), "g1", (0.0, 0.5 * g1, g1))
        run_sweep(default_scenario(), spec)
        assert Counter(family for _, family in calls) == {
            "tumor_free": 1, "dead1": 1, "dead2": 12, "coexisting": 12,
        }

    def test_planted_midpoints_admit_no_row(self, monkeypatch):
        """Every midpoint of the planted bracket is a tumor-free solve, and
        the scan grid has admitted that row already."""
        pm, d_star, lo, hi = TestBifurcate().planted_instance()
        calls = self.admitted(monkeypatch)
        results = run_bifurcate(scenario_with(pm), "d", lo, hi, scan_points=32)
        assert [res.equilibrium_family for res in results] == ["tumor_free"]
        a, b = results[0].bracketing_interval
        assert b - a < 1e-6 * (hi - lo)
        grid = {float(v) for v in np.linspace(lo, hi, 32)}
        assert [call for call in calls if call[0] not in grid] == []
        assert Counter(family for _, family in calls) == {
            "tumor_free": 1, "dead1": 1, "dead2": 32, "coexisting": 32,
        }


class TestSetupPerGroup:
    """A sweep builds the setup (E*, the immune quadratic, the T = 0 seeds)
    once per group of grid points, and a bifurcation over a tumor-only
    field once for its scan and all its midpoints.  Counted at
    equilibria._immune_quadratic, which each setup calls once."""

    @staticmethod
    def built(monkeypatch):
        import bcdyn.equilibria

        calls = []
        quadratic = bcdyn.equilibria._immune_quadratic

        def counted(params, E):
            calls.append(params)
            return quadratic(params, E)

        monkeypatch.setattr(bcdyn.equilibria, "_immune_quadratic", counted)
        return calls

    @staticmethod
    def solved_values(monkeypatch):
        """The parameter sets of every sweep._solve call, in call order."""
        import bcdyn.sweep

        sets = []
        solve = bcdyn.sweep._solve

        def recorded(prepared, *rest):
            sets.extend(params for params, *_ in prepared)
            return solve(prepared, *rest)

        monkeypatch.setattr(bcdyn.sweep, "_solve", recorded)
        return sets

    def test_d_sweep_builds_one(self, monkeypatch):
        built = self.built(monkeypatch)
        run_sweep(default_scenario(), SweepSpec("d", build_grid(0.5, 1.5, 8)))
        assert len(built) == 1

    def test_d_k_grid_builds_one_per_k(self, monkeypatch):
        built = self.built(monkeypatch)
        spec = SweepSpec("d", build_grid(0.5, 1.5, 3), "k", build_grid(0.0, 1.0, 3))
        run_sweep(default_scenario(), spec)
        assert [params.k for params in built] == list(spec.second_grid)

    def test_d_bifurcation_builds_one(self, monkeypatch):
        """The default scenario brackets dead2 and coexisting over d, so the
        scan is followed by midpoint solves."""
        sets = self.solved_values(monkeypatch)
        built = self.built(monkeypatch)
        assert run_bifurcate(default_scenario(), "d", 0.05, 5.0, scan_points=16)
        assert len(sets) > 16
        assert len(built) == 1

    def test_k_bifurcation_builds_one_per_solved_value(self, monkeypatch):
        sets = self.solved_values(monkeypatch)
        built = self.built(monkeypatch)
        scenario = scenario_with(draw_params(np.random.default_rng(33)))
        assert run_bifurcate(scenario, "k", 0.0, 1.0, scan_points=16)
        assert len(sets) > 16
        assert [params.k for params in built] == [params.k for params in sets]


class TestLeadingEigenvalue:
    """The sweep reads one eigenvalue per point: the one that
    max(key=real) picks from classify's sorted spectrum."""

    @staticmethod
    def reference(w):
        return max(_root_set(w), key=lambda z: z.real)

    @staticmethod
    def bits(z):
        return z.real.hex(), z.imag.hex()

    @pytest.mark.parametrize(
        "w",
        [
            # A conjugate pair leads: the negative imaginary part first.
            [-1.0, complex(0.5, 2.0), complex(0.5, -2.0), -3.0, -0.2],
            [complex(0.5, -2.0), complex(0.5, 2.0), -1.0],
            # Tied reals, told apart only by the sign of a zero.
            [-1.0, complex(2.0, -0.0), complex(2.0, 0.0)],
            [complex(2.0, 0.0), complex(2.0, -0.0), -1.0],
            [complex(-0.0, 0.0), complex(0.0, 0.0), -4.0],
            [complex(0.0, 0.0), complex(-0.0, 0.0), -4.0],
            # Tied reals, imaginary parts under 1e-12 apart: the smaller.
            [complex(1.0, 1e-13), complex(1.0, -1e-13), 0.5],
            [complex(1.0, 0.3 + 1e-14), complex(1.0, 0.3), 0.5],
            # Real parts 1e-15 apart: the larger wins.
            [complex(1.0, 5.0), complex(1.0 + 1e-15, 7.0), 0.5],
        ],
    )
    def test_planted_spectra(self, w):
        got = _leading(np.array(w, dtype=complex).tolist())
        assert self.bits(got) == self.bits(self.reference(np.array(w, dtype=complex)))

    def test_real_spectrum(self):
        w = np.array([-2.0, 3.0, 3.0, -0.5])
        got = _leading(w.tolist())
        assert isinstance(got, complex)
        assert self.bits(got) == self.bits(self.reference(w))


class TestSingleRow:
    """A bisection midpoint is solved for its bracket's family only.  Each
    row admits only its family's zeros of N and T, so one row gives that
    family's points of the full catalog, bit for bit."""

    def assert_row_exact(self, params):
        full = find_all(params)
        for family in FAMILIES:
            row = _catalog(_find_batch([_prepare(params, (family,))], (family,))[0])
            want = [eq for eq in full if eq.family == family]
            assert [repr((eq.family, eq.point, eq.residual)) for eq in row] == [
                repr((eq.family, eq.point, eq.residual)) for eq in want
            ]

    def test_row_is_the_catalog_slice(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            self.assert_row_exact(draw_params(rng))

    def test_feed_balanced_growth(self, base_params):
        """With a1 just above the tumor-free feed, the tumor-free and
        coexisting points have N ~ 8e-12, next to dead1; each row keeps its
        point."""
        pm = base_params
        pm = pm.replace(a1=pm.l1 * estrogen_level(pm) * (1.0 - pm.k) * (1.0 + 1e-9))
        self.assert_row_exact(pm)


def scan_instances(seed, count):
    """Planted k = 1 instances drawn like the benchmark's scan workload:
    draw_params sets whose tumor-free point is stable at 0.5 d* and
    unstable at 1.5 d*, d* = (g1 I + m_d)/a2; each as (params, lo, hi)."""
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < count:
        pm = draw_params(rng, k=1.0)
        free = [eq for eq in tumor_free(pm) if eq.confirmed]
        if not free:
            continue
        d_star = (pm.g1 * free[0].point.I + pm.m_d) / pm.a2
        lo, hi = 0.5 * d_star, 1.5 * d_star
        verdicts = []
        for d in (lo, hi):
            p = pm.replace(d=d)
            ends = [eq for eq in tumor_free(p) if eq.confirmed]
            verdicts.append(classify(ends[0], p).verdict if ends else None)
        if verdicts == ["stable", "unstable"]:
            instances.append((pm, lo, hi))
    return instances


def bifurcation_sha256(results):
    return hashlib.sha256(bifurcation_to_json(results).encode()).hexdigest()


class TestBifurcationGolden:
    """sha256 of bifurcation_to_json.  The planted and scan pins predate
    solving a midpoint for fewer than all families.  The default scenario's
    pin moved when the catalog stopped deduplicating across families: its
    coexisting crossing is now the dead2 one (see
    TestBifurcate.test_coexisting_crossing_is_the_dead2_transcritical).  It
    moved again when the finders' polynomial products became plain floats:
    the coexisting ``at_upper`` real part, read off a point of the other
    branch, moved in its last bits."""

    def test_default_scenario_dead2_and_coexisting(self):
        results = run_bifurcate(default_scenario(), "d", 0.05, 5.0, scan_points=64)
        assert bifurcation_sha256(results) == (
            "849b18efabb65622727a68119a31378ff5f9e253833b3edd393992750f1c1a4a"
        )

    def test_planted_instance(self):
        pm, d_star, lo, hi = TestBifurcate().planted_instance()
        results = run_bifurcate(scenario_with(pm), "d", lo, hi, scan_points=32)
        assert bifurcation_sha256(results) == (
            "e6e4fd1cbee73702a1621f959da82957e39dea3f3b495e63d9223e4dab43356f"
        )

    def test_scan_instances(self):
        got = [
            bifurcation_sha256(
                run_bifurcate(scenario_with(pm), "d", lo, hi, scan_points=2, bracket_rel_width=0.05)
            )
            for pm, lo, hi in scan_instances(1, 2)
        ]
        assert got == [
            "84cd291f70c88c26bf0c9f329b0fd6315a520e8178277e2895d88f9c10121886",
            "c2b5d129f7f0d296ba43c510cac7d9d23068032dadc5a10348a0af95158eb2eb",
        ]


class TestSweepGolden:
    """sha256 of sweep_to_csv on the default scenario with the maxReLambda
    column left out: that column is LAPACK's ``dgeev`` bits, which depend on
    the kernel the host's BLAS picks, so each row's value is checked instead
    to be the largest real part of ``np.linalg.eigvals`` of the Jacobian at
    the row's point and parameters.  Every other column, the verdicts
    included, is pinned."""

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                SweepSpec("d", build_grid(0.05, 5.0, 101)),
                "cc5149919d5f458118e566d014aafccf6ff64a91b916c3d5e72b7037c45f2495",
            ),
            (
                SweepSpec("k", build_grid(0.0, 1.0, 21), "d", build_grid(0.05, 5.0, 21)),
                "7ea469b13d7eb23351efc0d231e0dd4c9370be3adcaef79ba00c16df0fd8ac38",
            ),
        ],
        ids=["d", "k-d"],
    )
    def test_default_scenario(self, spec, digest):
        sc = default_scenario()
        rows = run_sweep(sc, spec)
        for row in rows:
            if "maxReLambda" in row:
                fields = {row["parameter"]: row["value"]}
                if "parameter2" in row:
                    fields[row["parameter2"]] = row["value2"]
                point = SystemState(*(row[name] for name in STATE_NAMES))
                J = jacobian(point, sc.params.replace(**fields))
                assert row["maxReLambda"] == max(np.linalg.eigvals(J).real.tolist())
        blanked = [{k: v for k, v in row.items() if k != "maxReLambda"} for row in rows]
        csv = sweep_to_csv(blanked, spec)
        assert hashlib.sha256(csv.encode()).hexdigest() == digest
