"""Equilibrium finders: closed forms, polynomials, residuals and flags."""
import math

import numpy as np
import pytest

from bcdyn import DomainError, SystemState, residual_norm
from bcdyn.equilibria import (
    CONFIRM_TOL,
    coexisting,
    dead_type1,
    dead_type2,
    drug_level,
    estrogen_level,
    find_all,
    immune_clearance_rate,
    reduced_polynomials,
    tumor_free,
)
from bcdyn.numerics import Polynomial, poly_roots
from bcdyn.stability import classify
from bcdyn.validation import draw_params

from conftest import random_params


def stream_draw(index: int):
    """Draw ``index`` (0-based) of one draw_params(default_rng(0)) stream."""
    rng = np.random.default_rng(0)
    for _ in range(index):
        draw_params(rng)
    return draw_params(rng)


def confirmed_near(catalog, family, T, tol=1e-6):
    return [
        eq for eq in catalog
        if eq.family == family and eq.confirmed and abs(eq.point.T - T) < tol
    ]


class TestClosedForms:
    def test_estrogen_blockade(self, base_params):
        # p_M below m keeps the immune/drug subsystem dissipative once the
        # estrogen suppression term vanishes at k = 1.
        pm = base_params.replace(k=1.0, p_M=0.05)
        assert estrogen_level(pm) == 0.0
        cands = tumor_free(pm)
        assert cands, "blockade scenario should admit a tumor-free point"
        for eq in cands:
            assert eq.point.N == pytest.approx(pm.a1 / pm.b1, rel=1e-12)
            assert eq.point.E == 0.0
            assert eq.confirmed

    def test_decoupled_immune_drug(self, base_params):
        pm = base_params.replace(chi=0.0, p_M=0.0)
        e0 = estrogen_level(pm)
        expect_m = pm.v_M / pm.n_M
        expect_i = pm.s / immune_clearance_rate(pm, e0)
        d1 = dead_type1(pm)
        assert len(d1) == 1
        assert d1[0].point.M == pytest.approx(expect_m, rel=1e-12)
        assert d1[0].point.I == pytest.approx(expect_i, rel=1e-12)
        for eq in tumor_free(pm):
            assert eq.point.M == pytest.approx(expect_m, rel=1e-12)
            assert eq.point.I == pytest.approx(expect_i, rel=1e-12)

    def test_shared_immune_drug_substate(self):
        """Tumor-free and dead type-1 points share (I, M) for the same
        params: the immune/drug subsystem does not see N when T = 0."""
        for seed in range(30):
            pm = random_params(seed)
            tf = tumor_free(pm)
            d1 = dead_type1(pm)
            if not tf or not d1:
                continue
            ims_tf = sorted((eq.point.I, eq.point.M) for eq in tf)
            ims_d1 = sorted((eq.point.I, eq.point.M) for eq in d1)
            for (ia, ma), (ib, mb) in zip(ims_tf, ims_d1):
                assert ia == pytest.approx(ib, rel=1e-10)
                assert ma == pytest.approx(mb, rel=1e-10)
            return
        pytest.fail("no seed produced both families")


class TestDead1:
    def test_quadratic_vieta(self):
        for seed in range(30):
            pm = random_params(seed)
            c2, c1, c0 = reduced_polynomials(pm).dead1_quadratic.coeffs
            if abs(c2) < 1e-12:
                continue
            roots = poly_roots(Polynomial((c2, c1, c0))).roots
            rsum = sum(z.real for z in roots)
            rprod = (roots[0] * roots[1]).real
            assert rsum == pytest.approx(-c1 / c2, rel=1e-8, abs=1e-10)
            assert rprod == pytest.approx(c0 / c2, rel=1e-8, abs=1e-10)

    def test_exact_boundary_components(self):
        for seed in range(30):
            pm = random_params(seed)
            for eq in dead_type1(pm):
                assert eq.point.N == 0.0
                assert eq.point.T == 0.0
                assert eq.residual < CONFIRM_TOL


class TestDead2:
    def _find_instance(self):
        for seed in range(400):
            pm = random_params(seed)
            cands = dead_type2(pm)
            if cands:
                return pm, cands
        return None, []

    def test_tumor_immune_balance(self):
        pm, cands = self._find_instance()
        assert cands, "no dead type-2 instance found in the seed range"
        a2d = pm.a2 * pm.d
        for eq in cands:
            expect_i = (a2d - pm.b2 * eq.point.T - pm.m_d) / pm.g1
            assert eq.point.I == pytest.approx(expect_i, abs=1e-10, rel=1e-10)
            assert eq.point.N == 0.0
            assert eq.residual < CONFIRM_TOL

    def test_no_drug_limit(self):
        pm, cands = self._find_instance()
        assert cands
        pm0 = pm.replace(v_M=0.0)
        for eq in dead_type2(pm0):
            production = pm0.chi * eq.point.I / (pm0.xi + eq.point.I)
            if production < pm0.n_M:
                assert eq.point.M == 0.0
            assert eq.residual < CONFIRM_TOL


class TestCoexisting:
    def test_all_components_positive(self):
        found = 0
        for seed in range(60):
            pm = random_params(seed)
            for eq in coexisting(pm):
                found += 1
                assert all(v > 0 for v in eq.point.as_tuple())
                assert eq.residual < CONFIRM_TOL
        assert found > 0

    def test_sign_case_flags(self):
        for seed in range(60):
            pm = random_params(seed)
            for eq in coexisting(pm):
                c = eq.flag_values["coexist_c"]
                b = eq.flag_values["coexist_b"]
                assert eq.existence_flags["single_positive_root"] == (c < 0)
                assert eq.existence_flags["no_realistic_roots"] == (b > 0 and c > 0)


class TestEliminationRegressions:
    """Points the earlier grid and scan seeding missed."""

    def test_draw_147_stable_coexisting(self):
        pm = stream_draw(147)
        hits = confirmed_near(find_all(pm), "coexisting", 5.140919)
        assert len(hits) == 1
        assert hits[0].point.N == pytest.approx(0.039048, abs=1e-6)
        assert classify(hits[0], pm).verdict == "stable"

    @pytest.mark.parametrize("index, T", [(196, 0.004175), (225, 0.034901)])
    def test_small_tumor_dead2(self, index, T):
        assert len(confirmed_near(find_all(stream_draw(index)), "dead2", T)) == 1

    def test_dead2_without_immune_kill(self):
        """With g1 = 0 the tumor equation fixes T = (a2*d - m_d)/b2."""
        rng = np.random.default_rng(0)
        found = 0
        for _ in range(10):
            pm = draw_params(rng).replace(g1=0.0)
            T_fixed = (pm.a2 * pm.d - pm.m_d) / pm.b2
            for eq in dead_type2(pm):
                assert eq.point.T == pytest.approx(T_fixed, rel=1e-12)
                assert eq.confirmed
                found += 1
        assert found > 0

    def test_drug_free_points_without_infusion(self):
        """With v_M = 0, M = 0 is the drug's steady state; the catalog was
        empty before M = 0 was admitted."""
        pm = draw_params(np.random.default_rng(5)).replace(v_M=0.0)
        drug_free = [eq for eq in find_all(pm) if eq.confirmed and eq.point.M == 0.0]
        assert drug_free
        assert all(eq.residual < CONFIRM_TOL for eq in drug_free)
        E = estrogen_level(pm)
        dead1 = [eq for eq in drug_free if eq.family == "dead1"]
        assert len(dead1) == 1
        assert dead1[0].point.I == pytest.approx(pm.s / immune_clearance_rate(pm, E), rel=1e-12)

    def test_drug_free_families_over_draws(self):
        rng = np.random.default_rng(5)
        families = set()
        for _ in range(30):
            pm = draw_params(rng).replace(v_M=0.0)
            for eq in find_all(pm):
                if eq.confirmed:
                    assert eq.point.M == 0.0
                    families.add(eq.family)
        assert families >= {"dead1", "dead2", "coexisting"}

    def test_near_double_root_taken_as_real(self):
        from bcdyn.equilibria import _positive_roots_each

        double = np.convolve([1.0, -2.0], [1.0, -2.0])
        split, none = _positive_roots_each([double + [0.0, 0.0, 1e-16], double + [0.0, 0.0, 1e-4]])
        assert split == [pytest.approx(2.0, rel=1e-7)]
        assert none == []


class TestFindAll:
    def test_residuals_and_count(self):
        for seed in range(40):
            pm = random_params(seed)
            catalog = find_all(pm)
            assert len(catalog) <= 7
            for eq in catalog:
                if eq.confirmed:
                    assert residual_norm(eq.point, pm) < CONFIRM_TOL

    def test_estrogen_component_bit_identical(self):
        for seed in range(40):
            pm = random_params(seed)
            e_star = estrogen_level(pm)
            for eq in find_all(pm):
                assert eq.point.E == e_star

    def test_cross_family_dedup(self, base_params):
        """A tumor-free point with N below the dedup tolerance collapses
        onto the dead type-1 point and is reported once."""
        pm = base_params.replace(k=1.0, p_M=0.05)
        pm = pm.replace(a1=pm.b1 * 1e-9)
        catalog = find_all(pm)
        boundary = [eq for eq in catalog if abs(eq.point.N) < 1e-6 and eq.point.T == 0.0]
        assert len(boundary) == 1

    def test_sorted_by_family_then_tumor(self):
        from bcdyn.equilibria import FAMILIES

        for seed in range(20):
            pm = random_params(seed)
            catalog = find_all(pm)
            keys = [(FAMILIES.index(eq.family), eq.point.T) for eq in catalog]
            assert keys == sorted(keys)

    def test_flags_idempotent(self):
        pm = random_params(7)
        a = find_all(pm)
        b = find_all(pm)
        assert [eq.existence_flags for eq in a] == [eq.existence_flags for eq in b]
        assert [eq.point for eq in a] == [eq.point for eq in b]

    def test_invalid_params_rejected(self, base_params):
        with pytest.raises(DomainError):
            find_all(base_params.replace(theta=-1.0))


class TestReducedPolynomials:
    @pytest.mark.parametrize(
        "change", [{"theta": 0.0}, {"theta": -1.0}, {"k": 2.0}, {"o": 0.0}]
    )
    def test_invalid_params_rejected(self, base_params, change):
        with pytest.raises(DomainError, match="invalid parameters"):
            reduced_polynomials(base_params.replace(**change))

    def test_mismatch_report_always_emitted(self, base_params):
        rp = reduced_polynomials(base_params)
        report = rp.mismatch_report
        assert set(report["coefficient_deviations"]) == {"I^2", "I^1", "I^0"}
        assert isinstance(report["printed_form_confirmed"], bool)
        assert report["notes"]

    def test_printed_form_differs_generically(self, base_params):
        rp = reduced_polynomials(base_params)
        assert not rp.mismatch_report["printed_form_confirmed"]

    def test_derived_quadratic_roots_are_steady(self, base_params):
        """Positive roots of the derived quadratic zero the immune equation
        once M is eliminated: the defining property of the reduction."""
        from bcdyn.model import rhs

        rp = reduced_polynomials(base_params)
        e0 = estrogen_level(base_params)
        for z in poly_roots(rp.dead1_quadratic).roots:
            if abs(z.imag) > 1e-9 or z.real <= 0:
                continue
            I = z.real
            M = drug_level(base_params, I)
            assert M is not None
            out = rhs(SystemState(0.0, 0.0, I, e0, M), base_params)
            assert abs(out[2]) < 1e-9
            assert abs(out[4]) < 1e-9

    def test_derived_polynomials_vanish_at_the_catalog(self):
        """Every confirmed dead2 point is a root of the derived quartic and
        every confirmed coexisting point a root of the derived octic."""
        checked = 0
        for seed in range(40):
            pm = random_params(seed)
            rp = reduced_polynomials(pm)
            assert rp.dead2_quartic.degree <= 4
            assert rp.coexist_octic.degree <= 8
            polys = {"dead2": rp.dead2_quartic, "coexisting": rp.coexist_octic}
            for eq in find_all(pm):
                if eq.confirmed and eq.family in polys:
                    p = polys[eq.family]
                    scale = sum(abs(c) * eq.point.T ** (p.degree - i) for i, c in enumerate(p.coeffs))
                    assert abs(p(eq.point.T)) < 1e-9 * scale
                    checked += 1
        assert checked > 0

    def test_no_derived_T_polynomials_without_immune_kill(self, base_params):
        rp = reduced_polynomials(base_params.replace(g1=0.0))
        assert rp.dead2_quartic is None and rp.coexist_octic is None


class TestDegenerateSlices:
    """Boundary slices the per-family finders missed before the family
    table gave every family one admission test."""

    @pytest.mark.parametrize("change", [{"k": 1.0}, {"p": 0.0}])
    def test_interior_points_without_estrogen(self, change):
        """E* = p(1-k)/theta is 0 at full blockade and at p = 0; interior
        points were dropped there because the admission required E > 0."""
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(60):
            pm = draw_params(rng).replace(**change)
            for eq in find_all(pm):
                if eq.family == "coexisting" and eq.confirmed:
                    assert eq.point.E == 0.0
                    assert eq.residual < CONFIRM_TOL
                    found += 1
        assert found >= 17

    def test_immune_free_dead1_without_source(self):
        """With s = 0, I = 0 is an exact root of the immune equation, and
        (0, 0, 0, E*, v_M/n_M) is a dead1 equilibrium."""
        rng = np.random.default_rng(5)
        for _ in range(30):
            pm = draw_params(rng).replace(s=0.0)
            hits = [
                eq for eq in dead_type1(pm)
                if eq.confirmed and eq.point.I == 0.0
            ]
            assert len(hits) == 1
            point = hits[0].point
            assert (point.N, point.T, point.E) == (0.0, 0.0, estrogen_level(pm))
            assert point.M == pytest.approx(pm.v_M / pm.n_M, rel=1e-12)
            assert hits[0].residual < CONFIRM_TOL


def test_pinned_catalog_counts():
    """Confirmed points by family and verdict over 300 draws: a guard for
    any rewrite of the finders or of classify."""
    rng = np.random.default_rng(0)
    families, verdicts = {}, {}
    for _ in range(300):
        pm = draw_params(rng)
        for eq in find_all(pm):
            if eq.confirmed:
                families[eq.family] = families.get(eq.family, 0) + 1
                verdict = classify(eq, pm).verdict
                verdicts[verdict] = verdicts.get(verdict, 0) + 1
    assert families == {"dead1": 300, "dead2": 134, "coexisting": 261}
    assert verdicts == {"stable": 304, "unstable": 391}
