"""Equilibrium finders: closed forms, polynomials, residuals and flags."""
import itertools
import math
import warnings

import numpy as np
import pytest

from bcdyn import DomainError, residual_norm
from bcdyn.equilibria import (
    _TABLE,
    CONFIRM_TOL,
    _admit,
    _polish,
    _tumor_ratio,
    coexisting,
    dead_type1,
    dead_type2,
    estrogen_level,
    find_all,
    immune_clearance_rate,
    tumor_free,
)
from bcdyn.model import PARAM_NAMES, SystemState, _bind
from bcdyn.numerics import NumericsError
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

    def test_planted_roots_direct_and_flipped(self):
        """Only the positive roots of polynomials with planted positive,
        negative and complex-pair roots come back, sorted, whether the
        companion is built directly (|leading| >= |trailing|) or for the
        reversed polynomial in 1/T (|leading| < |trailing|), and whatever
        the sizes rooted together in one call."""
        from bcdyn.equilibria import _positive_roots_each

        small = [0.25, 0.5, -0.3, complex(0.2, 0.4), complex(0.2, -0.4)]
        large = [3.0, 7.0, -5.0, complex(2.0, 4.0), complex(2.0, -4.0)]
        cubic = [0.5, 1.5, -2.0]
        polys = [np.poly(roots).real.tolist() for roots in (small, large, cubic)]
        assert abs(polys[0][0]) >= abs(polys[0][-1])
        assert abs(polys[1][0]) < abs(polys[1][-1])
        got = _positive_roots_each(polys)
        for found, want in zip(got, ([0.25, 0.5], [3.0, 7.0], [0.5, 1.5])):
            assert found == pytest.approx(want, rel=1e-10)

    def test_near_double_root_taken_as_real(self):
        from bcdyn.equilibria import _positive_roots_each

        double = np.convolve([1.0, -2.0], [1.0, -2.0])
        split, none = _positive_roots_each([double + [0.0, 0.0, 1e-16], double + [0.0, 0.0, 1e-4]])
        assert split == [pytest.approx(2.0, rel=1e-7)]
        assert none == []


def array_tumor_ratio(pm, E, n_free):
    """(P, Q) of _tumor_ratio in the array form it replaced: np.convolve
    for the growth, the feed added elementwise."""
    net_growth = np.array([-pm.b2, pm.a2 * pm.d - pm.m_d])
    if not n_free:
        return net_growth, np.array([pm.g1])
    c = pm.l1 * E * (1.0 - pm.k)
    a1c = pm.a1 - c
    growth = pm.b1 * np.convolve([pm.epsilon, 1.0, 0.0], net_growth)
    feed = [c * 0.0, c * 0.0, c * (a1c * pm.epsilon - pm.d1), c * a1c]
    return growth + feed, pm.g1 * pm.b1 * np.array([pm.epsilon, 1.0, 0.0])


class TestTumorRatioBits:
    """The plain-float (P, Q) carry the bits of the array form, signed
    zeros included, so every eliminated polynomial is unchanged."""

    @staticmethod
    def assert_same_bits(pm):
        E = estrogen_level(pm)
        for n_free in (False, True):
            got = _tumor_ratio(pm, E, n_free)
            want = array_tumor_ratio(pm, E, n_free)
            for g, w in zip(got, want):
                assert np.array(g).tobytes() == w.tobytes(), (pm, n_free)

    def test_seeded_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            self.assert_same_bits(draw_params(rng))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_zero_feed_zero_epsilon_and_signed_zeros(self, seed):
        """epsilon = 0, zero feed (k = 1, l1 = 0 or p = 0), a2*d - m_d
        negative or zero, and -0.0 for every field that may vanish."""
        pm = random_params(seed)
        net_zero = pm.m_d / pm.a2
        for epsilon, l1, p, d1, g1, k, d in itertools.product(
            (0.0, -0.0, pm.epsilon), (0.0, -0.0, pm.l1), (0.0, -0.0, pm.p),
            (0.0, -0.0, pm.d1), (0.0, -0.0, pm.g1), (pm.k, 1.0),
            (pm.d, net_zero, 0.5 * net_zero),
        ):
            self.assert_same_bits(
                pm.replace(epsilon=epsilon, l1=l1, p=p, d1=d1, g1=g1, k=k, d=d)
            )


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

    def test_overflowing_polynomial_raises_numerics_error(self, base_params):
        """Valid parameters whose eliminated polynomial overflows fail with a
        NumericsError naming the family, not a LinAlgError and a warning."""
        cases = [base_params.replace(a2=1e160), random_params(0).replace(d=1e200)]
        for pm in cases:
            with pytest.raises(NumericsError, match="^dead2 polynomial in T overflows$"):
                find_all(pm)


class TestPolishFastPath:
    """A seed whose polished components of the vector field are already
    below the Newton tolerance is taken as it is, and the one evaluation
    of the field at it is the point's residual."""

    @pytest.fixture
    def newton_calls(self, monkeypatch):
        import bcdyn.equilibria

        calls = []
        newton = bcdyn.equilibria.newton_solve

        def counted(*args, **kwargs):
            calls.append(args)
            return newton(*args, **kwargs)

        monkeypatch.setattr(bcdyn.equilibria, "newton_solve", counted)
        return calls

    def test_default_scenario_takes_no_newton_step(self, base_params, newton_calls):
        assert [eq for eq in find_all(base_params) if eq.confirmed]
        assert newton_calls == []

    def test_perturbed_seed_runs_newton(self, base_params, newton_calls):
        (eq,) = [eq for eq in find_all(base_params) if eq.family == "coexisting"]
        seed = list(eq.point.as_tuple())
        seed[1] *= 1.0 + 1e-6
        point, residual = _polish(_bind(base_params), (0, 1, 2, 4), seed)
        assert len(newton_calls) == 1
        assert residual is None
        # The point the polish has always landed on from this seed.
        assert point == SystemState(
            0.7055410884599924, 0.000805938923663368, 17.14155145470961,
            eq.point.E, 1.4359711492989313,
        )

    def test_residual_is_the_field_norm_at_the_point(self):
        rng = np.random.default_rng(0)
        confirmed = 0
        for _ in range(300):
            pm = draw_params(rng)
            for eq in find_all(pm):
                if eq.confirmed:
                    confirmed += 1
                    assert eq.residual == residual_norm(eq.point, pm)
        assert confirmed == 695

    def test_snapped_seed_residual_is_evaluated_again(self, base_params, newton_calls):
        pm = base_params.replace(k=1.0, p_M=0.05)
        (free,) = tumor_free(pm)
        T0 = -1e-15  # in (-SNAP_TOL, 0): the snap moves it to 0
        (eq,) = _admit(
            pm, _bind(pm), estrogen_level(pm), "tumor_free", _TABLE["tumor_free"],
            [(T0, free.point.I)],
        )
        assert newton_calls == []
        assert eq.point.T == 0.0
        assert eq.residual == residual_norm(eq.point, pm)
        seed = SystemState(eq.point.N, T0, eq.point.I, eq.point.E, eq.point.M)
        assert eq.residual != residual_norm(seed, pm)


class TestExtremeValues:
    @pytest.mark.parametrize("name, classified", [("xi", False), ("r", True)])
    def test_huge_rate_returns_a_catalog(self, base_params, name, classified):
        """At xi or r = 1e300 the tumor ratio P/Q overflows at a root T; it
        is evaluated on plain floats, so find_all returns a catalog instead
        of ending in a numpy overflow warning.  classify then either
        returns or names the overflowing Jacobian."""
        pm = base_params.replace(**{name: 1e300})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            catalog = find_all(pm)
            confirmed = [eq for eq in catalog if eq.confirmed]
            assert confirmed
            for eq in confirmed:
                if classified:
                    classify(eq, pm)
                else:
                    with pytest.raises(DomainError, match="^Jacobian overflows"):
                        classify(eq, pm)

    #: Sets whose eliminated polynomial (b1) or tumor-ratio feed (the
    #: others) overflows, with the error a finiteness check downstream
    #: names them by.
    OVERFLOWING = {
        ("b1", 1e300): (NumericsError, "coexisting polynomial in T overflows"),
        ("p", 1e300): (DomainError, "Jacobian overflows at state"),
        ("theta", 1e-300): (DomainError, "Jacobian overflows at state"),
    }

    def test_huge_transformation_rate_classifies(self, base_params):
        """At l1 = 1e300 the Jacobian spans hundreds of orders of magnitude.
        Its band polynomial stays finite, so every confirmed point
        classifies, and the Hurwitz verdict agrees with the eigenvalues."""
        pm = base_params.replace(l1=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [classify(eq, pm) for eq in find_all(pm) if eq.confirmed]
        assert reports
        for rep in reports:
            assert rep.hurwitz.verdict == rep.verdict
            assert rep.agreement["eigen_hurwitz"] is True

    @pytest.mark.parametrize("value", [1e-300, 1e300])
    @pytest.mark.parametrize("name", [name for name in PARAM_NAMES if name != "k"])
    def test_extreme_parameter_returns_or_names_the_failure(self, base_params, name, value):
        """With one parameter at 1e-300 or 1e300, find_all and classify of
        each confirmed point return or raise DomainError/NumericsError, with
        no numpy warning on the way."""

        def catalog_and_classify():
            pm = base_params.replace(**{name: value})
            for eq in find_all(pm):
                if eq.confirmed:
                    classify(eq, pm)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if (name, value) in self.OVERFLOWING:
                error, message = self.OVERFLOWING[name, value]
                with pytest.raises(error, match=f"^{message}"):
                    catalog_and_classify()
                return
            try:
                catalog_and_classify()
            except (DomainError, NumericsError):
                pass


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
