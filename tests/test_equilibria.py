"""Equilibrium finders: closed forms, polynomials, residuals and flags."""
import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bcdyn
from bcdyn import DomainError, residual_norm
from bcdyn.equilibria import (
    _TABLE,
    _TUMOR_ONLY,
    CONFIRM_TOL,
    FAMILIES,
    _admit,
    _eliminate_octic,
    _find_batch,
    _group,
    _free_drug,
    _immune_quadratic,
    _polish,
    _positive_roots_each,
    _prepare,
    _ratio_factor_quintic,
    _tumor_ratio,
    coexisting,
    dead_type1,
    dead_type2,
    estrogen_level,
    find_all,
    immune_clearance_rate,
    tumor_free,
)
from bcdyn.formats import catalog_to_json, stability_to_json
from bcdyn.model import _NONNEGATIVE_OK, PARAM_NAMES, SystemState, _bind
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
        got = _positive_roots_each(polys, ["small", "large", "cubic"])
        for found, want in zip(got, ([0.25, 0.5], [3.0, 7.0], [0.5, 1.5])):
            assert found == pytest.approx(want, rel=1e-10)

    def test_near_double_root_taken_as_real(self):
        from bcdyn.equilibria import _positive_roots_each

        double = np.convolve([1.0, -2.0], [1.0, -2.0])
        split, none = _positive_roots_each(
            [double + [0.0, 0.0, 1e-16], double + [0.0, 0.0, 1e-4]], ["split", "none"]
        )
        assert split == [pytest.approx(2.0, rel=1e-7)]
        assert none == []

    def test_leading_zeros_are_trimmed(self):
        """Every dead2 polynomial leads with structural +0.0 coefficients.
        Leading +0.0 and -0.0 give the roots of the trimmed polynomial to
        the bit: a linear factor's closed-form root, a root of the flipped
        companion (|leading| < |trailing| once trimmed), and the roots of a
        companion stacked in one call with an unpadded one of its size."""
        linear = [3.0, -7.0]
        flipped = np.poly([3.0, 7.0, complex(2.0, 4.0), complex(2.0, -4.0)]).real.tolist()
        assert abs(flipped[0]) < abs(flipped[-1])
        cubics = [np.poly(roots).real.tolist() for roots in ([0.5, 1.5, -2.0], [0.25, 4.0, 9.0])]
        pad = [0.0, -0.0, 0.0, -0.0]
        got = _positive_roots_each(
            [pad + linear, pad[:1] + flipped, pad[1:] + cubics[0], cubics[1]], list("abcd")
        )
        want = [
            *(_positive_roots_each([poly], ["x"])[0] for poly in (linear, flipped)),
            *_positive_roots_each(cubics, ["c", "d"]),
        ]
        assert got[0] == [7.0 / 3.0]
        assert all(got)
        assert [bits(roots) for roots in got] == [bits(roots) for roots in want]


def array_tumor_ratio(pm, E, n_free):
    """(P, Q) of _tumor_ratio in the array form it replaced: np.convolve
    for the growth, the feed added elementwise.  At N = 0 the net growth
    and g1 stand behind exact +0.0 leads, in the shape of the other row."""
    net_growth = np.array([-pm.b2, pm.a2 * pm.d - pm.m_d])
    if not n_free:
        return np.concatenate([[0.0, 0.0], net_growth]), np.array([0.0, 0.0, pm.g1])
    c = pm.l1 * E * (1.0 - pm.k)
    a1c = pm.a1 - c
    growth = pm.b1 * np.convolve([pm.epsilon, 1.0, 0.0], net_growth)
    feed = [c * 0.0, c * 0.0, c * (a1c * pm.epsilon - pm.d1), c * a1c]
    return growth + feed, pm.g1 * pm.b1 * np.array([pm.epsilon, 1.0, 0.0])


class TestDrugFreeLine:
    """With v_M = 0 and chi > n_M the drug equation
    M*(chi*I/(xi + I) - n_M) = 0 holds for M = 0 at any I, and for every M
    on the line I = I* = n_M*xi/(chi - n_M), where the immune equation sets
    M.  drug_level has no value at I >= I*, and those seeds were dropped."""

    @staticmethod
    def line(pm):
        return pm.n_M * pm.xi / (pm.chi - pm.n_M)

    def test_default_scenario_keeps_dead1_without_drug(self, base_params):
        """The catalog was empty, although s/A = 1.70 > I* = 0.4."""
        pm = base_params.replace(v_M=0.0, chi=3.0 * base_params.n_M)
        A = immune_clearance_rate(pm, estrogen_level(pm))
        dead1 = [eq for eq in find_all(pm) if eq.family == "dead1" and eq.confirmed]
        assert [eq.point.M for eq in dead1] == [0.0]
        assert dead1[0].point.I == pytest.approx(pm.s / A, rel=1e-12)
        assert dead1[0].point.I > self.line(pm)

    def test_seeded_draws(self):
        """600 draws of default_rng(0) with v_M = 0 and chi = 3 n_M: 482
        confirmed points before the line and M = 0 above it were admitted.
        435 sets gain the dead1 point I = s/A above I*, and 96 points lie
        on the line."""
        rng = np.random.default_rng(0)
        families, on_line = Counter(), Counter()
        dead1_above = 0
        for _ in range(600):
            pm = draw_params(rng)
            pm = pm.replace(v_M=0.0, chi=3.0 * pm.n_M)
            I_star = self.line(pm)
            confirmed = [eq for eq in find_all(pm) if eq.confirmed]
            for eq in confirmed:
                families[eq.family] += 1
                if eq.point.M != 0.0:
                    assert eq.point.M > 0.0
                    assert eq.point.I == pytest.approx(I_star, rel=1e-9)
                    on_line[eq.family] += 1
            dead1_above += any(
                eq.family == "dead1" and eq.point.M == 0.0 and eq.point.I > I_star
                for eq in confirmed
            )
        assert families == {"dead1": 646, "dead2": 293, "coexisting": 535}
        assert on_line == {"dead1": 46, "dead2": 14, "coexisting": 36}
        assert dead1_above == 435

    def test_line_seed_takes_the_immune_drug_level(self, base_params):
        """On the line M = j_M u/(1 - u), u from the immune equation; off it
        M = 0; with no u in (0, 1) the seed has no drug level."""
        pm = base_params.replace(v_M=0.0, chi=3.0 * base_params.n_M, s=0.05)
        E = estrogen_level(pm)
        A = immune_clearance_rate(pm, E)
        I_star = self.line(pm)
        u = (A - pm.s / I_star) / pm.p_M
        assert 0.0 < u < 1.0
        assert _free_drug(pm, E, 0.0, I_star) == pm.j_M * u / (1.0 - u)
        assert _free_drug(pm, E, 0.0, I_star * (1.0 + 1e-9)) > 0.0
        assert _free_drug(pm, E, 0.0, I_star * (1.0 + 1e-4)) == 0.0
        assert _free_drug(pm.replace(p_M=0.0), E, 0.0, I_star) is None
        assert _free_drug(pm.replace(s=10.0), E, 0.0, I_star) is None


class TestTumorRatioBits:
    """The plain-float (P, Q) carry the bits of the array form, signed
    zeros included, so every eliminated polynomial is unchanged; the N = 0
    ratio is padded with +0.0, never -0.0."""

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


def _mul(a, b) -> list[float]:
    """Product of descending coefficient lists in plain floats: each
    coefficient sums its products from +0.0 in the order of ``a``'s index.
    The generic form the finders' kernels replaced, kept as their oracle."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _add(a, b) -> list[float]:
    """Sum of descending coefficient lists, the shorter padded with zeros."""
    n = max(len(a), len(b))
    return [x + y for x, y in zip([0.0] * (n - len(a)) + a, [0.0] * (n - len(b)) + b)]


def oracle_eliminate(R, S, U, P, Q):
    return _add(_add(_mul(R, _mul(P, P)), _mul(S, _mul(P, Q))), _mul(U, _mul(Q, Q)))


def oracle_ratio_factor(R, S, P, Q):
    return _add(_mul(R, P), _mul(S, Q))


def oracle_tumor_ratio(pm, E, n_free):
    """(P, Q) of _tumor_ratio as the generic product composed them, the
    N = 0 ratio padded with exact +0.0 leads to the shape of the other."""
    net = [-pm.b2, pm.a2 * pm.d - pm.m_d]
    if not n_free:
        return [0.0, 0.0, *net], [0.0, 0.0, pm.g1]
    c = pm.l1 * E * (1.0 - pm.k)
    eps, b1 = pm.epsilon, pm.b1
    a1c = pm.a1 - c
    feed = (0.0, 0.0, a1c * eps - pm.d1, a1c)
    P = [b1 * g + c * f for g, f in zip(_mul((eps, 1.0, 0.0), net), feed)]
    return P, [pm.g1 * b1 * q for q in (eps, 1.0, 0.0)]


def bits(coeffs) -> bytes:
    """The float64 bytes of ``coeffs``, each nan written as ``math.nan``.
    Which of two nan operands a float ``+`` or ``*`` returns is up to the
    machine code: CPython 3.11 on x86-64 returns the right one from the
    generic operator and the left one once the instruction has
    specialized (after its first runs), so the sign of such a nan depends
    on how often a line ran, not on the order of the arithmetic.  Every
    other value, signed zeros and infinities included, keeps its bytes."""
    values = np.array(coeffs, dtype=np.float64)
    values[np.isnan(values)] = math.nan
    return values.tobytes()


def mixed_floats(rng, shape) -> np.ndarray:
    """Seeded floats of ``shape``: half ordinary (any sign, magnitudes
    1e-3 to 1e3), the rest signed zeros, subnormals, +-1e+-300 (scaled up
    to 10x), +-inf and nan of either sign, in equal shares."""
    ordinary = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    magnitude = rng.uniform(1.0, 10.0, shape)
    kinds = [
        ordinary,
        np.zeros(shape),
        magnitude * 1e-310,
        magnitude * 1e-300,
        magnitude * 1e300,
        np.full(shape, math.inf),
        np.full(shape, math.nan),
    ]
    pick = np.where(rng.random(shape) < 0.5, 0, rng.integers(1, len(kinds), shape))
    values = np.choose(pick, kinds)
    return np.where(rng.random(shape) < 0.5, -values, values)


def padded_n0_ratio(P, Q):
    """_tumor_ratio's N = 0 (P, Q) for the linear P and constant Q given:
    -b2 and a2*d - m_d are P's coefficients and g1 is Q's, to the bit."""
    (p0, p1), (q0,) = P, Q
    return _tumor_ratio(SimpleNamespace(b2=-p0, a2=p1, d=1.0, m_d=0.0, g1=q0), 0.0, False)


def assert_padded(got, want, leads):
    """``got`` is non-finite exactly when ``want`` is, and when finite is
    ``want`` behind ``leads`` exact +0.0 coefficients."""
    finite = all(map(math.isfinite, want))
    assert all(map(math.isfinite, got)) == finite, (got, want)
    if finite:
        assert bits(got) == bits([0.0] * leads + want), (got, want)


class TestEliminationKernels:
    """The straight-line kernels give the bytes of the _mul/_add
    composition they replaced (a nan as a nan, see :func:`bits`), on
    seeded coefficient sets that mix ordinary floats with signed zeros,
    subnormals, +-1e+-300, +-inf and nan: every product and every padding
    0.0 kept, in _mul's order.  The N = 0 products (the quartic and the
    cubic factor) run the same kernels on _tumor_ratio's padded ratio and
    give the generic product of the unpadded one behind +0.0 leads."""

    SETS = 20_000

    def test_mixture_reaches_every_kind(self):
        values = mixed_floats(np.random.default_rng(0), (1_000,))
        size = np.abs(values)
        for kind in (
            values == 0.0,
            (0.0 < size) & (size < 2.2e-308),
            (1e-3 <= size) & (size <= 1e3),
            (1e299 < size) & (size < math.inf),
            np.isinf(values),
            np.isnan(values),
        ):
            assert kind.sum() > 20
            assert 0 < np.signbit(values[kind]).sum() < kind.sum()

    @pytest.mark.parametrize("p, seed", [(2, 3601), (4, 3602)], ids=["quartic", "octic"])
    def test_eliminate(self, p, seed):
        """P of length p, Q of length p - 1; at p = 2 the octic of the
        padded ratio has four +0.0 leads."""
        rng = np.random.default_rng(seed)
        for row in mixed_floats(rng, (self.SETS, 8 + 2 * p)).tolist():
            R, S, U, P, Q = row[0:3], row[3:6], row[6:9], row[9:9 + p], row[9 + p:]
            want = oracle_eliminate(R, S, U, P, Q)
            if p == 2:
                assert_padded(_eliminate_octic(R, S, U, *padded_n0_ratio(P, Q)), want, 4)
            else:
                assert bits(_eliminate_octic(R, S, U, P, Q)) == bits(want), row

    @pytest.mark.parametrize("p, seed", [(2, 3603), (4, 3604)], ids=["cubic", "quintic"])
    def test_ratio_factor(self, p, seed):
        """At p = 2 the quintic factor of the padded ratio has two +0.0
        leads."""
        rng = np.random.default_rng(seed)
        for row in mixed_floats(rng, (self.SETS, 5 + 2 * p)).tolist():
            R, S, P, Q = row[0:3], row[3:6], row[6:6 + p], row[6 + p:]
            want = oracle_ratio_factor(R, S, P, Q)
            if p == 2:
                assert_padded(_ratio_factor_quintic(R, S, *padded_n0_ratio(P, Q)), want, 2)
            else:
                assert bits(_ratio_factor_quintic(R, S, P, Q)) == bits(want), row

    @pytest.mark.parametrize("n_free", [False, True], ids=["linear", "cubic"])
    def test_tumor_ratio(self, n_free):
        """Every field _tumor_ratio reads, and E, from the mixture."""
        names = ("a1", "b1", "d1", "epsilon", "l1", "k", "a2", "d", "b2", "g1", "m_d")
        rng = np.random.default_rng(3605 + n_free)
        for *values, E in mixed_floats(rng, (self.SETS, len(names) + 1)).tolist():
            pm = SimpleNamespace(**dict(zip(names, values)))
            got, want = _tumor_ratio(pm, E, n_free), oracle_tumor_ratio(pm, E, n_free)
            assert [bits(c) for c in got] == [bits(c) for c in want], (values, E)


def columns(rows):
    """Per coefficient, the (B,) array of its values over ``rows``, each
    row a tuple of coefficient sequences."""
    return [tuple(map(np.array, zip(*part))) for part in zip(*rows)]


class TestKernelsOnArrays:
    """On (B,) float64 arrays the kernels give, row by row, the bytes of
    their float calls: (P, Q), the dead2 and coexisting polynomials of the
    default 21x21 (k, d) grid and their s = 0 factors.  Both rows have one
    shape, so each product is one call over the two rows stacked."""

    def test_default_k_d_grid(self, base_params):
        sets = [
            base_params.replace(k=k, d=d)
            for k in bcdyn.build_grid(0.0, 1.0, 21)
            for d in bcdyn.build_grid(0.05, 5.0, 21)
        ]
        E = [estrogen_level(pm) for pm in sets]
        fields = SimpleNamespace(
            **{name: np.array([getattr(pm, name) for pm in sets]) for name in PARAM_NAMES}
        )
        quadratics = [_immune_quadratic(pm, e) for pm, e in zip(sets, E)] * 2
        R, S, U = columns(quadratics)
        # The dead2 rows of every set, then the coexisting rows.
        ratios = [_tumor_ratio(pm, e, n_free) for n_free in (False, True) for pm, e in zip(sets, E)]
        P, Q = columns(ratios)
        with np.errstate(all="ignore"):
            ratio_fields = [_tumor_ratio(fields, np.array(E), n_free) for n_free in (False, True)]
            # The N = 0 ratio's structural +0.0 leads are scalars.
            stacked = [
                np.concatenate(np.broadcast_arrays(*coeffs))
                for coeffs in zip(*[P_f + Q_f for P_f, Q_f in ratio_fields])
            ]
            arrays = [stacked, _eliminate_octic(R, S, U, P, Q), _ratio_factor_quintic(R, S, P, Q)]
        for b, ((Rb, Sb, Ub), (Pb, Qb)) in enumerate(zip(quadratics, ratios)):
            floats = [
                Pb + Qb, _eliminate_octic(Rb, Sb, Ub, Pb, Qb), _ratio_factor_quintic(Rb, Sb, Pb, Qb)
            ]
            got = [bits([c[b] for c in poly]) for poly in arrays]
            assert got == [bits(poly) for poly in floats], b
            if b < len(sets):  # a dead2 row: its structural leads are +0.0
                leads = [Pb[:2], Qb[:2], floats[1][:4], floats[2][:2]]
                assert [bits(c) for c in leads] == [bits([0.0] * len(c)) for c in leads], b


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

    def test_no_cross_family_dedup(self, base_params):
        """A tumor-free point with N = 1e-9 lies within the dedup tolerance
        of the dead type-1 point, but N = 0 sets the families apart, so
        both are reported."""
        pm = base_params.replace(k=1.0, p_M=0.05)
        pm = pm.replace(a1=pm.b1 * 1e-9)
        catalog = find_all(pm)
        assert [(eq.family, eq.point.N, eq.point.T) for eq in catalog] == [
            ("tumor_free", 1e-9, 0.0),
            ("dead1", 0.0, 0.0),
        ]
        assert all(eq.confirmed for eq in catalog)

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

    @pytest.mark.parametrize("name", ["a2", "d", "g1", "m_d"])
    def test_overflowing_companion_raises_numerics_error(self, base_params, name):
        """At 1e154 the coexisting octic is finite, but dividing it by its
        leading coefficient overflows the companion row; numpy's LinAlgError
        used to escape from the eigenvalue call."""
        pm = base_params.replace(**{name: 1e154})
        message = "^coexisting polynomial in T overflows its companion matrix$"
        with pytest.raises(NumericsError, match=message):
            find_all(pm)


def zero_pattern(point: SystemState) -> str:
    """The family that the zeros of N and T name."""
    if point.T == 0.0:
        return "dead1" if point.N == 0.0 else "tumor_free"
    return "dead2" if point.N == 0.0 else "coexisting"


class TestFamiliesAreDisjoint:
    """A family is set by which of N and T vanish, so no point is in two
    families and find_all reports every family's points."""

    @pytest.mark.parametrize(
        "count, k, change",
        [(1500, None, {}), (500, 1.0, {}), (500, None, {"epsilon": 0.0}), (500, None, {"g1": 0.0})],
        ids=["draws", "k=1", "epsilon=0", "g1=0"],
    )
    def test_zeros_name_the_family(self, count, k, change):
        rng = np.random.default_rng(0)
        for _ in range(count):
            for eq in find_all(draw_params(rng, k=k).replace(**change)):
                assert eq.point.N >= 0.0 and eq.point.T >= 0.0
                assert zero_pattern(eq.point) == eq.family

    def test_huge_tumor_competition_keeps_the_stable_coexisting_point(self, base_params):
        """At b2 = 1e30 an unconfirmed tumor-free candidate lies within the
        dedup tolerance of a confirmed coexisting point with T ~ 8e-17,
        which is the stable point of the catalog."""
        pm = base_params.replace(b2=1e30)
        catalog = find_all(pm)
        assert [(eq.family, eq.confirmed) for eq in catalog] == [
            ("tumor_free", False), ("dead1", True), ("coexisting", True),
        ]
        coexisting = catalog[-1]
        assert 0.0 < coexisting.point.T < 1e-15
        assert classify(coexisting, pm).verdict == "stable"

    def test_huge_normal_competition_keeps_dead1(self, base_params):
        """At b1 = 1e30 the tumor-free point has N ~ 7e-31, next to dead1."""
        pm = base_params.replace(b1=1e30)
        assert [(eq.family, eq.confirmed) for eq in find_all(pm)] == [
            ("tumor_free", True), ("dead1", True),
        ]

    def test_feed_balanced_growth_keeps_every_family(self, base_params):
        """With a1 just above the tumor-free feed, the tumor-free and
        coexisting points have N ~ 8e-12, next to dead1."""
        pm = base_params
        pm = pm.replace(a1=pm.l1 * estrogen_level(pm) * (1.0 - pm.k) * (1.0 + 1e-9))
        catalog = find_all(pm)
        assert [eq.family for eq in catalog] == ["tumor_free", "dead1", "coexisting"]
        assert all(eq.confirmed for eq in catalog)


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

    def test_nan_component_runs_newton(self, newton_calls):
        """A nan in the field is not below the tolerance: the seed goes to
        Newton, which fails on it, and is never taken as it is."""
        def f(*x):
            return [0.0, 0.0, 0.0, 0.0, math.nan]

        def jac(*x):
            return [[float(i == j) for j in range(5)] for i in range(5)]

        assert _polish((f, jac), (0, 1, 2, 4), [1.0, 1.0, 1.0, 1.0, 1.0]) is None
        assert len(newton_calls) == 1

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

    #: The 14 of the 50 extreme sets that overflow, with the error a
    #: finiteness check downstream names them by: an eliminated polynomial
    #: in T, or the Jacobian at a confirmed point.  The other 36 return.
    OVERFLOWING = {
        **{
            (name, 1e300): (NumericsError, "coexisting polynomial in T overflows")
            for name in ("a1", "b1", "d1", "epsilon", "m_d")
        },
        **{
            (name, 1e300): (NumericsError, "dead2 polynomial in T overflows")
            for name in ("a2", "d", "b2", "g1")
        },
        **{
            (name, 1e300): (DomainError, "Jacobian overflows at state")
            for name in ("o", "j_M", "p", "xi")
        },
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
        each confirmed point return, or raise the error OVERFLOWING names,
        with no numpy warning on the way."""

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
            else:
                catalog_and_classify()


    def test_overflowing_tumor_term_is_no_equilibrium(self, base_params):
        """At g1 = 1.5e308, g1*I overflows at a T = 0 point and g1*I*T is
        nan there.  The residual is then nan and the point unconfirmed: a
        max over |f| that passed over the nan confirmed the default
        scenario's tumor-free point, whose own tumor feed is 0.0058."""
        rng = np.random.default_rng(34)
        sets = [base_params] + [draw_params(rng) for _ in range(40)]
        overflowing = 0
        for pm in (pm.replace(g1=1.5e308) for pm in sets):
            for eq in tumor_free(pm) + dead_type1(pm):
                if math.isinf(pm.g1 * eq.point.I):
                    overflowing += 1
                    assert math.isnan(eq.residual) and not eq.confirmed
                    assert math.isnan(residual_norm(eq.point, pm))
        assert overflowing >= 20
        (eq,) = tumor_free(base_params.replace(g1=1.5e308))
        assert eq.flag_values["tumor_feed"] > CONFIRM_TOL and not eq.confirmed


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

    def test_immune_free_branch_without_source(self):
        """With s = 0 and g1 > 0 the eliminated polynomial is
        P*(R*P + S*Q), and at a root of P the steady tumor equation holds
        with I = 0.  Those dead2 and coexisting points carry I = 0 exactly,
        not the rounding noise of P/Q at the root (3.8e-17 at the first
        draw's dead2 point when P/Q seeded them), so no flag comparing I
        with 0 flips on that noise."""
        rng = np.random.default_rng(0)
        near_zero = 0
        for _ in range(60):
            pm = draw_params(rng).replace(s=0.0)
            for eq in find_all(pm):
                if eq.family in ("dead2", "coexisting") and eq.point.I < 1e-9:
                    assert eq.point.I == 0.0
                    assert eq.confirmed
                    assert not eq.existence_flags.get("immune_within_band", False)
                    near_zero += 1
        assert near_zero == 97

    @pytest.mark.parametrize("change", [{"s": 0.0}, {"g1": 0.0}])
    def test_linear_root_is_the_band_upper_end(self, change):
        """Where the tumor equation's polynomial in T is linear, -b2*T +
        (a2*d - m_d) at N = 0, dead2 sits at its root T_max =
        (a2*d - m_d)/b2, the upper end of the printed tumor band, to the
        bit: with s = 0 at the points with I = 0, with g1 = 0 at all of
        them.  Rooted through a flipped 1x1 companion, 24 of the 356 on
        either slice were an ulp off."""
        rng = np.random.default_rng(0)
        found = 0
        for _ in range(500):
            pm = draw_params(rng).replace(**change)
            for eq in dead_type2(pm):
                if eq.point.I == 0.0 or pm.g1 == 0.0:
                    assert eq.point.T == eq.flag_values["tumor_band_upper"]
                    found += 1
        assert found == 356


class TestPortability:
    def test_catalog_bytes_do_not_depend_on_the_blas_kernel(self):
        """OpenBLAS picks its kernels per CPU at run time, and
        OPENBLAS_CORETYPE=Haswell forces the AVX2 ones of AMD Zen and
        AVX2-only Intel hosts.  The catalogs of 300 draws carry the same
        bytes under them as in this process: the finders' polynomial
        products are plain floats, not a BLAS dot product."""
        try:
            with open("/proc/cpuinfo") as f:
                flags = set(f.read().split())
        except OSError:
            pytest.skip("no /proc/cpuinfo to tell whether the CPU has AVX2 and FMA")
        if not {"avx2", "fma"} <= flags:
            pytest.skip("the Haswell kernel needs a CPU with AVX2 and FMA")
        script = (
            "import hashlib, numpy as np\n"
            "from bcdyn import find_all\n"
            "from bcdyn.formats import catalog_to_json\n"
            "from bcdyn.validation import draw_params\n"
            "rng = np.random.default_rng(0)\n"
            "for _ in range(300):\n"
            "    text = catalog_to_json(find_all(draw_params(rng)))\n"
            "    print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        src = str(Path(bcdyn.__file__).parents[1])
        env = {
            **os.environ,
            "OPENBLAS_CORETYPE": "Haswell",
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        }
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        rng = np.random.default_rng(0)
        want = [
            hashlib.sha256(catalog_to_json(find_all(draw_params(rng))).encode()).hexdigest()
            for _ in range(300)
        ]
        assert run.stdout.split() == want


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


def catalog_bytes(pm) -> str:
    """The catalog and stability-report JSON of one catalog call: find_all,
    then classify of each confirmed point."""
    catalog = find_all(pm)
    reports = [classify(eq, pm) for eq in catalog if eq.confirmed]
    return catalog_to_json(catalog) + stability_to_json(reports)


class TestSetupCache:
    """A catalog binds its parameter set once and prepares the setup its
    four finders share once; both caches hold one entry, keyed by the
    identity of the set."""

    def test_catalog_binds_and_prepares_once(self, monkeypatch):
        built = Counter()
        for module, name in ((bcdyn.model, "_closures"), (bcdyn.equilibria, "_prepare")):
            def counted(*args, original=getattr(module, name), name=name):
                built[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)
        # A copy is a new object, so both caches miss on it once.
        pm = bcdyn.default_scenario().params.replace()
        catalog = find_all(pm)
        reports = [classify(eq, pm) for eq in catalog if eq.confirmed]
        assert len(reports) == 2
        assert built == {"_closures": 1, "_prepare": 1}

    def test_interleaved_sets_match_cold_copies(self):
        """Sets A, B, A in turn give the bytes of copies of them, which are
        new objects and so miss both caches."""
        rng = np.random.default_rng(3)
        a, b = draw_params(rng), draw_params(rng)
        assert catalog_bytes(a) != catalog_bytes(b)
        cold = {"a": catalog_bytes(a.replace()), "b": catalog_bytes(b.replace())}
        assert [catalog_bytes(a), catalog_bytes(b), catalog_bytes(a)] == [
            cold["a"], cold["b"], cold["a"]
        ]

    def test_sets_built_and_dropped_in_a_loop(self):
        """200 sets, each dropped after its catalog, give the bytes of the
        same draws kept alive, though a freed set's memory, and so its id,
        passes to a later one."""
        want = [catalog_bytes(pm) for pm in [random_params(seed) for seed in range(200)]]
        got, ids = [], set()
        for seed in range(200):
            pm = random_params(seed)
            ids.add(id(pm))
            got.append(catalog_bytes(pm))
            del pm
        assert got == want
        assert len(ids) < 200

    def test_sweep_leaves_the_entry_alone(self, base_params):
        find_all(base_params)
        entry = bcdyn.equilibria._last_prepared
        scenario = bcdyn.default_scenario()
        bcdyn.run_sweep(scenario, bcdyn.SweepSpec("d", bcdyn.build_grid(0.5, 1.5, 5)))
        bcdyn.run_bifurcate(scenario, "d", 0.5, 1.5, scan_points=4)
        assert bcdyn.equilibria._last_prepared is entry

    def test_threads_alternating_two_sets(self):
        """Two threads each run 200 catalogs of their own set while the
        interpreter switches threads every microsecond; each gets the
        serial bytes of its set."""
        sets = [random_params(0), random_params(1)]
        want = [catalog_bytes(pm.replace()) for pm in sets]
        got = [[], []]

        def run(i):
            for _ in range(200):
                got[i].append(catalog_bytes(sets[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == [[want[0]] * 200, [want[1]] * 200]


AT_ZERO_ROWS = ("tumor_free", "dead1")


def at_zero_rows(params):
    """The tumor_free and dead1 rows of ``params`` from one _find_batch call."""
    return _find_batch([_prepare(params)], AT_ZERO_ROWS)[0]


class TestTumorOnlyFields:
    """The T = 0 rows read none of the ``_TUMOR_ONLY`` fields, so a sweep may
    share them between sets that differ only there."""

    def test_t_zero_rows_do_not_read_them(self):
        """Each field replaced by 0 (where valid), 1e-300, 1e300 and 3x its
        value leaves every point, residual, flag, flag value and provenance
        bit-identical; repr shows every bit of a float, zero signs too."""
        assert _TUMOR_ONLY == {"d", "b2", "g1", "m_d", "d1", "epsilon"}
        rng = np.random.default_rng(33)
        sets, changed = 0, 0
        for _ in range(200):
            pm = draw_params(rng)
            want = repr(at_zero_rows(pm))
            sets += bool(at_zero_rows(pm))
            for name in sorted(_TUMOR_ONLY):
                values = [1e-300, 1e300, 3.0 * getattr(pm, name)]
                if name in _NONNEGATIVE_OK:
                    values.append(0.0)
                for value in values:
                    changed += 1
                    assert repr(at_zero_rows(pm.replace(**{name: value}))) == want, (name, value)
        assert sets == 200 and changed == 200 * 21

    def test_a2_is_read(self, base_params):
        """tumor_free reports l1_bound_a2 = theta*a2/(p*(1-k)^2), so a2 is no
        tumor-only field."""
        bounds = [
            [
                eq.flag_values["l1_bound_a2"]
                for eq in at_zero_rows(base_params.replace(a2=a2))
                if eq.family == "tumor_free"
            ]
            for a2 in (base_params.a2, 3.0 * base_params.a2)
        ]
        assert bounds[0] and bounds[0] != bounds[1]

    def test_memo_keeps_the_sign_of_a_zero(self, monkeypatch):
        """l1 = -0.0 is valid and makes the tumor-free feed -0.0.  A sweep
        over l1 = (-0.0, 0.0) gives each set its own rows, so neither takes
        the other's zero; sharing by a float tuple of the fields would."""
        import bcdyn.sweep

        found = []
        find_batch = bcdyn.sweep._find_batch

        def recorded(*args):
            found.append(find_batch(*args))
            return found[-1]

        monkeypatch.setattr(bcdyn.sweep, "_find_batch", recorded)
        bcdyn.run_sweep(bcdyn.default_scenario(), bcdyn.SweepSpec("l1", (-0.0, 0.0)))
        feeds = [
            [eq.flag_values["tumor_feed"] for eq in catalog if eq.family == "tumor_free"]
            for catalog in found[0]
        ]
        assert [[math.copysign(1.0, x) for x in feed] for feed in feeds] == [[-1.0], [1.0]]

    def test_memo_skips_a_set_whose_tumor_terms_overflow(self, base_params):
        """At g1 = 1.5e308, g1*I overflows and g1*I*T is nan at T = 0, so
        the rows there have a nan residual and differ from the rows at the
        scenario's g1.  One group for the three sets shares neither way."""
        sets = [base_params, base_params.replace(g1=1.5e308), base_params]
        alone = [repr(at_zero_rows(pm)) for pm in sets]
        assert alone[0] != alone[1]
        for order in (sets, sets[::-1]):
            group = _group(order[0])
            grouped = _find_batch([_prepare(pm, group) for pm in order], AT_ZERO_ROWS)
            assert [repr(found) for found in grouped] == [repr(at_zero_rows(pm)) for pm in order]
            assert set(group[1]) == set(AT_ZERO_ROWS)
