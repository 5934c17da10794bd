"""Polynomial roots, Routh-Hurwitz and Newton.

A polynomial is a tuple of coefficients in descending degree."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import bcdyn.equilibria
from bcdyn import find_all, jacobian
from bcdyn.numerics import (
    MARGINAL_MINOR,
    NewtonError,
    NumericsError,
    _eigvals,
    _root_set,
    newton_solve,
    poly_roots,
    routh_hurwitz,
)
from bcdyn.stability import char_poly
from bcdyn.validation import draw_params

from conftest import corpus_jacobians, exact_det


def hurwitz_minors_exact(coeffs) -> list[Fraction]:
    """Each leading minor of the Hurwitz matrix H[i, j] = a[2i - j + 1],
    the leading coefficient made positive, in exact rationals."""
    a = [-c for c in coeffs] if coeffs[0] < 0 else list(coeffs)
    n = len(a) - 1
    H = [[a[2 * i - j + 1] if 0 <= 2 * i - j + 1 <= n else 0.0 for j in range(n)]
         for i in range(n)]
    return [exact_det([row[:k] for row in H[:k]]) for k in range(1, n + 1)]


def sign_class(value) -> int:
    """0 within MARGINAL_MINOR of zero, else the sign."""
    return 0 if abs(value) < MARGINAL_MINOR else (1 if value > 0 else -1)


@pytest.fixture(scope="module")
def jacobians():
    return corpus_jacobians()


def seeded_polynomials(count: int = 400) -> list[tuple[float, ...]]:
    """Degree 1..5, coefficients over 12 decades, some exactly zero."""
    rng = np.random.default_rng(11)
    polys = []
    while len(polys) < count:
        degree = int(rng.integers(1, 6))
        coeffs = rng.standard_normal(degree + 1) * 10.0 ** rng.uniform(-6, 6, degree + 1)
        coeffs[1:][rng.random(degree) < 0.15] = 0.0
        polys.append(tuple(coeffs))
    return polys


class TestExactReference:
    """routh_hurwitz's minors against exact rational elimination, on the
    polynomials classify sees and on seeded polynomials."""

    def test_hurwitz_minors_match_exact_minors(self, jacobians):
        polys = [char_poly(J) for J in jacobians] + seeded_polynomials()
        for p in polys:
            minors = routh_hurwitz(p).minors
            exact = hurwitz_minors_exact(p)
            assert len(minors) == len(exact) == len(p) - 1
            for mi, ex in zip(minors, exact):
                assert sign_class(mi) == sign_class(ex)
                assert abs(Fraction(mi) - ex) <= 1e-9 * abs(ex)


def adversarial_spectra(count: int = 4000) -> list[list[complex]]:
    """Five-root spectra, in shuffled order, with close and tied
    neighbours: real parts a whole number of steps apart, a step being
    1e-13 or, above 1e4, one unit in the last place; exact repeats; and
    conjugate pairs, some with |im| < 1e-12, next to real roots of either
    zero."""
    rng = np.random.default_rng(5)
    spectra = []
    for _ in range(count):
        base = float(rng.choice([0.0, 5e-13, rng.uniform(-10.0, 10.0), rng.uniform(1e4, 1e6)]))
        step = max(1e-13, math.ulp(base))
        roots = []
        while len(roots) < 5:
            re = base + step * int(rng.integers(-20, 21))
            im = float(rng.choice([0.0, -0.0, 1e-13 * int(rng.integers(1, 10)), rng.uniform(0, 3)]))
            roots += [complex(re, im), complex(re, -im)] if im else [complex(re, im)]
        rng.shuffle(roots)
        spectra.append(roots[:5])
    return spectra


class TestSpectrumOrder:
    """A spectrum is the stable sort of its roots by plain (real,
    imaginary) part: exact ties keep their input order."""

    def test_stable_sort_by_real_then_imaginary(self):
        for roots in adversarial_spectra():
            order = sorted(range(len(roots)), key=lambda i: (roots[i].real, roots[i].imag, i))
            assert bits(_root_set(roots)) == bits(roots[i] for i in order)

    def test_matches_rounded_key_order(self, corpus_spectra, jacobians):
        """On the spectra classify sees, no two roots are close enough for
        the former order, by each part rounded to 12 digits, to differ."""
        spectra = corpus_spectra + [_eigvals(J) for J in jacobians]
        assert len(corpus_spectra) == 3456
        for roots in spectra:
            expected = sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
            assert bits(_root_set(roots)) == bits(expected)

    @pytest.mark.parametrize("e", [30, 40])
    def test_order_does_not_depend_on_scale(self, corpus_spectra, e):
        """Scaling every root by 2**-e, which is exact here, scales the
        spectrum and keeps its order."""
        def scaled(zs):
            return [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in zs]

        for roots in corpus_spectra:
            assert [complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))
                    for z in scaled(roots)] == roots
            assert bits(_root_set(scaled(roots))) == bits(scaled(_root_set(roots)))


class TestCoefficients:
    """poly_roots and routh_hurwitz take only coefficient sequences of
    degree 1 and up with a nonzero leading entry and finite entries."""

    @pytest.mark.parametrize("solve", [poly_roots, routh_hurwitz])
    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ((), "degree -1"),
            ((2.0,), "degree 0"),
            ((0.0, 1.0), "leading coefficient"),
            (tuple(range(1, 12)), "degree 10"),
            ((1.0, float("nan"), 2.0), "non-finite"),
            ((1.0, 2.0, float("inf")), "non-finite"),
        ],
        ids=["empty", "constant", "zero-leading", "excess-degree", "nan", "inf"],
    )
    def test_rejects(self, solve, coeffs, message):
        with pytest.raises(NumericsError, match=message):
            solve(coeffs)


def bits(values) -> list[tuple[str, str]]:
    """Each complex value as the hex of its parts, which tells -0.0 from 0.0."""
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


@pytest.fixture(scope="module")
def eigen_inputs():
    """The matrices the library hands _eigvals on 1,500 draws of seed 0:
    the Jacobians at every confirmed point, and each companion stack
    equilibria._positive_roots_each builds."""
    stacks, jacs = [], []
    real = bcdyn.equilibria._eigvals

    def recorded(a):
        stacks.append(np.array(a))
        return real(a)

    rng = np.random.default_rng(0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bcdyn.equilibria, "_eigvals", recorded)
        for _ in range(1500):
            pm = draw_params(rng)
            jacs += [jacobian(eq.point, pm) for eq in find_all(pm) if eq.confirmed]
    return jacs, stacks


@pytest.fixture(scope="module")
def corpus_spectra(eigen_inputs):
    jacs, _ = eigen_inputs
    return [_eigvals(J) for J in jacs]


class TestEigvals:
    """_eigvals calls LAPACK's dgeev as np.linalg.eigvals does and gives its
    bits, cast to complex, sign of zero included."""

    @staticmethod
    def assert_identical(a):
        want = np.linalg.eigvals(a).astype(complex).ravel().tolist()
        got = _eigvals(a)
        if np.ndim(a) == 3:
            got = [z for spectrum in got for z in spectrum]
        assert bits(got) == bits(want)

    def test_jacobians(self, eigen_inputs):
        jacs, _ = eigen_inputs
        assert len(jacs) > 3000
        for J in jacs:
            self.assert_identical(J)
        # As sweep._solve stacks them.
        self.assert_identical(np.array(jacs))

    def test_companion_stacks(self, eigen_inputs):
        _, stacks = eigen_inputs
        # The dead2 quartics and the coexisting octics.
        assert len(stacks) > 2000
        assert {a.shape[1] for a in stacks} == {4, 8}
        for stack in stacks:
            self.assert_identical(stack)

    def test_real_spectrum_has_positive_zero_imaginary_parts(self):
        """np.linalg.eigvals returns a real array here, so its complex cast
        has +0.0 imaginary parts; dgeev's own imaginary parts match them."""
        a = np.array([[2.0, 1.0, 0.5], [1.0, -3.0, 0.25], [0.5, 0.25, 1.0]])
        assert np.linalg.eigvals(a).dtype == np.float64
        got = _eigvals(a)
        assert all(z.imag == 0.0 and math.copysign(1.0, z.imag) == 1.0 for z in got)
        self.assert_identical(a)


class TestPolyRoots:
    def test_factored_quadratic(self):
        rs = poly_roots((1.0, -3.0, 2.0))
        got = sorted(z.real for z in rs)
        assert got == pytest.approx([1.0, 2.0], abs=1e-12)
        assert all(abs(z.imag) < 1e-12 for z in rs)

    def test_imaginary_pair(self):
        rs = poly_roots((1.0, 0.0, 1.0))
        got = sorted(rs, key=lambda z: z.imag)
        assert got[0] == pytest.approx(-1j, abs=1e-12)
        assert got[1] == pytest.approx(1j, abs=1e-12)

    def test_reconstructed_from_sampled_roots(self, rng):
        for _ in range(20):
            # Well-separated roots keep the reconstruction well conditioned.
            sample = sorted(np.arange(-2.0, 3.0) + rng.uniform(-0.3, 0.3, size=5))
            poly = np.poly(sample)  # product of (x - r_i)
            rs = poly_roots(tuple(poly))
            got = sorted(z.real for z in rs)
            assert np.max(np.abs(np.array(got) - np.array(sample))) < 1e-9

    def test_deflates_zero_roots(self):
        rs = poly_roots((1.0, -1.0, 0.0, 0.0))
        reals = sorted(z.real for z in rs)
        assert reals == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_deterministic(self):
        p = (1.0, 0.3, -2.0, 0.7, 1.1, -0.4)
        assert poly_roots(p) == poly_roots(p)


class TestRouthHurwitz:
    def test_stable_quadratic(self):
        assert routh_hurwitz((1.0, 3.0, 2.0)).verdict == "stable"

    def test_unstable_quadratic(self):
        assert routh_hurwitz((1.0, -1.0, 2.0)).verdict == "unstable"

    def test_negative_leading_normalized(self):
        assert routh_hurwitz((-1.0, -3.0, -2.0)).verdict == "stable"

    def test_small_coefficient_beside_a_huge_one(self):
        """a1 ~ 10^u and a2 ~ 10^-u with u in [200, 300], the rest of order
        1: D2 = a1 a2 - a0 a3 and D3 = a3 D2 are of order 1.  Scaling every
        coefficient by the largest pushes a2 below the float range, where it
        is lost; the minors must still match the exact ones."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = rng.uniform(200.0, 300.0)
            c = rng.uniform(0.5, 2.0, 4) * rng.choice([-1.0, 1.0], 4)
            p = (c[0], c[1] * 10.0**u, c[2] * 10.0**-u, c[3])[: int(rng.integers(3, 5))]
            minors = routh_hurwitz(p).minors
            for mi, ex in zip(minors, hurwitz_minors_exact(p), strict=True):
                assert sign_class(mi) == sign_class(ex)
                assert abs(Fraction(mi) - ex) <= 1e-9 * abs(ex)
        assert routh_hurwitz((1.0, 1e300, 1e-300)).verdict == "stable"

    def test_marginal_inconclusive(self):
        # lambda^2 + 1: pure imaginary pair, first minor exactly 0.
        assert routh_hurwitz((1.0, 0.0, 1.0)).verdict == "inconclusive"

    def test_agrees_with_root_signs(self, rng):
        checked = 0
        for _ in range(500):
            degree = int(rng.integers(1, 6))
            coeffs = rng.uniform(-2.0, 2.0, size=degree + 1)
            if abs(coeffs[0]) < 0.1:
                continue
            p = tuple(coeffs)
            hv = routh_hurwitz(p)
            max_re = max(z.real for z in poly_roots(p))
            if hv.verdict == "inconclusive" or abs(max_re) < 1e-9:
                continue
            checked += 1
            assert hv.verdict == ("stable" if max_re < 0 else "unstable")
        assert checked > 300

    def test_rejects_degree_over_5(self):
        with pytest.raises(NumericsError):
            routh_hurwitz((1.0,) * 7)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_no_det_call(self, monkeypatch, degree):
        def det(a):
            raise AssertionError("routh_hurwitz called np.linalg.det")

        monkeypatch.setattr(np.linalg, "det", det)
        minors = routh_hurwitz(tuple(range(1, degree + 2))).minors
        assert len(minors) == degree

    @pytest.mark.parametrize(
        "coeffs, minors",
        [
            ((1e200, 2e200, 1e200, 1e200), (2e200, math.inf, math.inf)),
            ((1e200, 1e200, 2e200, 3e200), (1e200, -math.inf, -math.inf)),
            ((1e200, 1e200, 1e200, 1e200), (1e200, 0.0, 0.0)),
        ],
        ids=["positive", "negative", "cancelling"],
    )
    def test_overflow_keeps_the_sign(self, coeffs, minors):
        """Each product a_i a_j here exceeds the float range, so unscaled
        closed forms would give inf - inf = nan for D2.  The exact D2 is
        1e400, -1e400 and 0, and D3 = a3 D2."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = routh_hurwitz(coeffs).minors
        assert got == minors


class TestNewton:
    def test_scalar_square_root(self):
        sol = newton_solve(
            lambda x: np.array([x[0] ** 2 - 4.0]),
            lambda x: np.array([[2.0 * x[0]]]),
            np.array([3.0]),
        )
        assert abs(sol[0] - 2.0) < 1e-12

    def test_linear_system_single_jacobian_solve(self, rng):
        A = rng.uniform(-1.0, 1.0, size=(3, 3)) + 3.0 * np.eye(3)
        b = rng.uniform(-1.0, 1.0, size=3)
        calls = {"J": 0}

        def Jfun(x):
            calls["J"] += 1
            return A

        sol = newton_solve(lambda x: A @ x - b, Jfun, np.zeros(3))
        assert np.max(np.abs(A @ sol - b)) < 1e-12
        assert calls["J"] == 1

    def test_converges_back_to_closed_form_equilibrium(self):
        """Full 5-D Newton from a perturbed exact tumor-free point returns
        to it (total estrogen blockade makes the closed form exact)."""
        from bcdyn import jacobian, rhs
        from bcdyn.equilibria import find_all
        from conftest import random_params

        for seed in range(50):
            pm = random_params(seed, k=1.0)
            p0 = next(
                (eq for eq in find_all(pm) if eq.family == "tumor_free" and eq.confirmed),
                None,
            )
            if p0 is None:
                continue
            from bcdyn.model import SystemState

            target = p0.point.as_array()
            x0 = target + 1e-3 * np.array([1.0, 0.5, -1.0, 0.8, -0.5]) * (1.0 + np.abs(target))
            x0[1] = abs(x0[1])
            sol = newton_solve(
                lambda x: np.array(rhs(SystemState.from_sequence(x), pm)),
                lambda x: jacobian(SystemState.from_sequence(x), pm),
                x0,
            )
            # Newton may land on a neighbor for some seeds; require at
            # least one seed that returns to the exact point.
            if np.max(np.abs(sol - target)) < 1e-8:
                return
        pytest.fail("no seed converged back to the closed-form point")

    def test_reports_failure_with_last_iterate(self):
        with pytest.raises(NewtonError) as err:
            newton_solve(
                lambda x: np.array([x[0] ** 2 + 1.0]),
                lambda x: np.array([[2.0 * x[0]]]),
                np.array([0.5]),
                max_iter=10,
            )
        assert err.value.residual > 0
