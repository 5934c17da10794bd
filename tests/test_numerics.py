"""Polynomial roots, characteristic polynomials, Routh-Hurwitz and Newton."""
import warnings

import numpy as np
import pytest

from bcdyn.numerics import (
    NewtonError,
    NumericsError,
    Polynomial,
    char_poly,
    newton_solve,
    poly_roots,
    routh_hurwitz,
)

from conftest import corpus_jacobians


def cofactor_det(A: np.ndarray) -> float:
    """Independent determinant by cofactor expansion along the first row."""
    n = A.shape[0]
    if n == 1:
        return float(A[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(A, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * float(A[0, j]) * cofactor_det(minor)
    return total


def bits(values) -> list[str]:
    """Exact float images, -0.0 told apart from 0.0."""
    return [float(v).hex() for v in values]


def char_poly_reference(A: np.ndarray) -> list[float]:
    """The Faddeev-LeVerrier recurrence with an explicit identity:
    M_k = A (M_{k-1} + c_{k-1} I), c_k = -trace(M_k)/k."""
    n = A.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(A)
    identity = np.eye(n)
    for kk in range(1, n + 1):
        Mk = A @ (Mk + coeffs[-1] * identity) if kk > 1 else A.copy()
        coeffs.append(float(-np.trace(Mk) / kk))
    return coeffs


def hurwitz_minors_reference(coeffs) -> list[float]:
    """Each leading minor of the Hurwitz matrix from its own det call."""
    a = [-c for c in coeffs] if coeffs[0] < 0 else list(coeffs)
    n = len(a) - 1
    H = np.array(
        [[a[2 * i - j + 1] if 0 <= 2 * i - j + 1 <= n else 0.0 for j in range(n)]
         for i in range(n)]
    )
    return [float(np.linalg.det(H[:k, :k])) for k in range(1, n + 1)]


@pytest.fixture(scope="module")
def jacobians():
    return corpus_jacobians()


def seeded_polynomials(count: int = 400) -> list[Polynomial]:
    """Degree 1..5, coefficients over 12 decades, some exactly zero."""
    rng = np.random.default_rng(11)
    polys = []
    while len(polys) < count:
        degree = int(rng.integers(1, 6))
        coeffs = rng.standard_normal(degree + 1) * 10.0 ** rng.uniform(-6, 6, degree + 1)
        coeffs[1:][rng.random(degree) < 0.15] = 0.0
        polys.append(Polynomial(tuple(coeffs)))
    return polys


class TestBitIdentity:
    """routh_hurwitz and char_poly give the bits of the per-minor det calls
    and the explicit-identity recurrence they replace, on the matrices
    classify sees and on seeded polynomials."""

    def test_hurwitz_minors_match_per_minor_det(self, jacobians):
        polys = [char_poly(J) for J in jacobians] + seeded_polynomials()
        for p in polys:
            assert bits(routh_hurwitz(p).minors) == bits(hurwitz_minors_reference(p.coeffs))

    def test_char_poly_matches_recurrence(self, jacobians, rng):
        signed_zeros = np.array(
            [[-0.0, 1.0, -0.0], [2.0, -0.0, 0.0], [-0.0, -3.0, -0.0]]
        )
        matrices = [signed_zeros, np.diag([-0.0] * 4)] + jacobians
        matrices += [rng.uniform(-1.0, 1.0, size=(n, n)) for n in range(1, 6)]
        for A in matrices:
            assert bits(char_poly(A).coeffs) == bits(char_poly_reference(A))


class TestPolynomial:
    def test_horner_evaluation(self):
        p = Polynomial((2.0, -1.0, 3.0))
        assert p(2.0) == 2 * 4 - 2 + 3

    def test_rejects_zero_leading(self):
        with pytest.raises(NumericsError):
            Polynomial((0.0, 1.0))

    def test_rejects_excess_degree(self):
        with pytest.raises(NumericsError):
            Polynomial(tuple(range(1, 12)))


class TestPolyRoots:
    def test_factored_quadratic(self):
        rs = poly_roots(Polynomial((1.0, -3.0, 2.0)))
        got = sorted(z.real for z in rs.roots)
        assert got == pytest.approx([1.0, 2.0], abs=1e-12)
        assert all(abs(z.imag) < 1e-12 for z in rs.roots)

    def test_imaginary_pair(self):
        rs = poly_roots(Polynomial((1.0, 0.0, 1.0)))
        got = sorted(rs.roots, key=lambda z: z.imag)
        assert got[0] == pytest.approx(-1j, abs=1e-12)
        assert got[1] == pytest.approx(1j, abs=1e-12)

    def test_reconstructed_from_sampled_roots(self, rng):
        for _ in range(20):
            # Well-separated roots keep the reconstruction well conditioned.
            sample = sorted(np.arange(-2.0, 3.0) + rng.uniform(-0.3, 0.3, size=5))
            poly = np.poly(sample)  # product of (x - r_i)
            rs = poly_roots(Polynomial(tuple(poly)))
            got = sorted(z.real for z in rs.roots)
            assert np.max(np.abs(np.array(got) - np.array(sample))) < 1e-9

    def test_deflates_zero_roots(self):
        rs = poly_roots(Polynomial((1.0, -1.0, 0.0, 0.0)))
        reals = sorted(z.real for z in rs.roots)
        assert reals == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_deterministic(self):
        p = Polynomial((1.0, 0.3, -2.0, 0.7, 1.1, -0.4))
        assert poly_roots(p).roots == poly_roots(p).roots


class TestCharPoly:
    def test_identity(self):
        cp = char_poly(np.eye(5))
        assert cp.coeffs == pytest.approx((1.0, -5.0, 10.0, -10.0, 5.0, -1.0), abs=1e-12)

    def test_known_diagonal(self):
        cp = char_poly(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
        want = np.poly([1.0, 2.0, 3.0, 4.0, 5.0])
        assert cp.coeffs == pytest.approx(tuple(want), rel=1e-12)
        assert cp.coeffs[-1] == pytest.approx(-120.0, rel=1e-12)

    def test_trace_and_det_coefficients(self, rng):
        for _ in range(20):
            A = rng.uniform(-1.0, 1.0, size=(5, 5))
            cp = char_poly(A)
            assert cp.coeffs[1] == pytest.approx(-np.trace(A), rel=1e-10, abs=1e-12)
            det = cofactor_det(A)
            assert cp.coeffs[-1] == pytest.approx((-1.0) ** 5 * det, rel=1e-9, abs=1e-11)

    def test_rejects_non_square(self):
        with pytest.raises(NumericsError):
            char_poly(np.zeros((2, 3)))

    def test_overflow_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="^characteristic polynomial overflows$"):
                char_poly(np.diag([1.0, 1.0, 1.0, -1e200, 1.0]))


class TestRouthHurwitz:
    def test_stable_quadratic(self):
        assert routh_hurwitz(Polynomial((1.0, 3.0, 2.0))).verdict == "stable"

    def test_unstable_quadratic(self):
        assert routh_hurwitz(Polynomial((1.0, -1.0, 2.0))).verdict == "unstable"

    def test_negative_leading_normalized(self):
        assert routh_hurwitz(Polynomial((-1.0, -3.0, -2.0))).verdict == "stable"

    def test_marginal_inconclusive(self):
        # lambda^2 + 1: pure imaginary pair, first minor exactly 0.
        assert routh_hurwitz(Polynomial((1.0, 0.0, 1.0))).verdict == "inconclusive"

    def test_agrees_with_root_signs(self, rng):
        checked = 0
        for _ in range(500):
            degree = int(rng.integers(1, 6))
            coeffs = rng.uniform(-2.0, 2.0, size=degree + 1)
            if abs(coeffs[0]) < 0.1:
                continue
            p = Polynomial(tuple(coeffs))
            hv = routh_hurwitz(p)
            max_re = poly_roots(p).max_real
            if hv.verdict == "inconclusive" or abs(max_re) < 1e-9:
                continue
            checked += 1
            assert hv.verdict == ("stable" if max_re < 0 else "unstable")
        assert checked > 300

    def test_rejects_degree_over_5(self):
        with pytest.raises(NumericsError):
            routh_hurwitz(Polynomial((1.0,) * 7))

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_one_det_call(self, monkeypatch, degree):
        calls = []
        det = np.linalg.det

        def counted(a):
            calls.append(np.shape(a))
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counted)
        routh_hurwitz(Polynomial(tuple(range(1, degree + 2))))
        assert calls == [(degree, degree, degree)]


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
