"""Self-contained numerics for small dense problems.

Everything here is sized for the 5-compartment model: polynomials of degree
at most 8, 5x5 matrices, nonlinear systems in at most 5 unknowns.  A
polynomial is a plain sequence of real coefficients in descending degree.
A spectrum (the roots of a polynomial or the eigenvalues of a matrix) is a
plain tuple of complex numbers sorted by (real, imaginary) part.  All
functions are pure and deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = [
    "NumericsError",
    "NewtonError",
    "HurwitzVerdict",
    "poly_roots",
    "routh_hurwitz",
    "newton_solve",
    "MARGINAL_RE",
    "MARGINAL_MINOR",
]

#: Real parts within this band of zero give no stability verdict.
MARGINAL_RE = 1e-9
#: Hurwitz minors within this band of zero give no stability verdict.
MARGINAL_MINOR = 1e-12

MAX_DEGREE = 8


class NumericsError(RuntimeError):
    pass


class NewtonError(NumericsError):
    """Newton iteration failed; carries the last iterate and its residual."""

    def __init__(self, message: str, last_iterate, residual: float):
        super().__init__(message)
        self.last_iterate = np.asarray(last_iterate, dtype=float)
        self.residual = residual


def _root_set(roots) -> tuple[complex, ...]:
    """``roots`` as a spectrum: complex numbers in the stable sort by
    (real, imaginary) part, so exact ties keep their input order."""
    return tuple(sorted(map(complex, roots), key=lambda z: (z.real, z.imag)))


def _leading(roots) -> complex:
    """The root that ``max(_root_set(roots), key=real)`` picks, without
    sorting: the first of largest real part in spectrum order."""
    lead = None
    for z in roots:
        if lead is None or z.real > lead.real or (
            z.real == lead.real and z.imag < lead.imag
        ):
            lead = z
    return complex(lead)


def _nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _eigvals(a) -> list:
    """Eigenvalues of the real square matrix ``a``, or of each matrix of a
    stack, as (nested) lists of complex numbers: the bits of
    ``np.linalg.eigvals(a).astype(complex).tolist()``.

    The LAPACK ``dgeev`` gufunc that ``np.linalg.eigvals`` calls is called
    directly, without that wrapper's per-call type dispatch, cast to real
    and finiteness scan, which cost more than ``dgeev`` itself on a 5x5
    matrix.  Non-convergence still raises ``LinAlgError``, under the
    wrapper's error state.  Each caller checks that ``a`` is finite, on
    the Python floats it builds ``a`` from: given an inf or NaN entry,
    ``dgeev`` returns NaNs, or values that ignore the entry, and no error."""
    with np.errstate(
        call=_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        return _umath_linalg.eigvals(a, signature="d->D").tolist()


def _coefficients(coeffs, max_degree: int) -> tuple[float, ...]:
    """``coeffs`` as a float tuple, after checking that they describe a
    polynomial of degree 1..``max_degree`` with a nonzero leading
    coefficient and finite entries."""
    a = tuple(map(float, coeffs))
    if not 1 <= len(a) - 1 <= max_degree:
        raise NumericsError(f"degree {len(a) - 1} is outside 1..{max_degree}")
    if a[0] == 0.0:
        raise NumericsError("leading coefficient must be nonzero")
    if not all(map(math.isfinite, a)):
        raise NumericsError("non-finite coefficient")
    return a


def poly_roots(coeffs) -> tuple[complex, ...]:
    """All complex roots of the polynomial with coefficients ``coeffs``
    (descending degree, 1..MAX_DEGREE) as the eigenvalues of its companion
    matrix (``np.roots``; Edelman & Murakami 1995), as a spectrum.
    Trailing zero coefficients give exact zero roots."""
    return _root_set(np.roots(_coefficients(coeffs, MAX_DEGREE)))


@dataclass(frozen=True)
class HurwitzVerdict:
    """Routh-Hurwitz classification of a real polynomial.

    ``stable`` iff (with the leading coefficient normalized positive) all
    coefficients and all principal minors of the Hurwitz matrix are strictly
    positive; any minor within 1e-12 of zero yields ``inconclusive``.
    """

    minors: tuple[float, ...]
    all_positive: bool
    verdict: str


def _homogeneous(form, values, degrees) -> tuple[float, ...]:
    """``form(*values)`` in plain floats: forms homogeneous of ``degrees``
    in ``values``.  A form that is not finite, because a product overflowed,
    is evaluated again on the values scaled by an exact power of two 2**-e
    that puts the largest magnitude in [0.5, 1), and scaled back by
    2**(degree e): +-inf with its sign past the float range, never NaN.
    Only those forms are scaled, since scaling pushes a value far below the
    largest into the subnormal range, where it loses its bits."""
    forms = form(*values)
    if all(map(math.isfinite, forms)):
        return forms
    e = math.frexp(max(map(abs, values)))[1]
    scaled = form(*(math.ldexp(v, -e) for v in values))
    return tuple(
        f if math.isfinite(f) else _unscaled(g, k * e)
        for f, g, k in zip(forms, scaled, degrees)
    )


def _unscaled(x: float, e: int) -> float:
    """``x * 2**e``, or +-inf with the sign of ``x`` past the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _hurwitz_minors(a0, a1, a2, a3, a4, a5) -> tuple[float, ...]:
    """The five leading Hurwitz minors of a0 s^5 + ... + a5 in closed form."""
    d2 = a1 * a2 - a0 * a3
    d3 = a3 * d2 - a1 * (a1 * a4 - a0 * a5)
    d4 = a4 * d3 - a5 * (a1 * a2 * a2 - a0 * a1 * a4 - a0 * a2 * a3 + a0 * a0 * a5)
    return a1, d2, d3, d4, a5 * d4


def routh_hurwitz(coeffs) -> HurwitzVerdict:
    """Classify the root locations of the polynomial with coefficients
    ``coeffs`` (descending degree, 1..5) via Hurwitz minors.

    The coefficients are checked (degree, nonzero leading coefficient,
    finite entries) and handed to :func:`_hurwitz`, the private core that
    ``stability.classify`` calls on the characteristic polynomial, which
    ``char_poly`` has already checked.

    The n leading minors of the Hurwitz matrix H[i, j] = a[2i - j + 1]
    are its closed-form determinants, with a_k = 0 past the degree:
    D1 = a1, D2 = a1 a2 - a0 a3, D3 = a3 D2 - a1 (a1 a4 - a0 a5),
    D4 = a4 D3 - a5 (a1 a2^2 - a0 a1 a4 - a0 a2 a3 + a0^2 a5) and
    D5 = a5 D4.  Dk is homogeneous of degree k in the coefficients and is
    evaluated in plain floats, scaled only where it overflows (see
    :func:`_homogeneous`): a minor beyond the float range is +-inf with
    its sign, and none is NaN.  Against exact rational elimination, each
    minor keeps its sign class and lies within 1e-9 relative of the exact
    one on the polynomials ``classify`` sees.  Minors within
    MARGINAL_MINOR of zero give no verdict."""
    return _hurwitz(_coefficients(coeffs, 5))


def _hurwitz(a: tuple[float, ...]) -> HurwitzVerdict:
    """:func:`routh_hurwitz` on ``a``, a tuple of finite floats of degree
    1..5 with a nonzero leading coefficient, unchecked."""
    n = len(a) - 1
    if a[0] < 0:
        a = tuple(-c for c in a)
    minors = _homogeneous(_hurwitz_minors, a + (0.0,) * (5 - n), range(1, 6))[:n]
    # No minor is NaN, so min() reads the signs that all() and any() would.
    all_positive = min(minors) > 0.0
    if min(map(abs, minors)) < MARGINAL_MINOR:
        verdict = "inconclusive"
    elif all_positive and min(a) > 0.0:
        verdict = "stable"
    else:
        verdict = "unstable"
    return HurwitzVerdict(minors=minors, all_positive=all_positive, verdict=verdict)


def newton_solve(
    F: Callable[[np.ndarray], np.ndarray],
    J: Callable[[np.ndarray], np.ndarray],
    x0,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> np.ndarray:
    """Damped Newton iteration for a small nonlinear system.

    Full steps with halving line search (damping factor down to 2**-20)
    until ``||F(x)||_inf < tol``.  Deterministic for fixed inputs.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    fx = np.atleast_1d(np.asarray(F(x), dtype=float))
    norm = float(np.abs(fx).max())
    for _ in range(max_iter):
        if norm < tol:
            return x
        Jx = np.atleast_2d(np.asarray(J(x), dtype=float))
        try:
            step = np.linalg.solve(Jx, -fx)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular Jacobian: {exc}", x, norm) from exc
        if not np.all(np.isfinite(step)):
            raise NewtonError("non-finite Newton step", x, norm)
        lam = 1.0
        while True:
            xn = x + lam * step
            fn = np.atleast_1d(np.asarray(F(xn), dtype=float))
            nn = float(np.abs(fn).max()) if np.isfinite(fn).all() else math.inf
            if nn < norm or nn < tol:
                break
            lam *= 0.5
            if lam < 2.0**-20:
                raise NewtonError("line search failed to reduce the residual", x, norm)
        x, fx, norm = xn, fn, nn
    if norm < tol:
        return x
    raise NewtonError(f"no convergence in {max_iter} iterations", x, norm)
