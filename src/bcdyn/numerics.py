"""Self-contained numerics for small dense problems.

Everything here is sized for the 5-compartment model: polynomials of degree
at most 8, 5x5 matrices, nonlinear systems in at most 5 unknowns.  A
polynomial is a plain sequence of real coefficients in descending degree.
All functions are pure and deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NumericsError",
    "NewtonError",
    "RootSet",
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


@dataclass(frozen=True)
class RootSet:
    """All complex roots of a polynomial or eigenvalues of a matrix."""

    roots: tuple[complex, ...]

    @property
    def max_real(self) -> float:
        return max(z.real for z in self.roots)


def _root_key(z: complex) -> tuple[float, float]:
    """The spectrum order: real part, then imaginary part, each rounded to
    12 digits."""
    return round(z.real, 12), round(z.imag, 12)


def _root_set(roots) -> RootSet:
    """``roots`` as complex numbers sorted by :func:`_root_key`."""
    return RootSet(roots=tuple(sorted(map(complex, roots), key=_root_key)))


def _leading(roots) -> complex:
    """The root that ``max(_root_set(roots).roots, key=real)`` picks,
    without sorting: the largest real part, an exact tie broken by
    :func:`_root_key`, then by the order of ``roots``."""
    lead = None
    for z in roots:
        if lead is None or z.real > lead.real or (
            z.real == lead.real and _root_key(z) < _root_key(lead)
        ):
            lead = z
    return complex(lead)


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


def poly_roots(coeffs) -> RootSet:
    """All complex roots of the polynomial with coefficients ``coeffs``
    (descending degree, 1..MAX_DEGREE) as the eigenvalues of its companion
    matrix (``np.roots``; Edelman & Murakami 1995).  Trailing zero
    coefficients give exact zero roots."""
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


def _hurwitz_index(n: int) -> np.ndarray:
    """(n, n, n) indices into ``a + [0.0, 1.0]`` (``a`` the n + 1
    coefficients) that lay out, in slice k - 1, the k x k leading block of
    the Hurwitz matrix H[i, j] = a[2i - j + 1] padded with the identity."""
    zero, one = n + 1, n + 2

    def entry(k: int, i: int, j: int) -> int:
        if i < k and j < k:
            return 2 * i - j + 1 if 0 <= 2 * i - j + 1 <= n else zero
        return one if i == j else zero

    return np.array(
        [[[entry(k, i, j) for j in range(n)] for i in range(n)] for k in range(1, n + 1)]
    )


_HURWITZ_INDEX = {n: _hurwitz_index(n) for n in range(1, 6)}


def routh_hurwitz(coeffs) -> HurwitzVerdict:
    """Classify the root locations of the polynomial with coefficients
    ``coeffs`` (descending degree, 1..5) via Hurwitz minors.

    All n leading minors come from one stacked ``np.linalg.det`` over the
    leading k x k blocks padded with the identity to n x n.  Partial
    pivoting never picks a padding row, which is zero in the block's
    columns (on a tie at zero the first candidate, a block row, wins); the
    elimination subtracts only zero products from the padding; and its
    unit pivots add nothing to the sign or log-magnitude that ``det``
    combines.  So each minor has the bits of ``det(H[:k, :k])``.  A minor
    beyond the float range is +-inf with its sign, without a warning.
    Minors within MARGINAL_MINOR of zero give no verdict."""
    a = list(_coefficients(coeffs, 5))
    n = len(a) - 1
    if a[0] < 0:
        a = [-c for c in a]
    with np.errstate(over="ignore"):
        minors = tuple(np.linalg.det(np.array(a + [0.0, 1.0])[_HURWITZ_INDEX[n]]).tolist())
    all_positive = all(mi > 0.0 for mi in minors)
    if any(abs(mi) < MARGINAL_MINOR for mi in minors):
        verdict = "inconclusive"
    elif all_positive and all(c > 0.0 for c in a):
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
