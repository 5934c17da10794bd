"""Self-contained numerics for small dense problems.

Everything here is sized for the 5-compartment model: polynomials of degree
at most 8, 5x5 matrices, nonlinear systems in at most 5 unknowns.  All
functions are pure and deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NumericsError",
    "NewtonError",
    "Polynomial",
    "RootSet",
    "HurwitzVerdict",
    "poly_roots",
    "char_poly",
    "eigenvalues",
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
class Polynomial:
    """Real-coefficient polynomial, coefficients in descending degree."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise NumericsError("empty coefficient sequence")
        if len(self.coeffs) - 1 > MAX_DEGREE:
            raise NumericsError(f"degree {len(self.coeffs) - 1} exceeds {MAX_DEGREE}")
        if self.coeffs[0] == 0.0:
            raise NumericsError("leading coefficient must be nonzero")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise NumericsError("non-finite coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def norm(self) -> float:
        """Max-abs coefficient norm."""
        return max(abs(c) for c in self.coeffs)

    def __call__(self, z):
        acc = 0.0 + 0.0j if isinstance(z, complex) else 0.0
        for c in self.coeffs:
            acc = acc * z + c
        return acc


@dataclass(frozen=True)
class RootSet:
    """All complex roots of a polynomial or eigenvalues of a matrix."""

    roots: tuple[complex, ...]

    @property
    def max_real(self) -> float:
        return max(z.real for z in self.roots)


def _root_set(roots) -> RootSet:
    """``roots`` as complex numbers sorted by rounded real, then imaginary
    part."""
    ordered = sorted(map(complex, roots), key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    return RootSet(roots=tuple(ordered))


def poly_roots(p: Polynomial) -> RootSet:
    """All complex roots of ``p`` as the eigenvalues of its companion
    matrix (``np.roots``; Edelman & Murakami 1995).  Trailing zero
    coefficients give exact zero roots."""
    if p.degree < 1:
        raise NumericsError("degree must be at least 1")
    return _root_set(np.roots(p.coeffs))


def char_poly(matrix: np.ndarray) -> Polynomial:
    """Characteristic polynomial det(lambda*I - M) by the Faddeev-LeVerrier
    recurrence; monic, degree equal to the matrix dimension."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NumericsError(f"need a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NumericsError("non-finite matrix entry")
    n = A.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(A)
    identity = np.eye(n)
    for kk in range(1, n + 1):
        Mk = A @ (Mk + coeffs[-1] * identity) if kk > 1 else A.copy()
        ck = -np.trace(Mk) / kk
        coeffs.append(float(ck))
    return Polynomial(tuple(coeffs))


def eigenvalues(matrix: np.ndarray) -> RootSet:
    """Eigenvalues of a small dense matrix straight from LAPACK
    (``np.linalg.eigvals``).  Real eigenvalues have imaginary part exactly
    0.0."""
    return _root_set(np.linalg.eigvals(np.asarray(matrix, dtype=float)))


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


def routh_hurwitz(p: Polynomial, marginal: float = MARGINAL_MINOR) -> HurwitzVerdict:
    """Classify root locations of ``p`` (degree 1..5) via Hurwitz minors."""
    n = p.degree
    if not 1 <= n <= 5:
        raise NumericsError(f"routh_hurwitz supports degree 1..5, got {n}")
    a = list(p.coeffs)
    if a[0] < 0:
        a = [-c for c in a]

    def coeff(idx: int) -> float:
        return a[idx] if 0 <= idx <= n else 0.0

    H = np.array([[coeff(2 * i - j + 1) for j in range(n)] for i in range(n)])
    minors = tuple(float(np.linalg.det(H[: kk + 1, : kk + 1])) for kk in range(n))
    all_positive = all(mi > 0.0 for mi in minors)
    if any(abs(mi) < marginal for mi in minors):
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
