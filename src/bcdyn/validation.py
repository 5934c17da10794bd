"""Cross-module property suites on seeded random instances.

These are the same invariants the test suite asserts, packaged so a
deployed build can re-run them (`bcdyn validate`).  Everything is a pure
function of the seed; the rendered report is byte-stable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .equilibria import drug_level, estrogen_level, find_all
from .integrator import IntegrationConfig, integrate
from .model import ModelParams, SystemState, jacobian, make_rhs
from .numerics import poly_roots, routh_hurwitz
from .stability import classify

__all__ = [
    "SuiteResult",
    "draw_params",
    "draw_state",
    "run_validation",
    "suite_jacobian_fd",
    "suite_vieta",
    "suite_hurwitz_roots",
    "suite_equilibrium_residuals",
    "suite_positivity",
    "suite_block_spectrum",
    "suite_estrogen_closed_form",
    "suite_catalog_completeness",
]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


# (name, low, high) in the order draw_params draws them.
_DRAWS = (
    ("m", 0.1, 1.0), ("p_M", 0.05, 0.7), ("r", 0.05, 0.9), ("n_M", 0.2, 2.0), ("chi", 0.05, 0.9),
    ("a1", 0.2, 2.0), ("b1", 0.2, 2.0), ("d1", 0.05, 2.0), ("epsilon", 0.0, 1.0), ("l1", 0.05, 2.0),
    ("k", 0.0, 0.95), ("a2", 0.2, 2.0), ("d", 0.3, 1.5), ("b2", 0.2, 2.0), ("g1", 0.05, 2.0),
    ("m_d", 0.05, 1.0), ("s", 0.05, 1.0), ("o", 0.1, 2.0), ("g2", 0.05, 2.0), ("l3", 0.05, 2.0),
    ("g", 0.1, 2.0), ("j_M", 0.1, 2.0), ("p", 0.05, 1.0), ("theta", 0.1, 2.0), ("v_M", 0.05, 1.0),
    ("xi", 0.1, 2.0),
)
_NAMES = [name for name, _, _ in _DRAWS]
_LOG = [name not in ("p_M", "r", "chi", "epsilon", "k") for name in _NAMES]
_K = _NAMES.index("k")
# The lows, then the highs; a log-uniform entry draws the log of its value.
_BOUNDS = np.array([
    [math.log(b) if log else b for b in bounds] for (_, *bounds), log in zip(_DRAWS, _LOG)
]).T.copy()
_BOUNDS_FIXED_K = np.delete(_BOUNDS, _K, axis=1)


def draw_params(rng: np.random.Generator, k: float | None = None) -> ModelParams:
    """A random valid parameter set at biological magnitudes.

    Draws stay in the dissipative regime (immunotherapy boost p_M and
    recruitment r below the immune decay m; recycling chi below the
    clearance n_M) so trajectories remain bounded and non-stiff, which
    keeps adaptive explicit stepping cheap over the standard horizons.

    One ``rng.uniform`` call draws the set in this order: m, the ratios
    p_M/m and r/(m - p_M), n_M, the ratio chi/n_M, then a1, b1, d1, epsilon,
    l1, k (skipped when given), a2, d, b2, g1, m_d, s, o, g2, l3, g, j_M, p,
    theta, v_M, xi.  The ratios, epsilon and k are uniform; the rest are
    log-uniform, exponentiated by ``math.exp`` (``np.exp`` can differ).
    """
    values = rng.uniform(*(_BOUNDS if k is None else _BOUNDS_FIXED_K)).tolist()
    if k is not None:
        values.insert(_K, k)
    v = dict(zip(_NAMES, [math.exp(x) if log else x for x, log in zip(values, _LOG)]))
    v["p_M"] *= v["m"]
    v["r"] *= v["m"] - v["p_M"]
    v["chi"] *= v["n_M"]
    return ModelParams(**v)


def draw_state(rng: np.random.Generator, scale: float = 2.0) -> SystemState:
    return SystemState.from_sequence(rng.uniform(0.0, scale, size=5))


def suite_jacobian_fd(
    seed: int,
    draws: int = 200,
    jac_fn: Callable[[SystemState, ModelParams], np.ndarray] = jacobian,
) -> SuiteResult:
    """Analytic Jacobian vs central finite differences of the vector field."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        params = draw_params(rng)
        state = draw_state(rng)
        f = make_rhs(params)
        J = jac_fn(state, params)
        x = state.as_array()
        for j in range(5):
            h = 1e-6 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (np.array(f(*xp)) - np.array(f(*xm))) / (2.0 * h)
            err = np.max(np.abs(fd - J[:, j]) / np.maximum(1.0, np.abs(J[:, j])))
            worst = max(worst, float(err))
    return SuiteResult(
        "jacobian_vs_finite_differences", worst < 1e-6,
        f"draws={draws} worst_rel_err={worst:.3e}",
    )


def _seeded_polynomial(rng: np.random.Generator) -> tuple[float, ...]:
    """Coefficients, in descending degree, of a polynomial of degree 1..5."""
    degree = int(rng.integers(1, 6))
    coeffs = rng.uniform(-2.0, 2.0, size=degree + 1)
    while abs(coeffs[0]) < 0.1:
        coeffs[0] = rng.uniform(-2.0, 2.0)
    return tuple(coeffs.tolist())


def suite_vieta(seed: int, draws: int = 300) -> SuiteResult:
    """Root sum/product vs the coefficient ratios, for seeded polynomials."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        p = _seeded_polynomial(rng)
        roots = poly_roots(p).roots
        n = len(p) - 1
        sum_err = abs(sum(roots) - (-p[1] / p[0]))
        prod = 1.0 + 0.0j
        for z in roots:
            prod *= z
        prod_err = abs(prod - (-1.0) ** n * p[-1] / p[0])
        scale = 1.0 + max(abs(z) for z in roots) ** n
        worst = max(worst, sum_err / scale, prod_err / scale)
    return SuiteResult("vieta_identities", worst < 1e-8, f"draws={draws} worst={worst:.3e}")


def suite_hurwitz_roots(seed: int, draws: int = 500) -> SuiteResult:
    """Routh-Hurwitz verdict vs the root-sign verdict, outside the marginal
    band."""
    rng = np.random.default_rng(seed)
    checked = disagreements = 0
    for _ in range(draws):
        p = _seeded_polynomial(rng)
        verdict = routh_hurwitz(p).verdict
        max_re = poly_roots(p).max_real
        if verdict == "inconclusive" or abs(max_re) < 1e-9:
            continue
        checked += 1
        if verdict != ("stable" if max_re < 0 else "unstable"):
            disagreements += 1
    return SuiteResult(
        "hurwitz_vs_root_signs", disagreements == 0,
        f"checked={checked} disagreements={disagreements}",
    )


def suite_equilibrium_residuals(seed: int, draws: int = 50) -> SuiteResult:
    """Every confirmed equilibrium zeroes the vector field to 1e-10 and
    shares the closed-form estrogen component."""
    rng = np.random.default_rng(seed)
    confirmed = 0
    worst = 0.0
    e_mismatch = 0
    for _ in range(draws):
        params = draw_params(rng)
        e_star = estrogen_level(params)
        for eq in find_all(params):
            if eq.point.E != e_star:
                e_mismatch += 1
            if eq.confirmed:
                confirmed += 1
                worst = max(worst, eq.residual)
    return SuiteResult(
        "equilibrium_residuals",
        worst < 1e-10 and e_mismatch == 0 and confirmed > 0,
        f"draws={draws} confirmed={confirmed} worst_residual={worst:.3e} E_mismatches={e_mismatch}",
    )


def suite_positivity(seed: int, draws: int = 50, t_end: float = 100.0) -> SuiteResult:
    """Nonnegative initial conditions never dip below -1e-9."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        params = draw_params(rng)
        x0 = draw_state(rng)
        cfg = IntegrationConfig(t0=0.0, t_end=t_end)
        traj = integrate(x0, params, cfg, sample_count=101)
        worst = min(worst, min(traj.positivity_violations))
    return SuiteResult("positivity", worst >= -1e-9, f"draws={draws} worst_excursion={worst:.3e}")


def suite_block_spectrum(seed: int, draws: int = 50) -> SuiteResult:
    """At T = 0 equilibria the spectrum is the union of the two 2x2 block
    spectra plus {-theta}."""
    rng = np.random.default_rng(seed)
    checked = 0
    worst = 0.0
    for _ in range(draws):
        params = draw_params(rng)
        for eq in find_all(params):
            if not eq.confirmed or eq.point.T != 0.0:
                continue
            rep = classify(eq, params)
            J = rep.jacobian
            expected = [
                z for b in ((0, 1), (2, 4)) for z in np.linalg.eigvals(J[np.ix_(b, b)]).tolist()
            ]
            expected.append(complex(-params.theta))
            gap = _spectrum_distance(list(rep.eigenvalues.roots), expected)
            worst = max(worst, gap)
            checked += 1
    return SuiteResult(
        "block_spectrum", worst < 1e-8 and checked > 0,
        f"checked={checked} worst_gap={worst:.3e}",
    )


def _spectrum_distance(a: list[complex], b: list[complex]) -> float:
    """Greedy matching distance between two eigenvalue multisets."""
    b = list(b)
    worst = 0.0
    for z in a:
        best = min(b, key=lambda w: abs(w - z))
        worst = max(worst, abs(best - z))
        b.remove(best)
    return worst


def suite_estrogen_closed_form(seed: int, draws: int = 50) -> SuiteResult:
    """Integrated estrogen matches E* + (E0 - E*) exp(-theta t)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        params = draw_params(rng)
        x0 = draw_state(rng)
        e_star = estrogen_level(params)
        t_end = 10.0 / params.theta
        cfg = IntegrationConfig(t0=0.0, t_end=t_end)
        traj = integrate(x0, params, cfg, sample_count=51)
        exact = e_star + (x0.E - e_star) * np.exp(-params.theta * traj.times)
        scale = max(x0.E, e_star, 1e-3)
        worst = max(worst, float(np.max(np.abs(traj.states[:, 3] - exact))) / scale)
    return SuiteResult(
        "estrogen_closed_form", worst < 1e-6, f"draws={draws} worst_rel_err={worst:.3e}"
    )


def _eliminated_curves(params: ModelParams):
    """The dead2 and coexisting steady curves as (families, state(T), T_hi):
    N from its closed form (or 0), I from the steady tumor equation and M
    from the steady drug equation, so only the immune equation is left.
    ``state(T)`` is None where a component is inadmissible.  Needs g1 > 0."""
    E = estrogen_level(params)
    a2d_net = params.a2 * params.d - params.m_d
    c = params.l1 * E * (1.0 - params.k)

    def with_drug(N: float, T: float, I: float):
        M = drug_level(params, I)
        return None if M is None else (N, T, I, E, M)

    def dead2(T: float):
        I = (a2d_net - params.b2 * T) / params.g1
        return with_drug(0.0, T, I) if I >= 0.0 else None

    def coexisting(T: float):
        N = (params.a1 - params.d1 * T / (1.0 + params.epsilon * T) - c) / params.b1
        I = (T * (a2d_net - params.b2 * T) + c * N) / (params.g1 * T)
        return with_drug(N, T, I) if N > 0.0 and I > 0.0 else None

    # With I > 0, b2*T^2 < (a2*d - m_d)*T + c*N and N <= (a1 - c)/b1.
    feed = max(c * (params.a1 - c) / params.b1, 0.0)
    T_hi = (a2d_net + math.sqrt(a2d_net * a2d_net + 4.0 * params.b2 * feed)) / (2.0 * params.b2)
    curves = [(("coexisting", "dead2"), coexisting, T_hi)]
    if a2d_net > 0.0:
        curves.append((("dead2",), dead2, a2d_net / params.b2))
    return curves


#: catalog_completeness runs the same seeded draws as drawn and on two
#: slices: total blockade (k = 1, so E* = 0) and epsilon = 0, where the
#: coexisting octic loses degree.
_COMPLETENESS_SLICES = (("", {}), ("k=1", {"k": 1.0}), ("epsilon=0", {"epsilon": 0.0}))


def suite_catalog_completeness(seed: int, draws: int = 50, grid_points: int = 400) -> SuiteResult:
    """Every sign change of the steady immune residual along the dead2 and
    coexisting curves has a confirmed catalog point of that family inside
    its bracket.  The residual is the vector field's immune component on a
    log grid in T, not the eliminated polynomial, so the check does not
    share the finders' coefficients."""
    passed = True
    details = []
    for label, pinned in _COMPLETENESS_SLICES:
        rng = np.random.default_rng(seed)
        brackets = missed = 0
        for _ in range(draws):
            params = draw_params(rng).replace(**pinned)
            confirmed = [eq for eq in find_all(params) if eq.confirmed]
            f = make_rhs(params)
            for families, state_at, T_hi in _eliminated_curves(params):
                if not T_hi > 0.0:
                    continue
                grid = np.geomspace(T_hi * 1e-6, T_hi, grid_points)
                states = [state_at(float(T)) for T in grid]
                values = [None if st is None else f(*st)[2] for st in states]
                for Ta, Tb, fa, fb in zip(grid, grid[1:], values, values[1:]):
                    if fa is None or fb is None or fa * fb >= 0.0:
                        continue
                    brackets += 1
                    missed += not any(
                        eq.family in families and Ta <= eq.point.T <= Tb for eq in confirmed
                    )
        passed &= missed == 0 and brackets > 0
        details.append((f"{label}: " if label else "") + f"brackets={brackets} missed={missed}")
    return SuiteResult("catalog_completeness", passed, f"draws={draws} " + "; ".join(details))


_SUITES = (
    suite_jacobian_fd,
    suite_vieta,
    suite_hurwitz_roots,
    suite_equilibrium_residuals,
    suite_positivity,
    suite_block_spectrum,
    suite_estrogen_closed_form,
    suite_catalog_completeness,
)


def run_validation(seed: int = 0) -> tuple[str, bool]:
    """Run every suite; returns (report text, all passed)."""
    lines = [f"validation seed={seed}"]
    all_passed = True
    for suite in _SUITES:
        result = suite(seed)
        status = "PASS" if result.passed else "FAIL"
        all_passed &= result.passed
        lines.append(f"{status} {result.name}: {result.detail}")
    lines.append("result: " + ("all suites passed" if all_passed else "FAILURES present"))
    return "\n".join(lines) + "\n", all_passed
