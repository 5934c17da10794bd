"""Adaptive integration of the model with positivity monitoring and settle
detection.

A run starts with the explicit Dormand-Prince 5(4) pair.  Every accepted
step also evaluates Hairer's DOPRI5 stiffness estimate
h*|k7 - k6| / |y_new - s6| (Hairer & Wanner, Solving ODEs II, IV.2), which
needs no extra derivative evaluation.  Once it has exceeded 3.25 on 15
accepted steps that were not shortened to land on a sample time, the step
is limited by stability rather than accuracy, and the run finishes with
the linearly implicit Rosenbrock method RODAS
(order 4(3), 6 stages, L-stable, stiffly accurate, gamma = 1/4; the
coefficients of Hairer's rodas.f, Solving ODEs II, IV.7).  It uses the
analytic Jacobian of :func:`bcdyn.model.make_jacobian`, one Jacobian and
one 5x5 LU per step; a rejected step reuses the Jacobian.  The switch is
one-way and automatic, and the time it happened is reported in
``Trajectory.stiff_switch_time``.  Both methods share the error norm, the
tolerances, the step controller bounds, the clipping to sample times and
the positivity policy; a run that never switches is exactly the
Dormand-Prince run.

Positivity handling is deliberately strict: a component dipping below the
negativity floor aborts the run instead of being projected back, so that
transcription bugs in the vector field surface as failures rather than
being silently masked.  Values in [floor, 0) are projected to zero and the
worst excursion is recorded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import (
    ModelParams,
    SystemState,
    STATE_NAMES,
    DomainError,
    make_jacobian,
    make_rhs,
)

# perfbench/tracer.py counts calls by wrapping this name on this module, so
# it stays importable here; integrate validates through make_rhs.
from .model import validate_params  # noqa: F401

__all__ = [
    "IntegrationConfig",
    "Trajectory",
    "PositivityError",
    "StepUnderflowError",
    "integrate",
    "settle",
    "default_horizon",
    "trajectory_to_csv",
]


class PositivityError(RuntimeError):
    """A state component fell below the negativity floor."""

    def __init__(self, component: str, t: float, value: float):
        super().__init__(f"component {component} reached {value:.6e} at t = {t:.6g}")
        self.component = component
        self.t = t
        self.value = value


class StepUnderflowError(RuntimeError):
    """The adaptive step shrank below the resolvable scale."""


@dataclass(frozen=True)
class IntegrationConfig:
    t0: float
    t_end: float
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    max_step: float | None = None
    initial_step: float | None = None
    negativity_floor: float = -1e-9

    def __post_init__(self) -> None:
        if not self.t_end > self.t0:
            raise DomainError(f"t_end must exceed t0, got [{self.t0}, {self.t_end}]")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.negativity_floor > 0:
            raise DomainError("negativity_floor must be <= 0")
        if self.max_step is not None and self.max_step <= 0:
            raise DomainError("max_step must be positive")
        if self.initial_step is not None and self.initial_step <= 0:
            raise DomainError("initial_step must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Equidistant samples of an accepted integration run."""

    times: np.ndarray
    states: np.ndarray            # shape (len(times), 5)
    accepted_steps: int
    rejected_steps: int
    positivity_violations: tuple[float, float, float, float, float]
    stiff_switch_time: float | None = None  # when the run switched to RODAS

    def state_at(self, index: int) -> SystemState:
        return SystemState.from_sequence(self.states[index])

    def final_state(self) -> SystemState:
        return self.state_at(len(self.times) - 1)

    def iter_states(self) -> Iterable[SystemState]:
        for row in self.states:
            yield SystemState.from_sequence(row)


# Dormand-Prince 5(4) tableau.  The first solution row is 5th order and is
# propagated (FSAL: its last stage is the first stage of the next step);
# the E row is the difference to the embedded 4th order solution.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
)

# RODAS tableau (Hairer's rodas.f) in the transformed variables u_i of
# Solving ODEs II, (IV.7.25):
#   (I/(h*gamma) - J) u_i = f(y + sum_j a_ij u_j) + sum_j (c_ij / h) u_j.
# The method is stiffly accurate: the order-3 embedded solution is
# y + a51 u1 + ... + a54 u4 + u5, the order-4 solution adds u6, and u6 is
# the error estimate.  The time coefficients vanish for an autonomous field.
_GAMMA = 0.25
_RA21 = 1.544
_RA31, _RA32 = 0.9466785280815826, 0.2557011698983284
_RA41, _RA42, _RA43 = 3.314825187068521, 2.896124015972201, 0.9986419139977817
_RA51, _RA52, _RA53, _RA54 = (
    1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950,
)
_RC21 = -5.6688
_RC31, _RC32 = -2.430093356833875, -0.2063599157091915
_RC41, _RC42, _RC43 = -0.1073529058151375, -9.594562251023355, -20.47028614809616
_RC51, _RC52, _RC53, _RC54 = (
    7.496443313967647, -10.24680431464352, -33.99990352819905, 11.70890893206160,
)
_RC61, _RC62, _RC63, _RC64, _RC65 = (
    8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
    -6.058818238834054,
)

_MIN_DAMP = 0.2
_MAX_GROW = 5.0
_SAFETY = 0.9
# Step controller exponents: growth err**-alpha * err_prev**beta after an
# accepted step, shrink err**-shrink after a rejected one.  Dormand-Prince
# uses a PI controller for its order-5 propagating pair.  RODAS uses the
# elementary controller for its order-4 estimate (beta = 0): on a stiff
# run its errors are far below tolerance, and the PI term would hold the
# step after one shortened to land on a sample time below the sample
# spacing, doubling the steps.
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_SHRINK = 1.0 / 5.0
_ROS_ALPHA = 1.0 / 4.0
_ROS_BETA = 0.0
_ROS_SHRINK = 1.0 / 4.0
# Stiffness test: the run switches to RODAS once the estimate has exceeded
# _STIFF_RATIO on _STIFF_STEPS accepted steps.  Steps shortened to land on
# a sample time are not counted: their size says nothing about stability.
_STIFF_RATIO = 3.25
_STIFF_STEPS = 15


def _dopri_step(f, y, k1, h):
    """One Dormand-Prince step of size ``h`` from ``y`` with ``k1 = f(y)``.

    Returns ``(y_new, f(y_new), error estimate, stiffness estimate)``, or
    None when ``y_new`` or ``f(y_new)`` is not finite.
    """
    y1, y2, y3, y4, y5 = y
    k11, k12, k13, k14, k15 = k1
    s2 = (
        y1 + h * _A21 * k11, y2 + h * _A21 * k12,
        y3 + h * _A21 * k13, y4 + h * _A21 * k14,
        y5 + h * _A21 * k15,
    )
    k2 = f(*s2)
    s3 = tuple(
        yi + h * (_A31 * a + _A32 * b)
        for yi, a, b in zip(y, k1, k2)
    )
    k3 = f(*s3)
    s4 = tuple(
        yi + h * (_A41 * a + _A42 * b + _A43 * c)
        for yi, a, b, c in zip(y, k1, k2, k3)
    )
    k4 = f(*s4)
    s5 = tuple(
        yi + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * dd)
        for yi, a, b, c, dd in zip(y, k1, k2, k3, k4)
    )
    k5 = f(*s5)
    s6 = tuple(
        yi + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * dd + _A65 * e)
        for yi, a, b, c, dd, e in zip(y, k1, k2, k3, k4, k5)
    )
    k6 = f(*s6)
    y_new = tuple(
        yi + h * (_B1 * a + _B3 * c + _B4 * dd + _B5 * e + _B6 * ff)
        for yi, a, c, dd, e, ff in zip(y, k1, k3, k4, k5, k6)
    )
    if not all(math.isfinite(v) for v in y_new):
        return None
    k7 = f(*y_new)
    if not all(math.isfinite(v) for v in k7):
        return None
    est = tuple(
        h * (_E1 * a + _E3 * c + _E4 * dd + _E5 * e + _E6 * ff + _E7 * gg)
        for a, c, dd, e, ff, gg in zip(k1, k3, k4, k5, k6, k7)
    )
    num = sum((a - b) ** 2 for a, b in zip(k7, k6))
    den = sum((a - b) ** 2 for a, b in zip(y_new, s6))
    stiffness = h * math.sqrt(num / den) if den > 0.0 else 0.0
    return y_new, k7, est, stiffness


def _lu_factor(a: list[list[float]]) -> list[int] | None:
    """LU factorisation with partial pivoting of a 5x5 matrix, in place:
    ``a`` ends up holding U and the unit-lower multipliers of L.  Returns
    the row order of the factored matrix, or None if singular."""
    n = 5
    order = list(range(n))
    for k in range(n):
        p, big = k, abs(a[k][k])
        for i in range(k + 1, n):
            if abs(a[i][k]) > big:
                p, big = i, abs(a[i][k])
        if big == 0.0:
            return None
        if p != k:
            a[k], a[p] = a[p], a[k]
            order[k], order[p] = order[p], order[k]
        rk = a[k]
        pivot = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            if ri[k] != 0.0:
                m = ri[k] / pivot
                ri[k] = m
                for j in range(k + 1, n):
                    ri[j] -= m * rk[j]
    return order


def _lu_solve(a: list[list[float]], order: list[int], b) -> tuple[float, ...]:
    """Solve the 5x5 system factored by :func:`_lu_factor`; unrolled, as
    it runs six times per Rosenbrock step."""
    x0, x1, x2, x3, x4 = [b[i] for i in order]
    r0, r1, r2, r3, r4 = a
    x1 -= r1[0] * x0
    x2 -= r2[0] * x0 + r2[1] * x1
    x3 -= r3[0] * x0 + r3[1] * x1 + r3[2] * x2
    x4 -= r4[0] * x0 + r4[1] * x1 + r4[2] * x2 + r4[3] * x3
    x4 /= r4[4]
    x3 = (x3 - r3[4] * x4) / r3[3]
    x2 = (x2 - r2[3] * x3 - r2[4] * x4) / r2[2]
    x1 = (x1 - r1[2] * x2 - r1[3] * x3 - r1[4] * x4) / r1[1]
    x0 = (x0 - r0[1] * x1 - r0[2] * x2 - r0[3] * x3 - r0[4] * x4) / r0[0]
    return x0, x1, x2, x3, x4


def _rodas_step(f, y, k1, J, h):
    """One RODAS step of size ``h`` from ``y`` with ``k1 = f(y)`` and the
    Jacobian rows ``J`` at ``y``.

    Returns ``(y_new, f(y_new), error estimate, None)``, or None when the
    step matrix is singular or ``y_new`` or ``f(y_new)`` is not finite.
    """
    w = [[-v for v in row] for row in J]
    diag = 1.0 / (h * _GAMMA)
    for i, row in enumerate(w):
        row[i] += diag
    order = _lu_factor(w)
    if order is None:
        return None
    c21, c31, c32 = _RC21 / h, _RC31 / h, _RC32 / h
    c41, c42, c43 = _RC41 / h, _RC42 / h, _RC43 / h
    c51, c52, c53, c54 = _RC51 / h, _RC52 / h, _RC53 / h, _RC54 / h
    c61, c62, c63, c64, c65 = _RC61 / h, _RC62 / h, _RC63 / h, _RC64 / h, _RC65 / h

    u1 = _lu_solve(w, order, k1)
    g = f(*[yi + _RA21 * a for yi, a in zip(y, u1)])
    u2 = _lu_solve(w, order, [gi + c21 * a for gi, a in zip(g, u1)])
    g = f(*[yi + _RA31 * a + _RA32 * b for yi, a, b in zip(y, u1, u2)])
    u3 = _lu_solve(w, order, [gi + c31 * a + c32 * b for gi, a, b in zip(g, u1, u2)])
    g = f(*[
        yi + _RA41 * a + _RA42 * b + _RA43 * c
        for yi, a, b, c in zip(y, u1, u2, u3)
    ])
    u4 = _lu_solve(w, order, [
        gi + c41 * a + c42 * b + c43 * c
        for gi, a, b, c in zip(g, u1, u2, u3)
    ])
    s5 = tuple(
        yi + _RA51 * a + _RA52 * b + _RA53 * c + _RA54 * dd
        for yi, a, b, c, dd in zip(y, u1, u2, u3, u4)
    )
    g = f(*s5)
    u5 = _lu_solve(w, order, [
        gi + c51 * a + c52 * b + c53 * c + c54 * dd
        for gi, a, b, c, dd in zip(g, u1, u2, u3, u4)
    ])
    s6 = tuple(si + e for si, e in zip(s5, u5))
    g = f(*s6)
    u6 = _lu_solve(w, order, [
        gi + c61 * a + c62 * b + c63 * c + c64 * dd + c65 * e
        for gi, a, b, c, dd, e in zip(g, u1, u2, u3, u4, u5)
    ])
    y_new = tuple(si + e for si, e in zip(s6, u6))
    if not all(math.isfinite(v) for v in y_new):
        return None
    k7 = f(*y_new)
    if not all(math.isfinite(v) for v in k7):
        return None
    return y_new, k7, u6, None


def _error_norm(est, y, y_new, rtol: float, atol: float) -> float:
    """Scaled RMS norm of a local error estimate."""
    err_sq = 0.0
    for ei, yi, yn in zip(est, y, y_new):
        sc = atol + rtol * max(abs(yi), abs(yn))
        err_sq += (ei / sc) ** 2
    return math.sqrt(err_sq / 5.0)


def integrate(
    x0: SystemState,
    params: ModelParams,
    cfg: IntegrationConfig,
    sample_count: int = 201,
) -> Trajectory:
    """Integrate the model over [t0, t_end] with adaptive step control.

    Returns equidistant samples at ``sample_count`` times (endpoints
    included).  The run starts with Dormand-Prince and switches to RODAS
    for good once the stiffness test fires (see the module docstring).
    Deterministic: identical inputs give bit-identical output.
    """
    if sample_count < 2:
        raise DomainError("sample_count must be at least 2")
    f = make_rhs(params)  # validates params
    if isinstance(x0, SystemState):
        y = x0.as_tuple()
    else:
        y = SystemState.from_sequence(x0).as_tuple()
    if not all(math.isfinite(v) for v in y):
        raise DomainError(f"non-finite initial state {y}")
    if any(v < 0.0 for v in y):
        raise DomainError(f"initial state must be componentwise nonnegative, got {y}")

    t0, t_end = cfg.t0, cfg.t_end
    span = t_end - t0
    floor = cfg.negativity_floor
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    max_step = cfg.max_step if cfg.max_step is not None else span
    h_min = 1e-14 * span

    sample_dt = span / (sample_count - 1)
    sample_times = [t0 + i * sample_dt for i in range(sample_count - 1)] + [t_end]

    def clamp(vals):
        return tuple(0.0 if floor <= v < 0.0 else v for v in vals)

    out = [clamp(y)]
    next_sample = 1

    t = t0
    k1 = f(*y)
    if not all(math.isfinite(v) for v in k1):
        raise DomainError(f"non-finite derivative at initial state {y}")

    if cfg.initial_step is not None:
        h = min(cfg.initial_step, max_step)
    else:
        fnorm = max(abs(v) for v in k1)
        ynorm = max(abs(v) for v in y)
        h = min(max_step, span / 100.0, 0.1 * (1.0 + ynorm) / (1e-10 + fnorm))

    worst = [0.0] * 5
    accepted = rejected = 0
    err_prev = 1.0
    alpha, beta, shrink = _PI_ALPHA, _PI_BETA, _SHRINK
    stiff_hits = 0
    jac = None  # bound when the run switches to RODAS
    J = None    # Jacobian rows at y, shared by the attempts from y
    switch_time = None

    while next_sample < len(sample_times):
        t_target = sample_times[next_sample]
        clipped = t + h >= t_target - 1e-14 * span
        h_eff = t_target - t if clipped else h
        if h_eff < h_min:
            raise StepUnderflowError(
                f"step {h_eff:.3e} underflowed at t = {t:.6g}"
            )

        if jac is None:
            step = _dopri_step(f, y, k1, h_eff)
        else:
            if J is None:
                J = jac(*y)
            step = _rodas_step(f, y, k1, J, h_eff)
        if step is None:
            rejected += 1
            h = max(h_eff * _MIN_DAMP, h_min)
            continue
        y_new, k7, est, stiffness = step
        err = _error_norm(est, y, y_new, rtol, atol)

        if err <= 1.0:
            accepted += 1
            t = t_target if clipped else t + h_eff
            y = y_new
            k1 = k7
            J = None
            projected = False
            for i, v in enumerate(y):
                if v < worst[i]:
                    worst[i] = v
                if v < floor:
                    raise PositivityError(STATE_NAMES[i], t, v)
                if v < 0.0:
                    projected = True
            if projected:
                # Nonnegative orthant is forward invariant for the model, so
                # values in [floor, 0) are pure local error; projecting them
                # back keeps excursions from compounding across steps.
                y = tuple(max(v, 0.0) for v in y)
                k1 = f(*y)
            if clipped:
                out.append(clamp(y))
                next_sample += 1
            if err == 0.0:
                fac = _MAX_GROW
            else:
                fac = _SAFETY * err ** (-alpha) * err_prev ** beta
                fac = min(_MAX_GROW, max(_MIN_DAMP, fac))
            h = min(max_step, max(h_eff * fac, h_min))
            err_prev = max(err, 1e-4)
            if jac is None and not clipped and stiffness > _STIFF_RATIO:
                stiff_hits += 1
                if stiff_hits == _STIFF_STEPS:
                    jac = make_jacobian(params)
                    switch_time = t
                    alpha, beta, shrink = _ROS_ALPHA, _ROS_BETA, _ROS_SHRINK
        else:
            rejected += 1
            fac = max(_MIN_DAMP, _SAFETY * err ** (-shrink))
            h = max(h_eff * fac, h_min)

    times = np.array(sample_times)
    states = np.array(out)
    return Trajectory(
        times=times,
        states=states,
        accepted_steps=accepted,
        rejected_steps=rejected,
        positivity_violations=tuple(worst),
        stiff_switch_time=switch_time,
    )


def default_horizon(params: ModelParams) -> float:
    """Settling horizon from the slowest guaranteed linear rate."""
    slowest = min(params.theta, params.m, params.m_d)
    return min(500.0 / slowest, 1e6)


def settle(
    x0: SystemState,
    params: ModelParams,
    horizon: float,
    window: float,
    eps: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-11,
) -> tuple[bool, SystemState]:
    """Integrate to ``horizon`` and test whether the state stopped moving.

    Settled when every sample in the final ``window`` stays within ``eps``
    of the terminal state in the scaled infinity norm
    ``||x(t) - x(horizon)||_inf / (1 + ||x(horizon)||_inf)``.
    """
    if not horizon > window > 0:
        raise DomainError(f"need horizon > window > 0, got {horizon}, {window}")
    sample_count = int(min(5000, max(401, 20 * horizon / window))) + 1
    cfg = IntegrationConfig(t0=0.0, t_end=horizon, rel_tol=rel_tol, abs_tol=abs_tol)
    traj = integrate(x0, params, cfg, sample_count=sample_count)
    final = traj.states[-1]
    scale = 1.0 + float(np.max(np.abs(final)))
    mask = traj.times >= horizon - window
    dev = np.max(np.abs(traj.states[mask] - final), axis=1) / scale
    return bool(np.all(dev < eps)), traj.final_state()


def trajectory_to_csv(traj: Trajectory) -> str:
    """Trajectory as CSV text: header ``t,N,T,I,E,M``, 17 significant
    digits, LF line endings."""
    lines = ["t,N,T,I,E,M"]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
    return "\n".join(lines) + "\n"
