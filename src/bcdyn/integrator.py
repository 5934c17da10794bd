"""Adaptive integration of the model with positivity by step rejection and
settle detection.

A run starts with the explicit Dormand-Prince 5(4) pair.  After every
accepted step the analytic Jacobian of :func:`bcdyn.model.make_jacobian`
is evaluated at the new state and its spectral radius bounded by
Gershgorin's theorem, as LSODA bounds the Jacobian's norm (Petzold 1983;
Hairer & Wanner, Solving ODEs II, IV.2): the E row deflates with
eigenvalue -theta, and the eigenvalues of the tridiagonal (N, T, I, M)
block lie within its largest absolute row sum.  On the first step whose
size times this bound exceeds 3.25, about where the negative real axis
leaves the stability region of Dormand-Prince, the step is limited by
stability rather than accuracy, and the run finishes with the linearly
implicit Rosenbrock method RODAS (order 4(3), 6 stages, L-stable, stiffly
accurate, gamma = 1/4; the coefficients of Hairer's rodas.f, Solving ODEs
II, IV.7).  Its first step uses the Jacobian rows of that test; after
that it takes one Jacobian and one factorization of the step matrix per
step, and a rejected step reuses the Jacobian.  The switch is one-way and
automatic, and the time it happened is reported in
``Trajectory.stiff_switch_time``.  Both methods share the error norm, the
tolerances, the step controller bounds and the positivity policy; a run
that never switches is exactly the Dormand-Prince run.

Steps are taken at the controller's size; only the last one is shortened,
to land on t_end.  The samples come from each accepted step's continuous
extension: the order-4 dense output of Hairer's dopri5.f (Solving ODEs I,
II.6) and the order-3 dense output of rodas.f (Solving ODEs II, IV.7).
Both sets of coefficients were checked by convergence on the model: one
step from the default scenario's initial state, at theta = 0.3 and 0.7,
against a fine RK4 reference.  As h halves from 0.1 to 0.00625, the
dense-output error ratio tends to 32 for DOPRI5 (local error h^5) and 16
for RODAS (h^4); ``tests/test_integrator.py`` repeats the check.  The
step sequence, and so the final state and the step counts, do not
depend on the number of samples.  A step that is rejected at the minimum
size, 1e-14 of the span, raises ``StepUnderflowError``: its retry would
be the same computation.  So does a step whose scaled error is too large
to square, once the rejections have shrunk it to that size.

The field is autonomous, so a run steps in the elapsed time tau = t - t0
and reports the times t0 + tau, the last one exactly t_end: its states do
not depend on t0.  A span that overflows or whose minimum step underflows
is refused by ``IntegrationConfig``, and sample times that are not
distinct floats by :func:`integrate`, both with ``DomainError``.

Per-step cost: the step kernels, with their dense outputs, and the error
norm are straight-line code over the five components, on plain floats; a
``zip`` or generator over a 5-tuple costs more than the arithmetic it
carries.  A Dormand-Prince step is then six field evaluations plus about
as much time again in arithmetic, and its stiffness test one Jacobian.  A
RODAS step takes one Jacobian and six solves with the step matrix
I/(h*gamma) - J, factored once on the Jacobian's band structure
(:func:`_band_factor`): the decoupled E row deflates, and the (N, T, I, M)
block is tridiagonal, so the factorization is LAPACK's dgttrf unrolled for
n = 4 and each solve is a few dozen float operations.  At states of 50
inputs of the benchmark's stiff workload, the Dormand-Prince kernel takes
about 19 us per call, the RODAS kernel 25 us, a Jacobian 2.5 us and the
Gershgorin bound 1 us (Python 3.11, 2-vCPU x86-64, shared host).

Each stage sum adds its terms left to right in the order of the tableau's
row, and the trajectories are pinned bit for bit:
``tests/test_integrator.py`` holds the sha256 of 17 of them, so a change
that reorders any sum shows there.

Positivity follows Shampine, Thompson, Kierzenka & Byrne (2005): a step
whose continuous extension dips below the negativity floor anywhere in
it is rejected and retried at half the size.  ``PositivityError`` is
raised when the step would shrink below the resolvable scale while the
extension is still below the floor, or when a component projected back
to zero finds the vector field pointing out of the nonnegative orthant,
which the model's field never does.  A transcription bug in the field
thus still fails loudly instead of being masked.  Values in [floor, 0)
are projected to zero and the worst excursion, over the samples and the
step endpoints, is recorded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite, sqrt
from typing import ClassVar
import numpy as np

from .model import (
    ModelParams,
    SystemState,
    STATE_NAMES,
    DomainError,
    _FLOAT_MAX,
    _MAX_POINTS,
    _beyond_float,
    _check_count,
    _is_real,
    make_jacobian,
    make_rhs,
)

# perfbench/tracer.py counts calls by wrapping this name on this module, so
# it stays importable here; ModelParams validates itself on construction.
from .model import validate_params  # noqa: F401

__all__ = [
    "IntegrationConfig",
    "Trajectory",
    "PositivityError",
    "StepUnderflowError",
    "integrate",
    "settle",
    "default_horizon",
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
    # Fixed for every run, not a setting: readable, not an init field.
    negativity_floor: ClassVar[float] = -1e-9

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (_is_real(value) and abs(value) <= _FLOAT_MAX):
                got = "an integer beyond the float range" if _beyond_float(value) else repr(value)
                raise DomainError(f"{name} must be a finite real number, got {got}")
        if not self.t_end > self.t0:
            raise DomainError(f"t_end must exceed t0, got [{self.t0}, {self.t_end}]")
        span = float(self.t_end) - float(self.t0)
        if not isfinite(span):
            raise DomainError(f"t_end - t0 overflows, got [{self.t0}, {self.t_end}]")
        if 1e-14 * span == 0.0:
            # The minimum step would be 0, and a run could stand still.
            raise DomainError(
                f"t_end - t0 is too short: 1e-14 of it underflows, got [{self.t0}, {self.t_end}]"
            )
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")


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


# Dormand-Prince 5(4) tableau.  The first solution row is 5th order and is
# propagated (FSAL: its last stage is the first stage of the next step);
# the E row is the difference to the embedded 4th order solution.
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
# Dense output of order 4 (Hairer's dopri5.f, Solving ODEs I, II.6): the
# last coefficient of the continuous extension is h * sum_j d_j k_j.
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0,
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
# Dense output of order 3 over u1..u5 (rodas.f):
#   y(theta) = (1-theta) y + theta (y_new + (1-theta) (sum_j d2j u_j
#              + theta sum_j d3j u_j)).
_RD21, _RD22, _RD23, _RD24, _RD25 = (
    10.12623508344586, -7.487995877610167, -34.80091861555747, -7.992771707568823,
    1.025137723295662,
)
_RD31, _RD32, _RD33, _RD34, _RD35 = (
    -0.6762803392801253, 6.087714651680015, 16.43084320892478, 24.76722511418386,
    -6.594389125716872,
)

_MIN_DAMP = 0.2
_MAX_GROW = 5.0
_SAFETY = 0.9
# Step controller exponents: growth err**-alpha * err_prev**beta after an
# accepted step, shrink err**-shrink after a rejected one.  Dormand-Prince
# uses a PI controller for its order-5 propagating pair.  RODAS uses the
# elementary controller for its order-4 estimate (beta = 0): on a stiff
# run its errors are far below tolerance, and the PI term damps the
# growth that the step needs there.  Over 200 inputs of the benchmark's
# stiff workload (seed 1) it takes 98 accepted steps per run, and a PI
# controller with weights 0.7/4 and 0.4/4 takes 124.
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_SHRINK = 1.0 / 5.0
_ROS_ALPHA = 1.0 / 4.0
_ROS_BETA = 0.0
_ROS_SHRINK = 1.0 / 4.0
# Stiffness test: the run switches to RODAS after the first accepted step
# whose size times the bound of :func:`_spectral_bound` at its end exceeds
# _STIFF_RATIO, about where the real axis leaves the stability region of
# Dormand-Prince (-3.3).
_STIFF_RATIO = 3.25


def _dopri_step(f, y, k1, h):
    """One Dormand-Prince step of size ``h`` from ``y`` with ``k1 = f(y)``.

    Returns ``(y_new, f(y_new), error estimate, coeffs, lows)``, or None
    when ``y_new`` or ``f(y_new)`` is not finite.  ``coeffs`` holds the
    coefficients of the step's order-4 continuous extension, one 5-tuple
    ``(y0, diff, c, d, e)`` per component for :func:`_interpolate`;
    ``lows`` holds for each component the lower bound min(y0, y1) - |c|/4
    - 4|d|/27 - |e|/16 of its extension over the step.
    """
    y1, y2, y3, y4, y5 = y
    k11, k12, k13, k14, k15 = k1
    k21, k22, k23, k24, k25 = f(
        y1 + h * _A21 * k11, y2 + h * _A21 * k12, y3 + h * _A21 * k13,
        y4 + h * _A21 * k14, y5 + h * _A21 * k15,
    )
    k31, k32, k33, k34, k35 = f(
        y1 + h * (_A31 * k11 + _A32 * k21),
        y2 + h * (_A31 * k12 + _A32 * k22),
        y3 + h * (_A31 * k13 + _A32 * k23),
        y4 + h * (_A31 * k14 + _A32 * k24),
        y5 + h * (_A31 * k15 + _A32 * k25),
    )
    k41, k42, k43, k44, k45 = f(
        y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31),
        y2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32),
        y3 + h * (_A41 * k13 + _A42 * k23 + _A43 * k33),
        y4 + h * (_A41 * k14 + _A42 * k24 + _A43 * k34),
        y5 + h * (_A41 * k15 + _A42 * k25 + _A43 * k35),
    )
    k51, k52, k53, k54, k55 = f(
        y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41),
        y2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42),
        y3 + h * (_A51 * k13 + _A52 * k23 + _A53 * k33 + _A54 * k43),
        y4 + h * (_A51 * k14 + _A52 * k24 + _A53 * k34 + _A54 * k44),
        y5 + h * (_A51 * k15 + _A52 * k25 + _A53 * k35 + _A54 * k45),
    )
    s61 = y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51)
    s62 = y2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52)
    s63 = y3 + h * (_A61 * k13 + _A62 * k23 + _A63 * k33 + _A64 * k43 + _A65 * k53)
    s64 = y4 + h * (_A61 * k14 + _A62 * k24 + _A63 * k34 + _A64 * k44 + _A65 * k54)
    s65 = y5 + h * (_A61 * k15 + _A62 * k25 + _A63 * k35 + _A64 * k45 + _A65 * k55)
    k61, k62, k63, k64, k65 = f(s61, s62, s63, s64, s65)
    n1 = y1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
    n2 = y2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
    n3 = y3 + h * (_B1 * k13 + _B3 * k33 + _B4 * k43 + _B5 * k53 + _B6 * k63)
    n4 = y4 + h * (_B1 * k14 + _B3 * k34 + _B4 * k44 + _B5 * k54 + _B6 * k64)
    n5 = y5 + h * (_B1 * k15 + _B3 * k35 + _B4 * k45 + _B5 * k55 + _B6 * k65)
    if not (isfinite(n1) and isfinite(n2) and isfinite(n3) and isfinite(n4) and isfinite(n5)):
        return None
    k7 = k71, k72, k73, k74, k75 = f(n1, n2, n3, n4, n5)
    if not (isfinite(k71) and isfinite(k72) and isfinite(k73) and isfinite(k74)
            and isfinite(k75)):
        return None
    est = (
        h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71),
        h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * k72),
        h * (_E1 * k13 + _E3 * k33 + _E4 * k43 + _E5 * k53 + _E6 * k63 + _E7 * k73),
        h * (_E1 * k14 + _E3 * k34 + _E4 * k44 + _E5 * k54 + _E6 * k64 + _E7 * k74),
        h * (_E1 * k15 + _E3 * k35 + _E4 * k45 + _E5 * k55 + _E6 * k65 + _E7 * k75),
    )
    diff1 = n1 - y1
    diff2 = n2 - y2
    diff3 = n3 - y3
    diff4 = n4 - y4
    diff5 = n5 - y5
    c1 = h * k11 - diff1
    c2 = h * k12 - diff2
    c3 = h * k13 - diff3
    c4 = h * k14 - diff4
    c5 = h * k15 - diff5
    d1 = diff1 - h * k71 - c1
    d2 = diff2 - h * k72 - c2
    d3 = diff3 - h * k73 - c3
    d4 = diff4 - h * k74 - c4
    d5 = diff5 - h * k75 - c5
    e1 = h * (_D1 * k11 + _D3 * k31 + _D4 * k41 + _D5 * k51 + _D6 * k61 + _D7 * k71)
    e2 = h * (_D1 * k12 + _D3 * k32 + _D4 * k42 + _D5 * k52 + _D6 * k62 + _D7 * k72)
    e3 = h * (_D1 * k13 + _D3 * k33 + _D4 * k43 + _D5 * k53 + _D6 * k63 + _D7 * k73)
    e4 = h * (_D1 * k14 + _D3 * k34 + _D4 * k44 + _D5 * k54 + _D6 * k64 + _D7 * k74)
    e5 = h * (_D1 * k15 + _D3 * k35 + _D4 * k45 + _D5 * k55 + _D6 * k65 + _D7 * k75)
    coeffs = (
        (y1, diff1, c1, d1, e1), (y2, diff2, c2, d2, e2), (y3, diff3, c3, d3, e3),
        (y4, diff4, c4, d4, e4), (y5, diff5, c5, d5, e5),
    )
    lows = (
        min(y1, n1) - 0.25 * abs(c1) - 4.0 / 27.0 * abs(d1) - 0.0625 * abs(e1),
        min(y2, n2) - 0.25 * abs(c2) - 4.0 / 27.0 * abs(d2) - 0.0625 * abs(e2),
        min(y3, n3) - 0.25 * abs(c3) - 4.0 / 27.0 * abs(d3) - 0.0625 * abs(e3),
        min(y4, n4) - 0.25 * abs(c4) - 4.0 / 27.0 * abs(d4) - 0.0625 * abs(e4),
        min(y5, n5) - 0.25 * abs(c5) - 4.0 / 27.0 * abs(d5) - 0.0625 * abs(e5),
    )
    return (n1, n2, n3, n4, n5), k7, est, coeffs, lows


def _dense_minimum(coeffs, lows, y_new, floor):
    """The lowest value below ``floor`` that a step's continuous extension
    takes on [0, 1], as ``(value, component, theta)``, or None.

    Only components whose lower bound in ``lows`` is below the floor are
    examined: their extension is evaluated at the zeros of its derivative
    and at the endpoint, where it takes the value ``y_new``."""
    dip = None
    for i, ((y0, diff, c, dd, e), low, y1) in enumerate(zip(coeffs, lows, y_new)):
        if low >= floor:
            continue
        candidates = [(y1, 1.0)]
        # The extension in powers of theta is y0 + (diff + c) theta
        # + (d + e - c) theta^2 - (d + 2e) theta^3 + e theta^4.
        for root in np.roots([4.0 * e, -3.0 * (dd + 2.0 * e), 2.0 * (dd + e - c), diff + c]):
            theta = min(max(root.real, 0.0), 1.0)
            th1 = 1.0 - theta
            candidates.append((y0 + theta * (diff + th1 * (c + theta * (dd + th1 * e))), theta))
        v, theta = min(candidates)
        if v < floor and (dip is None or v < dip[0]):
            dip = (v, i, theta)
    return dip


def _interpolate(coeffs, theta):
    """The continuous extension at ``t + theta * h``:
    y0 + theta (diff + (1-theta) (c + theta (d + (1-theta) e)))."""
    th1 = 1.0 - theta
    C1, C2, C3, C4, C5 = coeffs
    a1, b1, c1, d1, e1 = C1
    a2, b2, c2, d2, e2 = C2
    a3, b3, c3, d3, e3 = C3
    a4, b4, c4, d4, e4 = C4
    a5, b5, c5, d5, e5 = C5
    return (
        a1 + theta * (b1 + th1 * (c1 + theta * (d1 + th1 * e1))),
        a2 + theta * (b2 + th1 * (c2 + theta * (d2 + th1 * e2))),
        a3 + theta * (b3 + th1 * (c3 + theta * (d3 + th1 * e3))),
        a4 + theta * (b4 + th1 * (c4 + theta * (d4 + th1 * e4))),
        a5 + theta * (b5 + th1 * (c5 + theta * (d5 + th1 * e5))),
    )


def _band_factor(J, diag):
    """Factor the step matrix W = diag*I - J for the Jacobian rows ``J``
    of the model, on its band structure; None if W is singular.

    The E row of J is (0, 0, 0, -theta, 0), so u_E = b_E / (diag + theta)
    comes first and the E column's couplings J03, J13, J23 move to the
    right-hand side.  What remains over (N, T, I, M) is tridiagonal (see
    ``stability.char_poly``) and is factored as LAPACK's dgttrf
    does: partial pivoting between neighbouring rows, with one diagonal of
    fill-in above the band when two rows swap, unrolled for n = 4.  The
    result is a tuple for :func:`_band_solve`: the E pivot and couplings,
    then per elimination step whether the rows swapped and the
    multiplier, then U's diagonal, first superdiagonal and fill-in."""
    (j00, j01, _, j03, _), (j10, j11, j12, j13, _), (_, j21, j22, j23, j24), E, M = J
    j42, j44 = M[2], M[4]
    # Row k of the reduced block is (l, d, u) around the diagonal; each
    # step eliminates l below the pivot of the row above it.
    d0, u0 = diag - j00, -j01
    l0, d1, u1 = -j10, diag - j11, -j12
    l1, d2, u2 = -j21, diag - j22, -j24
    l2, d3 = -j42, diag - j44
    if abs(d0) < abs(l0):
        s0, m0, f0 = True, d0 / l0, u1
        d0, u0, d1, u1 = l0, d1, u0 - m0 * d1, -m0 * u1
    elif d0 == 0.0:
        return None
    else:
        s0, m0, f0 = False, l0 / d0, 0.0
        d1 -= m0 * u0
    if abs(d1) < abs(l1):
        s1, m1, f1 = True, d1 / l1, u2
        d1, u1, d2, u2 = l1, d2, u1 - m1 * d2, -m1 * u2
    elif d1 == 0.0:
        return None
    else:
        s1, m1, f1 = False, l1 / d1, 0.0
        d2 -= m1 * u1
    if abs(d2) < abs(l2):
        s2, m2 = True, d2 / l2
        d2, u2, d3 = l2, d3, u2 - m2 * d3
    elif d2 == 0.0:
        return None
    else:
        s2, m2 = False, l2 / d2
        d3 -= m2 * u2
    if d3 == 0.0:
        return None
    return (diag - E[3], j03, j13, j23, s0, m0, s1, m1, s2, m2,
            d0, d1, d2, d3, u0, u1, u2, f0, f1)


def _band_solve(fac, b):
    """Solve W x = ``b`` with W factored by :func:`_band_factor`, as
    LAPACK's dgtts2 does; unrolled, as it runs six times per RODAS step."""
    e, j03, j13, j23, s0, m0, s1, m1, s2, m2, d0, d1, d2, d3, u0, u1, u2, f0, f1 = fac
    b0, b1, b2, bE, b3 = b
    xE = bE / e
    b0 += j03 * xE
    b1 += j13 * xE
    b2 += j23 * xE
    if s0:
        b0, b1 = b1, b0 - m0 * b1
    else:
        b1 -= m0 * b0
    if s1:
        b1, b2 = b2, b1 - m1 * b2
    else:
        b2 -= m1 * b1
    if s2:
        b2, b3 = b3, b2 - m2 * b3
    else:
        b3 -= m2 * b2
    x3 = b3 / d3
    x2 = (b2 - u2 * x3) / d2
    x1 = (b1 - u1 * x2 - f1 * x3) / d1
    x0 = (b0 - u0 * x1 - f0 * x2) / d0
    return x0, x1, x2, xE, x3


def _spectral_bound(J):
    """Gershgorin bound on the spectral radius of the Jacobian rows ``J``.

    The E row deflates as in :func:`_band_factor`, with eigenvalue -theta;
    the eigenvalues of the tridiagonal (N, T, I, M) block lie within its
    largest absolute row sum.  An entry beyond the float range gives inf."""
    (j00, j01, _, _, _), (j10, j11, j12, _, _), (_, j21, j22, _, j24), E, M = J
    return max(
        -E[3],
        abs(j00) + abs(j01),
        abs(j10) + abs(j11) + abs(j12),
        abs(j21) + abs(j22) + abs(j24),
        abs(M[2]) + abs(M[4]),
    )


def _rodas_step(f, y, k1, J, h):
    """One RODAS step of size ``h`` from ``y`` with ``k1 = f(y)`` and the
    Jacobian rows ``J`` at ``y``.

    Returns ``(y_new, f(y_new), error estimate, coeffs, lows)`` as
    :func:`_dopri_step` does, with the order-3 continuous extension (its
    e coefficients are 0), or None when the step matrix is singular or
    ``y_new`` or ``f(y_new)`` is not finite.
    """
    fac = _band_factor(J, 1.0 / (h * _GAMMA))
    if fac is None:
        return None
    c21, c31, c32 = _RC21 / h, _RC31 / h, _RC32 / h
    c41, c42, c43 = _RC41 / h, _RC42 / h, _RC43 / h
    c51, c52, c53, c54 = _RC51 / h, _RC52 / h, _RC53 / h, _RC54 / h
    c61, c62, c63, c64, c65 = _RC61 / h, _RC62 / h, _RC63 / h, _RC64 / h, _RC65 / h
    y1, y2, y3, y4, y5 = y

    u11, u12, u13, u14, u15 = _band_solve(fac, k1)
    g1, g2, g3, g4, g5 = f(
        y1 + _RA21 * u11, y2 + _RA21 * u12, y3 + _RA21 * u13,
        y4 + _RA21 * u14, y5 + _RA21 * u15,
    )
    u21, u22, u23, u24, u25 = _band_solve(fac, (
        g1 + c21 * u11, g2 + c21 * u12, g3 + c21 * u13, g4 + c21 * u14, g5 + c21 * u15,
    ))
    g1, g2, g3, g4, g5 = f(
        y1 + _RA31 * u11 + _RA32 * u21,
        y2 + _RA31 * u12 + _RA32 * u22,
        y3 + _RA31 * u13 + _RA32 * u23,
        y4 + _RA31 * u14 + _RA32 * u24,
        y5 + _RA31 * u15 + _RA32 * u25,
    )
    u31, u32, u33, u34, u35 = _band_solve(fac, (
        g1 + c31 * u11 + c32 * u21,
        g2 + c31 * u12 + c32 * u22,
        g3 + c31 * u13 + c32 * u23,
        g4 + c31 * u14 + c32 * u24,
        g5 + c31 * u15 + c32 * u25,
    ))
    g1, g2, g3, g4, g5 = f(
        y1 + _RA41 * u11 + _RA42 * u21 + _RA43 * u31,
        y2 + _RA41 * u12 + _RA42 * u22 + _RA43 * u32,
        y3 + _RA41 * u13 + _RA42 * u23 + _RA43 * u33,
        y4 + _RA41 * u14 + _RA42 * u24 + _RA43 * u34,
        y5 + _RA41 * u15 + _RA42 * u25 + _RA43 * u35,
    )
    u41, u42, u43, u44, u45 = _band_solve(fac, (
        g1 + c41 * u11 + c42 * u21 + c43 * u31,
        g2 + c41 * u12 + c42 * u22 + c43 * u32,
        g3 + c41 * u13 + c42 * u23 + c43 * u33,
        g4 + c41 * u14 + c42 * u24 + c43 * u34,
        g5 + c41 * u15 + c42 * u25 + c43 * u35,
    ))
    s51 = y1 + _RA51 * u11 + _RA52 * u21 + _RA53 * u31 + _RA54 * u41
    s52 = y2 + _RA51 * u12 + _RA52 * u22 + _RA53 * u32 + _RA54 * u42
    s53 = y3 + _RA51 * u13 + _RA52 * u23 + _RA53 * u33 + _RA54 * u43
    s54 = y4 + _RA51 * u14 + _RA52 * u24 + _RA53 * u34 + _RA54 * u44
    s55 = y5 + _RA51 * u15 + _RA52 * u25 + _RA53 * u35 + _RA54 * u45
    g1, g2, g3, g4, g5 = f(s51, s52, s53, s54, s55)
    u51, u52, u53, u54, u55 = _band_solve(fac, (
        g1 + c51 * u11 + c52 * u21 + c53 * u31 + c54 * u41,
        g2 + c51 * u12 + c52 * u22 + c53 * u32 + c54 * u42,
        g3 + c51 * u13 + c52 * u23 + c53 * u33 + c54 * u43,
        g4 + c51 * u14 + c52 * u24 + c53 * u34 + c54 * u44,
        g5 + c51 * u15 + c52 * u25 + c53 * u35 + c54 * u45,
    ))
    s61, s62, s63, s64, s65 = s51 + u51, s52 + u52, s53 + u53, s54 + u54, s55 + u55
    g1, g2, g3, g4, g5 = f(s61, s62, s63, s64, s65)
    u6 = u61, u62, u63, u64, u65 = _band_solve(fac, (
        g1 + c61 * u11 + c62 * u21 + c63 * u31 + c64 * u41 + c65 * u51,
        g2 + c61 * u12 + c62 * u22 + c63 * u32 + c64 * u42 + c65 * u52,
        g3 + c61 * u13 + c62 * u23 + c63 * u33 + c64 * u43 + c65 * u53,
        g4 + c61 * u14 + c62 * u24 + c63 * u34 + c64 * u44 + c65 * u54,
        g5 + c61 * u15 + c62 * u25 + c63 * u35 + c64 * u45 + c65 * u55,
    ))
    n1, n2, n3, n4, n5 = s61 + u61, s62 + u62, s63 + u63, s64 + u64, s65 + u65
    if not (isfinite(n1) and isfinite(n2) and isfinite(n3) and isfinite(n4) and isfinite(n5)):
        return None
    k7 = k71, k72, k73, k74, k75 = f(n1, n2, n3, n4, n5)
    if not (isfinite(k71) and isfinite(k72) and isfinite(k73) and isfinite(k74)
            and isfinite(k75)):
        return None
    c1 = _RD21 * u11 + _RD22 * u21 + _RD23 * u31 + _RD24 * u41 + _RD25 * u51
    c2 = _RD21 * u12 + _RD22 * u22 + _RD23 * u32 + _RD24 * u42 + _RD25 * u52
    c3 = _RD21 * u13 + _RD22 * u23 + _RD23 * u33 + _RD24 * u43 + _RD25 * u53
    c4 = _RD21 * u14 + _RD22 * u24 + _RD23 * u34 + _RD24 * u44 + _RD25 * u54
    c5 = _RD21 * u15 + _RD22 * u25 + _RD23 * u35 + _RD24 * u45 + _RD25 * u55
    d1 = _RD31 * u11 + _RD32 * u21 + _RD33 * u31 + _RD34 * u41 + _RD35 * u51
    d2 = _RD31 * u12 + _RD32 * u22 + _RD33 * u32 + _RD34 * u42 + _RD35 * u52
    d3 = _RD31 * u13 + _RD32 * u23 + _RD33 * u33 + _RD34 * u43 + _RD35 * u53
    d4 = _RD31 * u14 + _RD32 * u24 + _RD33 * u34 + _RD34 * u44 + _RD35 * u54
    d5 = _RD31 * u15 + _RD32 * u25 + _RD33 * u35 + _RD34 * u45 + _RD35 * u55
    coeffs = (
        (y1, n1 - y1, c1, d1, 0.0), (y2, n2 - y2, c2, d2, 0.0),
        (y3, n3 - y3, c3, d3, 0.0), (y4, n4 - y4, c4, d4, 0.0),
        (y5, n5 - y5, c5, d5, 0.0),
    )
    lows = (
        min(y1, n1) - 0.25 * abs(c1) - 4.0 / 27.0 * abs(d1),
        min(y2, n2) - 0.25 * abs(c2) - 4.0 / 27.0 * abs(d2),
        min(y3, n3) - 0.25 * abs(c3) - 4.0 / 27.0 * abs(d3),
        min(y4, n4) - 0.25 * abs(c4) - 4.0 / 27.0 * abs(d4),
        min(y5, n5) - 0.25 * abs(c5) - 4.0 / 27.0 * abs(d5),
    )
    return (n1, n2, n3, n4, n5), k7, u6, coeffs, lows


def _error_norm(est, y, y_new, rtol: float, atol: float) -> float:
    """Scaled RMS norm of a local error estimate; inf when a scaled
    component is too large to square."""
    e1, e2, e3, e4, e5 = est
    y1, y2, y3, y4, y5 = y
    n1, n2, n3, n4, n5 = y_new
    try:
        err_sq = (
            (e1 / (atol + rtol * max(abs(y1), abs(n1)))) ** 2
            + (e2 / (atol + rtol * max(abs(y2), abs(n2)))) ** 2
            + (e3 / (atol + rtol * max(abs(y3), abs(n3)))) ** 2
            + (e4 / (atol + rtol * max(abs(y4), abs(n4)))) ** 2
            + (e5 / (atol + rtol * max(abs(y5), abs(n5)))) ** 2
        )
    except OverflowError:
        return math.inf
    return sqrt(err_sq / 5.0)


def integrate(
    x0: SystemState,
    params: ModelParams,
    cfg: IntegrationConfig,
    sample_count: int = 201,
) -> Trajectory:
    """Integrate the model over [t0, t_end] with adaptive step control.

    Returns equidistant samples at ``sample_count`` times (endpoints
    included), taken from the steps' continuous extensions; sample times
    that are not distinct floats raise ``DomainError``.  The run
    starts with Dormand-Prince and switches to RODAS for good after the
    first accepted step that the stiffness test finds stability-limited
    (see the module docstring).  Deterministic:
    identical inputs give bit-identical output, and the steps do not
    depend on ``sample_count``.
    """
    _check_count("sample_count", sample_count)
    if not 2 <= sample_count <= _MAX_POINTS:
        raise DomainError(f"sample_count must be from 2 to {_MAX_POINTS}")
    f = make_rhs(params)
    jac = make_jacobian(params)
    if isinstance(x0, SystemState):
        y = x0.as_tuple()
    else:
        y = SystemState.from_sequence(x0).as_tuple()
    if not all(math.isfinite(v) for v in y):
        raise DomainError(f"non-finite initial state {y}")
    if any(v < 0.0 for v in y):
        raise DomainError(f"initial state must be componentwise nonnegative, got {y}")

    # Steps run in the elapsed time tau = t - t0 (see the module docstring).
    t0, t_end = float(cfg.t0), float(cfg.t_end)
    span = t_end - t0
    floor = cfg.negativity_floor
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    h_min = 1e-14 * span

    sample_dt = span / (sample_count - 1)
    sample_taus = [i * sample_dt for i in range(sample_count - 1)] + [span]
    times = [t0 + tau for tau in sample_taus[:-1]] + [t_end]
    if not all(a < b for a, b in zip(times, times[1:])):
        raise DomainError(
            f"{sample_count} sample times over [{t0}, {t_end}] are not distinct floats"
        )

    def clamp(vals):
        return tuple(0.0 if floor <= v < 0.0 else v for v in vals)

    out = [clamp(y)]
    next_sample = 1

    tau = 0.0
    k1 = f(*y)
    if not all(math.isfinite(v) for v in k1):
        raise DomainError(f"non-finite derivative at initial state {y}")

    fnorm = max(abs(v) for v in k1)
    ynorm = max(abs(v) for v in y)
    h = min(span / 100.0, 0.1 * (1.0 + ynorm) / (1e-10 + fnorm))

    worst = [0.0] * 5
    accepted = rejected = 0
    err_prev = 1.0
    alpha, beta, shrink = _PI_ALPHA, _PI_BETA, _SHRINK
    J = None            # Jacobian rows at y, shared by the attempts from y
    switch_time = None  # None while the run steps with Dormand-Prince

    # The size of the last attempt from t, reset when a step is accepted,
    # so at the top of the loop it is the size just rejected.  A retry of
    # that size from the same state is the same computation and would be
    # rejected again, forever; that happens once the controller is held at
    # h_min.
    h_tried = None

    while True:
        last = tau + h >= span - 1e-14 * span
        h_eff = span - tau if last else h
        if h_eff < h_min or h_eff == h_tried:
            raise StepUnderflowError(
                f"step {h_eff:.3e} underflowed at t = {t0 + tau:.6g}"
            )
        h_tried = h_eff

        if switch_time is None:
            step = _dopri_step(f, y, k1, h_eff)
        else:
            if J is None:
                J = jac(*y)
            step = _rodas_step(f, y, k1, J, h_eff)
        if step is None:
            rejected += 1
            h = max(h_eff * _MIN_DAMP, h_min)
            continue
        y_new, k7, est, coeffs, lows = step
        err = _error_norm(est, y, y_new, rtol, atol)
        if err > 1.0:
            rejected += 1
            fac = max(_MIN_DAMP, _SAFETY * err ** (-shrink))
            h = max(h_eff * fac, h_min)
            continue

        # The samples strictly inside the step come from its continuous
        # extension; the last sample, t_end, is the endpoint itself.  The
        # step is rejected when the extension dips below the floor anywhere
        # in it, so that the step sequence does not depend on the samples.
        tau_new = span if last else tau + h_eff
        dip = _dense_minimum(coeffs, lows, y_new, floor) if min(lows) < floor else None
        if dip is not None:
            rejected += 1
            if 0.5 * h_eff < h_min:
                v, i, theta = dip
                raise PositivityError(STATE_NAMES[i], t0 + (tau + theta * h_eff), v)
            h = 0.5 * h_eff
            continue

        accepted += 1
        h_tried = None
        while sample_taus[next_sample] < tau_new:
            row = _interpolate(coeffs, (sample_taus[next_sample] - tau) / h_eff)
            if min(row) < 0.0:
                worst = [min(w, v) for w, v in zip(worst, row)]
                row = clamp(row)
            out.append(row)
            next_sample += 1
        tau, y, k1, J = tau_new, y_new, k7, None
        if min(y) < 0.0:
            # The nonnegative orthant is forward invariant for the model, so
            # values in [floor, 0) are pure local error; projecting them
            # back keeps excursions from compounding across steps.  A field
            # that points out of the orthant at the projected point would
            # instead creep along it in steps of about |floor|, so it fails.
            worst = [min(w, v) for w, v in zip(worst, y)]
            y = tuple(max(v, 0.0) for v in y)
            k1 = f(*y)
            for i, (v, dv) in enumerate(zip(y_new, k1)):
                if v < 0.0 and dv < 0.0:
                    raise PositivityError(STATE_NAMES[i], t0 + tau, v)
        if last:
            out.append(y)
            break

        if err == 0.0:
            fac = _MAX_GROW
        else:
            fac = _SAFETY * err ** (-alpha) * err_prev ** beta
            fac = min(_MAX_GROW, max(_MIN_DAMP, fac))
        h = min(span, max(h_eff * fac, h_min))
        err_prev = max(err, 1e-4)
        if switch_time is None:
            # The rows also serve as the first RODAS step's Jacobian.  Rows
            # that overflow leave RODAS nothing to step with, so the run
            # stays explicit.
            try:
                J = jac(*y)
            except DomainError:
                continue
            if h_eff * _spectral_bound(J) > _STIFF_RATIO:
                switch_time = t0 + tau
                alpha, beta, shrink = _ROS_ALPHA, _ROS_BETA, _ROS_SHRINK

    return Trajectory(
        times=np.array(times),
        states=np.array(out),
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
) -> tuple[bool, SystemState]:
    """Integrate to ``horizon`` at tolerances 1e-8 relative and 1e-11
    absolute and test whether the state stopped moving.

    Settled when every sample in the final ``window`` stays within ``eps``
    of the terminal state in the scaled infinity norm
    ``||x(t) - x(horizon)||_inf / (1 + ||x(horizon)||_inf)``.
    """
    for name, value in (("horizon", horizon), ("window", window), ("eps", eps)):
        if _beyond_float(value):
            raise DomainError(f"{name} must be finite, got an integer beyond the float range")
    if not horizon > window > 0:
        raise DomainError(f"need horizon > window > 0, got {horizon}, {window}")
    sample_count = int(min(5000, max(401, 20 * horizon / window))) + 1
    cfg = IntegrationConfig(t0=0.0, t_end=horizon, rel_tol=1e-8, abs_tol=1e-11)
    traj = integrate(x0, params, cfg, sample_count=sample_count)
    final = traj.states[-1]
    scale = 1.0 + float(np.max(np.abs(final)))
    mask = traj.times >= horizon - window
    dev = np.max(np.abs(traj.states[mask] - final), axis=1) / scale
    return bool(np.all(dev < eps)), traj.final_state()
