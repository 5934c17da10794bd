"""Adaptive integration: accuracy, dense output, positivity and settling."""
import hashlib
import itertools
import math
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest

from bcdyn import (
    DomainError,
    IntegrationConfig,
    PositivityError,
    StepUnderflowError,
    SystemState,
    default_scenario,
    integrate,
    integrator,
    settle,
)
from bcdyn.equilibria import estrogen_level, find_all
from bcdyn.formats import trajectory_to_csv
from bcdyn.integrator import default_horizon
from bcdyn.model import _MAX_POINTS, PARAM_NAMES, make_jacobian, make_rhs
from bcdyn.validation import draw_params, draw_state

from conftest import bounded, random_params, refuse


def rk4_reference(x0, params, t_end, h):
    """Fixed-step classical 4th-order reference integrator."""
    f = make_rhs(params)
    y = x0.as_tuple()
    t = 0.0
    steps = int(round(t_end / h))
    for _ in range(steps):
        k1 = f(*y)
        k2 = f(*(yi + 0.5 * h * ki for yi, ki in zip(y, k1)))
        k3 = f(*(yi + 0.5 * h * ki for yi, ki in zip(y, k2)))
        k4 = f(*(yi + h * ki for yi, ki in zip(y, k3)))
        y = tuple(
            yi + h / 6.0 * (a + 2.0 * b + 2.0 * c + dd)
            for yi, a, b, c, dd in zip(y, k1, k2, k3, k4)
        )
        t += h
    return y


class TestIntegrate:
    def test_sourceless_origin_stays_zero(self, base_params):
        pm = base_params.replace(s=0.0, p=0.0, v_M=0.0)
        traj = integrate(
            SystemState(0, 0, 0, 0, 0), pm, IntegrationConfig(t0=0.0, t_end=50.0)
        )
        assert np.all(traj.states == 0.0)

    def test_sample_grid(self, base_params):
        cfg = IntegrationConfig(t0=0.0, t_end=10.0)
        traj = integrate(SystemState(1, 0.3, 0.5, 0.4, 0.2), base_params, cfg, sample_count=41)
        assert len(traj.times) == 41
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 10.0
        assert np.allclose(np.diff(traj.times), 0.25)

    def test_estrogen_closed_form(self, rng):
        for _ in range(10):
            pm = draw_params(rng)
            x0 = draw_state(rng)
            e_star = estrogen_level(pm)
            t_end = 10.0 / pm.theta
            traj = integrate(x0, pm, IntegrationConfig(t0=0.0, t_end=t_end), sample_count=21)
            exact = e_star + (x0.E - e_star) * np.exp(-pm.theta * traj.times)
            scale = max(x0.E, e_star, 1e-3)
            assert np.max(np.abs(traj.states[:, 3] - exact)) / scale < 1e-6

    def test_against_fixed_step_reference(self, base_params):
        x0 = SystemState(1.0, 0.3, 0.5, 0.4, 0.2)
        cfg = IntegrationConfig(t0=0.0, t_end=50.0, rel_tol=1e-6, abs_tol=1e-9)
        traj = integrate(x0, base_params, cfg, sample_count=2)
        # At h = 1e-3 this reference agrees with h = 1e-4 to 8.5e-13 relative.
        ref = rk4_reference(x0, base_params, 50.0, 1e-3)
        got = traj.states[-1]
        rel = max(
            abs(g - r) / max(1.0, abs(r)) for g, r in zip(got, ref)
        )
        assert rel < 1e-5

    def test_rejects_negative_initial_state(self, base_params):
        with pytest.raises(DomainError):
            integrate(
                SystemState(-0.1, 0, 0, 0, 0), base_params,
                IntegrationConfig(t0=0.0, t_end=1.0),
            )

    # Six of these ten runs switch to RODAS, at t = 20 to 49; whichever
    # method a run ends with, it stays within 1e-5 of a tight reference
    # (the worst of the ten is 4.3e-7).
    def test_positivity_bookkeeping(self, rng):
        for _ in range(10):
            pm, x0 = draw_params(rng), draw_state(rng)
            traj = integrate(x0, pm, IntegrationConfig(t0=0.0, t_end=50.0), sample_count=51)
            assert min(traj.positivity_violations) >= -1e-9
            assert np.all(traj.states >= 0.0)
            ref = integrate(
                x0, pm, IntegrationConfig(t0=0.0, t_end=50.0, rel_tol=1e-11, abs_tol=1e-14),
                sample_count=51,
            ).states
            assert np.max(np.abs(traj.states - ref) / np.maximum(1.0, np.abs(ref))) < 1e-5

    def test_deterministic(self, base_params):
        cfg = IntegrationConfig(t0=0.0, t_end=20.0)
        x0 = SystemState(1, 0.3, 0.5, 0.4, 0.2)
        a = integrate(x0, base_params, cfg)
        b = integrate(x0, base_params, cfg)
        assert np.array_equal(a.states, b.states)
        assert a.accepted_steps == b.accepted_steps

    def test_config_validation(self):
        with pytest.raises(DomainError):
            IntegrationConfig(t0=1.0, t_end=0.0)
        with pytest.raises(DomainError):
            IntegrationConfig(t0=0.0, t_end=1.0, rel_tol=0.0)

    # Every run used the step cap of the span, the initial-step heuristic and
    # the floor -1e-9; the three are no longer settings.
    @pytest.mark.parametrize("name", ["max_step", "initial_step", "negativity_floor"])
    def test_fixed_settings_are_not_init_fields(self, name):
        with pytest.raises(TypeError):
            IntegrationConfig(t0=0.0, t_end=1.0, **{name: 1.0})
        cfg = IntegrationConfig(t0=0.0, t_end=1.0)
        assert cfg.negativity_floor == IntegrationConfig.negativity_floor == -1e-9
        assert [f.name for f in fields(cfg)] == ["t0", "t_end", "rel_tol", "abs_tol"]


class TestShiftedStart:
    """The field is autonomous, so a run over [t0, t0 + span] gives the
    states of the run over [0, span] bit for bit.  Stepping in absolute time
    lost the low bits of t + h: on the default scenario the largest scaled
    state difference was 1.4e-8 at t0 = 1e9 and 2.9e-3 at t0 = 1e14."""

    @pytest.mark.parametrize("t0", [1e3, 1e6, 1e9, 1e12, 1e14])
    def test_default_scenario(self, t0):
        sc = default_scenario()
        base = integrate(sc.initial_state, sc.params, IntegrationConfig(0.0, 100.0), 201)
        traj = integrate(sc.initial_state, sc.params, IntegrationConfig(t0, t0 + 100.0), 201)
        assert np.array_equal(traj.states, base.states)
        assert (traj.accepted_steps, traj.rejected_steps) == (base.accepted_steps,
                                                              base.rejected_steps)
        assert np.array_equal(traj.times, t0 + base.times)
        assert traj.times[-1] == t0 + 100.0

    def test_stiff_run_reports_the_shifted_switch(self):
        x0, params, cfg, count = stiff_inputs(1, 1)[0]
        base = integrate(x0, params, cfg, count)
        t0 = 1e9
        traj = integrate(x0, params, IntegrationConfig(t0, t0 + cfg.t_end), count)
        assert np.array_equal(traj.states, base.states)
        assert traj.stiff_switch_time == t0 + base.stiff_switch_time


def pool_draw(seed, index):
    """Input ``index`` of a pool of draw_params/draw_state pairs drawn in
    turn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    for _ in range(index):
        draw_params(rng)
        draw_state(rng)
    return draw_params(rng), draw_state(rng)


class TestSampleGrid:
    """The steps do not depend on how many samples a run asks for."""

    # Runs whose T decays onto the negativity floor.
    @pytest.mark.parametrize("seed, index", [(2, 1807), (3, 1841), (4, 1816)])
    def test_same_steps_at_every_sample_count(self, seed, index):
        params, x0 = pool_draw(seed, index)
        cfg = IntegrationConfig(t0=0.0, t_end=100.0)
        runs = [integrate(x0, params, cfg, sample_count=n) for n in (51, 101, 201, 1001)]
        for traj in runs:
            assert min(traj.positivity_violations) >= cfg.negativity_floor
            assert np.all(traj.states >= 0.0)
            assert traj.accepted_steps == runs[0].accepted_steps
            assert traj.rejected_steps == runs[0].rejected_steps
            assert np.array_equal(traj.states[-1], runs[0].states[-1])

    def test_shared_sample_times_agree(self, base_params):
        cfg = IntegrationConfig(t0=0.0, t_end=50.0)
        x0 = SystemState(1.0, 0.3, 0.5, 0.4, 0.2)
        coarse = integrate(x0, base_params, cfg, sample_count=11)
        fine = integrate(x0, base_params, cfg, sample_count=101)
        assert np.array_equal(coarse.times, fine.times[::10])
        scale = 1.0 + np.max(np.abs(fine.states))
        assert np.max(np.abs(coarse.states - fine.states[::10])) / scale < 1e-14


class TestDenseOutput:
    """One step from the default initial state: at fixed theta the error of
    the continuous extension falls by 2^(p+1) per halving of h, for the
    dense-output order p (4 for Dormand-Prince, 3 for RODAS)."""

    @pytest.mark.parametrize("method, order", [("dopri", 4), ("rodas", 3)])
    def test_error_ratio_at_fixed_theta(self, method, order):
        sc = default_scenario()
        x0, pm = sc.initial_state, sc.params
        f, jac = make_rhs(pm), make_jacobian(pm)
        y0 = x0.as_tuple()
        k1 = f(*y0)
        for theta in (0.3, 0.7):
            errors = []
            for h in (0.05, 0.025, 0.0125):
                if method == "dopri":
                    coeffs = integrator._dopri_step(f, y0, k1, h)[3]
                else:
                    coeffs = integrator._rodas_step(f, y0, k1, jac(*y0), h)[3]
                got = np.array(integrator._interpolate(coeffs, theta))
                ref = np.array(rk4_reference(x0, pm, theta * h, theta * h / 200))
                errors.append(np.max(np.abs(got - ref)))
            ratio = errors[-2] / errors[-1]
            assert 0.85 * 2 ** (order + 1) < ratio < 1.15 * 2 ** (order + 1)


def backward_error(W, x, b):
    """||W x - b|| / (eps (||W|| ||x|| + ||b||)), in the infinity norm."""
    x, b = np.asarray(x), np.asarray(b)
    scale = np.abs(W).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    return np.abs(W @ x - b).max() / (np.finfo(float).eps * scale)


def band_jacobian(sub):
    """Jacobian rows with the model's zero pattern, diagonal -1 (E: -0.7),
    fixed couplings elsewhere and the subdiagonal entries J10, J21, J42 of
    the (N, T, I, M) block set to ``sub``."""
    j10, j21, j42 = sub
    return (
        (-1.0, 0.5, 0.0, 0.3, 0.0),
        (j10, -1.0, 0.5, 0.2, 0.0),
        (0.0, j21, -1.0, 0.1, 0.5),
        (0.0, 0.0, 0.0, -0.7, 0.0),
        (0.0, 0.0, j42, 0.0, -1.0),
    )


class TestBandSolve:
    """The RODAS step matrix W = I/(h gamma) - J is factored on the
    Jacobian's band structure; its solves must be as backward stable as a
    dense LU with partial pivoting."""

    def test_against_dense_solve_at_drawn_states(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            params, x0 = draw_params(rng), draw_state(rng)
            factor = float(10.0 ** rng.uniform(0.0, 3.0))
            params = params.replace(n_M=params.n_M * factor, v_M=params.v_M * factor)
            J = make_jacobian(params)(*x0.as_tuple())
            for h in np.logspace(-8.0, 3.0, 12).tolist():
                diag = 1.0 / (h * integrator._GAMMA)
                W = diag * np.eye(5) - np.array(J)
                b = (rng.standard_normal(5) * 10.0 ** rng.uniform(-3.0, 3.0, size=5)).tolist()
                x = integrator._band_solve(integrator._band_factor(J, diag), b)
                assert backward_error(W, x, b) <= 4.0
                assert backward_error(W, np.linalg.solve(W, b), b) <= 4.0

    # Over the benchmark's stiff inputs of seeds 1 and 7919 only 3 of 99,183
    # factorizations swap rows, so each pivot choice is forced here: a
    # subdiagonal entry of 1e3 against a diagonal of about 2 swaps, one of
    # 1e-6 does not.
    @pytest.mark.parametrize("swaps", list(itertools.product((False, True), repeat=3)))
    def test_every_pivot_choice(self, swaps):
        J = band_jacobian([1e3 if s else 1e-6 for s in swaps])
        fac = integrator._band_factor(J, 1.0)
        assert fac[4:9:2] == swaps  # the swap flags of the three steps
        W = np.eye(5) - np.array(J)
        b = (1.0, -2.0, 3.0, -4.0, 5.0)
        x = integrator._band_solve(fac, b)
        assert backward_error(W, x, b) <= 4.0
        assert np.allclose(x, np.linalg.solve(W, b), rtol=1e-12, atol=0.0)

    # At h = 1 the diagonal 1/(h gamma) is 4: J_kk = 4 with no coupling to
    # the next row makes the k-th pivot exactly zero; the N-T block
    # [[1, 1], [1, 1]] makes the second one zero by elimination.
    @pytest.mark.parametrize(
        "entries",
        [{(0, 0): 4.0}, {(1, 1): 4.0}, {(2, 2): 4.0}, {(4, 4): 4.0},
         {(0, 0): 3.0, (0, 1): -1.0, (1, 0): -1.0, (1, 1): 3.0}],
    )
    def test_singular_block_rejects_the_step(self, entries, base_params):
        rows = [[0.0] * 5 for _ in range(5)]
        for k in range(5):
            rows[k][k] = -1.0
        rows[3][3] = -base_params.theta
        for (i, j), v in entries.items():
            rows[i][j] = v
        J = tuple(map(tuple, rows))
        f = make_rhs(base_params)
        y = default_scenario().initial_state.as_tuple()
        assert integrator._band_factor(J, 4.0) is None
        assert integrator._rodas_step(f, y, f(*y), J, 1.0) is None


class TestPositivity:
    def test_field_leaving_the_orthant_fails_loudly(self, base_params, monkeypatch):
        def leaky_rhs(params):
            f = make_rhs(params)

            def g(N, T, I, E, M):
                dN, _, dI, dE, dM = f(N, T, I, E, M)
                return dN, -1.0, dI, dE, dM

            return g

        monkeypatch.setattr(integrator, "make_rhs", leaky_rhs)
        start = time.perf_counter()
        with pytest.raises(PositivityError) as info:
            integrate(
                SystemState(1.0, 0.3, 0.5, 0.4, 0.2), base_params,
                IntegrationConfig(t0=0.0, t_end=10.0),
            )
        assert time.perf_counter() - start < 1.0
        assert info.value.component == "T"
        assert 0.29 < info.value.t < 0.31

    def test_default_scenario_step_count(self):
        sc = default_scenario()
        traj = integrate(sc.initial_state, sc.params, sc.integration, sc.sample_count)
        assert traj.accepted_steps < 300


class TestStiff:
    """Fast drug turnover (n_M and v_M scaled up) makes the run stiff; the
    stiffness test must hand it to the Rosenbrock step."""

    def test_scaled_drug_turnover_switches(self, base_params):
        pm = base_params.replace(n_M=base_params.n_M * 1e4, v_M=base_params.v_M * 1e4)
        x0 = SystemState(1.0, 0.3, 0.5, 0.4, 0.2)
        traj = integrate(x0, pm, IntegrationConfig(t0=0.0, t_end=100.0))
        # Dormand-Prince alone takes about 121k accepted steps here.
        assert traj.accepted_steps < 200
        assert traj.stiff_switch_time is not None and traj.stiff_switch_time < 1.0
        e_star = estrogen_level(pm)
        exact = e_star + (x0.E - e_star) * np.exp(-pm.theta * traj.times)
        assert np.max(np.abs(traj.states[:, 3] - exact)) / max(x0.E, e_star) < 1e-6
        assert min(traj.positivity_violations) >= -1e-9
        assert np.all(traj.states >= 0.0)

    def test_switched_run_against_fixed_step_reference(self, base_params):
        pm = base_params.replace(n_M=base_params.n_M * 1e2, v_M=base_params.v_M * 1e2)
        x0 = SystemState(1.0, 0.3, 0.5, 0.4, 0.2)
        traj = integrate(x0, pm, IntegrationConfig(t0=0.0, t_end=20.0), sample_count=2)
        assert traj.stiff_switch_time is not None
        # Fixed-step RK4 is stable here (h * n_M = 0.04) and never switches.
        ref = rk4_reference(x0, pm, 20.0, 1e-3)
        rel = max(abs(g - r) / max(1.0, abs(r)) for g, r in zip(traj.states[-1], ref))
        assert rel < 1e-5

    def test_switch_is_deterministic(self, base_params):
        pm = base_params.replace(n_M=base_params.n_M * 1e3, v_M=base_params.v_M * 1e3)
        cfg = IntegrationConfig(t0=0.0, t_end=20.0)
        x0 = SystemState(1.0, 0.3, 0.5, 0.4, 0.2)
        a = integrate(x0, pm, cfg)
        b = integrate(x0, pm, cfg)
        assert a.stiff_switch_time is not None
        assert a.stiff_switch_time == b.stiff_switch_time
        assert np.array_equal(a.states, b.states)

    def test_switches_no_later_in_fewer_steps(self):
        for item, (steps, switch) in zip(stiff_inputs(1, 8), ESTIMATE_SWITCH):
            traj = integrate(*item)
            assert traj.stiff_switch_time <= switch
            assert traj.accepted_steps < steps

    def test_switch_at_the_first_step_over_the_bound(self, monkeypatch):
        """Replays each run's accepted Dormand-Prince steps: the run switches
        after the first one whose size times the Gershgorin bound at its end
        exceeds 3.25, and its first RODAS step uses those Jacobian rows."""
        events = []
        dopri, rodas, make_jac = (
            integrator._dopri_step, integrator._rodas_step, integrator.make_jacobian
        )

        def recording_jacobian(params):
            jac = make_jac(params)

            def rows(*y):
                events.append(("jac", jac(*y)))
                return events[-1][1]

            return rows

        monkeypatch.setattr(integrator, "make_jacobian", recording_jacobian)
        monkeypatch.setattr(
            integrator, "_dopri_step",
            lambda f, y, k1, h: events.append(("dopri", h)) or dopri(f, y, k1, h),
        )
        monkeypatch.setattr(
            integrator, "_rodas_step",
            lambda f, y, k1, J, h: events.append(("rodas", J)) or rodas(f, y, k1, J, h),
        )
        for item in stiff_inputs(1, 8) + unscaled_inputs(0, 8):
            events.clear()
            traj = integrate(*item)
            # A Jacobian right after a Dormand-Prince attempt is the test at
            # the end of that attempt, accepted.
            tests = [
                (prev[1], ev[1]) for prev, ev in zip(events, events[1:])
                if prev[0] == "dopri" and ev[0] == "jac"
            ]
            over = [h * gershgorin_bound(J) > 3.25 for h, J in tests]
            if traj.stiff_switch_time is None:
                assert len(tests) == traj.accepted_steps - 1 and not any(over)
                continue
            assert over[-1] and not any(over[:-1])
            tau = 0.0
            for h, _ in tests:
                tau += h
            assert traj.stiff_switch_time == item[2].t0 + tau
            first_rodas = next(ev for ev in events if ev[0] == "rodas")
            assert first_rodas[1] is tests[-1][1]

    def test_bound_holds_the_spectral_radius(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params, x0 = draw_params(rng), draw_state(rng)
            factor = float(10.0 ** rng.uniform(0.0, 3.0))
            params = params.replace(n_M=params.n_M * factor, v_M=params.v_M * factor)
            J = make_jacobian(params)(*x0.as_tuple())
            rho = np.max(np.abs(np.linalg.eigvals(np.array(J))))
            assert rho <= integrator._spectral_bound(J) * (1.0 + 1e-12)
            assert integrator._spectral_bound(J) == gershgorin_bound(J)

    # The model reports a Jacobian whose (1 + epsilon T)^2 overflows as a
    # DomainError.  The test then has no bound and RODAS no Jacobian, so
    # the run stays explicit and returns.
    @pytest.mark.parametrize("epsilon", [1e200, 1e300])
    def test_overflowing_jacobian_keeps_the_run_explicit(self, epsilon):
        sc = default_scenario()
        pm = sc.params.replace(epsilon=epsilon)
        traj = bounded(lambda: integrate(sc.initial_state, pm, IntegrationConfig(0.0, 20.0), 11))
        assert traj.stiff_switch_time is None and traj.times[-1] == 20.0
        with pytest.raises(DomainError, match="Jacobian overflows"):
            make_jacobian(pm)(*traj.states[-1].tolist())


def gershgorin_bound(J):
    """max(theta, the largest absolute row sum of the (N, T, I, M) block)
    of the Jacobian rows ``J``, by numpy."""
    A = np.abs(np.array(J))
    block = A[np.ix_([0, 1, 2, 4], [0, 1, 2, 4])]
    return max(A[3, 3], float(block.sum(axis=1).max()))


# (accepted steps, switch time) of the stiff golden runs when a run switched
# only once Hairer's DOPRI5 estimate h |k7 - k6| / |y_new - s6| had exceeded
# 3.25 on 15 accepted steps.
ESTIMATE_SWITCH = [
    (170, 1.3986205199653914), (102, 0.0994252936361564), (282, 3.2217704902594266),
    (139, 1.576646066075375), (94, 0.18069248146457498), (288, 1.4920123540635513),
    (188, 2.231431762578598), (93, 1.79940635821433),
]


class TestSettle:
    def test_decoupled_estrogen_settles(self, base_params):
        pm = base_params.replace(
            d1=0.0, l1=0.0, g1=0.0, r=0.0, g2=0.0, l3=0.0, p_M=0.0, chi=0.0,
            s=0.0, v_M=0.0, theta=5.0,
        )
        e_star = estrogen_level(pm)
        settled, limit = settle(
            SystemState(0, 0, 0, 3.0, 0), pm, horizon=20.0, window=2.0, eps=1e-8
        )
        assert settled
        assert abs(limit.E - e_star) < 1e-6

    def test_returns_to_stable_equilibrium(self):
        for seed in range(60):
            pm = random_params(seed, k=1.0)
            stable = None
            from bcdyn import classify

            for eq in find_all(pm):
                if eq.confirmed and eq.family == "tumor_free":
                    rep = classify(eq, pm)
                    if rep.verdict == "stable":
                        stable = eq
                        break
            if stable is None:
                continue
            point = stable.point.as_array()
            x0 = np.maximum(point + 1e-3 * (1.0 + point), 0.0)
            horizon = min(default_horizon(pm), 2000.0)
            settled, limit = settle(
                SystemState.from_sequence(x0), pm, horizon, horizon / 10.0, eps=1e-6
            )
            scale = 1.0 + float(np.max(np.abs(point)))
            assert settled
            assert float(np.max(np.abs(limit.as_array() - point))) / scale < 1e-4
            return
        pytest.fail("no stable tumor-free instance found in the seed range")

    def test_precondition(self, base_params):
        with pytest.raises(DomainError):
            settle(SystemState(0, 0, 0, 0, 0), base_params, horizon=1.0, window=2.0, eps=1e-6)


class TestCsv:
    def test_header_and_rows(self, base_params):
        traj = integrate(
            SystemState(1, 0.3, 0.5, 0.4, 0.2), base_params,
            IntegrationConfig(t0=0.0, t_end=5.0), sample_count=11,
        )
        text = trajectory_to_csv(traj)
        lines = text.split("\n")
        assert lines[0] == "t,N,T,I,E,M"
        assert len(lines) == 13  # header + 11 rows + trailing newline
        assert lines[-1] == ""
        assert "\r" not in text


def stiff_inputs(seed, count):
    """Inputs built like the benchmark's stiff workload: a draw_params set
    with n_M and v_M scaled by a factor log-uniform in [1e2, 1e3], from a
    draw_state state, over [0, 20] at 101 samples."""
    rng = np.random.default_rng(seed)
    cfg = IntegrationConfig(t0=0.0, t_end=20.0)
    inputs = []
    for _ in range(count):
        params, x0 = draw_params(rng), draw_state(rng)
        factor = float(10.0 ** rng.uniform(2.0, 3.0))
        params = params.replace(n_M=params.n_M * factor, v_M=params.v_M * factor)
        inputs.append((x0, params, cfg, 101))
    return inputs


def unscaled_inputs(seed, count):
    """draw_params sets and draw_state states drawn in turn from
    ``default_rng(seed)``, over [0, 100] at 101 samples."""
    rng = np.random.default_rng(seed)
    cfg = IntegrationConfig(t0=0.0, t_end=100.0)
    inputs = []
    for _ in range(count):
        params, x0 = draw_params(rng), draw_state(rng)
        inputs.append((x0, params, cfg, 101))
    return inputs


def default_inputs():
    sc = default_scenario()
    return [(sc.initial_state, sc.params, sc.integration, sc.sample_count)]


GOLDEN_INPUTS = {
    "stiff": lambda: stiff_inputs(1, 8),
    "default": default_inputs,
    "unscaled": lambda: unscaled_inputs(0, 8),
}

# (sha256 of trajectory_to_csv, accepted steps, rejected steps, switch time)
GOLDEN = {
    "stiff": [
        ("3cf5e1baca7f77395f3929319f9c9ae8ecc3e69003eeda76d59f7274506b918b", 98, 1, 0.10682711121730082),
        ("589d83f29ca9b96056e4ca7161ba94aa11ebb9caa66a3fc768c109880e046b4a", 85, 0, 0.028386312827675356),
        ("e801d898351d6d8d3fc07f3a5034c1c05269a8e5028aee36fcb685568c95f8de", 99, 2, 0.11434839870083768),
        ("4d6d8e1f2649f642fa2e044bc585ea54ec9beb98c93063ee880d0737a8c9545c", 83, 2, 0.14784333785101533),
        ("5ff28c2f5d180d0e973f7fe771ad96f4ef5d17aaaadc0b30690fcc054af62dfc", 76, 1, 0.05116424887069241),
        ("e6f129c1e8426eb01a924a841df5f8a815390ffbe8d227d80f499ada44afe16d", 129, 0, 0.06351290716987049),
        ("91dc8aa970787c4070afcd249413f7a44d6a3519c90d0be33ed77f1126498dfe", 85, 1, 0.1369140489633045),
        ("0385ed338a48bafea9228f1bae86c6dfb5a49a92bdb61ac8440491b01ca00ce6", 76, 0, 0.37119470469519944),
    ],
    "default": [
        ("7aa8faf615b35c178ebebc4f6311d7f20e31339a0caa15348c5ce4dc2e08b74c", 244, 1, None),
    ],
    "unscaled": [
        ("180773ebe8bef5a08ebc0330fecac7260f5bb6cdfc69676f214d2fe5d3dbafa3", 65, 0, 18.895863432141734),
        ("7a7370ed3dcd185f6e1d350ffbf8daeaacb487c390876495acc26d39cb6b7459", 72, 0, 46.523416906457435),
        ("4c05b3e9a5b34d28d599e49f3af07a0da3b846f06c8f744ded9d296b6f9e9ef0", 76, 1, 33.8308340141987),
        ("2e354bbf02687b745c3f0d576520b23e87cfaec0b7914d250621ab309995890a", 82, 0, 27.471933662938994),
        ("2b1d693fcaee21cd27a59d7fe84ef21afe300b8c047b9feec70d7b28120eddef", 96, 0, 40.338486655450566),
        ("7198221b971e88e0cc64dec2e0bfa6c6c58440ae062fe5d40f3938727c1abb2f", 53, 0, 24.212826105958886),
        ("db8aac54ce382d4615dc95dc19d7a48512f2192e3d14f517e7009768596bc1cb", 49, 0, 22.77904502155587),
        ("5e91618ba35c66e69fbb19153fe197088d0d255f9924a78475543062a4b12c36", 97, 0, 47.95685952115394),
    ],
}


class TestGoldenTrajectories:
    """Trajectories pinned bit for bit, so that a change to the step
    kernels that alters any floating-point operation or the step sequence
    shows here.  The unscaled set holds runs that switch to RODAS and runs
    that clamp a dip in [floor, 0)."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
    def test_pinned(self, name):
        runs = [integrate(*item) for item in GOLDEN_INPUTS[name]()]
        got = [
            (
                hashlib.sha256(trajectory_to_csv(traj).encode()).hexdigest(),
                traj.accepted_steps, traj.rejected_steps, traj.stiff_switch_time,
            )
            for traj in runs
        ]
        assert got == GOLDEN[name]
        if name == "unscaled":
            assert any(traj.stiff_switch_time is not None for traj in runs)
            assert any(min(traj.positivity_violations) < 0.0 for traj in runs)


class TestExtremeValues:
    """Every call returns or fails with one of the library's errors, within
    a second: no hang, no bare OverflowError, no numpy warning."""

    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_parameter_extremes(self, name):
        sc = default_scenario()
        cfg = IntegrationConfig(t0=0.0, t_end=1.0)
        for value in (1e-300, 1e-30, 1e30, 1e300):
            # Built inside the bound: k outside [0, 1] fails on construction.
            bounded(lambda: integrate(
                sc.initial_state, sc.params.replace(**{name: value}), cfg, 11
            ))

    # A NaN rel_tol used to run forever; abs_tol = inf was accepted silently.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("rel_tol", math.nan), ("abs_tol", math.inf), ("t_end", math.inf),
            ("t0", -math.inf), ("rel_tol", "1e-6"), ("t_end", True),
        ],
    )
    def test_config_takes_finite_numbers_only(self, field, value):
        sc = default_scenario()

        def run():
            cfg = IntegrationConfig(**{"t0": 0.0, "t_end": 1.0, field: value})
            return integrate(sc.initial_state, sc.params, cfg, 11)

        outcome = bounded(run)
        assert isinstance(outcome, DomainError)
        assert str(outcome) == f"{field} must be a finite real number, got {value!r}"

    # math.isfinite raised a bare OverflowError on an int beyond the float
    # range; then the message printed all its digits, and past 4,300 digits
    # repr raised ValueError.
    @pytest.mark.parametrize("field", ["t0", "t_end", "rel_tol", "abs_tol"])
    def test_config_rejects_integers_beyond_the_float_range(self, field):
        for digits in (400, 5000):
            value = -(10**digits) if field == "t0" else 10**digits
            with pytest.raises(DomainError) as exc:
                IntegrationConfig(**{"t0": 0.0, "t_end": 1.0, field: value})
            assert str(exc.value) == (
                f"{field} must be a finite real number, got an integer beyond the float range"
            )

    # The span overflowed to inf, and the first step raised
    # StepUnderflowError("step inf underflowed").
    def test_overflowing_span_is_refused(self):
        with pytest.raises(DomainError) as exc:
            IntegrationConfig(t0=-1e308, t_end=1e308)
        assert str(exc.value) == "t_end - t0 overflows, got [-1e+308, 1e+308]"

    # Over [0, 5e-324] the first step, span / 100, was 0.0, and the run
    # accepted steps of size 0 forever.
    def test_span_below_the_minimum_step_is_refused(self):
        sc = default_scenario()
        outcome = bounded(lambda: integrate(
            sc.initial_state, sc.params, IntegrationConfig(t0=0.0, t_end=5e-324), 2
        ))
        assert isinstance(outcome, DomainError)
        assert str(outcome) == (
            "t_end - t0 is too short: 1e-14 of it underflows, got [0.0, 5e-324]"
        )

    # At t0 = 1e16 neighbouring floats are 2 apart, and the run returned
    # sample times with spacings 0, 0, 2, ...
    def test_colliding_sample_times_are_refused(self):
        sc = default_scenario()
        cfg = IntegrationConfig(t0=1e16, t_end=1e16 + 4.0)
        with pytest.raises(DomainError) as exc:
            integrate(sc.initial_state, sc.params, cfg, 11)
        assert str(exc.value) == (
            "11 sample times over [1e+16, 1.0000000000000004e+16] are not distinct floats"
        )

    # span / (sample_count - 1) raised a bare OverflowError.
    def test_sample_count_beyond_the_float_range(self):
        sc = default_scenario()
        with pytest.raises(DomainError) as exc:
            integrate(sc.initial_state, sc.params, sc.integration, sample_count=10**400)
        assert str(exc.value) == f"sample_count must be from 2 to {_MAX_POINTS}"

    # A count that fit in a float built that many sample times.
    def test_sample_count_is_capped_before_the_run(self, monkeypatch):
        monkeypatch.setattr(integrator, "make_rhs", refuse)
        sc = default_scenario()
        with pytest.raises(DomainError) as exc:
            integrate(sc.initial_state, sc.params, sc.integration, sample_count=_MAX_POINTS + 1)
        assert str(exc.value) == f"sample_count must be from 2 to {_MAX_POINTS}"

    # A fractional count reached range(), which raised a bare TypeError.
    @pytest.mark.parametrize("sample_count", [2.5, True])
    def test_sample_count_must_be_an_integer(self, sample_count):
        sc = default_scenario()
        with pytest.raises(DomainError) as exc:
            integrate(sc.initial_state, sc.params, sc.integration, sample_count=sample_count)
        assert str(exc.value) == f"sample_count must be an integer, got {sample_count!r}"

    # At 1e-160 every attempt soon sits at the minimum step and is rejected
    # for error; the run used to retry that same step forever.
    @pytest.mark.parametrize("tol", [1e-160, 1e-200, 1e-300])
    def test_unreachable_tolerance_underflows(self, tol):
        sc = default_scenario()
        cfg = IntegrationConfig(t0=0.0, t_end=1.0, rel_tol=tol, abs_tol=tol)
        outcome = bounded(lambda: integrate(sc.initial_state, sc.params, cfg, 11))
        assert isinstance(outcome, StepUnderflowError)

    # Scaled errors beyond 1e154 used to raise a bare OverflowError from
    # squaring them in the error norm.
    @pytest.mark.parametrize("tol", [1e-200, 1e-300])
    def test_overflowing_error_norm_underflows(self, tol):
        cfg = IntegrationConfig(t0=0.0, t_end=1.0, rel_tol=tol, abs_tol=tol)
        for x0, params, _, _ in unscaled_inputs(5, 4):
            outcome = bounded(lambda: integrate(x0, params, cfg, 11))
            assert isinstance(outcome, StepUnderflowError)

    # The bound sums absolute values: it scales with the Jacobian until the
    # sum overflows, and is then inf, so the step counts as stiff.  Nothing
    # raises or warns on the way.
    def test_spectral_bound_beyond_the_float_range(self):
        J = band_jacobian((0.5, -2.0, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = integrator._spectral_bound(J)
            for e in (170, 500, 1020):  # a power of two scales exactly
                scaled = tuple(tuple(2.0 ** e * v for v in row) for row in J)
                assert integrator._spectral_bound(scaled) == 2.0 ** e * base
            scaled = tuple(tuple(2.0 ** 1023 * v for v in row) for row in J)
            bound = integrator._spectral_bound(scaled)
            assert bound == math.inf and 1e-300 * bound > integrator._STIFF_RATIO
