"""Adaptive integration: accuracy, dense output, positivity and settling."""
import hashlib
import math
import time
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
from bcdyn.model import PARAM_NAMES, make_jacobian, make_rhs
from bcdyn.validation import draw_params, draw_state

from conftest import bounded, random_params


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

    def test_positivity_bookkeeping(self, rng):
        for _ in range(10):
            pm = draw_params(rng)
            traj = integrate(
                draw_state(rng), pm, IntegrationConfig(t0=0.0, t_end=50.0), sample_count=51
            )
            assert min(traj.positivity_violations) >= -1e-9
            assert np.all(traj.states >= 0.0)
            assert traj.stiff_switch_time is None

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
                    y1, k7, _, _, stages = integrator._dopri_step(f, y0, k1, h)
                    coeffs, _ = integrator._dopri_dense(y0, y1, k7, stages, h)
                else:
                    y1, k7, _, _, stages = integrator._rodas_step(f, y0, k1, jac(*y0), h)
                    coeffs, _ = integrator._rodas_dense(y0, y1, k7, stages, h)
                got = np.array(integrator._interpolate(coeffs, theta))
                ref = np.array(rk4_reference(x0, pm, theta * h, theta * h / 200))
                errors.append(np.max(np.abs(got - ref)))
            ratio = errors[-2] / errors[-1]
            assert 0.85 * 2 ** (order + 1) < ratio < 1.15 * 2 ** (order + 1)


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
        ("fb1a1deea15cbd35d2d78187a0cf2bb5428a4bf5ba431b56372a8ee9577d1639", 170, 1, 1.3986205199653914),
        ("aebf48f5437eefb4011bcbb65b60ed8042ad2a1a9549618e272463d65ab7f404", 102, 0, 0.0994252936361564),
        ("34d9c98bfb37c8ae232afba42c65ab7d62281d3656959486d1261309adda65ca", 282, 1, 3.2217704902594266),
        ("be5d8238cfdf3767be17db51a72fb8845a7c3d61ee09b06288fbf73dbe96ed06", 139, 2, 1.576646066075375),
        ("4dc90262d148fd3d28823abea10df73a31e08562b17168a3832c840950081469", 94, 1, 0.18069248146457498),
        ("f5ef04e499ca3c88fdff6678fd5496da40cd8529dae05286add2408a7077942a", 288, 0, 1.4920123540635513),
        ("414ccc2d8ef02fceb44a49a61a2424ad1461fa23e6705fabb8f7f1087dd81960", 188, 1, 2.231431762578598),
        ("46c986d9da1d1ffc63e763a72fdc15f9b36dbb57536a61c6b4b48e6371b62b9f", 93, 0, 1.79940635821433),
    ],
    "default": [
        ("7aa8faf615b35c178ebebc4f6311d7f20e31339a0caa15348c5ce4dc2e08b74c", 244, 1, None),
    ],
    "unscaled": [
        ("5502425a255c38ce8cccd00e8a88f2262635995ba6859ff007bc26bb763030ac", 83, 0, None),
        ("d2eeca07cace225f69e6bbaf2f421bfda56099f843d5145ce4dc082f1471fb49", 76, 0, None),
        ("3e86bea0e9424f85298e048b1d7b175347c551dfe1a8baa3892a3938f51f289a", 97, 1, None),
        ("355763554dff0999c1a5ecdb3c250988ed0fb1cf763062e80d829d2b9b209881", 99, 0, 86.9366416380544),
        ("00c563c78b28c844697ea99a9f7f320cf76d3449447e7ea11582acfc18db3fc6", 124, 0, 94.29251189182983),
        ("6501e21d0dd48ab47af3ae48c653f8f99decc61fe0568d1863b253006a012f91", 72, 1, 79.26858081849633),
        ("9a633919b41072afdcd7816a7d5d70f1e7c5657d1d702769613620a7eb5e44b9", 70, 1, 70.29258010169967),
        ("03aadc2e80eb0deab3aa04379152a4935e348c4ed7eed6b8a4a0f012482101c2", 113, 1, None),
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

    # span / (sample_count - 1) raised a bare OverflowError.
    def test_sample_count_beyond_the_float_range(self):
        sc = default_scenario()
        with pytest.raises(DomainError) as exc:
            integrate(sc.initial_state, sc.params, sc.integration, sample_count=10**400)
        assert str(exc.value) == "sample_count must be at least 2 and within the float range"

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

    # On a linear field the stiffness estimate does not depend on the scale
    # of the state; at 1e170 its squared differences used to overflow.
    def test_stiffness_estimate_beyond_squares(self):
        def f(*y):
            return tuple(-30.0 * v for v in y)

        estimates = []
        for scale in (1.0, 1e170):
            y = tuple(scale * v for v in (1.0, 0.5, 0.25, 2.0, 3.0))
            estimates.append(integrator._dopri_step(f, y, f(*y), 0.1)[3])
        assert estimates[0] > 0.0
        assert estimates[1] == pytest.approx(estimates[0], rel=1e-12)
