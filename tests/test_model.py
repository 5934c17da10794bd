"""Vector field, Jacobian, coefficient families and parameter validation."""
import math

import numpy as np
import pytest

import re
import sys

from bcdyn import (
    DomainError,
    SystemState,
    coefficients,
    classify,
    default_scenario,
    integrate,
    jacobian,
    make_jacobian,
    make_rhs,
    reproduction_numbers,
    residual_norm,
    rhs,
    validate_params,
)
from bcdyn.equilibria import (
    Equilibrium,
    coexisting,
    dead_type1,
    dead_type2,
    estrogen_level,
    find_all,
    tumor_free,
)
from bcdyn.validation import draw_params, draw_state

from conftest import random_params


def oracle_rhs(state, pm):
    """Independent term-by-term evaluation: each interaction term computed
    separately and summed, no shared subexpressions with the implementation."""
    N, T, I, E, M = state.as_tuple()
    omk = 1.0 - pm.k
    terms_N = [
        N * pm.a1,
        -(N * pm.b1) * N,
        -(pm.d1 * T) * (N / (1.0 + pm.epsilon * T)),
        -(pm.l1 * N) * (E * omk),
    ]
    terms_T = [
        T * (pm.a2 * pm.d),
        -(T * pm.b2) * T,
        -(pm.g1 * I) * T,
        -pm.m_d * T,
        (pm.l1 * N) * (E * omk),
    ]
    terms_I = [
        pm.s,
        (pm.r * I) * (T / (pm.o + T)),
        -(pm.g2 * I) * T,
        -pm.m * I,
        -(pm.l3 * I) * ((E * omk) / (pm.g + E)),
        (pm.p_M * I) * (M / (pm.j_M + M)),
    ]
    terms_E = [pm.p * omk, -pm.theta * E]
    terms_M = [pm.v_M, -pm.n_M * M, (pm.chi * M) * (I / (pm.xi + I))]
    return tuple(math.fsum(ts) for ts in (terms_N, terms_T, terms_I, terms_E, terms_M))


class TestRhs:
    def test_origin(self, base_params):
        pm = base_params
        out = rhs(SystemState(0, 0, 0, 0, 0), pm)
        assert out == (0.0, 0.0, pm.s, pm.p * (1.0 - pm.k), pm.v_M)

    def test_estrogen_balance(self, base_params):
        pm = base_params.replace(p=2.0, k=0.5, theta=0.5)
        out = rhs(SystemState(0, 0, 0, 2.0, 0), pm)
        assert out[3] == 0.0

    def test_term_by_term_oracle(self, rng):
        for _ in range(200):
            pm = draw_params(rng)
            st = draw_state(rng)
            got = rhs(st, pm)
            want = oracle_rhs(st, pm)
            for gi, wi in zip(got, want):
                assert abs(gi - wi) <= 1e-14 * max(1.0, abs(wi))

    def test_rejects_singular_denominator(self, base_params):
        pm = base_params.replace(epsilon=1.0)
        with pytest.raises(DomainError):
            rhs(SystemState(1.0, -1.0, 1.0, 1.0, 1.0), pm)

    def test_rejects_non_finite_state(self, base_params):
        with pytest.raises(DomainError):
            rhs(SystemState(math.nan, 0, 0, 0, 0), base_params)


class TestJacobian:
    def test_estrogen_row(self, rng):
        for _ in range(10):
            pm = draw_params(rng)
            st = draw_state(rng)
            J = jacobian(st, pm)
            assert J[3, 3] == -pm.theta
            assert np.all(J[3, [0, 1, 2, 4]] == 0.0)

    def test_saturated_incidence_at_zero_tumor(self, base_params):
        st = SystemState(1.3, 0.0, 0.5, 0.4, 0.2)
        J = jacobian(st, base_params)
        assert J[0, 1] == pytest.approx(-base_params.d1 * 1.3, rel=1e-15)

    def test_finite_differences(self, rng):
        from bcdyn.model import make_rhs

        for _ in range(50):
            pm = draw_params(rng)
            st = draw_state(rng)
            f = make_rhs(pm)
            J = jacobian(st, pm)
            x = st.as_array()
            for j in range(5):
                h = 1e-6 * max(1.0, abs(x[j]))
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd = (np.array(f(*xp)) - np.array(f(*xm))) / (2.0 * h)
                assert np.max(np.abs(fd - J[:, j]) / np.maximum(1.0, np.abs(J[:, j]))) < 1e-6


    def test_overflow_is_a_domain_error(self):
        """A huge immune level overflows (xi + I)**2; that is a DomainError,
        not a bare OverflowError."""
        pm = draw_params(np.random.default_rng(5)).replace(g1=1e-170)
        st = SystemState(0.0, 0.1, 1e170, estrogen_level(pm), 1.0)
        with pytest.raises(DomainError):
            jacobian(st, pm)
        with pytest.raises(DomainError):
            classify(Equilibrium(point=st, family="dead2", residual=0.0), pm)


class TestCoefficients:
    def test_chi_zero_kills_drug_feedback(self, base_params):
        pm = base_params.replace(chi=0.0)
        st = SystemState(1.0, 0.0, 0.7, 0.3, 0.4)
        A = coefficients(st, pm, "A")
        assert A[6] == 0.0

    def test_l1_zero_kills_transformation(self, base_params):
        pm = base_params.replace(l1=0.0)
        st = SystemState(1.0, 0.0, 0.7, 0.3, 0.4)
        A = coefficients(st, pm, "A")
        assert A[1] == 0.0
        rn = reproduction_numbers(st, pm)
        assert rn.r1 == 0.0

    def test_a_set_matches_jacobian_blocks(self, rng):
        for _ in range(20):
            pm = draw_params(rng)
            st = draw_state(rng)
            st = SystemState(st.N, 0.0, st.I, st.E, st.M)
            A = coefficients(st, pm, "A")
            J = jacobian(st, pm)
            assert A[0] == pytest.approx(J[0, 0], rel=1e-12, abs=1e-15)
            assert A[1] == pytest.approx(J[1, 0], rel=1e-12, abs=1e-15)
            assert A[2] == pytest.approx(-J[0, 1], rel=1e-12, abs=1e-15)
            assert A[3] == pytest.approx(J[1, 1], rel=1e-12, abs=1e-15)
            assert A[5] == pytest.approx(J[2, 2], rel=1e-12, abs=1e-15)
            assert A[9] == pytest.approx(J[2, 4], rel=1e-12, abs=1e-15)
            assert A[6] == pytest.approx(J[4, 2], rel=1e-12, abs=1e-15)
            assert A[10] == pytest.approx(J[4, 4], rel=1e-12, abs=1e-15)

    def test_family_warning_off_slice(self, base_params):
        st = SystemState(1.0, 0.5, 0.7, 0.3, 0.4)
        assert coefficients(st, base_params, "A").family_warning is not None
        on_slice = SystemState(1.0, 0.0, 0.7, 0.3, 0.4)
        assert coefficients(on_slice, base_params, "A").family_warning is None

    def test_unknown_tag(self, base_params):
        with pytest.raises(DomainError):
            coefficients(SystemState(1, 0, 1, 1, 1), base_params, "D")


class TestReproductionNumbers:
    def test_chi_zero_r0(self, base_params):
        pm = base_params.replace(chi=0.0)
        st = SystemState(1.0, 0.0, 0.7, 0.3, 0.4)
        rn = reproduction_numbers(st, pm)
        assert rn.r0 == 0.0

    def test_ratio_identities_and_signs(self):
        """(1 - R0)*A10*A5 equals the (I,M) block determinant, and at a
        confirmed tumor-free point A10*A5 > 0 so the signs agree."""
        found = 0
        for seed in range(200):
            pm = random_params(seed, k=1.0)
            for eq in find_all(pm):
                if eq.family != "tumor_free" or not eq.confirmed:
                    continue
                found += 1
                A = coefficients(eq.point, pm, "A")
                rn = reproduction_numbers(eq.point, pm)
                det_im = A[10] * A[5] - A[6] * A[9]
                det_nt_convention = A[0] * A[3] - A[1] * A[2]
                if rn.r0_defined:
                    assert (1.0 - rn.r0) * (A[10] * A[5]) == pytest.approx(
                        det_im, rel=1e-10, abs=1e-13
                    )
                    assert A[10] * A[5] > 0.0
                    if abs(det_im) > 1e-10:
                        assert (rn.r0 < 1.0) == (det_im > 0.0)
                if rn.r1_defined:
                    assert (1.0 - rn.r1) * (A[0] * A[3]) == pytest.approx(
                        det_nt_convention, rel=1e-10, abs=1e-13
                    )
            if found >= 20:
                break
        assert found >= 20

    def test_undefined_flagged_not_raised(self, base_params):
        # A3 = a2*d - g1*I - m_d = 0 makes the R1 denominator vanish.
        pm = base_params.replace(g1=0.0, m_d=base_params.a2 * base_params.d)
        st = SystemState(1.0, 0.0, 0.7, 0.3, 0.4)
        pm2 = pm.replace(l1=0.0)  # A0 = a1 - 2 b1 N, keep it nonzero
        rn = reproduction_numbers(st, pm2)
        assert not rn.r1_defined
        assert math.isnan(rn.r1)


class TestValidateParams:
    def test_valid_empty_report(self, base_params):
        assert validate_params(base_params.replace(k=0.3)) == []

    def test_k_out_of_range(self, base_params):
        assert "k outside [0,1]" in validate_params(base_params.replace(k=1.5))

    def test_theta_zero(self, base_params):
        assert any(
            "theta must be positive" in v
            for v in validate_params(base_params.replace(theta=0.0))
        )

    def test_zeroable_rates_allowed(self, base_params):
        pm = base_params.replace(s=0.0, p=0.0, v_M=0.0, chi=0.0, l1=0.0)
        assert validate_params(pm) == []

    def test_negative_rate_rejected(self, base_params):
        assert validate_params(base_params.replace(s=-0.1))


_STATE = SystemState(1.0, 1.0, 1.0, 1.0, 1.0)

ENTRY_POINTS = {
    "make_rhs": make_rhs,
    "make_jacobian": make_jacobian,
    "rhs": lambda pm: rhs(_STATE, pm),
    "jacobian": lambda pm: jacobian(_STATE, pm),
    "residual_norm": lambda pm: residual_norm(_STATE, pm),
    "coefficients": lambda pm: coefficients(_STATE, pm, "A"),
    "reproduction_numbers": lambda pm: reproduction_numbers(_STATE, pm),
    "tumor_free": tumor_free,
    "dead_type1": dead_type1,
    "dead_type2": dead_type2,
    "coexisting": coexisting,
    "find_all": find_all,
    "integrate": lambda pm: integrate(_STATE, pm, default_scenario().integration),
}

# With the default scenario's parameters, each state component below makes
# exactly one denominator vanish.
SINGULAR = {
    "1 + epsilon*T": {"T": -4.0},
    "o + T": {"T": -0.7},
    "g + E": {"E": -0.5},
    "j_M + M": {"M": -0.6},
    "xi + I": {"I": -0.8},
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_rejects_invalid_params(name, base_params):
    with pytest.raises(DomainError, match="theta must be positive"):
        ENTRY_POINTS[name](base_params.replace(theta=-1.0))


@pytest.mark.parametrize("denominator", sorted(SINGULAR))
def test_singular_denominator_is_named(denominator, base_params):
    values = {"N": 1.0, "T": 1.0, "I": 1.0, "E": 1.0, "M": 1.0, **SINGULAR[denominator]}
    state = SystemState(**values)
    message = re.escape(f"singular denominator {denominator}")
    for evaluate in (rhs, jacobian, lambda st, pm: coefficients(st, pm, "A")):
        with pytest.raises(DomainError, match=message):
            evaluate(state, base_params)


def count_calls(monkeypatch, name: str) -> list:
    """Wrap the model function ``name`` wherever a bcdyn module binds it;
    the returned list grows by one entry per call."""
    import bcdyn.model

    original = getattr(bcdyn.model, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "bcdyn" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


class TestBindOnce:
    """Each call validates its parameter set once and reuses what it
    computed, instead of repeating the work on every evaluation."""

    def test_find_all_validates_once_per_finder(self, base_params, monkeypatch):
        calls = count_calls(monkeypatch, "validate_params")
        find_all(base_params)
        assert len(calls) == 4

    def test_integrate_validates_once(self, monkeypatch):
        sc = default_scenario()
        calls = count_calls(monkeypatch, "validate_params")
        integrate(sc.initial_state, sc.params, sc.integration, sc.sample_count)
        assert len(calls) == 1

    def test_classify_evaluates_the_jacobian_once(self, base_params, monkeypatch):
        (eq,) = [eq for eq in find_all(base_params) if eq.family == "coexisting"]
        calls = count_calls(monkeypatch, "jacobian")
        classify(eq, base_params)
        assert len(calls) == 1
