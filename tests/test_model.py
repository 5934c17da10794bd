"""Vector field, Jacobian, reproduction numbers and parameter validation."""
import dataclasses
import math
import pickle

import numpy as np
import pytest

import re
import sys

from bcdyn import (
    DomainError,
    ModelParams,
    SystemState,
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
    FAMILIES,
    Equilibrium,
    coexisting,
    dead_type1,
    dead_type2,
    estrogen_level,
    find_all,
    tumor_free,
)
from bcdyn.model import _NONNEGATIVE_OK, PARAM_NAMES, _bind, _inf_norm
from bcdyn.validation import draw_params, draw_state

from conftest import JACOBIAN_ZEROS, random_params


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


class TestInfNorm:
    """``_inf_norm`` is max |v|, and nan when any v is nan, wherever it is."""

    @pytest.mark.parametrize("at", range(5))
    def test_a_nan_anywhere_is_nan(self, at):
        values = [1.0, -2.0, math.inf, 0.0, -math.inf]
        values[at] = math.nan
        assert math.isnan(_inf_norm(values))

    @pytest.mark.parametrize(
        "values",
        [(0.5, -3.0, 1e-300, -0.0, 2.0), (-0.0, 0.0), (math.inf, -math.inf, 1.0), (-1e308,) * 3],
    )
    def test_without_a_nan_is_the_max(self, values):
        assert _inf_norm(values) == max(map(abs, values))

    def test_seeded_states(self, rng):
        for _ in range(200):
            values = rng.standard_normal(5).tolist()
            want = max(map(abs, values))
            assert _inf_norm(values) == want
            at = int(rng.integers(5))
            values[at] = math.nan
            assert math.isnan(_inf_norm(values))


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

    def test_zero_pattern_off_equilibrium(self):
        """The entries the band structure skips are exactly 0.0 at drawn
        states, at states with zero components and at states dipping into
        [floor, 0): the integrator factors the RODAS step matrix on that
        structure at every state it steps from."""
        rng = np.random.default_rng(17)
        for _ in range(100):
            jac = make_jacobian(draw_params(rng))
            drawn = draw_state(rng).as_tuple()
            picked = rng.random(5) < 0.5
            dips = rng.uniform(-1e-9, 0.0, size=5).tolist()
            for state in (
                drawn,
                (0.0,) * 5,
                tuple(0.0 if p else v for p, v in zip(picked, drawn)),
                tuple(dips),
                tuple(d if p else v for p, d, v in zip(picked, dips, drawn)),
            ):
                J = jac(*state)
                assert all(J[i][j] == 0.0 for i, j in JACOBIAN_ZEROS), state


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
    """The printed A, B and C coefficient families are entries of the
    analytic Jacobian at the tumor-free, dead1 and dead2 points; the rules
    of those families read them off it."""

    @pytest.mark.parametrize(
        "tag,family",
        [("A", "tumor_free"), ("B", "dead1"), ("C", "dead2")],
        ids=["A", "B", "C"],
    )
    def test_overflow_is_a_domain_error(self, tag, family):
        """(xi + I)**2 overflows at a huge immune level; the family that
        reads coefficient set ``tag``, and the reproduction numbers, raise
        DomainError there, as jacobian does."""
        pm = draw_params(np.random.default_rng(5)).replace(g1=1e-170)
        st = SystemState(0.0, 0.1, 1e170, estrogen_level(pm), 1.0)
        with pytest.raises(DomainError):
            classify(Equilibrium(point=st, family=family, residual=0.0), pm)
        with pytest.raises(DomainError):
            reproduction_numbers(st, pm)


class TestReproductionNumbers:
    def test_chi_zero_r0(self, base_params):
        pm = base_params.replace(chi=0.0)
        st = SystemState(1.0, 0.0, 0.7, 0.3, 0.4)
        rn = reproduction_numbers(st, pm)
        assert rn.r0 == 0.0

    def test_l1_zero_r1(self, base_params):
        pm = base_params.replace(l1=0.0)
        st = SystemState(1.0, 0.0, 0.7, 0.3, 0.4)
        assert jacobian(st, pm)[1, 0] == 0.0
        assert reproduction_numbers(st, pm).r1 == 0.0

    def test_ratio_identities_and_signs(self):
        """(1 - R0)*J44*J22 equals the (I,M) block determinant, and at a
        confirmed tumor-free point J44*J22 > 0 so the signs agree.  R1 reads
        the printed A2 = -J01, so (1 - R1)*J00*J11 is J00*J11 + J10*J01,
        the printed convention, not the (N,T) block determinant."""
        found = 0
        for seed in range(200):
            pm = random_params(seed, k=1.0)
            for eq in find_all(pm):
                if eq.family != "tumor_free" or not eq.confirmed:
                    continue
                found += 1
                J = jacobian(eq.point, pm)
                rn = reproduction_numbers(eq.point, pm)
                det_im = J[4, 4] * J[2, 2] - J[4, 2] * J[2, 4]
                det_nt_convention = J[0, 0] * J[1, 1] + J[1, 0] * J[0, 1]
                if rn.r0_defined:
                    assert (1.0 - rn.r0) * (J[4, 4] * J[2, 2]) == pytest.approx(
                        det_im, rel=1e-10, abs=1e-13
                    )
                    assert J[4, 4] * J[2, 2] > 0.0
                    if abs(det_im) > 1e-10:
                        assert (rn.r0 < 1.0) == (det_im > 0.0)
                if rn.r1_defined:
                    assert (1.0 - rn.r1) * (J[0, 0] * J[1, 1]) == pytest.approx(
                        det_nt_convention, rel=1e-10, abs=1e-13
                    )
            if found >= 20:
                break
        assert found >= 20

    def test_undefined_flagged_not_raised(self, base_params):
        # J11 = a2*d - g1*I - m_d = 0 at T = 0 makes the R1 denominator vanish.
        pm = base_params.replace(g1=0.0, m_d=base_params.a2 * base_params.d)
        st = SystemState(1.0, 0.0, 0.7, 0.3, 0.4)
        pm2 = pm.replace(l1=0.0)  # J00 = a1 - 2 b1 N, keep it nonzero
        rn = reproduction_numbers(st, pm2)
        assert not rn.r1_defined
        assert math.isnan(rn.r1)


class TestValidateParams:
    """The validity rule runs on construction: an invalid set cannot be
    built."""

    def test_valid_empty_report(self, base_params):
        assert validate_params(base_params.replace(k=0.3)) == []

    def test_k_out_of_range(self, base_params):
        with pytest.raises(DomainError, match=r"^invalid parameters: k outside \[0,1\]$"):
            base_params.replace(k=1.5)

    def test_theta_zero(self, base_params):
        with pytest.raises(DomainError, match="^invalid parameters: theta must be positive$"):
            base_params.replace(theta=0.0)

    def test_zeroable_rates_allowed(self, base_params):
        pm = base_params.replace(s=0.0, p=0.0, v_M=0.0, chi=0.0, l1=0.0)
        assert validate_params(pm) == []

    def test_negative_rate_rejected(self, base_params):
        with pytest.raises(DomainError, match="^invalid parameters: s must be nonnegative$"):
            base_params.replace(s=-0.1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda pm: pm.replace(k=1.5),
            lambda pm: dataclasses.replace(pm, k=1.5),
            lambda pm: ModelParams.from_dict({**pm.as_dict(), "k": 1.5}),
            lambda pm: ModelParams(**{**pm.as_dict(), "k": 1.5}),
        ],
        ids=["replace", "dataclasses.replace", "from_dict", "constructor"],
    )
    def test_every_way_of_building_validates(self, build, base_params):
        with pytest.raises(DomainError, match=r"^invalid parameters: k outside \[0,1\]$"):
            build(base_params)

    def test_all_violations_are_named(self, base_params):
        with pytest.raises(DomainError) as exc:
            base_params.replace(theta=0.0, k=-1.0, s=math.nan)
        assert str(exc.value) == (
            "invalid parameters: k outside [0,1]; s must be finite, got nan; "
            "theta must be positive"
        )

    # float() and math.isfinite raised a bare OverflowError on such an int.
    @pytest.mark.parametrize("name", PARAM_NAMES)
    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_integer_beyond_the_float_range_is_rejected(self, name, value):
        values = {**random_params(17).as_dict(), name: value}
        message = (
            f"invalid parameters: {name} must be finite, got an integer beyond the float range"
        )
        for build in (
            lambda: ModelParams(**values),
            lambda: ModelParams.from_dict(values),
            lambda: random_params(17).replace(**{name: value}),
        ):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                build()

    def test_from_dict_turns_integers_in_range_into_floats(self, base_params):
        pm = ModelParams.from_dict({**base_params.as_dict(), "a1": 10**300, "k": 1})
        assert (pm.a1, pm.k) == (1e300, 1.0)
        assert type(pm.a1) is float and type(pm.k) is float

    @pytest.mark.parametrize("value", ["0.5", True, None])
    def test_from_dict_takes_numbers_only(self, value, base_params):
        message = f"invalid parameters: a1 must be a real number, got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ModelParams.from_dict({**base_params.as_dict(), "a1": value})


def constructed(pm, changes):
    return ModelParams(**{**pm.as_dict(), **changes})


def raised(build) -> tuple[type, str]:
    with pytest.raises((DomainError, TypeError)) as exc:
        build()
    return type(exc.value), str(exc.value)


#: An invalid value per field: k leaves [0, 1], a zeroable rate goes
#: negative, any other field goes to 0.
INVALID = {
    name: 1.5 if name == "k" else -1.0 if name in _NONNEGATIVE_OK else 0.0
    for name in PARAM_NAMES
}


class TestReplace:
    """replace checks only the changed fields and builds the copy without
    the constructor, yet gives what the constructor gives."""

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_constructed_set_for_every_field(self, seed):
        pm, other = random_params(seed), random_params(seed + 100)
        for changes in [{name: getattr(other, name)} for name in PARAM_NAMES] + [
            other.as_dict(), {"k": 1, "d": 2}
        ]:
            got, want = pm.replace(**changes), constructed(pm, changes)
            assert type(got) is ModelParams
            assert got == want and hash(got) == hash(want)
            assert repr(got) == repr(want)
            assert pickle.dumps(got) == pickle.dumps(want)
            assert pickle.loads(pickle.dumps(got)) == want
        assert pm.replace(**other.as_dict()) == other

    def test_original_is_unchanged(self, base_params):
        before = repr(base_params)
        base_params.replace(d=2.0)
        assert repr(base_params) == before

    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_invalid_field_raises_the_constructor_error(self, name):
        pm = random_params(7)
        for value in (INVALID[name], math.nan, math.inf, "0.5", True, 10**400):
            changes = {name: value}
            got = raised(lambda: pm.replace(**changes))
            assert got == raised(lambda: constructed(pm, changes))
            assert got[0] is DomainError

    def test_several_invalid_fields_in_field_order(self):
        """The violations are named in PARAM_NAMES order whatever the order
        of the changes, with valid changes among them."""
        rng = np.random.default_rng(3)
        pm = random_params(3)
        for _ in range(50):
            names = rng.choice(PARAM_NAMES, size=int(rng.integers(2, 6)), replace=False)
            changes = {
                str(name): INVALID[name] if rng.random() < 0.6 else getattr(pm, name)
                for name in names
            }
            changes[str(names[0])] = INVALID[names[0]]
            got = raised(lambda: pm.replace(**changes))
            assert got == raised(lambda: constructed(pm, changes))

    @pytest.mark.parametrize("changes", [{"zz": 1.0}, {"k": 0.5, "zz": 1.0}, {"k": 1.5, "zz": 1.0}])
    def test_unknown_name_raises_type_error(self, changes, base_params):
        got = raised(lambda: base_params.replace(**changes))
        assert raised(lambda: constructed(base_params, changes))[0] is TypeError
        assert got[0] is TypeError and "unexpected keyword argument 'zz'" in got[1]

    def test_no_change_returns_an_equal_set(self, base_params):
        got = base_params.replace()
        assert got == base_params and hash(got) == hash(base_params)
        assert repr(got) == repr(base_params)


_STATE = SystemState(1.0, 1.0, 1.0, 1.0, 1.0)

ENTRY_POINTS = {
    "make_rhs": make_rhs,
    "make_jacobian": make_jacobian,
    "rhs": lambda pm: rhs(_STATE, pm),
    "jacobian": lambda pm: jacobian(_STATE, pm),
    "residual_norm": lambda pm: residual_norm(_STATE, pm),
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
    """The invalid set fails on construction, before any entry point runs."""
    with pytest.raises(DomainError, match="theta must be positive"):
        ENTRY_POINTS[name](base_params.replace(theta=-1.0))


@pytest.mark.parametrize("denominator", sorted(SINGULAR))
def test_singular_denominator_is_named(denominator, base_params):
    values = {"N": 1.0, "T": 1.0, "I": 1.0, "E": 1.0, "M": 1.0, **SINGULAR[denominator]}
    state = SystemState(**values)
    message = re.escape(f"singular denominator {denominator}")
    for evaluate in (rhs, jacobian, reproduction_numbers):
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


def confirmed_point(family: str):
    """The first confirmed ``family`` point over seeded draws, with its
    parameters."""
    # Confirmed tumor-free points need no transformation feed (k = 1).
    k = 1.0 if family == "tumor_free" else None
    return next(
        (eq, pm)
        for pm in (random_params(seed, k=k) for seed in range(100))
        for eq in find_all(pm)
        if eq.family == family and eq.confirmed
    )


class TestBindOnce:
    """A parameter set is validated once, when it is built; the calls that
    take it validate nothing and reuse what they computed, instead of
    repeating the work on every evaluation."""

    def test_find_all_validates_nothing(self, base_params, monkeypatch):
        calls = count_calls(monkeypatch, "validate_params")
        find_all(base_params)
        assert calls == []

    def test_replace_and_integrate_validate_nothing(self, monkeypatch):
        """replace checks only the fields it changes, and integrate adds no
        validation, also when the run switches to RODAS and binds the
        Jacobian (n_M and v_M scaled by 1e3 switch at t = 0.22)."""
        sc = default_scenario()
        calls = count_calls(monkeypatch, "validate_params")
        for scale in (1.0, 1e3):
            params = sc.params.replace(n_M=sc.params.n_M * scale, v_M=sc.params.v_M * scale)
            traj = integrate(sc.initial_state, params, sc.integration, sc.sample_count)
            assert (traj.stiff_switch_time is not None) == (scale > 1.0)
        assert calls == []

    @pytest.mark.parametrize("family", FAMILIES)
    def test_classify_validates_once_per_family(self, family, monkeypatch):
        """Once, on building the parameters: classify adds nothing."""
        eq, pm = confirmed_point(family)
        calls = count_calls(monkeypatch, "validate_params")
        pm = dataclasses.replace(pm)
        assert len(calls) == 1
        classify(eq, pm)
        assert len(calls) == 1

    def test_classify_evaluates_the_jacobian_once(self, monkeypatch):
        """Every family's printed conditions read the Jacobian that the
        eigenvalues use; nothing evaluates a second one."""
        calls = count_calls(monkeypatch, "jacobian")
        for family in FAMILIES:
            eq, pm = confirmed_point(family)
            calls.clear()
            classify(eq, pm)
            assert len(calls) == 1, family

    def test_closures_are_reused_for_the_set_bound_last(self, base_params):
        """make_rhs, make_jacobian and jacobian hand out the closures built
        for the same object; an equal copy is another object and gets its
        own, as does a set that another one displaced."""
        f, jac = _bind(base_params)
        assert make_rhs(base_params) is f
        assert make_jacobian(base_params) is jac
        copy = base_params.replace()
        assert make_rhs(copy) is not f
        assert make_jacobian(copy) is _bind(copy)[1]
        assert _bind(base_params)[0] is not f
