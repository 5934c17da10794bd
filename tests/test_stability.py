"""Stability classification: spectra, verdict concordance and reports."""
import dataclasses
import hashlib
import json
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import bcdyn.stability
from bcdyn import DomainError, SystemState, classify, default_scenario
from bcdyn.equilibria import Equilibrium, dead_type1, find_all, tumor_free
from bcdyn.formats import catalog_to_json, report_to_json, stability_to_csv
from bcdyn.integrator import IntegrationConfig, integrate
from bcdyn.model import PARAM_NAMES
from bcdyn.numerics import NumericsError, _root_set, routh_hurwitz
from bcdyn.stability import _block_conditions, char_poly
from bcdyn.validation import draw_params

from conftest import JACOBIAN_ZEROS, block_roots, corpus_jacobians, exact_det, random_params


def pinned_corpus():
    """The 200 parameter sets of ``test_corpus_bytes_are_pinned``: the first
    100 draws of default_rng(0), then 25 each with k = 1, epsilon = 0,
    s = 0 and v_M = 0 from the same stream."""
    rng = np.random.default_rng(0)
    sets = [draw_params(rng) for _ in range(100)]
    for pin in ({"k": 1.0}, {"epsilon": 0.0}, {"s": 0.0}, {"v_M": 0.0}):
        sets += [draw_params(rng).replace(**pin) for _ in range(25)]
    return sets


def classified(seed_range):
    for seed in seed_range:
        pm = random_params(seed)
        for eq in find_all(pm):
            if eq.confirmed:
                yield pm, eq, classify(eq, pm)


class TestSpectrum:
    def test_theta_always_in_spectrum(self):
        count = 0
        for pm, eq, rep in classified(range(25)):
            count += 1
            gap = min(abs(z - (-pm.theta)) for z in rep.eigenvalues)
            assert gap < 1e-8
            assert rep.agreement["theta_in_spectrum"]
        assert count > 10

    def test_block_union_at_tumor_free(self):
        checked = 0
        for pm, eq, rep in classified(range(25)):
            if eq.point.T != 0.0:
                continue
            expected = block_roots(rep.jacobian) + [complex(-pm.theta)]
            for z in rep.eigenvalues:
                nearest = min(expected, key=lambda w: abs(w - z))
                assert abs(nearest - z) < 1e-8
                expected.remove(nearest)
            checked += 1
        assert checked > 5

    def test_char_poly_residual_at_eigenvalues(self):
        for pm, eq, rep in classified(range(15)):
            for z in rep.eigenvalues:
                cp = rep.char_coeffs
                assert abs(np.polyval(cp, z)) < 1e-9 * max(map(abs, cp)) * max(
                    1.0, abs(z)
                ) ** (len(cp) - 1)

    def test_lapack_spectrum_at_draw_68_dead2(self):
        """At the dead2 point of draw 68 every eigenvalue is an eigenvalue
        of J to rounding, sigma_min(J - zI) < 1e-12 ||J||, and none carries
        a spurious imaginary part: the five are real and distinct (closest
        pair -2.191707 and -2.191327), so each has imag exactly 0.0."""
        rng = np.random.default_rng(0)
        for _ in range(68):
            draw_params(rng)
        pm = draw_params(rng)
        (eq,) = [eq for eq in find_all(pm) if eq.family == "dead2" and eq.confirmed]
        rep = classify(eq, pm)
        J = rep.jacobian
        norm = np.linalg.norm(J, 2)
        for z in rep.eigenvalues:
            assert np.linalg.svd(J - z * np.eye(5), compute_uv=False)[-1] < 1e-12 * norm
            assert z.imag == 0.0

    def test_planted_positive_eigenvalue(self):
        """Raising the diet factor d until the tumor block gains a positive
        trace makes the tumor-free point unstable."""
        for seed in range(60):
            pm = random_params(seed, k=1.0)
            cands = [eq for eq in tumor_free(pm) if eq.confirmed]
            if not cands:
                continue
            eq = cands[0]
            # At k = 1 the (N, T) block is triangular with entry
            # a2 d - g1 I0 - m_d; push d above the flip.
            d_star = (pm.g1 * eq.point.I + pm.m_d) / pm.a2
            pm_hot = pm.replace(d=2.0 * d_star)
            hot = [e for e in tumor_free(pm_hot) if e.confirmed]
            assert hot, "equilibrium should persist (I-M subsystem ignores d)"
            rep = classify(hot[0], pm_hot)
            assert rep.verdict == "unstable"
            planted = pm_hot.a2 * pm_hot.d - pm_hot.g1 * hot[0].point.I - pm_hot.m_d
            gap = min(abs(z - planted) for z in rep.eigenvalues)
            assert gap < 1e-8
            return
        pytest.fail("no confirmed tumor-free instance in the seed range")


class TestVerdicts:
    def test_eigen_vs_hurwitz(self):
        for pm, eq, rep in classified(range(30)):
            if rep.verdict == "inconclusive" or rep.hurwitz.verdict == "inconclusive":
                continue
            assert rep.verdict == rep.hurwitz.verdict
            assert rep.agreement["eigen_hurwitz"] is True

    def test_eigenvalues_do_not_use_char_poly(self, monkeypatch):
        """The eigenvalue path does not go through the characteristic
        polynomial: a wrong one (that of -J, every root mirrored) moves
        only the Hurwitz verdict, and the agreement entry reports it."""
        pm, eq, rep = next(
            (pm, eq, rep) for pm, eq, rep in classified(range(80)) if rep.verdict == "stable"
        )
        monkeypatch.setattr(bcdyn.stability, "char_poly", lambda J: char_poly(-J))
        wrong = classify(eq, pm)
        assert wrong.eigenvalues == rep.eigenvalues
        assert wrong.verdict == "stable"
        assert wrong.hurwitz.verdict == "unstable"
        assert wrong.agreement["eigen_hurwitz"] is False

    def test_one_eigvals_and_at_most_two_det_calls(self, monkeypatch):
        """classify makes one LAPACK call, the eigenvalue kernel behind
        numerics._eigvals, and no det call."""
        counts = {"eigvals": 0, "det": 0}
        for name, module, attr in (
            ("eigvals", bcdyn.stability, "_eigvals"), ("det", np.linalg, "det")
        ):
            original = getattr(module, attr)

            def counted(a, name=name, original=original):
                counts[name] += 1
                return original(a)

            monkeypatch.setattr(module, attr, counted)
        families = set()
        for seed in range(16):
            pm = random_params(seed, k=1.0 if seed % 4 == 3 else None)
            for eq in find_all(pm):
                if eq.confirmed:
                    counts.update(eigvals=0, det=0)
                    classify(eq, pm)
                    assert counts == {"eigvals": 1, "det": 0}
                    families.add(eq.family)
        assert families == {"tumor_free", "dead1", "dead2", "coexisting"}

    def test_immune_threshold_below_the_guard_classifies(self):
        """With o = 1e-13, below the denominator guard, every confirmed point
        classifies: o + T is safe at T > 0, so the Jacobian is finite.  A
        guard on o alone used to refuse all 131 dead2 points."""
        rng = np.random.default_rng(0)
        families = Counter()
        for _ in range(300):
            pm = draw_params(rng).replace(o=1e-13)
            for eq in find_all(pm):
                if eq.confirmed:
                    families[classify(eq, pm).equilibrium.family] += 1
        assert families == {"dead2": 131, "coexisting": 263}

    def test_refuses_nan_residual(self, base_params):
        """A NaN residual is not below the bound, so no verdict is given."""
        eq = next(eq for eq in find_all(base_params) if eq.confirmed)
        with pytest.raises(DomainError, match="residual nan, not below 1e-8"):
            classify(dataclasses.replace(eq, residual=math.nan), base_params)

    def test_refuses_unconfirmed_point(self, base_params):
        cands = tumor_free(base_params)
        bad = [eq for eq in cands if not eq.confirmed]
        assert bad, "generic params leave the tumor-free candidate unconfirmed"
        with pytest.raises(DomainError):
            classify(bad[0], base_params)


class TestOnePass:
    """classify evaluates the Jacobian once, by the module names that
    perfbench/tracer.py wraps, and takes its Hurwitz minors from the core
    of routh_hurwitz without that function's input checks."""

    def test_one_jacobian_and_char_poly_call_per_point(self, monkeypatch):
        calls = Counter()

        def counting(name):
            fn = getattr(bcdyn.stability, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(bcdyn.stability, name, wrapper)

        counting("jacobian")
        counting("char_poly")
        seen = set()
        # k = 1 removes the transformation feed, so tumor-free points confirm.
        for pm in [random_params(seed, k=1.0) for seed in range(10)] + pinned_corpus()[:10]:
            for eq in find_all(pm):
                if eq.confirmed:
                    calls.clear()
                    classify(eq, pm)
                    assert calls == {"jacobian": 1, "char_poly": 1}
                    seen.add(eq.family)
        assert seen == {"tumor_free", "dead1", "dead2", "coexisting"}

    def test_hurwitz_matches_routh_hurwitz_on_the_pinned_corpus(self):
        checked = 0
        for pm in pinned_corpus():
            for eq in find_all(pm):
                if eq.confirmed:
                    rep = classify(eq, pm)
                    assert rep.hurwitz == routh_hurwitz(rep.char_coeffs)
                    checked += 1
        assert checked == 470

    def test_hurwitz_matches_routh_hurwitz_past_the_float_range(self):
        """At a1 = 1e80 the dead1 point has the minor -inf."""
        pm = default_scenario().params.replace(a1=1e80)
        reps = [classify(eq, pm) for eq in find_all(pm) if eq.confirmed]
        assert any(-math.inf in rep.hurwitz.minors for rep in reps)
        for rep in reps:
            assert rep.hurwitz == routh_hurwitz(rep.char_coeffs)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_point_is_refused(self, value):
        pm = default_scenario().params
        for family, state in (
            ("dead1", (0.0, 0.0, value, 0.2, 0.1)),
            ("coexisting", (value, 0.5, 1.0, 0.2, 0.1)),
        ):
            eq = Equilibrium(SystemState(*state), family, 0.0)
            with pytest.raises(DomainError, match="non-finite state"):
                classify(eq, pm)


class TestTheoremChecks:
    def test_chi_zero_immune_drug_ratio(self, base_params):
        pm = base_params.replace(chi=0.0, p_M=0.05)
        d1 = dead_type1(pm)
        assert d1
        checks = classify(d1[0], pm).theorem_checks
        assert checks["R_IM_lt_1"].holds
        assert checks["R_IM_lt_1"].lhs == 0.0

    def test_b0_sign_transcription(self):
        for seed in range(30):
            pm = random_params(seed)
            for eq in dead_type1(pm):
                checks = classify(eq, pm).theorem_checks
                e0 = eq.point.E
                expect = pm.a1 - pm.l1 * e0 * (1.0 - pm.k) < 0.0
                assert checks["B0_neg"].holds == expect

    def test_derived_block_conditions_match_spectrum(self):
        for pm, eq, rep in classified(range(30)):
            if eq.point.T != 0.0 or rep.verdict == "inconclusive":
                continue
            checks = rep.theorem_checks
            block_stable = all(
                checks[name].holds
                for name in (
                    "derived_nt_trace_neg", "derived_nt_det_pos",
                    "derived_im_trace_neg", "derived_im_det_pos",
                )
            )
            assert block_stable == (rep.verdict == "stable")

    def test_block_conditions_match_per_block_calls(self):
        """Each trace has the bits of np.trace on its block, exact zeros
        included, and each determinant lies within 4 eps (|ad| + |bc|) of
        the exact a d - b c of the block's floats."""
        signed_zeros = np.diag([-0.0, -0.0, 0.0, 1.0, -0.0])
        eps = np.finfo(float).eps
        for J in [signed_zeros] + corpus_jacobians():
            checks = _block_conditions(J.tolist())
            for name, idx in (("nt", (0, 1)), ("im", (2, 4))):
                block = J[np.ix_(idx, idx)]
                (a, b), (c, d) = block.tolist()
                det = checks[f"derived_{name}_det_pos"].lhs
                tr = checks[f"derived_{name}_trace_neg"].lhs
                assert abs(Fraction(det) - exact_det(block)) <= 4 * eps * (
                    abs(Fraction(a) * Fraction(d)) + abs(Fraction(b) * Fraction(c))
                )
                assert tr.hex() == float(np.trace(block)).hex()
                assert type(checks[f"derived_{name}_trace_neg"].holds) is bool

    def test_block_determinant_beside_a_huge_entry(self):
        """A block (2, 1e300; 1e-300, 1) has determinant 2 - 1e300 * 1e-300,
        about 1.  Scaled by its largest entry, the 1e-300 was lost below
        the float range."""
        J = np.eye(5)
        J[np.ix_((0, 1), (0, 1))] = [[2.0, 1e300], [1e-300, 1.0]]
        J[np.ix_((2, 4), (2, 4))] = [[1.0, 1e-300], [1e300, 3.0]]
        checks = _block_conditions(J.tolist())
        for name in ("nt", "im"):
            det = checks[f"derived_{name}_det_pos"]
            assert det.lhs == pytest.approx(2.0 if name == "im" else 1.0, rel=1e-15)
            assert det.holds

    def test_dead2_derived_invasion_reads_the_j00_eigenvalue(self):
        """At a dead2 point N = 0, so the N row of the Jacobian is
        (J00, 0, 0, 0, 0) and J00 is an exact eigenvalue; the derived
        invasion check reads its sign.  The printed invasion_blocked
        disagrees with it on 96 of the 667 dead2 points of 1,500 draws,
        and the family still makes no claim."""
        rng = np.random.default_rng(0)
        points = disagree = 0
        for _ in range(1500):
            pm = draw_params(rng)
            for eq in find_all(pm):
                if eq.family != "dead2" or not eq.confirmed:
                    continue
                rep = classify(eq, pm)
                j00 = float(rep.jacobian[0, 0])
                check = rep.theorem_checks["derived_invasion_J00_neg"]
                assert eq.point.N == 0.0
                assert (check.holds, check.lhs, check.rhs) == (j00 < 0.0, j00, 0.0)
                assert min(abs(z - j00) for z in rep.eigenvalues) < 1e-9 * max(
                    1.0, abs(j00)
                )
                assert rep.agreement["theorem_eigen"] is None
                points += 1
                disagree += check.holds != rep.theorem_checks["invasion_blocked"].holds
        assert (points, disagree) == (667, 96)


class TestEmpirical:
    def _stable_report(self):
        for pm, eq, rep in classified(range(80)):
            if rep.verdict == "stable":
                return pm, rep
        pytest.fail("no stable equilibrium in the seed range")

    def test_estrogen_direction_returns_at_rate_theta(self):
        pm, rep = self._stable_report()
        point = rep.equilibrium.point
        x0 = SystemState(point.N, point.T, point.I, point.E + 1e-3, point.M)
        t_end = 3.0 / pm.theta
        traj = integrate(
            x0, pm, IntegrationConfig(t0=0.0, t_end=t_end, rel_tol=1e-9, abs_tol=1e-12),
            sample_count=31,
        )
        expect = point.E + 1e-3 * np.exp(-pm.theta * traj.times)
        assert np.max(np.abs(traj.states[:, 3] - expect)) < 1e-8


class TestReports:
    def test_json_round_trip(self):
        for pm, eq, rep in classified(range(6)):
            doc = json.loads(report_to_json(rep))
            assert doc["family"] == eq.family
            assert doc["verdict"] == rep.verdict
            assert len(doc["eigenvalues"]) == 5
            assert doc["agreement"]["theta_in_spectrum"] is True
            break

    def test_corpus_bytes_are_pinned(self):
        """The catalog and stability-report JSON of 200 seeded draws, the
        first 100 of default_rng(0) and then 25 each with k = 1,
        epsilon = 0, s = 0 and v_M = 0 from the same stream, are pinned by
        sha256: a change that moves any bit bcdyn computes, a point, a
        reproduction number, a Hurwitz minor or a printed condition, shows
        here.  The eigenvalues and the largest real part are LAPACK's
        ``dgeev`` bits, which depend on the kernel the host's BLAS picks, so
        they are left out of the digest and checked instead to be the
        spectrum of ``np.linalg.eigvals`` of the report's Jacobian."""
        digest = hashlib.sha256()
        families = Counter()
        for pm in pinned_corpus():
            catalog = find_all(pm)
            digest.update(catalog_to_json(catalog).encode())
            for eq in catalog:
                if eq.confirmed:
                    families[eq.family] += 1
                    rep = classify(eq, pm)
                    assert rep.eigenvalues == _root_set(np.linalg.eigvals(rep.jacobian).tolist())
                    doc = json.loads(report_to_json(rep))
                    del doc["eigenvalues"], doc["max_real_eigenvalue"]
                    digest.update(json.dumps(doc).encode())
        assert families == {"tumor_free": 25, "dead1": 200, "dead2": 97, "coexisting": 148}
        assert digest.hexdigest() == (
            "1a892bf70ecf2c6c595659060e79abcf4629747cdb1b11ad044df8a239dd0800"
        )

    def test_summary_csv_shape(self):
        for pm, eq, rep in classified(range(6)):
            header, row = stability_to_csv([rep]).strip("\n").split("\n")
            assert len(row.split(",")) == len(header.split(","))
            break


class TestBandCharPoly:
    def test_structure_and_coefficients_at_corpus_states(self):
        """At every corpus state the entries the band polynomial skips are
        exactly 0.0, and it matches np.poly's product of (lambda - z) over
        the LAPACK eigenvalues: a model change that adds a coupling fails
        here."""
        for J in corpus_jacobians():
            assert all(J[i, j] == 0.0 for i, j in JACOBIAN_ZEROS)
            band, dense = char_poly(J), np.poly(J).tolist()
            assert len(band) == len(dense) == 6
            for b, d in zip(band, dense):
                assert abs(b - d) <= 1e-9 * abs(d)

    def test_non_finite_entry_is_named(self):
        J = np.diag([-1.0, -2.0, -3.0, -4.0, -5.0])
        J[2, 3] = math.inf
        with pytest.raises(NumericsError, match="^non-finite matrix entry$"):
            char_poly(J)

    def test_overflow_is_named(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="^characteristic polynomial overflows$"):
                char_poly(np.diag([-1e100] * 5))

    @pytest.mark.parametrize(
        "name, value, family",
        [
            ("l1", 1e30, "dead1"),
            ("p", 1e30, "dead1"),
            ("b2", 1e-30, "dead2"),
            ("g2", 1e30, "coexisting"),
            ("m", 1e30, "coexisting"),
            ("l3", 1e30, "coexisting"),
            ("n_M", 1e30, "coexisting"),
        ],
    )
    def test_hurwitz_agrees_with_eigenvalues_at_extreme_scale(self, name, value, family):
        """With one parameter of the default scenario at 1e+-30, one
        eigenvalue at each of these seven points has magnitude 1e28 to
        1e30 and the other four are below 10.  The matrix powers of
        Faddeev-LeVerrier lost the small ones and gave the Hurwitz path
        the wrong verdict there."""
        params = default_scenario().params.replace(**{name: value})
        reports = [classify(eq, params) for eq in find_all(params) if eq.confirmed]
        assert family in {rep.equilibrium.family for rep in reports}
        for rep in reports:
            assert rep.agreement["eigen_hurwitz"] is not False


class TestExtremeScale:
    def test_overflowing_minors_classify_without_warnings(self):
        """With one parameter of the default scenario at 1e-80 or 1e80 (k
        must stay in [0, 1]), some Hurwitz minors exceed the float range;
        they come back as +-inf without a RuntimeWarning."""
        base = default_scenario().params
        infinite = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in PARAM_NAMES:
                if name == "k":
                    continue
                for value in (1e-80, 1e80):
                    params = base.replace(**{name: value})
                    for eq in find_all(params):
                        if eq.confirmed:
                            minors = classify(eq, params).hurwitz.minors
                            infinite += any(math.isinf(mi) for mi in minors)
        assert infinite == 18
