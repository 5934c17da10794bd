"""Built-in validation suites, including the flipped-Jacobian negative
control."""
import hashlib

import numpy as np
import pytest

from bcdyn import jacobian, run_validation
from bcdyn.validation import (
    draw_params,
    draw_state,
    suite_catalog_completeness,
    suite_jacobian_fd,
)


class TestDrawStreams:
    """sha256 of ``repr`` of 200 draws, and the next ``rng.uniform()`` after
    them, pinned when each parameter set took 26 (25 with k given) scalar
    ``Generator.uniform`` calls.  The seeded corpora, benchmark pools and
    validation reports all depend on these streams."""

    @pytest.mark.parametrize(
        "seed, kind, digest, following",
        [
            (0, "params", "d8b2969c6b5f1f9e726cf6799b4920683741f9cf1a7e718bd71132d0316ed2e2",
             0.20789826815909873),
            (0, "params_k1", "82b9021bb17b76a2459ec6868ade8dfc0f24a8d15493fa830117a7dc5c030113",
             0.885204221978855),
            (0, "state", "64ee24396c1c338f2e46ff71ed3a3da855bde986561ac48ec9f41ca7a67a1de5",
             0.013007673374885287),
            (1, "params", "0cb317c268a405396df8b4491590e002823d0b618a60f22b7cef31ce1bc1ffe8",
             0.8441686846123795),
            (1, "params_k1", "90fdb95b72e5927e2d1b02ed768ab67a4b1ba56fdf1d3b33cbd1889ae7c726ca",
             0.041629954629513355),
            (1, "state", "b756f2954c3c92156bdbc948054b6c27009db053765b94ad3fff0b4a85937964",
             0.5423265014841474),
        ],
    )
    def test_stream_is_pinned(self, seed, kind, digest, following):
        draw = {
            "params": draw_params,
            "params_k1": lambda rng: draw_params(rng, k=1.0),
            "state": draw_state,
        }[kind]
        rng = np.random.default_rng(seed)
        draws = [draw(rng) for _ in range(200)]
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == digest
        assert rng.uniform() == following


class TestSuites:
    def test_default_seed_all_pass(self):
        report, passed = run_validation(0)
        assert passed
        assert report.count("PASS") == 8
        assert "FAIL" not in report
        # The report's bits rest on the same LAPACK bits as the stability
        # corpus pin.
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "593c5a857ff270c40b37e683ba9dbcab9a06680df6689360e257f986590ed8dd"
        )

    def test_deterministic_report(self):
        a, _ = run_validation(3)
        b, _ = run_validation(3)
        assert a == b

    def test_flipped_jacobian_negative_control(self):
        """A corrupted build (sign-flipped Jacobian) must be caught by the
        finite-difference suite."""

        def flipped(state, params):
            return -jacobian(state, params)

        result = suite_jacobian_fd(0, draws=10, jac_fn=flipped)
        assert not result.passed

    def test_completeness_covers_blockade_and_epsilon_zero_slices(self, monkeypatch):
        """The k = 1 and epsilon = 0 slices each find brackets, and a lost
        dead2 family is caught in every slice."""
        import bcdyn.equilibria

        result = suite_catalog_completeness(0, draws=10)
        assert result.passed
        assert "k=1: brackets=" in result.detail
        assert "epsilon=0: brackets=" in result.detail

        monkeypatch.setattr(bcdyn.equilibria, "dead_type2", lambda params: [])
        lost = suite_catalog_completeness(0, draws=10)
        assert not lost.passed
        assert lost.detail.count("missed=0") == 0
