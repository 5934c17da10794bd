"""Built-in validation suites, including the flipped-Jacobian negative
control."""
import numpy as np

from bcdyn import jacobian, run_validation
from bcdyn.validation import suite_catalog_completeness, suite_jacobian_fd


class TestSuites:
    def test_default_seed_all_pass(self):
        report, passed = run_validation(0)
        assert passed
        assert report.count("PASS") == 8
        assert "FAIL" not in report

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
