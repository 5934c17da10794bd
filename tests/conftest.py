"""Shared fixtures: seeded parameter/state draws and scenario documents."""
import json
import signal
import time
import warnings

import numpy as np
import pytest

from bcdyn import (
    DomainError,
    ModelParams,
    PositivityError,
    StepUnderflowError,
    default_scenario,
    find_all,
    jacobian,
)
from bcdyn.validation import draw_params, draw_state


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def base_params() -> ModelParams:
    return default_scenario().params


@pytest.fixture
def base_scenario_doc() -> dict:
    sc = default_scenario()
    return {
        "label": sc.label,
        "seed": sc.seed,
        "sample_count": sc.sample_count,
        "params": sc.params.as_dict(),
        "initial_state": {"N": sc.initial_state.N, "T": sc.initial_state.T,
                          "I": sc.initial_state.I, "E": sc.initial_state.E,
                          "M": sc.initial_state.M},
        "integration": {"t0": sc.integration.t0, "t_end": sc.integration.t_end,
                        "rel_tol": sc.integration.rel_tol,
                        "abs_tol": sc.integration.abs_tol},
    }


@pytest.fixture
def write_scenario(tmp_path):
    def _write(doc: dict, name: str = "scenario.json") -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


def random_params(seed: int, k: float | None = None) -> ModelParams:
    return draw_params(np.random.default_rng(seed), k=k)


def random_state(seed: int):
    return draw_state(np.random.default_rng(seed))


#: The Jacobian entries that model._bind's jac writes as a literal 0.0: the
#: E row off its diagonal, the six entries off the tridiagonal band of the
#: (N, T, I, M) block, and J43.  stability.char_poly and the
#: integrator's band factorization of its RODAS step matrix skip them.
JACOBIAN_ZEROS = (
    (0, 2), (0, 4), (1, 4), (2, 0), (3, 0), (3, 1), (3, 2), (3, 4), (4, 0), (4, 1), (4, 3),
)


def corpus_jacobians(draws: int = 40) -> list[np.ndarray]:
    """The Jacobians classify works on: one at every confirmed point of
    seeded draws and of their v_M = 0, g1 = 0 and s = 0 slices, whose
    boundary points give exact zeros of both signs."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(draws):
        pm = draw_params(rng)
        for p in (pm, pm.replace(v_M=0.0), pm.replace(g1=0.0), pm.replace(s=0.0)):
            out += [jacobian(eq.point, p) for eq in find_all(p) if eq.confirmed]
    return out


def block_roots(J: np.ndarray) -> list[complex]:
    """Eigenvalues of the (N, T) and (I, M) 2x2 blocks of a Jacobian.  At
    any state with T = 0 the full spectrum is their union plus {-theta}."""
    return [complex(z) for b in ((0, 1), (2, 4)) for z in np.linalg.eigvals(J[np.ix_(b, b)])]


def refuse(*args, **kwargs):
    """Stands in for the step that allocates what a point cap bounds."""
    raise AssertionError("an over-cap request reached its allocation")


class _Timeout(Exception):
    pass


def bounded(call, seconds=1.0):
    """Run ``call`` with warnings as errors and return its outcome: what it
    returns, or the DomainError, PositivityError or StepUnderflowError it
    raises.  Fails if the call takes longer than ``seconds``; an alarm at
    five times that stops a call that would never return."""

    def ring(signum, frame):
        raise _Timeout(f"no return within {5 * seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, 5 * seconds)
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = call()
    except (DomainError, PositivityError, StepUnderflowError) as exc:
        outcome = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < seconds
    return outcome
