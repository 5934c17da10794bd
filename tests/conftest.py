"""Shared fixtures: seeded parameter/state draws and scenario documents."""
import json

import numpy as np
import pytest

from bcdyn import ModelParams, default_scenario, find_all, jacobian
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
