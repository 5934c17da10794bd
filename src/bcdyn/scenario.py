"""Scenario files: a flat JSON document naming all 26 parameters, the
initial state, integration settings, sample count, seed and label.

Unknown keys are rejected everywhere; reproducibility comes from files and
flags only (no environment-variable configuration).
"""
from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .integrator import IntegrationConfig
from .model import (
    STATE_NAMES, DomainError, ModelParams, SystemState, _FLOAT_MAX, _MAX_POINTS,
    _beyond_float, _is_real,
)

__all__ = ["Scenario", "ScenarioError", "load_scenario", "parse_scenario", "default_scenario"]


class ScenarioError(ValueError):
    pass


_TOP_KEYS = {"params", "initial_state", "integration", "sample_count", "seed", "label"}


@dataclass(frozen=True)
class Scenario:
    params: ModelParams
    initial_state: SystemState
    integration: IntegrationConfig
    sample_count: int
    seed: int
    label: str


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = sorted(set(doc) - _TOP_KEYS)
    missing = sorted(_TOP_KEYS - set(doc))
    if unknown or missing:
        raise ScenarioError(f"scenario keys: missing={missing} unknown={unknown}")

    p = doc["params"]
    if not isinstance(p, dict):
        raise ScenarioError("params must be an object")
    try:
        params = ModelParams.from_dict(p)
    except DomainError as exc:
        raise ScenarioError(f"params: {exc}") from exc

    st = doc["initial_state"]
    if not isinstance(st, dict) or sorted(st) != sorted(STATE_NAMES):
        raise ScenarioError(f"initial_state must name exactly {STATE_NAMES}")
    for name in STATE_NAMES:
        v = st[name]
        if not (_is_real(v) and 0 <= v <= _FLOAT_MAX):
            got = "an integer beyond the float range" if _beyond_float(v) else repr(v)
            raise ScenarioError(f"initial_state {name} must be finite and nonnegative, got {got}")
    state = SystemState(**{name: float(st[name]) for name in STATE_NAMES})

    integ = doc["integration"]
    if not isinstance(integ, dict):
        raise ScenarioError("integration must be an object")
    bad = sorted(set(integ) - {f.name for f in fields(IntegrationConfig)})
    if bad:
        raise ScenarioError(f"unknown integration keys: {bad}")
    if "t0" not in integ or "t_end" not in integ:
        raise ScenarioError("integration requires t0 and t_end")
    try:
        cfg = IntegrationConfig(**integ)
    except DomainError as exc:
        raise ScenarioError(f"bad integration config: {exc}") from exc

    sample_count = doc["sample_count"]
    if type(sample_count) is not int or not 2 <= sample_count <= _MAX_POINTS:
        raise ScenarioError(f"sample_count must be an integer from 2 to {_MAX_POINTS}")
    seed = doc["seed"]
    if type(seed) is not int or seed < 0:
        raise ScenarioError("seed must be a nonnegative integer")
    label = doc["label"]
    if not isinstance(label, str) or not label:
        raise ScenarioError("label must be a nonempty string")
    # The label starts every output file name, so it must not leave --out.
    if label in (".", "..") or any(c in label for c in "/\\\0"):
        raise ScenarioError(
            f"label {label!r} must be a file name: no '/', '\\' or NUL, not '.' or '..'"
        )
    # XML refuses C0 controls even escaped, so an SVG titled with one
    # would not parse; no control character has a place in a file name.
    if any(unicodedata.category(c) == "Cc" for c in label):
        raise ScenarioError(f"label {label!r} must not contain control characters")
    return Scenario(
        params=params,
        initial_state=state,
        integration=cfg,
        sample_count=sample_count,
        seed=seed,
        label=label,
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an integer or too deep a nesting
        raise ScenarioError(f"malformed scenario JSON: {exc}") from exc
    return parse_scenario(doc)


def default_scenario() -> Scenario:
    """The bundled illustrative scenario (non-normative magnitudes)."""
    text = resources.files("bcdyn.data").joinpath("default.scenario.json").read_text("utf-8")
    return parse_scenario(json.loads(text))
