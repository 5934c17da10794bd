"""Scenario document parsing: strict keys, typed fields, clear errors."""
import json

import pytest

from bcdyn import ScenarioError, default_scenario, load_scenario, parse_scenario
from bcdyn.model import _MAX_POINTS


class TestParse:
    def test_round_trip(self, base_scenario_doc):
        sc = parse_scenario(base_scenario_doc)
        assert sc.label == "default"
        assert sc.sample_count == 201

    def test_missing_top_key(self, base_scenario_doc):
        del base_scenario_doc["seed"]
        with pytest.raises(ScenarioError, match="missing"):
            parse_scenario(base_scenario_doc)

    def test_unknown_top_key(self, base_scenario_doc):
        base_scenario_doc["extra"] = 1
        with pytest.raises(ScenarioError, match="unknown"):
            parse_scenario(base_scenario_doc)

    def test_missing_parameter(self, base_scenario_doc):
        del base_scenario_doc["params"]["xi"]
        with pytest.raises(ScenarioError, match="xi"):
            parse_scenario(base_scenario_doc)

    def test_unknown_parameter(self, base_scenario_doc):
        base_scenario_doc["params"]["zeta"] = 1.0
        with pytest.raises(ScenarioError, match="zeta"):
            parse_scenario(base_scenario_doc)

    def test_invalid_parameter_value(self, base_scenario_doc):
        base_scenario_doc["params"]["k"] = 1.5
        with pytest.raises(ScenarioError, match="k outside"):
            parse_scenario(base_scenario_doc)

    def test_negative_initial_state(self, base_scenario_doc):
        base_scenario_doc["initial_state"]["N"] = -1.0
        with pytest.raises(ScenarioError, match="nonnegative"):
            parse_scenario(base_scenario_doc)

    # float() and math.isfinite raised a bare OverflowError on such an int;
    # a NaN or infinite component was accepted.  The message names an int
    # beyond the float range without its digits: repr printed all 401 of
    # 10**400 and raised ValueError past 4,300.
    @pytest.mark.parametrize(
        "value, got",
        [
            (10**400, "an integer beyond the float range"),
            (10**5000, "an integer beyond the float range"),
            (float("nan"), "nan"),
            (float("inf"), "inf"),
        ],
        ids=["1e400", "1e5000", "nan", "inf"],
    )
    def test_initial_state_must_be_finite(self, base_scenario_doc, value, got):
        base_scenario_doc["initial_state"]["T"] = value
        message = f"initial_state T must be finite and nonnegative, got {got}"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(base_scenario_doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "path", [("params", "a1"), ("params", "k"), ("integration", "t_end")]
    )
    def test_integer_beyond_the_float_range(self, base_scenario_doc, path):
        section, name = path
        base_scenario_doc[section][name] = 10**400
        with pytest.raises(ScenarioError, match=f"{name} must be .*finite"):
            parse_scenario(base_scenario_doc)

    def test_bad_sample_count(self, base_scenario_doc):
        base_scenario_doc["sample_count"] = 1
        with pytest.raises(ScenarioError, match="sample_count"):
            parse_scenario(base_scenario_doc)

    # Accepted, then integrate raised a bare OverflowError at span / (n - 1).
    def test_sample_count_beyond_the_float_range(self, base_scenario_doc):
        base_scenario_doc["sample_count"] = 10**400
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(base_scenario_doc)
        assert str(exc.value) == f"sample_count must be an integer from 2 to {_MAX_POINTS}"

    # Accepted, so integrate built that many sample times.
    def test_sample_count_is_capped(self, base_scenario_doc):
        base_scenario_doc["sample_count"] = _MAX_POINTS + 1
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(base_scenario_doc)
        assert str(exc.value) == f"sample_count must be an integer from 2 to {_MAX_POINTS}"

    def test_sample_count_at_the_cap_is_accepted(self, base_scenario_doc):
        base_scenario_doc["sample_count"] = _MAX_POINTS
        assert parse_scenario(base_scenario_doc).sample_count == _MAX_POINTS

    def test_bad_seed(self, base_scenario_doc):
        base_scenario_doc["seed"] = -3
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(base_scenario_doc)

    # Each of these used to be read as a number: "0.5" as 0.5, true as 1.
    @pytest.mark.parametrize(
        "path, value",
        [
            (("params", "a1"), "0.5"),
            (("params", "a1"), True),
            (("initial_state", "N"), "0.3"),
            (("initial_state", "N"), True),
            (("integration", "t_end"), True),
            (("integration", "rel_tol"), "1e-6"),
            (("seed",), True),
            (("sample_count",), True),
        ],
        ids=lambda v: repr(v),
    )
    def test_strings_and_booleans_are_not_numbers(self, base_scenario_doc, path, value):
        *parents, name = path
        section = base_scenario_doc
        for key in parents:
            section = section[key]
        section[name] = value
        with pytest.raises(ScenarioError, match=name):
            parse_scenario(base_scenario_doc)

    def test_unknown_integration_key(self, base_scenario_doc):
        base_scenario_doc["integration"]["solver"] = "foo"
        with pytest.raises(ScenarioError, match="integration"):
            parse_scenario(base_scenario_doc)

    # These were settings until no run set them; the step cap is the span,
    # the first step comes from the heuristic and the floor is -1e-9.
    @pytest.mark.parametrize(
        "key, value", [("max_step", 1.0), ("initial_step", 0.01), ("negativity_floor", -1e-9)]
    )
    def test_removed_integration_keys(self, base_scenario_doc, key, value):
        base_scenario_doc["integration"][key] = value
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(base_scenario_doc)
        assert str(exc.value) == f"unknown integration keys: [{key!r}]"

    # The label starts each output file name: "../x" wrote outside --out and
    # "sub/dir" raised FileNotFoundError.
    @pytest.mark.parametrize("label", ["../escaped", "sub/dir", "a\\b", "nul\0", ".", ".."])
    def test_label_must_be_a_file_name(self, base_scenario_doc, label):
        base_scenario_doc["label"] = label
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(base_scenario_doc)
        assert str(exc.value) == (
            f"label {label!r} must be a file name: no '/', '\\' or NUL, not '.' or '..'"
        )

    @pytest.mark.parametrize("label", ["...", ".x", "a.b", "run 1", "ü"])
    def test_label_may_hold_dots_and_spaces(self, base_scenario_doc, label):
        base_scenario_doc["label"] = label
        assert parse_scenario(base_scenario_doc).label == label


class TestLoad:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="malformed"):
            load_scenario(path)

    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer beyond Python's digit limit for int-string conversion.
    def test_integer_too_long_to_read(self, tmp_path, base_scenario_doc):
        text = json.dumps(base_scenario_doc).replace('"seed": 0', '"seed": 1' + "0" * 5000)
        path = tmp_path / "long.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ScenarioError, match="^malformed scenario JSON: Exceeds the limit"):
            load_scenario(path)

    def test_bundled_default(self):
        sc = default_scenario()
        assert sc.label == "default"
        assert sc.integration.t_end == 100.0
