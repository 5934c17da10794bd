"""CLI behavior: file outputs, exit codes, determinism, schemas."""
import json
import os
from importlib import resources
from xml.etree import ElementTree

import numpy as np
import pytest

import bcdyn.cli
from bcdyn import default_scenario, integrate
from bcdyn.cli import main
from bcdyn.model import _MAX_POINTS
from bcdyn.formats import trajectory_to_csv

from conftest import bounded, refuse


def run(args):
    return main(list(args))


class TestSimulate:
    def test_csv_shape(self, tmp_path):
        assert run(["simulate", "--out", str(tmp_path), "--format", "csv"]) == 0
        text = (tmp_path / "default_trajectory.csv").read_text(encoding="utf-8")
        lines = text.strip("\n").split("\n")
        assert lines[0] == "t,N,T,I,E,M"
        assert len(lines) == 1 + default_scenario().sample_count

    def test_matches_library_bytes(self, tmp_path):
        assert run(["simulate", "--out", str(tmp_path), "--format", "csv"]) == 0
        sc = default_scenario()
        traj = integrate(sc.initial_state, sc.params, sc.integration, sc.sample_count)
        assert (
            (tmp_path / "default_trajectory.csv").read_text(encoding="utf-8")
            == trajectory_to_csv(traj)
        )

    def test_json_reports_stiff_switch(self, tmp_path, base_scenario_doc, write_scenario):
        assert run(["simulate", "--out", str(tmp_path), "--format", "json"]) == 0
        doc = json.loads((tmp_path / "default_trajectory.json").read_text(encoding="utf-8"))
        assert doc["stiff_switch_time"] is None
        stiff = base_scenario_doc
        stiff["params"]["n_M"] *= 1e4
        stiff["params"]["v_M"] *= 1e4
        stiff["label"] = "stiff"
        path = write_scenario(stiff)
        assert run(["simulate", "--scenario", path, "--out", str(tmp_path),
                    "--format", "json"]) == 0
        doc = json.loads((tmp_path / "stiff_trajectory.json").read_text(encoding="utf-8"))
        assert 0.0 < doc["stiff_switch_time"] < doc["t"][-1]

    def test_sourceless_zero_scenario(self, tmp_path, base_scenario_doc, write_scenario):
        doc = base_scenario_doc
        doc["params"]["s"] = 0.0
        doc["params"]["p"] = 0.0
        doc["params"]["v_M"] = 0.0
        doc["initial_state"] = {k: 0.0 for k in "NTIEM"}
        doc["label"] = "zero"
        path = write_scenario(doc)
        assert run(["simulate", "--scenario", path, "--out", str(tmp_path),
                    "--format", "csv"]) == 0
        text = (tmp_path / "zero_trajectory.csv").read_text(encoding="utf-8")
        for line in text.strip("\n").split("\n")[1:]:
            assert line.split(",")[1:] == ["0"] * 5

    def test_svg_written(self, tmp_path):
        assert run(["simulate", "--out", str(tmp_path), "--svg"]) == 0
        svg = (tmp_path / "default_trajectory.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 5

    # The label reached <text> unescaped, so "T<1&2" gave an SVG that no XML
    # parser reads.
    @pytest.mark.parametrize(
        "args",
        [["simulate"], ["sweep", "--parameter", "k", "--min", "0", "--max", "1", "--count", "3"]],
        ids=["simulate", "sweep"],
    )
    def test_svg_escapes_the_label(self, tmp_path, base_scenario_doc, write_scenario, args):
        doc = base_scenario_doc
        doc["label"] = "T<1&2"
        path = write_scenario(doc)
        assert run([*args, "--scenario", path, "--out", str(tmp_path), "--svg"]) == 0
        charts = sorted(tmp_path.glob("*.svg"))
        assert charts
        for chart in charts:
            title = ElementTree.parse(chart).getroot().find("{http://www.w3.org/2000/svg}text")
            assert title.text.startswith("T<1&2: ")

    # A NaN tolerance used to make simulate run until killed.
    def test_non_finite_tolerance_exit_2(
        self, tmp_path, capsys, base_scenario_doc, write_scenario
    ):
        base_scenario_doc["integration"]["rel_tol"] = float("nan")
        path = write_scenario(base_scenario_doc)  # json.dumps writes the NaN token
        out = tmp_path / "out"
        assert bounded(lambda: run(["simulate", "--scenario", path, "--out", str(out)])) == 2
        assert capsys.readouterr().err == (
            "error: bad integration config: rel_tol must be a finite real number, got nan\n"
        )
        assert not out.exists()

    # Accepted, then integrate raised a bare OverflowError: a traceback and
    # exit 1.
    def test_sample_count_beyond_the_float_range_exit_2(
        self, tmp_path, capsys, base_scenario_doc, write_scenario
    ):
        base_scenario_doc["sample_count"] = 10**400
        path = write_scenario(base_scenario_doc)
        out = tmp_path / "out"
        assert bounded(lambda: run(["simulate", "--scenario", path, "--out", str(out)])) == 2
        assert capsys.readouterr().err == (
            f"error: sample_count must be an integer from 2 to {_MAX_POINTS}\n"
        )
        assert not out.exists()

    # Accepted, then integrate built that many sample times.
    def test_sample_count_over_the_cap_exit_2(
        self, tmp_path, capsys, monkeypatch, base_scenario_doc, write_scenario
    ):
        monkeypatch.setattr(bcdyn.cli, "integrate", refuse)
        base_scenario_doc["sample_count"] = _MAX_POINTS + 1
        path = write_scenario(base_scenario_doc)
        out = tmp_path / "out"
        assert run(["simulate", "--scenario", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: sample_count must be an integer from 2 to {_MAX_POINTS}\n"
        )
        assert not out.exists()


class TestEquilibria:
    def test_blockade_scenario_estrogen_zero(
        self, tmp_path, base_scenario_doc, write_scenario
    ):
        doc = base_scenario_doc
        doc["params"]["k"] = 1.0
        doc["params"]["p_M"] = 0.05
        doc["label"] = "blockade"
        path = write_scenario(doc)
        assert run(["equilibria", "--scenario", path, "--out", str(tmp_path)]) == 0
        catalog = json.loads(
            (tmp_path / "blockade_equilibria.json").read_text(encoding="utf-8")
        )
        assert catalog
        for entry in catalog:
            assert entry["point"]["E"] == 0.0
            if entry["confirmed"]:
                assert entry["residual"] < 1e-10

    def test_csv_schema(self, tmp_path):
        assert run(["equilibria", "--out", str(tmp_path), "--format", "csv"]) == 0
        text = (tmp_path / "default_equilibria.csv").read_text(encoding="utf-8")
        assert text.split("\n", 1)[0] == "family,N,T,I,E,M,residual,confirmed,provenance"

    # A scenario file that starts with a UTF-8 byte-order mark made the
    # command exit 2 with "Unexpected UTF-8 BOM".
    def test_scenario_with_byte_order_mark(self, tmp_path):
        bundled = resources.files("bcdyn.data").joinpath("default.scenario.json").read_bytes()
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + bundled)
        assert run(["equilibria", "--scenario", str(path), "--out", str(tmp_path / "bom")]) == 0
        assert run(["equilibria", "--out", str(tmp_path / "plain")]) == 0
        got = (tmp_path / "bom" / "default_equilibria.json").read_bytes()
        assert got == (tmp_path / "plain" / "default_equilibria.json").read_bytes()

    def test_malformed_scenario_no_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["equilibria", "--scenario", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    # The JSON integer 1 followed by 400 zeros made the CLI print a traceback
    # and exit 1.
    def test_integer_beyond_the_float_range_exit_2(
        self, tmp_path, capsys, base_scenario_doc, write_scenario
    ):
        base_scenario_doc["params"]["a1"] = 10**400
        path = write_scenario(base_scenario_doc)
        out = tmp_path / "out"
        assert run(["equilibria", "--scenario", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: params: invalid parameters: "
            "a1 must be finite, got an integer beyond the float range\n"
        )
        assert not out.exists()

    # A file that is not UTF-8 ended in UnicodeDecodeError, and nesting
    # deeper than the parser's recursion limit in RecursionError, each a
    # traceback with exit code 1.
    @pytest.mark.parametrize(
        "content", [b"\xff\xfe\x00{\x00}\x00", b"[" * 10_000], ids=["utf16", "nested"]
    )
    def test_unreadable_scenario_exit_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "out"
        assert run(["equilibria", "--scenario", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    # With k = 1 and v_M = 0.3, I grows without bound: no equilibrium.
    @pytest.mark.parametrize(
        "command, header",
        [
            ("equilibria", "family,N,T,I,E,M,residual,confirmed,provenance"),
            ("stability", "family,verdict,maxReLambda,R0,R1,R_IM,"
             "eigen_hurwitz_agree,theorem_eigen_agree,theta_in_spectrum"),
        ],
    )
    def test_empty_catalog_files(self, tmp_path, base_scenario_doc, write_scenario, command, header):
        base_scenario_doc["params"].update(k=1.0, v_M=0.3)
        base_scenario_doc["label"] = "empty"
        path = write_scenario(base_scenario_doc)
        assert run([command, "--scenario", path, "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"empty_{command}.json").read_text(encoding="utf-8") == "[]\n"
        assert (tmp_path / f"empty_{command}.csv").read_text(encoding="utf-8") == header + "\n"

    def test_invalid_params_exit_2(self, tmp_path, base_scenario_doc, write_scenario):
        base_scenario_doc["params"]["theta"] = 0.0
        path = write_scenario(base_scenario_doc)
        out = tmp_path / "out"
        assert run(["equilibria", "--scenario", str(path), "--out", str(out)]) == 2
        assert not out.exists()


    @pytest.mark.parametrize("command", ["equilibria", "stability", "sweep"])
    def test_overflowing_polynomial_exit_3(
        self, tmp_path, capsys, base_scenario_doc, write_scenario, command
    ):
        base_scenario_doc["params"]["a2"] = 1e160
        path = write_scenario(base_scenario_doc)
        out = tmp_path / "out"
        extra = ["--parameter", "d", "--min", "0.5", "--max", "1.5"] if command == "sweep" else []
        assert run([command, "--scenario", str(path), "--out", str(out), *extra]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "numeric failure: dead2 polynomial in T overflows\n"

    # numpy's LinAlgError escaped as a traceback with exit code 1.
    @pytest.mark.parametrize("command", ["equilibria", "stability", "sweep"])
    def test_overflowing_companion_exit_3(
        self, tmp_path, capsys, base_scenario_doc, write_scenario, command
    ):
        base_scenario_doc["params"]["d"] = 1e154
        path = write_scenario(base_scenario_doc)
        out = tmp_path / "out"
        extra = ["--parameter", "k", "--min", "0.1", "--max", "0.9"] if command == "sweep" else []
        assert run([command, "--scenario", str(path), "--out", str(out), *extra]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            "numeric failure: coexisting polynomial in T overflows its companion matrix\n"
        )


class TestStability:
    def test_summary_rows(self, tmp_path):
        assert run(["stability", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "default_stability.csv").read_text(encoding="utf-8")
        lines = text.strip("\n").split("\n")
        assert lines[0] == (
            "family,verdict,maxReLambda,R0,R1,R_IM,"
            "eigen_hurwitz_agree,theorem_eigen_agree,theta_in_spectrum"
        )
        assert len(lines) > 1
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[-1] == "true"           # -theta in the spectrum
            assert cells[6] in ("true", "na")    # eigen vs Hurwitz

    def test_chi_zero_r_im_column(self, tmp_path, base_scenario_doc, write_scenario):
        doc = base_scenario_doc
        doc["params"]["chi"] = 0.0
        doc["params"]["p_M"] = 0.05
        doc["label"] = "nochi"
        path = write_scenario(doc)
        assert run(["stability", "--scenario", path, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "nochi_stability.csv").read_text(encoding="utf-8")
        for line in text.strip("\n").split("\n")[1:]:
            cells = line.split(",")
            if cells[0] in ("tumor_free", "dead1") and cells[5] != "nan":
                assert float(cells[5]) == 0.0

    def test_overflowing_minor_is_strict_json(self, tmp_path, base_scenario_doc, write_scenario):
        """At a1 = 1e80 the fifth Hurwitz minor of the dead1 point is -inf;
        it is written as the string "-inf", not as the -Infinity token that
        RFC 8259 JSON forbids."""
        doc = base_scenario_doc
        doc["params"]["a1"] = 1e80
        doc["label"] = "huge"
        path = write_scenario(doc)
        assert run(["stability", "--scenario", path, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "huge_stability.json").read_text(encoding="utf-8")
        (dead1,) = [rep for rep in json.loads(text, parse_constant=reject) if rep["family"] == "dead1"]
        assert dead1["hurwitz"]["minors"][4] == "-inf"


def reject(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestSweepCommand:
    def test_sweep_csv_and_svg(self, tmp_path):
        assert run([
            "sweep", "--out", str(tmp_path), "--parameter", "k",
            "--min", "0", "--max", "1", "--count", "5", "--svg",
        ]) == 0
        text = (tmp_path / "default_sweep.csv").read_text(encoding="utf-8")
        sc = default_scenario()
        for line in text.strip("\n").split("\n")[1:]:
            cells = line.split(",")
            k = float(cells[1])
            assert float(cells[6]) == sc.params.p * (1.0 - k) / sc.params.theta
        assert (tmp_path / "default_sweep.svg").exists()

    def test_flat_svg_series(self, tmp_path, base_scenario_doc, write_scenario):
        """At a1 = 1e30 every max Re(lambda) is 1e30, where adding 1 leaves
        the value unchanged; the chart's flat range is widened to
        [1e30, 2e30] instead, padded by 5 % on each side."""
        doc = base_scenario_doc
        doc["params"]["a1"] = 1e30
        doc["label"] = "huge"
        path = write_scenario(doc)
        assert run([
            "sweep", "--scenario", path, "--out", str(tmp_path), "--parameter", "k",
            "--min", "0", "--max", "1", "--count", "5", "--svg",
        ]) == 0
        svg = (tmp_path / "huge_sweep.svg").read_text(encoding="utf-8")
        assert ">9.5e+29<" in svg and ">2.05e+30<" in svg
        assert "nan" not in svg and "inf" not in svg

    def test_grid_outside_validity_exit_2(self, tmp_path):
        out = tmp_path / "out"
        assert run([
            "sweep", "--out", str(out), "--parameter", "k",
            "--min", "0", "--max", "2", "--count", "3",
        ]) == 2
        assert not out.exists()

    # A zero d used to pass the grid check and fail inside the sweep.
    def test_zero_positive_rate_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run([
            "sweep", "--out", str(out), "--parameter", "d", "--min", "0", "--max", "1",
        ]) == 2
        assert capsys.readouterr().err == "error: grid value 0.0 invalid: d must be positive\n"
        assert not out.exists()

    # Under -W error the overflowing span ended in a traceback; without it,
    # --max inf swept a NaN grid value.
    @pytest.mark.parametrize(
        "bounds, shown",
        [(["--min=-1e308", "--max", "1e308"], "[-1e+308, 1e+308]"),
         (["--min", "0", "--max", "inf"], "[0.0, inf]")],
        ids=["overflow", "inf"],
    )
    def test_grid_span_beyond_the_float_range_exit_2(self, tmp_path, capsys, bounds, shown):
        out = tmp_path / "out"
        assert run(["sweep", "--out", str(out), "--parameter", "d", *bounds]) == 2
        assert capsys.readouterr().err == (
            f"error: grid bounds {shown} must be finite with a finite span hi - lo\n"
        )
        assert not out.exists()

    # Both used to exit 0: the second grid overwrote the first, and an
    # orphan --min2 was dropped for a 1-D sweep.
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--parameter2", "k", "--min2", "0.5", "--max2", "0.5", "--count2", "1"],
             "cannot sweep k against itself"),
            (["--min2", "0.5", "--max2", "0.6"], "--min2 and --max2 require --parameter2"),
            (["--max2", "0.6"], "--min2 and --max2 require --parameter2"),
        ],
    )
    def test_bad_second_parameter_exit_2(self, tmp_path, capsys, extra, message):
        out = tmp_path / "out"
        assert run([
            "sweep", "--out", str(out), "--parameter", "k",
            "--min", "0.1", "--max", "0.9", "--count", "2", *extra,
        ]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # --count2 defaulted to 11, so an orphan value ran a 1-D sweep.
    def test_orphan_count2_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run([
            "sweep", "--out", str(out), "--parameter", "k",
            "--min", "0", "--max", "1", "--count", "2", "--count2", "5",
        ]) == 2
        assert capsys.readouterr().err == "error: --count2 requires --parameter2\n"
        assert not out.exists()

    def test_count2_defaults_to_11(self, tmp_path):
        assert run([
            "sweep", "--out", str(tmp_path), "--parameter", "k", "--min", "0", "--max", "0.5",
            "--count", "2", "--parameter2", "d", "--min2", "0.5", "--max2", "1.5",
        ]) == 0
        rows = (tmp_path / "default_sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len({(row.split(",")[1], row.split(",")[3]) for row in rows}) == 2 * 11

    # The grids, or a sweep over their product, were built at any size.
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--count", str(_MAX_POINTS + 1)],
             f"bad grid request [0.0, 1.0] x {_MAX_POINTS + 1}: "
             f"need hi >= lo and 1 to {_MAX_POINTS} points"),
            (["--count", "1000", "--parameter2", "d", "--min2", "0.5", "--max2", "1.5",
              "--count2", "1001"],
             f"a sweep takes at most {_MAX_POINTS} grid points"),
        ],
        ids=["count", "product"],
    )
    def test_grid_over_the_cap_exit_2(self, tmp_path, capsys, monkeypatch, extra, message):
        monkeypatch.setattr(bcdyn.cli, "run_sweep", refuse)
        out = tmp_path / "out"
        assert run([
            "sweep", "--out", str(out), "--parameter", "k", "--min", "0", "--max", "1", *extra,
        ]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestOutput:
    # "../escaped" wrote next to --out and exited 0; "sub/dir" raised
    # FileNotFoundError.
    @pytest.mark.parametrize("label", ["../escaped", "sub/dir"])
    def test_label_leaving_out_exit_2(
        self, tmp_path, capsys, base_scenario_doc, write_scenario, label
    ):
        base_scenario_doc["label"] = label
        path = write_scenario(base_scenario_doc)
        out = tmp_path / "out" / "inner"
        assert run(["equilibria", "--scenario", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: label {label!r} must be a file name")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # "T\x01" wrote an SVG that xml.etree refused, and exited 0.
    def test_label_with_a_control_character_exit_2(
        self, tmp_path, capsys, base_scenario_doc, write_scenario
    ):
        base_scenario_doc["label"] = "T\x01"
        path = write_scenario(base_scenario_doc)
        out = tmp_path / "out"
        assert run(["simulate", "--scenario", path, "--out", str(out), "--svg"]) == 2
        err = capsys.readouterr().err
        assert err == "error: label 'T\\x01' must not contain control characters\n"
        assert not out.exists()

    # An --out naming a file raised FileExistsError, exit 1, and one under a
    # file NotADirectoryError.
    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_naming_a_file_exit_2(self, tmp_path, capsys, out):
        taken = tmp_path / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        assert run(["equilibria", "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ")
        assert err.count("\n") == 1
        assert taken.read_text(encoding="utf-8") == "kept\n"


class TestBifurcateCommand:
    def test_empty_result_json(self, tmp_path):
        assert run([
            "bifurcate", "--out", str(tmp_path), "--parameter", "v_M",
            "--min", "0.29", "--max", "0.31", "--scan-points", "4",
        ]) == 0
        doc = json.loads(
            (tmp_path / "default_bifurcation.json").read_text(encoding="utf-8")
        )
        assert isinstance(doc, list)

    # --scan-points -2 used to end in numpy's ValueError, and 1 in an
    # empty result.
    @pytest.mark.parametrize("points", ["1", "-2"])
    def test_too_few_scan_points_exit_2(self, tmp_path, capsys, points):
        out = tmp_path / "out"
        assert run([
            "bifurcate", "--out", str(out), "--parameter", "d",
            "--min", "0.5", "--max", "1.5", "--scan-points", points,
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: need 2 to {_MAX_POINTS} scan points, got {points}\n"
        )
        assert not out.exists()

    # The scan grid and a batch of that many parameter sets were built.
    def test_scan_points_over_the_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(np, "linspace", refuse)
        out = tmp_path / "out"
        assert run([
            "bifurcate", "--out", str(out), "--parameter", "d",
            "--min", "0.5", "--max", "1.5", "--scan-points", str(_MAX_POINTS + 1),
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: need 2 to {_MAX_POINTS} scan points, got {_MAX_POINTS + 1}\n"
        )
        assert not out.exists()


class TestFlags:
    @pytest.mark.parametrize(
        "args",
        [
            ["bifurcate", "--format", "json", "--parameter", "d",
             "--min", "0.5", "--max", "1.5", "--scan-points", "2"],
            ["equilibria", "--svg"],
            ["simulate", "--seed", "3"],
        ],
    )
    def test_flag_the_command_does_not_read_exit_2(self, tmp_path, args):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(args + ["--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestValidateCommand:
    def test_exit_zero_and_deterministic(self, capsys):
        assert run(["validate", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert run(["validate", "--seed", "5"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "result: all suites passed" in first

    # numpy's "expected non-negative integer" escaped as a traceback with
    # exit code 1.
    def test_negative_seed_exit_2(self, capsys):
        assert run(["validate", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer\n"


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--out", str(out)]) == 0
            assert run(["equilibria", "--out", str(out)]) == 0
            assert run(["stability", "--out", str(out)]) == 0
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()
