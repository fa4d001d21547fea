"""End-to-end tests for the command line interface."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from waveprop import cli
from waveprop import serialization as ser


def run_cli(argv, cwd=None):
    """Invoke cli.main in process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    prev = os.getcwd()
    if cwd is not None:
        os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(prev)
    return code, out.getvalue(), err.getvalue()


def test_list_checks_names_twenty_checks():
    code, out, _ = run_cli(["verify", "--list-checks"])
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert len(lines) == 20
    assert any("scalar-ascent" in ln for ln in lines)


def test_verify_subset_passes():
    code, out, _ = run_cli(["verify", "--check", "scalar-ascent",
                            "--check", "sphere-area"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["checks"]) == 2


def test_verify_unknown_check_is_usage_error():
    code, _, err = run_cli(["verify", "--check", "bogus"])
    assert code == 2
    assert "unknown checks" in err


def test_series_order_cap_is_a_numerical_refusal():
    # exit 3, not the usage code 2, and the message names the splitting series' cap
    code, out, err = run_cli(["noncomm", "--t", "1e4"])
    assert code == 3 and out == ""
    assert "cap 400" in err


def test_ascent_long_time_halves_and_doubles_back(tmp_path):
    # the ascent has no order cap: a long time is halved, then doubled back
    code, out, _ = run_cli(["ascent", "--t", "1e3"], cwd=tmp_path)
    assert code == 0
    assert json.loads(out)["gaps"]["oracle_frobenius"] <= 1e-10


def test_ascent_on_301_operators_runs_a_depth_150_ladder(tmp_path):
    # the ladder's constants L(k, 150) overflow a float; the ascent applies their ratios to L(0, 150)
    code, out, _ = run_cli(["ascent", "--count", "301", "--dim", "2"], cwd=tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["formula"] == "sphere-cosine-ladder"
    assert report["gaps"]["oracle_frobenius"] <= 1e-10


def test_ascent_report_shape(tmp_path):
    code, out, _ = run_cli(["ascent", "--t", "0.5", "--count", "2", "--dim", "1"],
                           cwd=tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["formula"] == "ball-cosine-ladder"
    assert report["gaps"]["oracle_frobenius"] <= 1e-5
    mat = ser.matrix_from_json(report["result"], "result")
    assert mat.shape == (1, 1)


def test_ascent_odd_count_uses_sphere_formula(tmp_path):
    code, out, _ = run_cli(["ascent", "--t", "0.5", "--count", "3", "--dim", "1"],
                           cwd=tmp_path)
    assert code == 0
    assert json.loads(out)["formula"] == "sphere-cosine-ladder"


def test_ascent_has_no_level_or_parity_option():
    # the rule level is the series order and --count sets the parity
    for argv in (["ascent", "--level", "40"], ["ascent", "--parity", "odd"]):
        code, _, err = run_cli(argv)
        assert code == 2
        assert "unrecognized arguments" in err


def test_noncomm_writes_error_table(tmp_path):
    out_path = tmp_path / "errors.csv"
    code, out, _ = run_cli([
        "noncomm", "--t", "0.3", "--tol", "1e-5", "--mcap", "64",
        "--out", str(out_path),
    ])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["report"]["verdict"] == "converged"
    assert report["artifact"].endswith("errors.csv")
    rows = [r for r in out_path.read_text().strip().splitlines()
            if not r.startswith("#")]
    assert rows[0] == "m,error"
    errs = [float(r.split(",")[1]) for r in rows[1:]]
    assert errs == sorted(errs, reverse=True)


def test_noncomm_romberg_walk_starts_at_one_and_has_no_richardson_option():
    code, out, _ = run_cli(["noncomm", "--t", "0.3", "--tol", "1e-6"])
    assert code == 0
    report = json.loads(out)
    assert {"m0", "richardson"}.isdisjoint(report["inputs"])
    walk = report["report"]
    assert walk["m_values"][0] == 1 and walk["column"] == len(walk["m_values"]) - 1
    assert report["gaps"]["oracle_relative"] <= 1e-9
    for argv in (["noncomm", "--richardson"], ["noncomm", "--m0", "2"], ["oscillator", "--m0", "2"]):
        code, _, err = run_cli(argv)
        assert code == 2
        assert "unrecognized arguments" in err


def test_noncomm_formula_slug():
    code, out, _ = run_cli(["noncomm", "--t", "0.2", "--tol", "1e-4", "--mcap", "32"])
    assert code == 0
    assert json.loads(out)["formula"] == "splitting-series-limit"


def test_wave2d_passes_against_reference(tmp_path):
    code, out, _ = run_cli(["wave2d", "--grid", "32", "--t", "0.3"], cwd=tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["formula"] == "disk-average-time-derivative"
    assert report["passed"] is True
    assert report["gaps"]["reference_l2"] <= 1e-3


def test_wave3d_zero_time_is_identity(tmp_path):
    code, out, _ = run_cli(["wave3d", "--grid", "12", "--t", "0", "--sigma", "0.6"],
                           cwd=tmp_path)
    assert code == 0
    assert json.loads(out)["gaps"]["reference_l2"] <= 1e-12


def test_kg_zero_mass_reports_wave_collapse(tmp_path):
    code, out, _ = run_cli(["kg", "--a", "0", "--dim", "1", "--grid", "64",
                            "--t", "0.4"], cwd=tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["gaps"]["wave_collapse"] <= 1e-8
    assert report["formula"] == "massless-descent-ladder"


def test_damped_formula_slug(tmp_path):
    code, out, _ = run_cli(["damped", "--a", "0.5", "--dim", "1", "--grid", "64",
                            "--t", "0.4"], cwd=tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["formula"] == "massless-descent-ladder-hyperbolic"
    assert report["passed"] is True


def test_rejects_nonpositive_tolerance():
    code, _, err = run_cli(["kg", "--tol", "0", "--grid", "16"])
    assert code == 2
    assert "strictly positive" in err
    for value in ("inf", "nan"):
        code, out, err = run_cli(["noncomm", "--tol", value])
        assert (code, out) == (2, "")
        assert "strictly positive and finite" in err


def test_oscillator_subcommand(tmp_path):
    code, out, _ = run_cli(["oscillator", "--grid", "48", "--t", "0.2",
                            "--tol", "1e-4", "--mcap", "64"], cwd=tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["gaps"]["oracle_relative"] <= 1e-3


def test_grushin_subcommand(tmp_path):
    code, out, _ = run_cli(["grushin", "--grid", "10", "--t", "0.2"], cwd=tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["gaps"]["oracle_relative"] <= 1e-6
    assert report["gaps"]["collapse"] <= 1e-8


def test_rule_export(tmp_path):
    out_path = tmp_path / "rule.csv"
    code, out, _ = run_cli(["rule", "--kind", "ball", "--dim", "2", "--level", "6",
                            "--out", str(out_path)])
    assert code == 0
    report = json.loads(out)
    assert report["formula"] == "sign-mirrored-dirichlet-rule"
    rows = [r for r in out_path.read_text().strip().splitlines()
            if not r.startswith("#")]
    assert len(rows) == report["size"] + 1
    assert report["moment_error"] <= 1e-10


def test_monte_carlo_sphere_rule_past_the_gamma_overflow(tmp_path):
    # Gamma(200) overflows a float while the area of S^399, 1.4e-273, fits
    code, out, _ = run_cli(["rule", "--kind", "sphere", "--dim", "400", "--level", "2",
                            "--samples", "10"], cwd=tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["method"] == "montecarlo"
    assert report["size"] == 10
    assert report["mass"] == pytest.approx(1.3650416103661198e-273, rel=1e-12)


def test_fixture_export_decodes(tmp_path):
    out_path = tmp_path / "pair.json"
    code, out, _ = run_cli(["fixture", "--kind", "hermitian-pair", "--dim", "3",
                            "--seed", "5", "--out", str(out_path)])
    assert code == 0
    decoded = ser.fixture_from_json(ser.load_json_file(out_path), "pair")
    assert decoded["a"].shape == (3, 3)


def test_stdout_is_byte_identical_across_runs():
    args = ["noncomm", "--t", "0.3", "--tol", "1e-5", "--mcap", "32", "--seed", "5"]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert first == second


def test_timings_go_to_stderr_not_stdout():
    _, out, err = run_cli(["verify", "--check", "scalar-ascent"])
    assert "elapsed" in err
    assert "elapsed" not in out


def test_out_env_variable_sets_artifact_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("WAVEPROP_OUT", str(tmp_path))
    code, out, _ = run_cli(["rule", "--kind", "sphere", "--dim", "3", "--level", "6",
                            "--out", "csv"])
    assert code == 0
    assert (tmp_path / "rule_output.csv").exists()


def test_verify_accepts_valid_fixture(tmp_path):
    fx = ser.hermitian_pair_fixture(4, seed=3)
    path = tmp_path / "pair.json"
    ser.dump_json(fx, path)
    code, out, _ = run_cli(["verify", "--check", "scalar-ascent",
                            "--fixture", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True


def test_verify_surfaces_symmetrization_warning(tmp_path):
    fx = ser.hermitian_pair_fixture(4, seed=3)
    fx["a"]["rows"][0][1] = [9.0, 0.0]  # break Hermitian symmetry
    path = tmp_path / "skewed.json"
    ser.dump_json(fx, path)
    code, out, _ = run_cli(["verify", "--check", "scalar-ascent",
                            "--fixture", str(path)])
    assert code == 0
    report = json.loads(out)
    joined = json.dumps(report)
    assert "Hermitian part" in joined


def test_verify_rejects_malformed_fixture(tmp_path):
    fx = ser.hermitian_pair_fixture(3, seed=1)
    fx["a"]["rows"][2][1] = "oops"
    path = tmp_path / "broken.json"
    ser.dump_json(fx, path)
    code, _, err = run_cli(["verify", "--check", "scalar-ascent",
                            "--fixture", str(path)])
    assert code == 2
    assert "rows[2][1]" in err


def test_verify_refuses_a_non_finite_matrix_fixture(tmp_path):
    fx = {"kind": "matrix", "matrix": ser.matrix_to_json([[1.0, 0.0], [0.0, 1.0]])}
    fx["matrix"]["rows"][1][1] = [math.nan, 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(fx), encoding="utf-8")
    code, out, err = run_cli(["verify", "--check", "sphere-area", "--fixture", str(path)])
    assert code == 2 and out == ""
    assert "operator 0 has non-finite entries" in err


@pytest.mark.parametrize("subcommand, wrong, wanted", [
    ("ascent", ser.hermitian_pair_fixture(3, seed=1), "commuting-family"),
    ("noncomm", ser.commuting_family_fixture(2, 3, seed=1), "hermitian-pair"),
])
def test_fixture_of_the_wrong_kind_is_refused(tmp_path, subcommand, wrong, wanted):
    path = tmp_path / "fixture.json"
    ser.dump_json(wrong, path)
    artifact = tmp_path / "out.json"
    code, out, err = run_cli([subcommand, "--fixture", str(path), "--out", str(artifact)])
    assert code == 2 and out == ""
    assert f"error: {subcommand} expects a {wanted} fixture" in err
    assert not artifact.exists()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "waveprop.cli", "verify", "--list-checks"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "scalar-ascent" in proc.stdout


# every JSON artifact of a default run, by its argv without --out
_JSON_ARTIFACT_ARGV = {
    "verify": ["verify", "--check", "moments", "--check", "wave-2d"],
    "ascent": ["ascent"],
    "wave2d": ["wave2d"],
    "kg": ["kg"],
    "damped": ["damped"],
    "grushin": ["grushin"],
    "fixture-pair": ["fixture"],
    "fixture-family": ["fixture", "--kind", "commuting-family"],
}


@pytest.mark.parametrize("name", sorted(_JSON_ARTIFACT_ARGV))
def test_json_artifact_is_one_line_and_reads_back_exactly(name, tmp_path, monkeypatch):
    fields = []  # the route's output, as handed to the writer
    to_json = ser.field_to_json
    monkeypatch.setattr(ser, "field_to_json", lambda field, t=None: fields.append(field) or to_json(field, t))
    artifact = tmp_path / f"{name}.json"
    argv = _JSON_ARTIFACT_ARGV[name] + ["--out", str(artifact)]
    (code, out, _), (_, again, _) = run_cli(argv), run_cli(argv)
    assert code == 0 and out == again
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    text = artifact.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    obj = ser.load_json_file(artifact)
    assert report.pop("artifact") == str(artifact)
    if fields:
        field = fields[-1]
        values = np.array(obj["field"].pop("values"))
        # every default field is real data, so its values are one flat list of floats
        assert not field.values.imag.any()
        assert values.ndim == 1 and values.dtype == float
        assert np.array_equal(values.view(np.int64), field.values.real.reshape(-1).view(np.int64))
        header = to_json(field, t=report["inputs"]["t"])
        del header["values"]
        assert obj == {"field": header, "seed": report["inputs"]["seed"], "inputs": report["inputs"]}
    else:
        assert obj == report
    if name.startswith("fixture"):  # the compact and the indented text decode to the same arrays
        decoded, printed = ser.fixture_from_json(obj), ser.fixture_from_json(report)
        assert all(np.array_equal(decoded[key], printed[key]) for key in printed if key != "kind")


# a quick passing invocation of every subcommand
_QUICK_ARGV = {
    "verify": ["--check", "sphere-area"],
    "ascent": ["--count", "2", "--dim", "1"],
    "noncomm": ["--t", "0.2", "--tol", "1e-4", "--mcap", "32"],
    "wave2d": ["--grid", "32", "--t", "0.3"],
    "wave3d": ["--grid", "12", "--t", "0.2", "--sigma", "0.6"],
    "kg": ["--grid", "64", "--t", "0.4"],
    "damped": ["--grid", "64", "--t", "0.4"],
    "oscillator": ["--grid", "48", "--tol", "1e-4", "--mcap", "64"],
    "grushin": ["--grid", "10"],
    "rule": ["--dim", "2", "--level", "4"],
    "fixture": ["--dim", "2"],
}


def test_formats_handlers_and_parser_name_the_same_subcommands():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(cli._FORMATS) == set(cli._HANDLERS) == set(sub.choices) == set(_QUICK_ARGV)


def _parses_as_csv(text):
    rows = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
    header, body = rows[0], rows[1:]
    assert len(header) >= 2 and body
    assert all(len(row) == len(header) for row in body)
    assert all(math.isfinite(float(cell)) for row in body for cell in row)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(_QUICK_ARGV))
def test_out_writes_the_named_format_or_refuses(name, fmt, tmp_path, monkeypatch):
    monkeypatch.setenv("WAVEPROP_OUT", str(tmp_path))
    code, out, err = run_cli([name, *_QUICK_ARGV[name], "--out", fmt])
    artifact = tmp_path / f"{name}_output.{fmt}"
    formats = cli._FORMATS[name]
    if fmt not in formats:
        assert code == 2 and out == ""
        assert f"{name} writes {' or '.join(formats)} artifacts, not {fmt}" in err
        assert list(tmp_path.iterdir()) == []
        return
    assert code == 0
    assert json.loads(out)["artifact"] == str(artifact)
    text = artifact.read_text()
    if fmt == "json":
        json.loads(text)
    else:
        _parses_as_csv(text)


def test_main_builds_the_parser_once_and_repeats_byte_identically(monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    argv = ["verify", "--check", "sphere-area", "--check", "scalar-ascent"]
    first, second = run_cli(list(argv)), run_cli(list(argv))
    assert len(calls) == 1
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert [c["name"] for c in json.loads(second[1])["checks"]] == ["sphere-area", "scalar-ascent"]


def test_out_into_a_missing_directory_is_refused_before_the_handler(tmp_path, monkeypatch):
    def handler(args):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(cli._HANDLERS, "verify", handler)
    missing = tmp_path / "missing" / "dir"
    code, out, err = run_cli(["verify", "--check", "sphere-area", "--out", str(missing / "v.json")])
    assert code == 2 and out == ""
    assert f"artifact directory {missing} does not exist" in err
    assert list(tmp_path.iterdir()) == []


def test_explicit_threads_overrides_the_environment(monkeypatch):
    for var in cli._THREAD_VARS:  # setenv first, so teardown restores each variable
        monkeypatch.setenv(var, "9")
        monkeypatch.delenv(var)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    cli._pin_threads(["verify"])
    assert [os.environ[var] for var in cli._THREAD_VARS] == ["3", "1", "1", "1", "1"]
    for argv in (["verify", "--threads", "2"], ["verify", "--threads=2"]):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        cli._pin_threads(argv)
        assert [os.environ[var] for var in cli._THREAD_VARS] == ["2"] * 5


def test_rule_above_the_node_limit_is_refused_before_any_node_forms(monkeypatch):
    from waveprop import quadrature

    def no_rule(*args):
        raise AssertionError("a refused rule must not build its simplex rule")

    monkeypatch.setattr(quadrature, "_dirichlet_rule", no_rule)
    code, out, err = run_cli(["rule", "--kind", "sphere", "--dim", "7", "--level", "14"])
    assert code == 2
    assert out == ""
    assert f"above the limit of {quadrature.MIRRORED_NODE_LIMIT}" in err
