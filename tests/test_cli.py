"""End-to-end tests of the command-line interface.

Every command is driven through click's test runner. Exit codes follow
the documented convention: 0 success, 1 bad input or computation error,
2 failed check or verification, 3 inconclusive-only check runs.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import displace
import displace.cli as cli_mod
from displace.cli import main
from displace.displacement import make_builtin, spec_to_dict
from displace.serialize import csv_lines, dumps, float_csv, format_float

CliRunner = pytest.importorskip("click.testing").CliRunner

E = math.e
E_MINUS_EINV = 2.3504023872876028


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), **kwargs)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_d2_on_exponential_passes(runner):
    result = invoke(runner, "check", "--builtin", "exponential",
                    "--which", "d2")
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["hypothesis"] == "D2-positive"
    assert report["verdict"] == "pass"
    assert report["stats"]["r_hat"] == 1.0


def test_check_default_battery_exponential(runner):
    # the identity rescaling is not subadditive for this space, so the
    # full battery honestly reports one failing hypothesis
    result = invoke(runner, "check", "--builtin", "exponential")
    assert result.exit_code == 2
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 6
    verdicts = {json.loads(line)["hypothesis"]: json.loads(line)["verdict"]
                for line in lines}
    assert verdicts["H2'"] == "fail"
    assert all(v == "pass" for h, v in verdicts.items() if h != "H2'")


def test_check_default_battery_identity_gauge_passes(runner):
    result = invoke(runner, "check", "--builtin", "identity_gauge")
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    # stieltjes specs run five hypothesis checks
    assert len(lines) == 5
    assert all(json.loads(line)["verdict"] == "pass" for line in lines)


def test_check_santiago_subadditivity_fails_honestly(runner):
    # the travel-time matrix contains one violating triple (10 > 4 + 5),
    # so this check exits 2 rather than pretending to pass
    result = invoke(runner, "check", "--builtin", "santiago_graph",
                    "--which", "h2prime")
    assert result.exit_code == 2
    report = json.loads(result.stdout)
    (witness,) = report["witnesses"]
    assert witness["psi_xz"] == 10.0
    assert witness["psi_xy"] + witness["psi_yz"] == 9.0


def test_check_santiago_sqrt_phi_passes(runner):
    result = invoke(runner, "check", "--builtin", "santiago_graph",
                    "--which", "h2prime", "--phi", "sqrt(r)")
    assert result.exit_code == 0


def test_check_inconclusive_only_exits_three(runner):
    result = invoke(runner, "check", "--builtin", "identity_gauge",
                    "--which", "h2prime", "--phi", "r + 1")
    assert result.exit_code == 3
    assert json.loads(result.stdout)["verdict"] == "inconclusive"


def test_check_unknown_which_is_bad_input(runner):
    result = invoke(runner, "check", "--builtin", "exponential",
                    "--which", "h9")
    assert result.exit_code == 1
    assert "error:" in result.stderr


def test_check_unknown_builtin_is_bad_input(runner):
    result = invoke(runner, "check", "--builtin", "nonexistent")
    assert result.exit_code == 1


def test_check_requires_exactly_one_source(runner, tmp_path):
    assert invoke(runner, "check").exit_code == 1
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(dumps(spec_to_dict(make_builtin("exponential"))))
    result = invoke(runner, "check", "--spec", str(spec_file),
                    "--builtin", "exponential")
    assert result.exit_code == 1


def test_check_loads_spec_from_json_file(runner, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(dumps(spec_to_dict(make_builtin("exponential"))))
    result = invoke(runner, "check", "--spec", str(spec_file), "--which", "h1")
    assert result.exit_code == 0
    assert json.loads(result.stdout)["verdict"] == "pass"


@pytest.mark.parametrize("args", [
    ("--samples", "0"),
    ("--samples", "1", "--which", "h2prime,h3"),
    ("--samples", "-4", "--which", "h1"),
    ("--which", "d2", "--grid", "1"),
])
def test_check_too_few_samples_is_bad_input(runner, args):
    # each of these passed over (almost) nothing before, or silently ran
    # the default count for --samples 0
    result = invoke(runner, "check", "--builtin", "exponential", *args)
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "at least 2" in lines[0]
    assert result.stdout == ""


def test_check_leaves_unset_options_to_the_checks(runner, monkeypatch):
    # the checks own their defaults: an unset --grid or --shrink-levels is
    # not passed, a given one is
    seen = {}
    checks = cli_mod._checks()
    for name in ("d2", "h2usc"):
        fn, options = checks[name]

        def record(spec, fn=fn, name=name, **kwargs):
            seen[name] = kwargs
            return fn(spec, **kwargs)

        monkeypatch.setitem(checks, name, (record, options))
    args = ("check", "--builtin", "exponential", "--which", "d2,h2usc")
    assert invoke(runner, *args).exit_code == 0
    assert seen == {"d2": {}, "h2usc": {}}
    # three shrink levels are too few to settle H2-usc: inconclusive
    assert invoke(runner, *args, "--grid", "8", "--shrink-levels", "3",
                  "--samples", "3").exit_code == 3
    assert seen == {"d2": {"grid": 8},
                    "h2usc": {"samples": 3, "shrink_levels": 3}}


# sha256 of stdout and the exit code: a speed-up of the checks, the
# quadrature or the extracted density must not move a bit of these reports
_STDOUT_GOLDEN = [
    (("check", "--builtin", "exponential"), 2,
     "fef334740a8baac2c3799240c316aedc1c7d88d359a56746cdaa253b9089754c"),
    # the stored matrix's documented violation: 10 > 4 + 5
    (("check", "--builtin", "santiago_graph"), 2,
     "ec366484728bf5b290e7765b3278075f9708046f30290084b61010ea06cd14a5"),
    (("ftc", "--f", "t", "--gauge", "extract:exponential"), 0,
     "05373105fb1e3bab64d2585bc6b12aad04e5e5dee5bc314f19cfcfe2361e6acc"),
]


@pytest.mark.parametrize("args, code, digest", _STDOUT_GOLDEN)
def test_stdout_bytes_match_recorded_digest(runner, args, code, digest):
    result = invoke(runner, *args)
    assert result.exit_code == code
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


def test_check_output_is_deterministic(runner):
    args = ("check", "--builtin", "exponential", "--which", "h1,h3,d2",
            "--seed", "7")
    first = invoke(runner, *args)
    second = invoke(runner, *args)
    assert first.exit_code == second.exit_code == 0
    assert first.stdout == second.stdout


def test_check_writes_reports_to_file(runner, tmp_path):
    out = tmp_path / "reports.jsonl"
    result = invoke(runner, "check", "--builtin", "exponential",
                    "--which", "h1,d2", "--out", str(out))
    assert result.exit_code == 0
    assert result.stdout == ""
    lines = out.read_text().strip().splitlines()
    assert [json.loads(l)["hypothesis"] for l in lines] == ["H1", "D2-positive"]


# ---------------------------------------------------------------------------
# gauge
# ---------------------------------------------------------------------------

def test_gauge_extraction_table_matches_quadratic(runner, tmp_path):
    table = tmp_path / "table.csv"
    result = invoke(runner, "gauge", "--builtin", "exponential",
                    "--table", str(table))
    assert result.exit_code == 0
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "t,g"
    assert len(lines) == 102
    for line in lines[1:]:
        t_str, g_str = line.split(",")
        t, g = float(t_str), float(g_str)
        assert abs(g - (t * t + t)) <= 1e-6


def test_gauge_identity_csv_to_stdout(runner):
    result = invoke(runner, "gauge", "--gauge", "identity",
                    "--format", "csv", "--grid", "5")
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "t,g"
    assert lines[1] == "0,0"
    assert lines[-1] == "1,1"


def test_gauge_json_round_trips_through_a_file(runner, tmp_path):
    gauge_file = tmp_path / "gauge.json"
    result = invoke(runner, "gauge", "--builtin", "exponential",
                    "--out", str(gauge_file))
    assert result.exit_code == 0
    payload = json.loads(gauge_file.read_text())
    assert payload["domain"] == [0.0, 1.0]
    assert payload["density"] is not None
    # reload through --gauge and sample
    result = invoke(runner, "gauge", "--gauge", str(gauge_file),
                    "--format", "csv", "--grid", "3")
    assert result.exit_code == 0
    mid = result.stdout.strip().splitlines()[2]
    t, g = (float(v) for v in mid.split(","))
    assert t == 0.5
    assert abs(g - 0.75) <= 1e-9


def test_gauge_extract_ref_and_json_default(runner):
    result = invoke(runner, "gauge", "--gauge", "extract:exponential")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["domain"] == [0.0, 1.0]


def test_gauge_missing_file_is_bad_input(runner, tmp_path):
    result = invoke(runner, "gauge", "--gauge", str(tmp_path / "none.json"))
    assert result.exit_code == 1
    assert "error:" in result.stderr


def test_gauge_extract_from_non_smooth_fails(runner):
    result = invoke(runner, "gauge", "--gauge", "extract:santiago_graph")
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# ball, derive, integrate, path-integrate
# ---------------------------------------------------------------------------

def test_ball_identity_gauge(runner):
    result = invoke(runner, "ball", "--builtin", "identity_gauge",
                    "--x", "0.5", "--r", "0.2")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert abs(payload["lo"] - 0.3) <= 1e-9
    assert abs(payload["hi"] - 0.7) <= 1e-9


def test_ball_rejects_graph_spec(runner):
    result = invoke(runner, "ball", "--builtin", "santiago_graph",
                    "--x", "0", "--r", "1")
    assert result.exit_code == 1


def test_derive_square_against_identity(runner):
    result = invoke(runner, "derive", "--f", "t^2", "--gauge", "identity",
                    "--x", "0.5")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["point_class"] == "continuity"
    assert abs(payload["value"] - 1.0) <= 1e-8


def test_derive_kink_reports_computation_error(runner):
    result = invoke(runner, "derive", "--f", "abs(t - 0.5)",
                    "--gauge", "identity", "--x", "0.5")
    assert result.exit_code == 1
    assert "error:" in result.stderr


@pytest.mark.parametrize("f", [
    "+".join(["t"] * 3000),
    "(" * 400 + "t" + ")" * 400,
    "-" * 1500 + "t",
], ids=["sum-of-3000", "400-parentheses", "1500-minus-signs"])
def test_nesting_too_deep_is_one_error_line(runner, f):
    result = invoke(runner, "derive", "--f", f, "--gauge", "identity",
                    "--x", "0.5")
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr == "error: expression nested too deeply\n"


def test_a_sum_of_900_terms_still_differentiates(runner):
    result = invoke(runner, "derive", "--f", "+".join(["t"] * 900),
                    "--gauge", "identity", "--x", "0.5")
    assert result.exit_code == 0 and json.loads(result.stdout)["value"] == 900


def test_derive_on_a_huge_domain_with_many_levels(runner, tmp_path):
    # the right side of 0.5 would have about 1050 points, more than the
    # Richardson tableau has divisors; it stops at 1024
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"domain": [0, 1e300], "density": "1"}),
                    encoding="utf-8")
    for levels in ("2000", "1100"):
        result = invoke(runner, "derive", "--f", "t", "--gauge", str(huge),
                        "--x", "0.5", "--shrink-levels", levels)
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.stdout)["value"] == 1


def test_integrate_refuses_an_unconverged_quadrature(runner):
    # printed -0.0023254250199439162 with exit 0; the integral is 1.95e-4
    result = invoke(runner, "integrate", "--f", "sin(10000*t)", "--gauge",
                    "identity", "--upper", "1")
    assert result.exit_code == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: quadrature over [0.0, 1.0] did not "
                               "converge: estimate -0.0023")


def test_integrate_identity_and_custom_upper(runner):
    result = invoke(runner, "integrate", "--f", "t", "--gauge", "identity")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["upper"] == 1.0
    assert abs(payload["value"] - 0.5) <= 1e-10
    result = invoke(runner, "integrate", "--f", "t", "--gauge", "identity",
                    "--upper", "0.5")
    assert abs(json.loads(result.stdout)["value"] - 0.125) <= 1e-10


def test_path_integrate_fixed_base_point(runner):
    result = invoke(runner, "path-integrate", "--f", "1", "--alpha", "0",
                    "--builtin", "exponential")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert abs(payload["value"] - E_MINUS_EINV) <= 1e-9


def test_path_integrate_requires_smooth(runner):
    result = invoke(runner, "path-integrate", "--f", "1", "--alpha", "t",
                    "--builtin", "roundabout")
    assert result.exit_code == 1


@pytest.mark.parametrize("command", [
    ("integrate", "--gauge", "identity"),
    ("path-integrate", "--alpha", "0", "--builtin", "exponential"),
])
def test_non_finite_integral_is_one_error_line(runner, command):
    # both commands refuse it by one rule, in the adaptive quadrature
    result = invoke(runner, command[0], "--f", "10^400", *command[1:])
    assert result.exit_code == 1
    assert result.stderr == "error: non-finite integral over [0.0, 1.0]\n"
    assert result.stdout == ""


# ---------------------------------------------------------------------------
# reconstruction checks
# ---------------------------------------------------------------------------

def test_ftc_identity_integrand_passes(runner):
    result = invoke(runner, "ftc", "--f", "t", "--gauge",
                    "extract:exponential", "--grid", "101", "--tol", "1e-4")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["max_error"] <= 1e-4
    assert payload["violations"] == []


def test_ftc_grid_without_points_is_bad_input(runner):
    # a pass over no points used to exit 0 with "checked": 0
    result = invoke(runner, "ftc", "--f", "t", "--gauge", "identity",
                    "--grid", "0")
    assert result.exit_code == 1
    assert result.stderr == "error: grid must be at least 1, got 0\n"
    assert result.stdout == ""


@pytest.mark.parametrize("grid", ["1", "0", "-3"])
def test_gauge_table_of_fewer_than_two_rows_is_bad_input(runner, grid):
    # one row holds only g(a) = 0; none, or a negative count, is no table
    for fmt in ("csv", "json"):
        result = invoke(runner, "gauge", "--gauge", "identity", "--grid",
                        grid, "--format", fmt)
        assert result.exit_code == 1
        assert result.stderr == f"error: grid must be at least 2, got {grid}\n"
        assert result.stdout == ""
    result = invoke(runner, "gauge", "--gauge", "identity", "--grid", "2",
                    "--format", "csv")
    assert result.exit_code == 0 and result.stdout == "t,g\n0,0\n1,1\n"


def test_ftc_with_every_grid_point_excluded_is_bad_input(runner, tmp_path):
    # a pure-jump gauge has flats on both sides of its atom, so no grid
    # point is compared; this used to exit 0 with "checked": 0
    path = tmp_path / "pure.json"
    path.write_text(json.dumps(
        {"domain": [0, 1], "density": "0", "jumps": [[0.5, 1]]}))
    result = invoke(runner, "ftc", "--f", "t", "--gauge", str(path),
                    "--grid", "4")
    assert result.exit_code == 1
    assert result.stderr == (
        "error: no grid point can be compared: all 4 are excluded\n")
    assert result.stdout == ""


def test_ftc_tight_tolerance_fails(runner):
    result = invoke(runner, "ftc", "--f", "t", "--gauge",
                    "extract:exponential", "--tol", "1e-14")
    assert result.exit_code == 2


def test_ftc2_gauge_function_passes(runner):
    result = invoke(runner, "ftc2", "--f", "t", "--gauge", "identity",
                    "--tol", "1e-6")
    assert result.exit_code == 0
    assert json.loads(result.stdout)["max_error"] <= 1e-6


def test_ftc2_reports_deviation_beyond_tolerance(runner):
    result = invoke(runner, "ftc2", "--f", "t^2", "--gauge", "identity",
                    "--tol", "1e-6")
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def test_solve_ivp_csv_reaches_e(runner):
    result = invoke(runner, "solve-ivp", "--rhs", "u", "--gauge", "identity",
                    "--u0", "1", "--step", "1e-4")
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "t,u"
    t_final, u_final = (float(v) for v in lines[-1].split(","))
    assert t_final == 1.0
    assert abs(u_final - E) <= 1e-3


def test_solve_ivp_json_with_verification(runner):
    result = invoke(runner, "solve-ivp", "--rhs", "u", "--gauge", "identity",
                    "--u0", "1", "--step", "1e-4", "--format", "json",
                    "--verify-tol", "1e-3")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["method"] == "g-euler"
    assert payload["residual"]["max_residual"] <= 1e-3


def test_solve_ivp_verification_failure_exits_two(runner):
    result = invoke(runner, "solve-ivp", "--rhs", "u", "--gauge", "identity",
                    "--u0", "1", "--step", "1e-2", "--verify-tol", "1e-9")
    assert result.exit_code == 2
    assert "max_residual" in result.stderr


def test_solve_ivp_bad_expression_is_bad_input(runner):
    result = invoke(runner, "solve-ivp", "--rhs", "q + 1", "--gauge",
                    "identity", "--u0", "1", "--step", "1e-2")
    assert result.exit_code == 1


@pytest.mark.parametrize("step", ["1e-12", "1e-300", "5e-324"])
@pytest.mark.parametrize("command", [
    ("solve-ivp", "--rhs", "u", "--u0", "1"),
    ("solve-surface", "--h", "1"),
])
def test_solver_step_too_fine_is_one_error_line(runner, command, step):
    # refused before the mesh is allocated: no numpy memory error
    result = invoke(runner, *command, "--gauge", "identity", "--step", step)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: step {step} needs ")
    assert lines[0].endswith("mesh nodes on [0.0, 1.0]; at most 10000000 "
                             "are allowed")
    assert result.stdout == ""


def test_solve_surface_parabola(runner):
    result = invoke(runner, "solve-surface", "--h", "1", "--gauge",
                    "identity", "--C", "0", "--step", "1e-3")
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "t,u"
    first_t, first_u = (float(v) for v in lines[1].split(","))
    last_t, last_u = (float(v) for v in lines[-1].split(","))
    assert (first_t, last_t) == (0.0, 1.0)
    assert abs(first_u - 0.5) <= 1e-6
    assert last_u == 0.0


def test_solve_surface_terminal_alias(runner):
    with_alias = invoke(runner, "solve-surface", "--h", "1", "--gauge",
                        "identity", "--C", "0.25", "--step", "1e-2")
    with_name = invoke(runner, "solve-surface", "--h", "1", "--gauge",
                       "identity", "--terminal", "0.25", "--step", "1e-2")
    assert with_alias.exit_code == with_name.exit_code == 0
    assert with_alias.stdout == with_name.stdout


def test_help_exits_zero(runner):
    assert invoke(runner, "--help").exit_code == 0
    assert invoke(runner, "check", "--help").exit_code == 0


# sha256 of the global help and of each command's: the defaults and
# choices a help shows are read from the functions and data that own them
# only when the help is built, and must come out the same, byte for byte
_HELP_GOLDEN = [
    ((), "bd92a300a36f81b62652053890e1deae0d672b03b6589c6854390511bdf758c0"),
    (("ball",),
     "6b406a5b2a10cd888a41010f821d95c24ade2a2f50d84bfc726a0498e4c623be"),
    (("check",),
     "ff9489c2d3384fc02bbfa09301a56f90f68ba1c52932ded1f8d5e8b1593b646e"),
    (("derive",),
     "68b5597400874cdbb57271097992bec9351b3c21df59f3279ae0f94e96e53ad5"),
    (("ftc",),
     "e8fb55643ef79a40c8f89cdf22b82d73e53f01891e9f92124090c94121521fe5"),
    (("ftc2",),
     "37eb50c73ab7fdf9a6716666b3b5e293d965df6f3d8a02de5f56350e0985ef90"),
    (("gauge",),
     "f7a7217fcf904e01dc2833ada0da570fbaef9f41afa269a88bea0c664938f60b"),
    (("integrate",),
     "33ab0bd07ef894ba69c744f11d023b90a869b6eecacfbadcc2ca1668ae2879f8"),
    (("path-integrate",),
     "a2e98e27378416ec41d9972e1b5949746a9438e32215f2ce0c43142508e8e942"),
    (("solve-ivp",),
     "be84f96b149675439f7c9847c4e2b4378da8186cd3f588e04eff6ed873c13189"),
    (("solve-surface",),
     "0dead63fa30047d32cdc3d3bad1ea60c5fedc5f6b70cb4876c116e3ad6e37dae"),
]


@pytest.mark.parametrize("command, digest", _HELP_GOLDEN)
def test_help_bytes_match_recorded_digest(runner, command, digest):
    result = invoke(runner, *command, "--help")
    assert result.exit_code == 0 and result.stderr == ""
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


_BUILTINS = ("exponential", "roundabout", "santiago_graph", "identity_gauge")
_FORMATS = ("json", "csv")
# every command's options as click declared them: (names, destination,
# kind: text, int, float, path, an existing path or the choices,
# required, default, whether the tolerance rule checks it)
_OPTION_SURFACE = {
    "ball": [
        (("--spec",), "spec_path", "path-exists", False, None, False),
        (("--builtin",), "builtin", _BUILTINS, False, None, False),
        (("--x",), "x", "float", True, None, False),
        (("--r",), "r", "float", True, None, False),
        (("--tol",), "tol", "float", False, 1e-10, True),
        (("--out",), "out", "path", False, None, False),
    ],
    "check": [
        (("--spec",), "spec_path", "path-exists", False, None, False),
        (("--builtin",), "builtin", _BUILTINS, False, None, False),
        (("--which",), "which", "text", False, None, False),
        (("--samples",), "samples", "int", False, None, False),
        (("--grid",), "grid", "int", False, None, False),
        (("--tol",), "tol", "float", False, None, True),
        (("--phi",), "phi", "text", False, None, False),
        (("--shrink-levels",), "shrink_levels", "int", False, None, False),
        (("--seed",), "seed", "int", False, 0, False),
        (("--out",), "out", "path", False, None, False),
    ],
    "derive": [
        (("--f",), "f_src", "text", True, None, False),
        (("--gauge",), "gauge_ref", "text", True, None, False),
        (("--x",), "x", "float", True, None, False),
        (("--shrink-levels",), "shrink_levels", "int", False, 12, False),
        (("--out",), "out", "path", False, None, False),
    ],
    "ftc": [
        (("--f",), "f_src", "text", True, None, False),
        (("--gauge",), "gauge_ref", "text", True, None, False),
        (("--grid",), "grid", "int", False, 101, False),
        (("--shrink-levels",), "shrink_levels", "int", False, 12, False),
        (("--tol",), "tol", "float", False, 0.0001, True),
        (("--out",), "out", "path", False, None, False),
    ],
    "ftc2": [
        (("--f",), "f_src", "text", True, None, False),
        (("--gauge",), "gauge_ref", "text", True, None, False),
        (("--grid",), "grid", "int", False, 101, False),
        (("--shrink-levels",), "shrink_levels", "int", False, 12, False),
        (("--tol",), "tol", "float", False, 1e-06, True),
        (("--out",), "out", "path", False, None, False),
    ],
    "gauge": [
        (("--spec",), "spec_path", "path-exists", False, None, False),
        (("--builtin",), "builtin", _BUILTINS, False, None, False),
        (("--gauge",), "gauge_ref", "text", False, None, False),
        (("--grid",), "grid", "int", False, 101, False),
        (("--format",), "fmt", _FORMATS, False, "json", False),
        (("--out",), "out", "path", False, None, False),
        (("--table",), "table", "path", False, None, False),
    ],
    "integrate": [
        (("--f",), "f_src", "text", True, None, False),
        (("--gauge",), "gauge_ref", "text", True, None, False),
        (("--upper",), "upper", "float", False, None, False),
        (("--out",), "out", "path", False, None, False),
    ],
    "path-integrate": [
        (("--f",), "f_src", "text", True, None, False),
        (("--alpha",), "alpha_src", "text", True, None, False),
        (("--spec",), "spec_path", "path-exists", False, None, False),
        (("--builtin",), "builtin", _BUILTINS, False, None, False),
        (("--upper",), "upper", "float", False, None, False),
        (("--quad-tol",), "quad_tol", "float", False, 1e-10, True),
        (("--out",), "out", "path", False, None, False),
    ],
    "solve-ivp": [
        (("--rhs",), "rhs_src", "text", True, None, False),
        (("--gauge",), "gauge_ref", "text", True, None, False),
        (("--u0",), "u0", "float", True, None, False),
        (("--step",), "step", "float", True, None, False),
        (("--picard",), "picard", "int", False, 0, False),
        (("--verify-tol",), "verify_tol", "float", False, None, True),
        (("--format",), "fmt", _FORMATS, False, "csv", False),
        (("--out",), "out", "path", False, None, False),
    ],
    "solve-surface": [
        (("--h",), "h_src", "text", True, None, False),
        (("--gauge",), "gauge_ref", "text", True, None, False),
        (("--terminal", "--C"), "terminal", "float", False, 0.0, False),
        (("--step",), "step", "float", True, None, False),
        (("--format",), "fmt", _FORMATS, False, "csv", False),
        (("--out",), "out", "path", False, None, False),
    ],
}


def _surface(opt):
    if opt.choices is not None:
        kind = tuple(opt.choices)
    elif opt.path:
        kind = "path-exists" if opt.path == "exists" else "path"
    else:
        kind = {str: "text", int: "int", float: "float"}[opt.kind]
    return (opt.names, opt.dest, kind, opt.required, opt.default,
            opt.check is cli_mod._tolerance)


def test_option_tables_match_the_click_declarations():
    assert {name: [_surface(opt) for opt in options]
            for name, (_, options) in cli_mod._COMMANDS.items()} \
        == _OPTION_SURFACE


def test_command_help_shows_the_checks_own_defaults(runner):
    result = invoke(runner, "check", "--help")
    assert result.exit_code == 0 and result.stderr == ""
    assert "[default: 64]" in result.stdout      # check_d2_positive's grid
    assert "[default: 24]" in result.stdout      # check_h2_usc's levels
    for names, *_ in _OPTION_SURFACE["check"]:
        assert names[0] + " " in result.stdout


def test_bare_command_lists_the_commands_on_stderr(runner):
    result = invoke(runner)
    assert result.exit_code == 1 and result.stdout == ""
    assert all(name in result.stderr for name in _OPTION_SURFACE)


def test_options_parse_as_click_parsed_them(runner, tmp_path):
    # an option takes the next token verbatim, even one that starts with
    # "-", and the last occurrence wins
    result = invoke(runner, "derive", "--f", "-t", "--gauge", "identity",
                    "--x", "0.5")
    assert result.exit_code == 0 and json.loads(result.stdout)["value"] == -1
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"domain": [-1, 1], "density": "1"}),
                    encoding="utf-8")
    result = invoke(runner, "derive", "--f", "t^2", "--gauge", str(wide),
                    "--x", "-0.5")
    assert result.exit_code == 0
    assert abs(json.loads(result.stdout)["value"] + 1.0) < 1e-9
    last = invoke(runner, "derive", "--f", "t^2", "--gauge", "identity",
                  "--x=0.25", "--x", "0.5")
    once = invoke(runner, "derive", "--f", "t^2", "--gauge", "identity",
                  "--x", "0.5")
    assert last.exit_code == once.exit_code == 0
    assert last.stdout == once.stdout


def _fresh_python(source, *argv):
    """Run source in a new interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(displace.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", source, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_cli_import_does_not_load_scipy():
    # start-up cost guard: the package needs only numpy
    proc = _fresh_python(
        "import displace.cli, sys; print('scipy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_cli_import_generates_no_code_and_skips_unused_stdlib():
    # records are built without dataclasses' code generation; logging
    # loads only for DISPLACE_LOG, decimal only to spell out an exponent
    proc = _fresh_python(
        "import displace.cli, sys; print([m for m in ('dataclasses', "
        "'logging', 'decimal') if m in sys.modules])")
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_package_import_loads_every_submodule_but_not_numpy():
    # perfbench patches the submodules through sys.modules, so the package
    # import registers every one there, to run at its first use; numpy
    # loads only with the first array operation
    proc = _fresh_python(
        "import displace, sys; print(sorted(k for k in sys.modules "
        "if k.split('.')[0] == 'displace')); print('numpy' in sys.modules); "
        "import displace.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "['displace', 'displace.calculus', 'displace.displacement', "
        "'displace.expr', 'displace.gauge', 'displace.serialize', "
        "'displace.solver']", "False", "False"]


# eight threads use, at once, three names whose modules have not run yet;
# the short switch interval makes them take turns often while one runs
_FIRST_USE_PROBE = """
import sys, threading
import displace
sys.setswitchinterval(1e-6)
names = ("Gauge", "solve_ivp", "check_h1")
start = threading.Barrier(8)
errors = []

def use(name):
    start.wait()
    try:
        getattr(displace, name)
    except Exception as exc:
        errors.append(f"{name}: {exc!r}")

threads = [threading.Thread(target=use, args=(names[i % 3],))
           for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
print(errors, [thread.is_alive() for thread in threads].count(True))
"""


def test_threads_may_use_the_package_names_first_at_once():
    # a module registered lazily counts as run before its code has run, so
    # a thread that came second could see it half run
    proc = _fresh_python(_FIRST_USE_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0\n"


# runs one command, then lists on stderr the submodules whose code ran; a
# module the package import only registered is still LazyLoader's type
_RAN_PROBE = """
import sys, types
from displace.cli import main
try:
    main(sys.argv[1:])
finally:
    print(sorted(name for name, module in sys.modules.items()
                 if name.startswith("displace.") and name != "displace.cli"
                 and type(module) is types.ModuleType), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, code, ran", [
    (["--help"], 0, []),
    (["check", "--builtin", "santiago_graph"], 2,
     ["displacement", "expr", "gauge", "serialize"]),
    (["gauge", "--builtin", "exponential"], 0,
     ["displacement", "expr", "gauge", "serialize"]),
    (["derive", "--f", "t^2", "--gauge", "identity", "--x", "0.5"], 0,
     ["calculus", "expr", "gauge", "serialize"]),
    (["ftc2", "--f", "t", "--gauge", "identity"], 0,
     ["calculus", "expr", "gauge", "serialize"]),
    (["solve-ivp", "--rhs", "u", "--gauge", "identity", "--u0", "1",
      "--step", "0.1"], 0, ["expr", "gauge", "serialize", "solver"]),
], ids=["help", "check", "gauge", "derive", "ftc2", "solve-ivp"])
def test_each_command_runs_only_the_modules_it_calls(argv, code, ran):
    proc = _fresh_python(_RAN_PROBE, *argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1] == repr(
        [f"displace.{name}" for name in ran])


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("4", "4")])
def test_cli_asks_openblas_for_one_thread_unless_told(runner, monkeypatch,
                                                       preset, expected):
    # set before any command can load numpy; a value the user set stays
    # setting first makes monkeypatch restore the variable afterwards
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset or "")
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    result = invoke(runner, "derive", "--f", "t", "--gauge", "identity",
                    "--x", "0.5")
    assert result.exit_code == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == expected


# runs one command and then reports on stderr whether numpy was loaded,
# and whether click or inspect was, which the stdlib parser does not need
_NUMPY_PROBE = """
import sys
from displace.cli import main
try:
    main(sys.argv[1:])
finally:
    print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
    print("click or inspect loaded:",
          bool({"click", "inspect"} & set(sys.modules)), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ["derive", "--f", "1.5*t^3 + 0.5*t", "--gauge", "identity", "--x", "0.3"],
    ["derive", "--f", "1.5*t^3 + 0.5*t", "--gauge", "{linear}", "--x", "0.6"],
    ["derive", "--f", "t^2", "--gauge", "extract:exponential", "--x", "0.4"],
    ["integrate", "--f", "t", "--gauge", "{linear}"],
    ["path-integrate", "--f", "t", "--alpha", "t", "--spec", "{spec}"],
    ["gauge", "--spec", "{spec}", "--out", "{tmp}/extracted.json"],
    ["gauge", "--gauge", "{linear}", "--format", "csv"],
    ["ball", "--spec", "{spec}", "--x", "0.5", "--r", "0.2"],
    ["ftc", "--f", "t", "--gauge", "extract:exponential"],
    ["check", "--builtin", "santiago_graph", "--phi", "sqrt(r)"],
    ["check", "--builtin", "exponential", "--which", "h1,h2prime,h3",
     "--phi", "sqrt(r)"],
    ["ftc2", "--f", "t", "--gauge", "identity"],
], ids=["derive-identity", "derive-file", "derive-extracted", "integrate",
        "path-integrate", "gauge-write", "gauge-reload", "ball", "ftc",
        "check-graph", "check-smooth", "ftc2"])
def test_array_free_commands_do_not_load_numpy(tmp_path, argv):
    linear = tmp_path / "linear.json"
    linear.write_text(json.dumps({"domain": [0, 1], "density": "1 + 2*t",
                                  "jumps": [[0.25, 0.5]], "flats": []}),
                      encoding="utf-8")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "smooth", "domain": [0, 1],
                                "delta": "y^2 + y - x^2 - x",
                                "d2": "2*y + 1"}), encoding="utf-8")
    argv = [arg.format(linear=linear, spec=spec, tmp=tmp_path)
            for arg in argv]
    proc = _fresh_python(_NUMPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-2:] == [
        "numpy loaded: False", "click or inspect loaded: False"]


def test_float_csv_writes_the_text_of_format_float():
    rng = random.Random(5)
    values = [0.0, -0.0, 1.0, -2.5, 0.1, 1e-5, 1e-300, 5e-324, 1e16, 1e17,
              -1e300, math.inf, -math.inf, math.nan, -math.nan, 2.0 ** 60]
    values += [rng.uniform(-1e3, 1e3) for _ in range(500)]
    values += [rng.random() * 10.0 ** rng.randint(-320, 300) for _ in range(500)]
    rows = list(zip(values[0::2], values[1::2]))
    assert float_csv(("t", "u"), values) == csv_lines(("t", "u"), rows)
    # csv_lines is float_csv over the flattened rows, so spell it out too
    assert float_csv(("t", "u"), values) == "t,u\n" + "".join(
        f"{format_float(t)},{format_float(u)}\n" for t, u in rows)
    assert float_csv(("a", "b", "c"), []) == "a,b,c\n"


def test_dumps_writes_a_negative_zero_as_a_float():
    text = dumps({"z": -0.0, "p": 0.0, "n": np.float64(-0.0), "i": 0})
    assert text == '{"z": -0.0, "p": 0, "n": -0.0, "i": 0}'
    assert math.copysign(1.0, json.loads(text)["z"]) == -1.0
    # CSV keeps the shorter text, which float() reads with its sign
    assert csv_lines(("z",), [(-0.0,)]) == "z\n-0\n"


def test_dumps_accepts_numpy_integers():
    assert dumps({"n": np.int64(3)}) == '{"n": 3}'
    assert dumps([np.int32(-2), True, 1]) == "[-2, true, 1]"


# ---------------------------------------------------------------------------
# one exit path: malformed input is one error line, never a traceback
# ---------------------------------------------------------------------------

_GAUGE = {"domain": [0, 1], "density": "1"}


@pytest.mark.parametrize("command, payload", [
    (("integrate", "--f", "t", "--gauge"), {**_GAUGE, "jumps": 5}),
    (("integrate", "--f", "t", "--gauge"), {**_GAUGE, "flats": 5}),
    (("gauge", "--gauge"), {**_GAUGE, "jumps": [0.5]}),
    (("check", "--spec"), {"kind": "graph", "weights": 5}),
    (("check", "--spec"), {"kind": "stieltjes", "gauge": {**_GAUGE, "flats": 5}}),
    (("check", "--spec"), ["not", "an", "object"]),
    # integers too large for a float
    (("integrate", "--f", "t", "--gauge"), {**_GAUGE, "domain": [0, 10 ** 400]}),
    (("integrate", "--f", "t", "--gauge"), {**_GAUGE, "jumps": [[0.5, 10 ** 400]]}),
    (("check", "--spec"), {"kind": "graph", "weights": [[0, 10 ** 400], [1, 0]]}),
    (("check", "--spec"), {"kind": "smooth", "domain": [0, 10 ** 400],
                           "delta": "y - x"}),
    (("check", "--spec"), {"kind": "stieltjes",
                           "gauge": {**_GAUGE, "flats": [[0, 10 ** 400]]}}),
    # JSON's NaN and Infinity
    (("check", "--spec"), {"kind": "graph",
                           "weights": [[0, math.nan, 1], [1, 0, 1], [1, 1, 0]]}),
    (("check", "--spec"), {"kind": "graph", "weights": [[0, math.inf], [1, 0]]}),
    # an expression that is not text
    (("check", "--spec"), {"kind": "smooth", "domain": [0, 1], "delta": 5}),
    (("check", "--spec"), {"kind": "smooth", "domain": [0, 1],
                           "delta": "y - x", "d2": 7}),
])
def test_malformed_json_is_one_error_line(runner, tmp_path, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    result = invoke(runner, *command, str(path))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert result.stdout == ""


def test_integrate_upper_just_past_the_end_excludes_the_end_atom(runner, tmp_path):
    path = tmp_path / "gauge.json"
    path.write_text(json.dumps({**_GAUGE, "density": "2*t",
                                "jumps": [[0.0, 0.25], [1.0, 0.5]]}),
                    encoding="utf-8")
    at_end = invoke(runner, "integrate", "--f", "t", "--gauge", str(path),
                    "--upper", "1")
    past_end = invoke(runner, "integrate", "--f", "t", "--gauge", str(path),
                      "--upper", "1.0000000000001")
    assert at_end.exit_code == past_end.exit_code == 0
    value = json.loads(at_end.stdout)["value"]
    assert abs(value - 2.0 / 3.0) <= 1e-12
    assert json.loads(past_end.stdout)["value"] == value
    beyond = invoke(runner, "integrate", "--f", "t", "--gauge", str(path),
                    "--upper", "1.001")
    assert beyond.exit_code == 1
    assert beyond.stderr.startswith("error: ")
