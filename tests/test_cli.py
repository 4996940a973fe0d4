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
from click.testing import CliRunner

import displace
import displace.cli as cli_mod
from displace.cli import main
from displace.displacement import make_builtin, spec_to_dict
from displace.serialize import csv_lines, dumps, float_csv

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
    for name in ("d2", "h2usc"):
        fn, options = cli_mod._CHECKS[name]

        def record(spec, fn=fn, name=name, **kwargs):
            seen[name] = kwargs
            return fn(spec, **kwargs)

        monkeypatch.setitem(cli_mod._CHECKS, name, (record, options))
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


def _fresh_python(source, *argv):
    """Run source in a new interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(displace.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", source, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_cli_import_does_not_load_scipy():
    # start-up cost guard: the package needs only numpy and click
    proc = _fresh_python(
        "import displace.cli, sys; print('scipy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_package_import_loads_every_submodule_but_not_numpy():
    # perfbench patches the submodules through sys.modules, so they load
    # eagerly; numpy loads only with the first array operation
    proc = _fresh_python(
        "import displace, sys; print(sorted(k for k in sys.modules "
        "if k.split('.')[0] == 'displace')); print('numpy' in sys.modules); "
        "import displace.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "['displace', 'displace.calculus', 'displace.displacement', "
        "'displace.expr', 'displace.gauge', 'displace.serialize', "
        "'displace.solver']", "False", "False"]


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


# runs one command and then reports on stderr whether numpy was loaded
_NUMPY_PROBE = """
import sys
from displace.cli import main
try:
    main(sys.argv[1:])
finally:
    print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
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
], ids=["derive-identity", "derive-file", "derive-extracted", "integrate",
        "path-integrate", "gauge-write", "gauge-reload", "ball", "ftc"])
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
    assert proc.stderr.splitlines()[-1] == "numpy loaded: False"


def test_float_csv_writes_the_text_of_format_float():
    rng = random.Random(5)
    values = [0.0, -0.0, 1.0, -2.5, 0.1, 1e-5, 1e-300, 5e-324, 1e16, 1e17,
              -1e300, math.inf, -math.inf, math.nan, -math.nan, 2.0 ** 60]
    values += [rng.uniform(-1e3, 1e3) for _ in range(500)]
    values += [rng.random() * 10.0 ** rng.randint(-320, 300) for _ in range(500)]
    rows = list(zip(values[0::2], values[1::2]))
    assert float_csv(("t", "u"), values) == csv_lines(("t", "u"), rows)
    assert float_csv(("a", "b", "c"), []) == "a,b,c\n"


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
