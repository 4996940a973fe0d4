"""Property test of the CLI exit-code contract.

Malformed gauge and spec JSON, bad option values and command lines the
parser refuses are drawn at random and run in process; every one must
exit 1 with exactly one "error: ..." line on stderr, nothing on stdout
and no traceback.
"""

import json
import math

import pytest

from displace.cli import main

CliRunner = pytest.importorskip("click.testing").CliRunner
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_GAUGE = {"domain": [0, 1], "density": "1", "jumps": [[0.5, 0.25]],
          "flats": [[0.1, 0.2]]}
_SPEC = {"kind": "smooth", "domain": [0, 1], "delta": "y - x", "d2": "1"}

# not an expression text, and bad text; an empty d2 means no d2, so
# the empty text and None are drawn only for the other expressions
non_text = st.sampled_from([5, 1.5, True, ["t"], {"t": 1}])
bad_text = st.sampled_from(["t +", "z", "foo(t)", "(t"])
no_text = st.sampled_from(["", None])
# JSON's NaN and Infinity, integers beyond float range, and no numbers
bad_number = st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400,
                              -10 ** 400, "x", None, [0]])
not_a_list = st.sampled_from([5, "ab", None, {"a": 1}])
bad_shape = st.one_of(not_a_list, st.just([]))


def pair_with(bad):
    """A two-element list with one or both entries drawn from bad."""
    return st.one_of(st.tuples(bad, st.just(1)), st.tuples(st.just(0), bad),
                     st.tuples(bad, bad)).map(list)


bad_domain = st.one_of(bad_shape, st.just([0]), st.just([1, 0]),
                       st.just([0.5, 0.5]), pair_with(bad_number))
bad_gauge = st.one_of(
    st.tuples(st.just("domain"), bad_domain),
    st.tuples(st.just("density"), st.one_of(non_text, bad_text, no_text,
                                            st.just("-1"))),
    st.tuples(st.just("jumps"), st.one_of(
        not_a_list, st.just([0.5]), st.just([[0.5]]),
        pair_with(bad_number).map(lambda p: [p]),
        st.sampled_from([[[0.5, -1]], [[0.5, 0]], [[2, 1]],
                         [[0.5, 1], [0.4, 1]]]))),
    st.tuples(st.just("flats"), st.one_of(
        not_a_list, st.just([[0.2]]),
        pair_with(bad_number).map(lambda p: [p]),
        st.sampled_from([[[0.5, 0.2]], [[0.2, 2]], [[0.3, 0.7]]]))),
).map(lambda kv: {**_GAUGE, kv[0]: kv[1]})
gauges = st.one_of(bad_gauge, bad_shape,
                   st.sampled_from(["domain", "density"]).map(
                       lambda key: {k: v for k, v in _GAUGE.items()
                                    if k != key}))

bad_smooth = st.one_of(
    st.tuples(st.just("domain"), bad_domain),
    st.tuples(st.just("delta"), st.one_of(non_text, bad_text, no_text)),
    st.tuples(st.just("d2"), st.one_of(non_text, bad_text)),
).map(lambda kv: {**_SPEC, kv[0]: kv[1]})
specs = st.one_of(
    bad_smooth, bad_shape,
    st.sampled_from([{"kind": "unknown"}, {"kind": 5}, {},
                     {"kind": "graph"}, {"kind": "stieltjes"}]),
    st.one_of(bad_shape, st.just([[0, 1]]),
              pair_with(bad_number).map(lambda p: [[0, p[0]], [p[1], 0]]),
              ).map(lambda w: {"kind": "graph", "weights": w}),
    gauges.map(lambda g: {"kind": "stieltjes", "gauge": g}),
)

# commands that read a gauge file, then ones that read a spec file
_GAUGE_COMMANDS = [
    ("integrate", "--f", "t", "--gauge"),
    ("derive", "--f", "t", "--x", "0.5", "--gauge"),
    ("gauge", "--gauge"),
    ("solve-ivp", "--rhs", "u", "--u0", "1", "--step", "0.25", "--gauge"),
]
_SPEC_COMMANDS = [
    ("check", "--spec"),
    ("ball", "--x", "0.5", "--r", "0.25", "--spec"),
    ("path-integrate", "--f", "t", "--alpha", "t", "--spec"),
]

# command lines the parser refuses, as (all tokens but the last, the last)
_DERIVE = ("derive", "--f", "t", "--gauge", "identity")
_USAGE_ERRORS = [
    (_DERIVE[:-1], "identity"),                            # no --x
    (_DERIVE + ("--x", "0.5", "--bogus"), "1"),            # unknown option
    (_DERIVE + ("--x",), "abc"),                           # not a float
    (_DERIVE + ("--x", "0.5", "--shrink-levels"), "1.5"),  # not an integer
    (("check", "--builtin"), "nope"),                      # not a choice
    (("gauge", "--gauge", "identity", "--format"), "xml"),
    (("check", "--spec"), "/no/such/file"),                # no such file
    (("frobnicate", "--x"), "1"),                          # unknown command
    (_DERIVE + ("--x", "0.5"), "extra"),                   # extra argument
    (_DERIVE, "--x"),                                      # no value
]

# non-finite text for a float option, and a finite point off the domain
off_domain = st.sampled_from(["nan", "inf", "-inf", "1.5", "-1e-9"])
not_finite = st.sampled_from(["nan", "inf", "-inf"])
options = st.one_of(
    st.tuples(st.just(("derive", "--f", "t", "--gauge", "identity", "--x")),
              off_domain),
    st.tuples(st.just(("integrate", "--f", "t", "--gauge", "identity",
                       "--upper")), off_domain),
    st.tuples(st.just(("path-integrate", "--f", "t", "--alpha", "t",
                       "--builtin", "exponential", "--upper")), off_domain),
    st.tuples(st.just(("ball", "--builtin", "exponential", "--r", "0.25",
                       "--x")), off_domain),
    st.tuples(st.just(("ball", "--builtin", "exponential", "--x", "0.5",
                       "--r")), st.sampled_from(["nan", "0", "-1"])),
    st.tuples(st.just(("solve-ivp", "--rhs", "u", "--gauge", "identity",
                       "--step", "0.25", "--u0")), not_finite),
    st.tuples(st.just(("solve-ivp", "--rhs", "u", "--gauge", "identity",
                       "--u0", "1", "--step")),
              st.sampled_from(["nan", "inf", "0", "-1"])),
    st.tuples(st.just(("solve-surface", "--h", "t", "--gauge", "identity",
                       "--step")), st.sampled_from(["nan", "inf", "0"])),
    # every tolerance is finite and non-negative
    st.tuples(st.sampled_from([
        ("check", "--builtin", "exponential", "--tol"),
        ("ball", "--builtin", "exponential", "--x", "0.5", "--r", "0.25",
         "--tol"),
        ("ftc", "--f", "t", "--gauge", "identity", "--tol"),
        ("ftc2", "--f", "t", "--gauge", "identity", "--tol"),
        ("solve-ivp", "--rhs", "u", "--gauge", "identity", "--u0", "1",
         "--step", "0.25", "--verify-tol"),
        ("path-integrate", "--f", "t", "--alpha", "t", "--builtin",
         "exponential", "--quad-tol"),
    ]), st.sampled_from(["nan", "inf", "-inf", "-1"])),
    # parameters that would make a result vacuous or wrong
    st.tuples(st.sampled_from([
        ("derive", "--f", "t", "--gauge", "identity", "--x", "0.5",
         "--shrink-levels"),
        ("ftc", "--f", "t", "--gauge", "identity", "--shrink-levels"),
    ]), st.sampled_from(["1", "0", "-1"])),
    st.tuples(st.just(("check", "--builtin", "exponential", "--which",
                       "h2usc", "--shrink-levels")), st.sampled_from(["0", "-1"])),
    st.tuples(st.just(("solve-ivp", "--rhs", "u", "--gauge", "identity",
                       "--u0", "1", "--step", "0.25", "--picard")),
              st.just("-1")),
    st.tuples(st.just(("solve-surface", "--h", "t", "--gauge", "identity",
                       "--step", "0.25", "--terminal")), not_finite),
    # the command line itself
    st.sampled_from(_USAGE_ERRORS),
).map(lambda pair: (list(pair[0]) + [pair[1]], None))

cases = st.one_of(
    st.tuples(st.sampled_from(_GAUGE_COMMANDS).map(list), gauges),
    st.tuples(st.sampled_from(_SPEC_COMMANDS).map(list), specs),
    options,
)


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli") / "input.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=cases)
def test_malformed_input_exits_1_with_one_error_line(json_path, case):
    argv, payload = case
    if argv[-1] in ("--gauge", "--spec"):
        json_path.write_text(json.dumps(payload), encoding="utf-8")
        argv = argv + [str(json_path)]
    result = CliRunner().invoke(main, argv)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert result.stdout == ""
