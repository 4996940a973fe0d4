"""Tests for displacement spec variants, axiom checks, and comparison tools.

Closed-form reference values are frozen from independent hand computation:
the exponential displacement at the corner points, the angular distances on
the roundabout, and the radius-one ball edge solving exp(t^2) - exp(-t) = 1.
"""

import math
import random

import numpy as np
import pytest

from displace import (
    BUILTIN_NAMES,
    DisplacementError,
    make_builtin,
)
from displace.calculus import MeasurePath, path_integral
from displace.displacement import (
    ALGEBRAIC_TOL,
    Angular,
    FiniteGraph,
    Smooth,
    Stieltjes,
    check_d2_positive,
    check_h1,
    check_h2prime,
    check_h2_usc,
    check_h3,
    check_h5,
    delta_ball,
    gamma_estimate,
    gauge_from_smooth,
    rn_density,
    spec_from_dict,
    spec_to_dict,
)
from displace.expr import parse
from displace.gauge import Gauge

E = math.e
E_INV = math.exp(-1.0)
# e - 1/e, written out so the assertion does not share code with the library
E_MINUS_EINV = 2.3504023872876028
# positive root of exp(t^2) - exp(-t) = 1, frozen from a standalone bisection
BALL_ROOT_EXP = 0.64851086579259987

SANTIAGO = ((0.0, 9.0, 4.0, 10.0),
            (10.0, 0.0, 14.0, 8.0),
            (7.0, 9.0, 0.0, 5.0),
            (11.0, 6.0, 7.0, 0.0))


def jump_gauge():
    """Pure-jump gauge: single unit atom at 0.5 on [0, 1]."""
    return Gauge((0.0, 1.0), lambda t: 0.0, jumps=((0.5, 1.0),),
                 density_source="0")


def mixed_gauge():
    return Gauge((0.0, 1.0), lambda t: 2.0 * t + 1.0,
                 jumps=((0.25, 0.5), (0.75, 1.0)),
                 density_source="2*t + 1")


# ---------------------------------------------------------------------------
# builtin specs: values against closed forms
# ---------------------------------------------------------------------------

def test_builtin_names_catalog():
    assert BUILTIN_NAMES == ("exponential", "roundabout", "santiago_graph",
                             "identity_gauge")
    with pytest.raises(DisplacementError):
        make_builtin("no_such_spec")


def test_exponential_corner_values():
    spec = make_builtin("exponential")
    assert spec.domain == (0.0, 1.0)
    # delta(x, y) = exp(y^2 - x^2) - exp(x - y)
    assert abs(spec.delta(0.0, 1.0) - (E - E_INV)) <= 1e-12
    assert abs(spec.delta(1.0, 0.0) - (E_INV - E)) <= 1e-12
    assert abs(spec.delta(0.0, 1.0) - E_MINUS_EINV) <= 1e-15
    # not symmetric, not antisymmetric in general
    assert spec.delta(0.2, 0.7) != spec.delta(0.7, 0.2)
    for x in (0.0, 0.31, 0.78, 1.0):
        assert spec.delta(x, x) == 0.0


def test_exponential_d2_is_analytic():
    spec = make_builtin("exponential")
    assert spec.has_analytic_d2
    # d2(x, y) = 2 y exp(y^2 - x^2) + exp(x - y)
    assert abs(spec.d2(0.0, 1.0) - (2.0 * E + E_INV)) <= 1e-12
    assert spec.d2(0.0, 0.0) == 1.0


def test_smooth_domain_enforced():
    spec = make_builtin("exponential")
    with pytest.raises(DisplacementError):
        spec.delta(0.0, 1.5)
    with pytest.raises(DisplacementError):
        spec.d2(-0.1, 0.5)


# Recorded from the form of Smooth that sent every point through the
# snap-or-raise check: (x, y, delta, analytic d2, finite-difference d2) on
# the exponential space over [0, 1], where the snap slack is 2e-12.  A
# value is its float.hex, an error its type name and message, so both the
# numbers and the order of the checks (x first) are pinned.
_SMOOTH_GOLDEN = [
    (0.0, 0.5, '0x1.5ae097c0d6d02p-1', '0x1.e3fb7ba764c8bp+0', '0x1.e3fb7ba7346a3p+0'),
    (0.5, 0.0, '-0x1.bd6637d8f8b2dp-1', '0x1.a61298e1e069cp+0', '0x1.a61298e2597e9p+0'),
    (1.0, 0.5, '-0x1.2d2595322133cp+0', '0x1.0f7fce48cfcfep+1', '0x1.0f7fce4900025p+1'),
    (0.5, 1.0, '0x1.82ae1ea97eeebp+0', '0x1.35cb413f5cfb9p+2', '0x1.35cb413f3668ep+2'),
    (-1e-12, 0.5, '0x1.5ae097c0d6d02p-1', '0x1.e3fb7ba764c8bp+0', '0x1.e3fb7ba7346a3p+0'),
    (0.5, -1e-12, '-0x1.bd6637d8f8b2dp-1', '0x1.a61298e1e069cp+0', '0x1.a61298e2597e9p+0'),
    (1.0 + 1e-12, 0.5, '-0x1.2d2595322133cp+0', '0x1.0f7fce48cfcfep+1', '0x1.0f7fce4900025p+1'),
    (0.5, 1.0 + 1e-12, '0x1.82ae1ea97eeebp+0', '0x1.35cb413f5cfb9p+2', '0x1.35cb413f3668ep+2'),
    (-3e-12, 0.5,
     ('DisplacementError', 'x = -3e-12 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = -3e-12 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = -3e-12 outside the domain [0.0, 1.0]')),
    (0.5, -3e-12,
     ('DisplacementError', 'y = -3e-12 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'y = -3e-12 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'y = -3e-12 outside the domain [0.0, 1.0]')),
    (1.0 + 3e-12, 0.5,
     ('DisplacementError', 'x = 1.000000000003 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = 1.000000000003 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = 1.000000000003 outside the domain [0.0, 1.0]')),
    (0.5, 1.0 + 3e-12,
     ('DisplacementError', 'y = 1.000000000003 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'y = 1.000000000003 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'y = 1.000000000003 outside the domain [0.0, 1.0]')),
    (math.nan, 0.5,
     ('DisplacementError', 'x = nan outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = nan outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = nan outside the domain [0.0, 1.0]')),
    (0.5, math.nan,
     ('DisplacementError', 'y = nan outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'y = nan outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'y = nan outside the domain [0.0, 1.0]')),
    (math.inf, 0.5,
     ('DisplacementError', 'x = inf outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = inf outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = inf outside the domain [0.0, 1.0]')),
    (0.5, math.inf,
     ('DisplacementError', 'y = inf outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'y = inf outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'y = inf outside the domain [0.0, 1.0]')),
    (-math.inf, 0.5,
     ('DisplacementError', 'x = -inf outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = -inf outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = -inf outside the domain [0.0, 1.0]')),
    (0.5, -math.inf,
     ('DisplacementError', 'y = -inf outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'y = -inf outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'y = -inf outside the domain [0.0, 1.0]')),
    (np.float64(0.25), 0.5,
     '0x1.b5b011ed45cbep-2',
     '0x1.fc2afe661993ap+0',
     '0x1.fc2afe65fceb0p+0'),
    (0.5, np.float64(0.25),
     '-0x1.d1ea8cb78f720p-2',
     '0x1.b2d3840eea365p+0',
     '0x1.b2d3840ed831bp+0'),
    (0, 0.5, '0x1.5ae097c0d6d02p-1', '0x1.e3fb7ba764c8bp+0', '0x1.e3fb7ba7346a3p+0'),
    (0.5, 0, '-0x1.bd6637d8f8b2dp-1', '0x1.a61298e1e069cp+0', '0x1.a61298e2597e9p+0'),
    (1, 0.5, '-0x1.2d2595322133cp+0', '0x1.0f7fce48cfcfep+1', '0x1.0f7fce4900025p+1'),
    (0.5, 1, '0x1.82ae1ea97eeebp+0', '0x1.35cb413f5cfb9p+2', '0x1.35cb413f3668ep+2'),
    (2, 0.5,
     ('DisplacementError', 'x = 2.0 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = 2.0 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = 2.0 outside the domain [0.0, 1.0]')),
    (0.5, 2,
     ('DisplacementError', 'y = 2.0 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'y = 2.0 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'y = 2.0 outside the domain [0.0, 1.0]')),
    (math.nan, 2,
     ('DisplacementError', 'x = nan outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = nan outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = nan outside the domain [0.0, 1.0]')),
    (-3e-12, math.inf,
     ('DisplacementError', 'x = -3e-12 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = -3e-12 outside the domain [0.0, 1.0]'),
     ('DisplacementError', 'x = -3e-12 outside the domain [0.0, 1.0]')),
]


@pytest.mark.parametrize("x, y, delta, d2, fd_d2", _SMOOTH_GOLDEN)
def test_smooth_domain_guard_reproduces_recorded_values(x, y, delta, d2, fd_d2):
    spec = make_builtin("exponential")
    fd = Smooth(spec.domain, spec.delta_expr)
    for fn, want in ((spec.delta, delta), (spec.d2, d2), (fd.d2, fd_d2)):
        if isinstance(want, str):
            got = fn(x, y)
            assert type(got) is float and got.hex() == want
        else:
            with pytest.raises(DisplacementError) as info:
                fn(x, y)
            assert (type(info.value).__name__, str(info.value)) == want


def test_roundabout_arcs():
    ra = make_builtin("roundabout")
    assert ra.kind == "angular"
    assert abs(ra.delta(0.0, 0.5 * math.pi) - 0.5 * math.pi) <= 1e-15
    # going backwards means driving almost all the way around
    assert abs(ra.delta(0.5 * math.pi, 0.0) - 1.5 * math.pi) <= 1e-15
    assert ra.delta(1.234, 1.234) == 0.0
    # arguments wrap modulo the full turn
    assert abs(ra.delta(0.0, 7.0) - (7.0 - 2.0 * math.pi)) <= 1e-15
    assert abs(ra.delta(0.0, -0.5 * math.pi) - 1.5 * math.pi) <= 1e-15


def test_santiago_travel_times():
    gr = make_builtin("santiago_graph")
    assert gr.kind == "graph"
    for i in range(4):
        for j in range(4):
            assert gr.delta(i, j) == SANTIAGO[i][j]
    with pytest.raises(DisplacementError):
        gr.delta(0, 4)
    with pytest.raises(DisplacementError):
        gr.delta(-1, 0)
    with pytest.raises(DisplacementError):
        gr.delta(0.5, 1)


def test_identity_gauge_builtin():
    ident = make_builtin("identity_gauge")
    assert ident.kind == "stieltjes"
    assert abs(ident.delta(0.25, 0.75) - 0.5) <= 1e-12
    assert ident.delta(0.4, 0.4) == 0.0


def test_stieltjes_delta_matches_gauge_difference_exactly():
    st = Stieltjes(mixed_gauge())
    pts = [0.0, 0.1, 0.25, 0.3, 0.75, 0.9, 1.0]
    for x in pts:
        for y in pts:
            assert st.delta(x, y) == st.gauge(y) - st.gauge(x)


# ---------------------------------------------------------------------------
# H1: vanishing on the diagonal
# ---------------------------------------------------------------------------

def test_h1_passes_for_all_builtins():
    for name in BUILTIN_NAMES:
        report = check_h1(make_builtin(name))
        assert report.verdict == "pass", name
        assert report.passed
        assert report.witnesses == ()


def test_h1_fail_smooth_offset():
    spec = Smooth((0.0, 1.0), lambda x, y: y - x + 1.0)
    report = check_h1(spec)
    assert report.verdict == "fail"
    assert not report.passed
    # witness list is capped, sample count still reflects the full sweep
    assert len(report.witnesses) == 10
    assert report.sample_count == 101
    assert report.witnesses[0]["value"] == 1.0


def test_h1_fail_graph_diagonal():
    g = FiniteGraph(((1.0, 2.0), (3.0, 0.0)))
    report = check_h1(g)
    assert report.verdict == "fail"
    assert report.witnesses == ({"x": 0.0, "value": 1.0},)


def test_axiom_report_to_dict_shape():
    report = check_h1(make_builtin("exponential"))
    d = report.to_dict()
    assert d["hypothesis"] == "H1"
    assert d["verdict"] == "pass"
    assert d["witnesses"] == []
    assert d["sample_count"] == report.sample_count
    assert d["tolerance"] == report.tolerance
    assert isinstance(d["stats"], dict)


# ---------------------------------------------------------------------------
# H2 upper semicontinuity in the displacement-ball sense
# ---------------------------------------------------------------------------

def test_h2_usc_passes_smooth_and_stieltjes():
    for spec in (make_builtin("exponential"), make_builtin("identity_gauge"),
                 Stieltjes(jump_gauge())):
        report = check_h2_usc(spec)
        assert report.verdict == "pass"
        assert report.stats["inconclusive_pairs"] == 0


def test_h2_usc_detects_reachable_jump():
    # For x >= 0.7 the map y -> delta(x, y) drops by 1 as y crosses 0.5,
    # while delta(0.5, .) stays continuous, so points left of 0.5 remain
    # inside every shrinking ball around 0.5 and carry the excess.
    def bad(x, y):
        return (y - x) + (1.0 if (x >= 0.7 and y < 0.5) else 0.0)

    report = check_h2_usc(Smooth((0.0, 1.0), bad), samples=11)
    assert report.verdict == "fail"
    # the designed violations sit at y = 0.5; the bump also makes points
    # near 0 land inside balls around y = 1.0, a second honest violation
    assert all(w["y"] in (0.5, 1.0) for w in report.witnesses)
    assert any(w["x"] == 0.8 and w["y"] == 0.5 and w["excess"] > 0.3
               for w in report.witnesses)


def test_h2_usc_insufficient_levels_never_fake_a_failure():
    # with few shrink levels the margins have not stabilized yet, and the
    # honest outcome is inconclusive rather than a fabricated verdict
    report = check_h2_usc(make_builtin("exponential"), samples=21,
                          shrink_levels=8)
    assert report.verdict in ("pass", "inconclusive")
    assert report.witnesses == ()
    # no level at all leaves every pair inconclusive: that is refused
    for levels in (0, -1):
        with pytest.raises(DisplacementError,
                           match=f"shrink_levels must be at least 1, got {levels}"):
            check_h2_usc(make_builtin("exponential"), shrink_levels=levels)


def test_h2_usc_rejects_graph_variant():
    with pytest.raises(DisplacementError):
        check_h2_usc(make_builtin("santiago_graph"))


# ---------------------------------------------------------------------------
# H2' sufficient condition: phi-transformed triangle inequality
# ---------------------------------------------------------------------------

def test_h2prime_santiago_identity_phi_single_violation():
    report = check_h2prime(make_builtin("santiago_graph"))
    assert report.verdict == "fail"
    assert report.stats == {"violations": 1, "exhaustive": True}
    (w,) = report.witnesses
    assert (w["x"], w["y"], w["z"]) == (0.0, 2.0, 3.0)
    assert (w["psi_xz"], w["psi_xy"], w["psi_yz"]) == (10.0, 4.0, 5.0)
    # the one offending triple: 10 > 4 + 5
    assert w["psi_xz"] > w["psi_xy"] + w["psi_yz"]


def test_h2prime_santiago_sqrt_phi_passes():
    # a concave strictly increasing rescaling repairs subadditivity here
    report = check_h2prime(make_builtin("santiago_graph"),
                           phi=parse("sqrt(r)", {"r"}))
    assert report.verdict == "pass"
    assert report.stats == {"violations": 0, "exhaustive": True}


def test_h2prime_santiago_square_phi_fails_more():
    report = check_h2prime(make_builtin("santiago_graph"),
                           phi=parse("r^2", {"r"}))
    assert report.verdict == "fail"
    assert report.stats["violations"] == 5


def test_h2prime_accepts_plain_callable_phi():
    report = check_h2prime(make_builtin("santiago_graph"), phi=lambda r: r)
    assert report.verdict == "fail"
    assert report.stats["violations"] == 1


def test_h2prime_roundabout_passes():
    report = check_h2prime(make_builtin("roundabout"), samples=32)
    assert report.verdict == "pass"


def test_h2prime_exponential_identity_phi_fails_sampled():
    # the exponential displacement is not phi-subadditive for phi(r) = r;
    # its H2 property comes from a different argument entirely
    report = check_h2prime(make_builtin("exponential"))
    assert report.verdict == "fail"
    assert report.stats["violations"] > 0
    assert report.stats["exhaustive"] is False
    assert report.sample_count == 16 ** 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_h2prime_refuses_a_non_finite_displacement(bad):
    # a NaN triple would be skipped and an infinite one would put NaN
    # into the value grid; either way there is no verdict to give
    spec = Smooth((0.0, 1.0), lambda x, y: bad if y > 0.5 > x else y - x)
    with pytest.raises(DisplacementError, match=r"\|Delta\(0\.0, "
                                                r"0\.5333333333333333\)\| = "):
        check_h2prime(spec)


# NaN near y = 0.5 in Delta, and for y > 0.5 in d2
NAN_SPACE = Smooth((0.0, 1.0),
                   lambda x, y: math.nan if abs(y - 0.5) < 0.2 else y - x,
                   lambda x, y: math.nan if y > 0.5 else 1.0)
NAN_DELTA = r"^\|Delta\(.*\)\| = nan is not finite$"
NAN_D2 = r"^d2\(.*\) = nan is not finite$"


@pytest.mark.parametrize("run, message", [
    (check_h1, NAN_DELTA),
    (check_h2_usc, NAN_DELTA),
    (check_h3, NAN_DELTA),
    (check_h5, NAN_DELTA),
    (lambda spec: delta_ball(spec, 0.5, 0.1), NAN_DELTA),
    (check_d2_positive, NAN_D2),
    (lambda spec: gamma_estimate(spec, 0.2, 0.8), NAN_D2),
], ids=["H1", "H2-usc", "H3", "H5", "ball", "D2-positive", "gamma"])
def test_a_nan_delta_or_d2_is_refused_not_judged(run, message):
    # NaN fails every comparison, so a check would pass it by, and a ball
    # would leave out its own centre
    with pytest.raises(DisplacementError, match=message):
        run(NAN_SPACE)


def test_h2prime_bad_phi_is_inconclusive_with_reason():
    gr = make_builtin("santiago_graph")
    report = check_h2prime(gr, phi=parse("r + 1", {"r"}))
    assert report.verdict == "inconclusive"
    assert "phi(0)" in report.stats["reason"]

    report = check_h2prime(gr, phi=parse("0 - r", {"r"}))
    assert report.verdict == "inconclusive"
    assert "strictly increasing" in report.stats["reason"]


# ---------------------------------------------------------------------------
# H3 monotonicity and H5 left-continuity
# ---------------------------------------------------------------------------

def test_h3_passes_smooth_and_stieltjes():
    for spec in (make_builtin("exponential"), Stieltjes(mixed_gauge()),
                 Stieltjes(jump_gauge())):
        assert check_h3(spec).verdict == "pass"


def test_h3_fail_sine_displacement():
    spec = Smooth((0.0, math.pi), parse("sin(y) - sin(x)", {"x", "y"}))
    report = check_h3(spec, samples=21)
    assert report.verdict == "fail"
    w = report.witnesses[0]
    # monotonicity breaks right after the crest at pi/2
    assert w["y"] < w["z"]
    assert w["delta_xy"] > w["delta_xz"]
    assert abs(w["y"] - 0.5 * math.pi) < 0.2


def test_h3_rejects_graph_variant():
    with pytest.raises(DisplacementError):
        check_h3(make_builtin("santiago_graph"))


def test_h5_passes_smooth_and_stieltjes():
    for spec in (make_builtin("exponential"), Stieltjes(jump_gauge())):
        assert check_h5(spec).verdict == "pass"


def test_h5_fail_right_continuous_step():
    step = lambda t: 1.0 if t >= 0.5 else 0.0
    spec = Smooth((0.0, 1.0), lambda x, y: step(y) - step(x))
    report = check_h5(spec, samples=21)
    assert report.verdict == "fail"
    w = report.witnesses[0]
    assert w["x"] == 0.5
    assert w["value"] == 1.0


def test_h5_rejects_angular_variant():
    with pytest.raises(DisplacementError):
        check_h5(make_builtin("roundabout"))


# ---------------------------------------------------------------------------
# positivity of the second-slot derivative
# ---------------------------------------------------------------------------

def test_d2_positive_exponential():
    report = check_d2_positive(make_builtin("exponential"), grid=64)
    assert report.verdict == "pass"
    # lattice minimum sits at the lower-left corner where d2 = 1
    assert report.stats["r_hat"] == 1.0
    assert report.stats["argmin_x"] == 0.0
    assert report.stats["argmin_y"] == 0.0
    assert report.stats["r_hat"] >= E_INV - 1e-9


def test_d2_positive_linear_displacement():
    spec = Smooth((0.0, 1.0), parse("y - x", {"x", "y"}),
                  parse("1", {"x", "y"}))
    report = check_d2_positive(spec, grid=16)
    assert report.verdict == "pass"
    assert report.stats["r_hat"] == 1.0


def test_d2_degenerate_cubic_fails():
    # d2 = 3 y^2 vanishes on the line y = 0; the odd-size lattice hits it
    spec = Smooth((-1.0, 1.0), parse("y^3 - x^3", {"x", "y"}),
                  parse("3*y^2", {"x", "y"}))
    report = check_d2_positive(spec, grid=65)
    assert report.verdict == "fail"
    assert report.stats["r_hat"] == 0.0
    assert report.stats["argmin_y"] == 0.0


@pytest.mark.parametrize("tol, verdict", [(1e-9, "fail"), (1e-11, "pass")])
def test_d2_positive_verdict_and_witnesses_follow_tol(tol, verdict):
    # d2 = x + y + 1e-10: the lattice minimum 1e-10 is positive, not above 1e-9
    spec = Smooth((0.0, 1.0), parse("x*y + y^2/2 + 0.0000000001*y", {"x", "y"}),
                  parse("x + y + 0.0000000001", {"x", "y"}))
    report = check_d2_positive(spec, grid=5, tol=tol)
    assert report.stats["r_hat"] == 1e-10
    assert report.verdict == verdict
    if verdict == "fail":
        assert [(w["x"], w["y"]) for w in report.witnesses] == [(0.0, 0.0)]
        assert report.witnesses[0]["d2"] == 1e-10
    else:
        assert report.witnesses == ()


def test_d2_check_rejects_a_lattice_without_both_corners():
    for grid in (1, 0, -3):
        with pytest.raises(DisplacementError, match="grid must be at least 2"):
            check_d2_positive(make_builtin("exponential"), grid=grid)


@pytest.mark.parametrize("check, name", [
    (check_h1, "exponential"), (check_h2_usc, "exponential"),
    (check_h2prime, "exponential"), (check_h3, "exponential"),
    (check_h5, "exponential"), (check_h1, "santiago_graph"),
    (check_h2prime, "santiago_graph"),
])
def test_sampled_checks_reject_fewer_than_two_samples(check, name):
    spec = make_builtin(name)
    for samples in (1, 0, -1):
        with pytest.raises(DisplacementError, match="samples must be at least 2"):
            check(spec, samples=samples)
    assert check(spec, samples=2).sample_count > 0


def test_d2_check_requires_smooth():
    with pytest.raises(DisplacementError):
        check_d2_positive(make_builtin("identity_gauge"))
    with pytest.raises(DisplacementError):
        check_d2_positive(make_builtin("santiago_graph"))


# ---------------------------------------------------------------------------
# comparison constant gamma and the density ratio h
# ---------------------------------------------------------------------------

def test_gamma_equal_points_is_one():
    est = gamma_estimate(make_builtin("exponential"), 0.3, 0.3, grid=64)
    assert est.value == 1.0
    assert est.to_dict() == {"z": 0.3, "zbar": 0.3, "value": 1.0, "grid": 64}


def test_gamma_exponential_against_direct_recompute():
    spec = make_builtin("exponential")
    est = gamma_estimate(spec, 0.0, 1.0, grid=256)

    def d2(x, y):
        return 2.0 * y * math.exp(y * y - x * x) + math.exp(x - y)

    worst = max(d2(0.0, k / 255.0) / d2(1.0, k / 255.0) for k in range(256))
    assert abs(est.value - max(1.0, worst)) <= 1e-12
    assert est.value >= 1.0


def test_gamma_reverse_direction_hits_e_exactly():
    # the ratio d2(1, t) / d2(0, t) peaks at t = 0 with value e / 1
    est = gamma_estimate(make_builtin("exponential"), 1.0, 0.0, grid=256)
    assert abs(est.value - E) <= 1e-15


def test_gamma_product_bound():
    spec = make_builtin("exponential")
    rng = random.Random(21)
    for _ in range(25):
        z = rng.uniform(0.0, 1.0)
        zb = rng.uniform(0.0, 1.0)
        a = gamma_estimate(spec, z, zb, grid=64).value
        b = gamma_estimate(spec, zb, z, grid=64).value
        assert a >= 1.0 and b >= 1.0
        assert a * b >= 1.0 - 1e-12


def test_gamma_rejects_non_smooth():
    with pytest.raises(DisplacementError):
        gamma_estimate(make_builtin("roundabout"), 0.1, 0.2)


@pytest.mark.parametrize("grid", [0, -3])
def test_gamma_rejects_an_empty_grid(grid):
    # an empty grid used to report the factor 1.0 over no points
    with pytest.raises(DisplacementError,
                       match=f"grid must be at least 1, got {grid}"):
        gamma_estimate(make_builtin("exponential"), 1.0, 0.0, grid=grid)


@pytest.mark.parametrize("operation, call", [
    ("check_d2_positive", lambda s: check_d2_positive(s)),
    ("gamma_estimate", lambda s: gamma_estimate(s, 0.1, 0.2)),
    ("rn_density", lambda s: rn_density(s, 0.1, 0.2, 0.3)),
    ("gauge_from_smooth", lambda s: gauge_from_smooth(s)),
    ("path_integral",
     lambda s: path_integral(lambda t: 1.0, MeasurePath(lambda t: t), s, 1.0)),
])
def test_smooth_only_operations_name_themselves(operation, call):
    with pytest.raises(DisplacementError) as info:
        call(make_builtin("roundabout"))
    assert str(info.value) == (
        f"{operation} requires a smooth variant, got 'angular'")


def test_rn_density_reciprocity_and_bounds():
    spec = make_builtin("exponential")
    rng = random.Random(33)
    for _ in range(100):
        z = rng.uniform(0.0, 1.0)
        zb = rng.uniform(0.0, 1.0)
        k = rng.randrange(256)
        t = k / 255.0
        h = rn_density(spec, z, zb, t)
        h_swap = rn_density(spec, zb, z, t)
        assert abs(h * h_swap - 1.0) <= 1e-12
        gam = gamma_estimate(spec, z, zb, grid=256).value
        gam_rev = gamma_estimate(spec, zb, z, grid=256).value
        assert 1.0 / gam_rev - 1e-9 <= h <= gam + 1e-9


def test_rn_density_equal_points_is_exactly_one():
    spec = make_builtin("exponential")
    for t in (0.0, 0.4, 1.0):
        assert rn_density(spec, 0.6, 0.6, t) == 1.0


def test_rn_density_tends_to_one():
    spec = make_builtin("exponential")
    devs = [abs(rn_density(spec, 0.5 + 0.1 * 2.0 ** -k, 0.5, 0.7) - 1.0)
            for k in range(11)]
    assert devs[-1] <= 1e-3
    for a, b in zip(devs, devs[1:]):
        assert b <= a + 1e-15


def test_rn_density_degenerate_denominator():
    cube = Smooth((-1.0, 1.0), parse("y^3 - x^3", {"x", "y"}),
                  parse("3*y^2", {"x", "y"}))
    with pytest.raises(DisplacementError):
        rn_density(cube, 0.5, -0.5, 0.0)


# ---------------------------------------------------------------------------
# displacement balls
# ---------------------------------------------------------------------------

def test_ball_identity_gauge():
    ball = delta_ball(make_builtin("identity_gauge"), 0.5, 0.2)
    assert abs(ball.lo - 0.3) <= 1e-9
    assert abs(ball.hi - 0.7) <= 1e-9
    assert ball.lo_closed and ball.hi_closed
    d = ball.to_dict()
    assert set(d) == {"lo", "hi", "lo_closed", "hi_closed"}


def test_ball_exponential_edge_against_frozen_root():
    spec = make_builtin("exponential")
    ball = delta_ball(spec, 0.0, 1.0)
    assert ball.lo == 0.0
    assert abs(ball.hi - BALL_ROOT_EXP) <= 2e-10
    # the returned edge honestly satisfies the defining inequality
    assert abs(spec.delta(0.0, ball.hi)) < 1.0
    assert abs(abs(spec.delta(0.0, ball.hi)) - 1.0) <= 2e-10


def test_ball_contains_center_randomized():
    rng = random.Random(5)
    for spec in (make_builtin("identity_gauge"), make_builtin("exponential")):
        for _ in range(60):
            x = rng.uniform(0.0, 1.0)
            r = rng.uniform(1e-3, 2.0)
            ball = delta_ball(spec, x, r)
            assert ball.lo <= x <= ball.hi
            assert abs(spec.delta(x, ball.lo)) <= r
            assert abs(spec.delta(x, ball.hi)) <= r


def test_ball_argument_validation():
    with pytest.raises(DisplacementError):
        delta_ball(make_builtin("identity_gauge"), 0.5, 0.0)
    with pytest.raises(DisplacementError):
        delta_ball(make_builtin("santiago_graph"), 0, 1.0)
    with pytest.raises(DisplacementError, match="^tol must be finite and "
                       "non-negative, got nan$"):
        delta_ball(make_builtin("exponential"), 0.5, 0.25, tol=math.nan)


# ---------------------------------------------------------------------------
# gauge extraction from a smooth displacement
# ---------------------------------------------------------------------------

def test_gauge_extraction_exponential_closed_form():
    g = gauge_from_smooth(make_builtin("exponential"))
    # diagonal density 2t + 1 integrates to t^2 + t
    for k in range(101):
        t = k / 100.0
        assert abs(g(t) - (t * t + t)) <= 1e-9
    assert g.density_source is not None


def test_gauge_extraction_fd_fallback():
    # no analytic d2 supplied: the finite-difference diagonal still
    # reconstructs g(t) = exp(t) - 1 to high accuracy
    spec = Smooth((0.0, 1.0), parse("exp(y) - exp(x)", {"x", "y"}))
    assert not spec.has_analytic_d2
    g = gauge_from_smooth(spec)
    for k in range(51):
        t = k / 50.0
        assert abs(g(t) - (math.exp(t) - 1.0)) <= 1e-8
    assert g.density_source is None


def test_gauge_extraction_requires_smooth():
    with pytest.raises(DisplacementError):
        gauge_from_smooth(make_builtin("santiago_graph"))


def test_extracted_density_is_the_compiled_diagonal_of_d2():
    spec = make_builtin("exponential")
    g = gauge_from_smooth(spec)
    assert g.density_source == "2.0 * t * exp(t^2.0 - t^2.0) + exp(t - t)"
    rng = random.Random(20)
    ts = [0.0, 1.0, 0.5] + [rng.random() for _ in range(2000)]
    for t in ts + [np.float64(t) for t in ts[:50]]:
        got = g.density(t)
        assert type(got) is float
        assert got.hex() == spec.d2(t, t).hex()


def test_fd_d2_matches_analytic_on_exp():
    spec = Smooth((0.0, 1.0), parse("exp(y) - exp(x)", {"x", "y"}))
    for x in (0.0, 0.3, 1.0):
        for y in (0.0, 0.5, 1.0):
            assert abs(spec.d2(x, y) - math.exp(y)) <= 1e-7


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------

def test_round_trip_all_builtins():
    for name in BUILTIN_NAMES:
        spec = make_builtin(name)
        back = spec_from_dict(spec_to_dict(spec))
        assert back.kind == spec.kind


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_builtin_checks_as_its_spec_data_does(name):
    # make_builtin reads its spec data through spec_from_dict, so the
    # written spec reads back to the same space: every check the check
    # command runs on that kind gives the same report bytes
    from displace.cli import _DEFAULT_CHECKS, _checks
    from displace.serialize import dumps

    def reports(spec):
        out = []
        for check in _DEFAULT_CHECKS[spec.kind]:
            fn, options = _checks()[check]
            kwargs = {key: value for key, value in
                      (("samples", 9), ("grid", 16)) if key in options}
            out.append(dumps(fn(spec, **kwargs).to_dict()))
        return out

    spec = make_builtin(name)
    assert reports(spec_from_dict(spec_to_dict(spec))) == reports(spec)


def test_round_trip_preserves_smooth_values():
    spec = make_builtin("exponential")
    back = spec_from_dict(spec_to_dict(spec))
    assert back.delta(0.25, 0.75) == spec.delta(0.25, 0.75)
    assert back.d2(0.1, 0.9) == spec.d2(0.1, 0.9)


def test_round_trip_graph_and_angular():
    gr = spec_from_dict(spec_to_dict(make_builtin("santiago_graph")))
    assert gr.delta(0, 2) == 4.0
    ra = make_builtin("roundabout")
    ra2 = spec_from_dict(spec_to_dict(ra))
    assert ra2.delta(0.0, 7.0) == ra.delta(0.0, 7.0)


def test_round_trip_stieltjes():
    st = Stieltjes(mixed_gauge())
    back = spec_from_dict(spec_to_dict(st))
    assert back.kind == "stieltjes"
    assert abs(back.delta(0.1, 0.9) - st.delta(0.1, 0.9)) <= 1e-9


def test_raw_callable_spec_does_not_serialize():
    spec = Smooth((0.0, 1.0), lambda x, y: y - x)
    with pytest.raises(DisplacementError):
        spec_to_dict(spec)


def test_spec_from_dict_malformed():
    for bad in ({"kind": "mystery"}, {"kind": "smooth", "domain": [0, 1]}, {}):
        with pytest.raises(DisplacementError):
            spec_from_dict(bad)


@pytest.mark.parametrize("bad", [
    {"kind": "graph", "weights": 5},
    {"kind": "graph", "weights": [5]},
    {"kind": "graph", "weights": [[0, "x"], [1, 0]]},
    [{"kind": "angular"}],
    "angular",
    # integers too large for a float
    {"kind": "graph", "weights": [[0, 10 ** 400], [1, 0]]},
    {"kind": "smooth", "domain": [0, 10 ** 400], "delta": "y - x"},
    # a domain end that is no number
    {"kind": "smooth", "domain": [0, "one"], "delta": "y - x"},
    # JSON's NaN and Infinity are floats, but no travel cost
    {"kind": "graph", "weights": [[0, math.nan, 1], [1, 0, 1], [1, 1, 0]]},
    {"kind": "graph", "weights": [[0, math.inf, 1], [1, 0, 1], [1, 1, 0]]},
    {"kind": "graph", "weights": [[0, 1], [-math.inf, 0]]},
])
def test_spec_from_dict_malformed_shapes_raise_typed_errors(bad):
    with pytest.raises(DisplacementError):
        spec_from_dict(bad)


def test_stieltjes_delta_snaps_points_just_past_the_end():
    g = Gauge((0.0, 1.0), lambda t: 1.0, jumps=((1.0, 0.5),))
    spec = Stieltjes(g)
    assert spec.delta(0.0, 1.0 + 1e-13) == spec.delta(0.0, 1.0) == g(1.0)
