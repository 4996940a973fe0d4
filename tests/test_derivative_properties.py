"""Property tests of the two-slope derivative against the quotient.

At a continuity point the engine takes the derivative of a plain f as
the limit of Delta2(f(x), f(y)) / (y - x) over the limit of the density,
and keeps the quotient of increments for gauges and running integrals,
in the FTC harnesses and wherever the two slopes cannot settle the
point.  The quotient is written out here with the engine's one rule for
a limit, and the two are compared on random smooth f, plain and through
a Smooth Delta2, against gauges whose densities have kinks, interior
zeros, flats and atoms: the point class, the samples used and any error
must be the same.  Each error estimate is the error its limit was
accepted on, the larger of the Richardson spread and the distance to the
nearest sample less four last steps; it is not a bound.  Over 54,000
random cases (6,000 drawn by these strategies, 48,000 uniformly from the
same ranges) the outcomes matched in every case, the two values differed
by up to 2.05 times the sum of their estimates (15 cases beyond 1 time),
and the two-slope value missed the closed form
f'(x) * d2(f(x), f(x)) / density(x) by up to 3.02 times its own (3
beyond 1 time).  So the values must agree within 3.1 times the sum of
their estimates, and the two-slope value must lie within 3.1 times its
estimate of the closed form, each give or take 1e-10 * (1 + |value|) of
rounding: the slopes at the smallest steps cancel about eps * |f| / h of
their digits.  At atoms, where a continuous f's jump quotient is 0,
3,000 random smooth f (linear, sin, cos, exp and cubic, slopes from 1e-3
to 1e3) gave 0 within rounding; of 500 A*cos(k*(t - c)) built so that
their first two samples agree, 310 are refused (254 with a tolerance of
1e-2 * (1 + |estimate|)), and 3 of the 190 accepted miss by up to 1.1 %
of A with error 0 (59 with that tolerance): such an estimate lies within the
tolerance of the samples' own trend, so no error the rule tests sees it.

Scaling f by a power of two scales every sample of every limit, its
scale and its tolerance exactly, so c * f is refused, or accepted with
the same class and samples, where f is, except for the sides' agreement:
its floor 1e-3 * (1 + |right| + |left|) is absolute, so a smaller c may
pass where a larger one's sides disagree.  That happened at 2 of 36,000
uniform random comparisons (c = 2^-10, 2^-7 and 2^7), both 1e-3 from a
kink of the density.  A c that is not a power of two rounds each sample
differently, and where a side's samples are rounding noise (f' about
1e-6 against |f| about 3, left of x = 1.2e-7) its verdict follows the
noise: of 9,000 comparisons there, with coefficients among 0, +-1e-3,
+-1, 0.5, 2 and +-3, 56 changed from or to "do not converge" for c =
1e-3, 1e-2 and 1e2, and none for powers of two.
"""

import math
import re
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from displace import calculus  # noqa: E402
from displace.calculus import (DEFAULT_SHRINK_LEVELS,  # noqa: E402
                               DerivativeError, DerivativeResult, _derivatives,
                               _reach, _richardson, delta_derivative,
                               ftc2_check, pair_derivative)
from displace.displacement import Smooth  # noqa: E402
from displace.expr import parse  # noqa: E402
from displace.gauge import _EPS, Gauge, GaugeError, _snap  # noqa: E402

# ---------------------------------------------------------------------------
# the quotient of increments, as the engine took it at every point
# ---------------------------------------------------------------------------


def _quotient_side(sample, x, direction, g, dsets, levels, diagnostics):
    reach = _reach(x, direction, g, dsets, ())
    if reach < 1e3 * _EPS * max(1.0, abs(x)):
        return None
    values, used = [], 0
    for k in range(levels):
        h = reach * 2.0 ** (-k)
        if h < 32.0 * _EPS * max(1.0, abs(x)):
            break
        used += 1
        value = sample(x + direction * h)
        if value is not None:
            values.append(value)
    key = "right" if direction > 0 else "left"
    diagnostics[key] = values
    if not values:
        raise DerivativeError(
            "gauge increments vanish on one side", x, diagnostics)
    # the engine's one rule for a limit: the error is the larger of the
    # spread and the distance to the last sample less four last steps,
    # and it must be at most 1e-2 of the scale, |estimate| plus the first
    # sample's distance from it
    estimate, spread = _richardson(values)
    error = math.inf
    if len(values) > 1:
        error = max(spread, abs(values[-1] - estimate)
                    - 4.0 * abs(values[-1] - values[-2]))
    scale = abs(estimate) + abs(values[0] - estimate)
    if not (math.isfinite(estimate) and error <= 1e-2 * scale):
        raise DerivativeError(
            f"difference quotients do not converge on the {key} side",
            x, diagnostics)
    return estimate, error, used


def quotient_derivative(f, g, displaced, x, levels=DEFAULT_SHRINK_LEVELS):
    """The derivative with every continuity limit a quotient of increments."""
    dsets = g.distinguished_sets()
    a, b = g.domain
    x = _snap(x, a, b)
    tau = dsets.jump_near(x)
    if tau is not None and tau < b:
        atom = g.jump_at(tau)
        limit = _quotient_side(lambda y: float(f(y)), tau, +1, g, dsets,
                               levels, {})
        if limit is None:
            raise DerivativeError("no room to the right of the jump", tau)
        fplus, error, used = limit
        return DerivativeResult(value=displaced(float(f(tau)), fplus) / atom,
                                point_class="jump",
                                error_estimate=error / atom,
                                samples_used=used + 1)
    if dsets.excludes(x):
        return DerivativeResult(value=None, point_class="excluded",
                                error_estimate=0.0, samples_used=0)
    fx = float(f(x))
    gx = g(x)

    def quotient(y):
        den = g(y) - gx
        return displaced(fx, float(f(y))) / den if den != 0.0 else None

    diagnostics = {}
    limits = [_quotient_side(quotient, x, direction, g, dsets, levels,
                             diagnostics) for direction in (+1, -1)]
    sides = [side for side in limits if side is not None]
    if not sides:
        raise DerivativeError("no side of x admits difference quotients",
                              x, diagnostics)
    used = sum(side[2] for side in sides)
    if len(sides) == 2:
        (lr, er, _), (ll, el, _) = sides
        if abs(lr - ll) > 1e-3 * (1.0 + abs(lr) + abs(ll)):
            raise DerivativeError(
                "left and right difference quotients disagree", x, diagnostics)
        value, error = 0.5 * (lr + ll), max(er, el, 0.5 * abs(lr - ll))
    else:
        value, error, _ = sides[0]
    return DerivativeResult(value=value, point_class="continuity",
                            error_estimate=error, samples_used=used)


def outcome(run):
    try:
        return run()
    except (DerivativeError, GaugeError) as exc:
        return f"{type(exc).__name__}: {exc}"


# how far a value may miss, in error estimates, and its rounding,
# relative to 1 + |value| (see the module docstring)
_ESTIMATES = 3.1
_ROUNDING = 1e-10


def assert_agree(new, old, exact):
    """One outcome: the same error, or the same class and samples with
    values that agree (see the module docstring); exact is the closed
    form at a continuity point, NaN where the density vanishes."""
    if isinstance(old, str) or isinstance(new, str):
        assert new == old
        return
    assert (new.point_class, new.samples_used) == \
        (old.point_class, old.samples_used)
    if old.value is None:
        assert new.value is None
        return
    rounding = _ROUNDING * (1.0 + abs(old.value))
    assert abs(new.value - old.value) <= \
        _ESTIMATES * (new.error_estimate + old.error_estimate) + rounding, \
        (new, old)
    if new.point_class == "continuity" and not math.isnan(exact):
        assert abs(new.value - exact) <= \
            _ESTIMATES * new.error_estimate + rounding, (new, exact)


# ---------------------------------------------------------------------------
# random gauges, functions and points
# ---------------------------------------------------------------------------

coefficient = st.floats(-3.0, 3.0).map(lambda c: round(c, 3))
position = st.floats(0.15, 0.85).map(lambda c: round(c, 3))


@st.composite
def gauges(draw):
    """(make, special points): make() builds the same fresh gauge each call."""
    kind = draw(st.sampled_from(["kink", "zero", "flat", "smooth"]))
    m, k = draw(position), abs(draw(coefficient)) + 0.5
    flats, special = (), [m]
    if kind == "kink":
        c = round(draw(st.floats(0.0, 1.0)), 3)
        source = f"{k}*abs(t - {m}) + {c}"
    elif kind == "zero":
        source = f"{k}*(t - {m})^2"
    elif kind == "flat":
        w = round(draw(st.floats(0.02, 0.1)), 3)
        source = f"{k}*max(0, abs(t - {m}) - {w})"
        flats = ((m - w, m + w),)
        special = [m - w, m + w, m - w - 1e-4, m + w + 1e-4]
    else:
        c1, c2 = draw(coefficient), draw(coefficient)
        source = f"{k + abs(c1) + abs(c2)} + {c1}*t + {c2}*t^2"
    taus = sorted({round(draw(st.floats(0.05, 0.95)), 3)
                   for _ in range(draw(st.integers(0, 2)))})
    taus = [tau for tau in taus
            if not any(lo < tau < hi for lo, hi in flats)]
    data = {"domain": [0, 1], "density": source,
            "jumps": [[tau, 0.25] for tau in taus],
            "flats": [list(iv) for iv in flats]}
    return (lambda: Gauge.from_dict(data)), special + taus


@st.composite
def smooth_functions(draw):
    """(f, f')"""
    a, b, c, d, e = (draw(coefficient) for _ in range(5))
    return (lambda t: a * math.sin(b * t) + c * t * t + d * math.exp(e * t),
            lambda t: a * b * math.cos(b * t) + 2.0 * c * t
            + d * e * math.exp(e * t))


points = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))
# a Smooth value space whose Delta is no difference; d2(u, u) = 1 + 0.75 u^2
CUBIC_SPACE = Smooth((-1e3, 1e3), parse("y - x + 0.25*(y^3 - x^3)",
                                        {"x", "y"}))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gauge=gauges(), f=smooth_functions(), x=points,
       special=st.integers(0, 7), paired=st.booleans())
@example(gauge=(lambda: Gauge.from_dict({"domain": [0, 1],
                                         "density": "3*(t - 0.5)^2"}), [0.5]),
         f=(lambda t: (t - 0.5) ** 3, lambda t: 3.0 * (t - 0.5) ** 2),
         x=0.5, special=0, paired=False)
# 1e-3 left of a flat, where both rules give 91949.774 +- 264.9 against
# the closed form 91959.833
@example(gauge=(lambda: Gauge.from_dict({
             "domain": [0, 1], "density": "2.946*max(0, abs(t - 0.658) - 0.035)",
             "flats": [[0.623, 0.693]]}), [0.622]),
         f=(lambda t: -2.707 * math.sin(0.55 * t) + 1.095 * t * t
            + 2.495 * math.exp(1.526 * t),
            lambda t: -2.707 * 0.55 * math.cos(0.55 * t) + 2.19 * t
            + 2.495 * 1.526 * math.exp(1.526 * t)),
         x=0.5, special=0, paired=True)
# from 1, the first two density samples, 0.5 and 0.75, straddle the kink
# and agree, which no limit of the density is
@example(gauge=(lambda: Gauge.from_dict({
             "domain": [0, 1], "density": "1.905*abs(t - 0.625) + 0.758"}), []),
         f=(lambda t: -1.44 * math.sin(-0.35 * t) - 2.448 * t * t
            + 1.576 * math.exp(2.451 * t),
            lambda t: 0.504 * math.cos(-0.35 * t) - 4.896 * t
            + 1.576 * 2.451 * math.exp(2.451 * t)),
         x=1.0, special=0, paired=False)
def test_two_slopes_agree_with_the_quotient(gauge, f, x, special, paired):
    make, specials = gauge
    f, fprime = f
    if special < len(specials):
        x = specials[special]
    if paired:
        derivative = lambda g: pair_derivative(f, g, CUBIC_SPACE, x)
        displaced = CUBIC_SPACE.delta
        chain = 1.0 + 0.75 * f(x) ** 2
    else:
        derivative = lambda g: delta_derivative(f, g, x)
        displaced = lambda u, v: v - u
        chain = 1.0
    g = make()
    density = g.density(x)
    exact = fprime(x) * chain / density if density > 0.0 else math.nan
    assert_agree(outcome(lambda: derivative(g)),
                 outcome(lambda: quotient_derivative(f, make(), displaced, x)),
                 exact)


def shape(f, g, x):
    """delta_derivative's outcome without its numbers: the error, or the
    point class and the samples used."""
    try:
        d = delta_derivative(f, g, x)
    except (DerivativeError, GaugeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return d.point_class, d.samples_used


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gauge=gauges(), f=smooth_functions(), x=points,
       special=st.integers(0, 7))
# cos(8 (t - 0.6875)) takes one value at 0.75 and 0.625, the first two
# points right of the atom; for 2^-10 times it the wrong limit they give
# lies within 1e-2 * (1 + |v|) of the nearest sample
@example(gauge=(lambda: Gauge.from_dict({"domain": [0, 1], "density": "1",
                                         "jumps": [[0.5, 0.25]]}), [0.5]),
         f=(lambda t: math.cos(8.0 * (t - 0.6875)), None), x=0.5, special=0)
# 1e-3 right of a kink of the density the sides of f disagree by more
# than 1e-3 * (1 + |right| + |left|), those of 2^-10 * f by less
@example(gauge=(lambda: Gauge.from_dict({
             "domain": [0, 1], "density": "1.212*abs(t - 0.499) + 0.544"}),
             []),
         f=(lambda t: -2.513 * math.sin(0.669 * t) + 2.753 * t * t
            - 0.622 * math.exp(-0.042 * t), None), x=0.5, special=0)
def test_a_limit_is_held_to_the_scale_of_f(gauge, f, x, special):
    # every one-sided limit's error and tolerance scale with its samples,
    # so c * f is refused, or accepted as the same class from the same
    # samples, where f is; only the sides' agreement has an absolute
    # floor, under which a smaller multiple of f may pass where a larger
    # one's sides disagree.  A power of two scales every sample without
    # rounding (see the module docstring)
    make, specials = gauge
    f, _ = f
    if special < len(specials):
        x = specials[special]
    expected = shape(f, make(), x)
    for c in (2.0 ** -10, 2.0 ** -7, 2.0 ** 7):
        got = shape(lambda t: c * f(t), make(), x)
        if got != expected:
            lenient, strict = (got, expected) if c < 1.0 else (expected, got)
            assert lenient[0] == "continuity", (c, got, expected)
            assert strict.startswith("DerivativeError: left and right "
                                     "difference quotients disagree"), \
                (c, got, expected)


# ---------------------------------------------------------------------------
# the fallback, errors and samples
# ---------------------------------------------------------------------------

def test_an_interior_zero_of_the_density_falls_back_to_the_quotient():
    # both slopes tend to 0 at 0.5, where (t - 0.5)^3 against the gauge
    # (t - 0.5)^3 differentiates to 1
    g = Gauge.from_dict({"domain": [0, 1], "density": "3*(t - 0.5)^2"})
    d = delta_derivative(lambda t: (t - 0.5) ** 3, g, 0.5)
    assert (d.value, d.point_class, d.samples_used) == (1.0, "continuity", 24)


# the density dips below zero on (0.01, 0.02).  The gauge seeds its
# kinks, 0.01, 0.015 and 0.02 up to rounding, at the first query, and
# the midpoint of the piece [0.01, 0.015] refuses the dip: with an atom
# at 0.5 or without, whatever x the quotients start from
DIP = "1 - 200000*max(0, 0.005 - abs(t - 0.015))"
DIP_TEXT = ("density integrates to -2.495 over [0.009999999999999998, 0.015]"
            "; it must be nonnegative")


@pytest.mark.parametrize("jumps, x", [([[0.5, 0.1]], 0.7), ([], 0.5),
                                      ([], 0.7)],
                         ids=["seed-panel", "panel-to-x",
                              "panel-to-the-left-end"])
def test_a_density_negative_between_the_probes_is_still_refused(jumps, x):
    def make():
        return Gauge.from_dict({"domain": [0, 1], "density": DIP,
                                "jumps": jumps})
    f = lambda t: t  # noqa: E731
    with pytest.raises(GaugeError, match=f"^{re.escape(DIP_TEXT)}$"):
        delta_derivative(f, make(), x)
    assert outcome(lambda: quotient_derivative(
        f, make(), lambda u, v: v - u, x)) == f"GaugeError: {DIP_TEXT}"
    # the harness takes quotients, whose panels refuse it as they did
    with pytest.raises(GaugeError, match=f"^{re.escape(DIP_TEXT)}$"):
        ftc2_check(f, make(), grid=5)


def test_two_slopes_report_their_error_and_count_the_points():
    # t^2 against the density 2t + 1 at 0.25: 0.5 / 1.5, from 12 points
    # on each side; the gauge is queried only at x and at the sides'
    # farthest points
    g = Gauge.from_dict({"domain": [0, 1], "density": "2*t + 1"})
    d = delta_derivative(lambda t: t * t, g, 0.25)
    assert d.point_class == "continuity" and d.samples_used == 24
    assert abs(d.value - 1.0 / 3.0) <= max(d.error_estimate, 1e-15)
    assert d.error_estimate <= 1e-12
    assert g._ts == [0.0, 0.125, 0.25, 0.625]


@pytest.mark.parametrize("data", [
    {"domain": [0, 1], "density": "exp(t)"},
    {"domain": [0, 1], "density": "1.905*abs(t - 0.625) + 0.758",
     "jumps": [[0.3, 0.25]]},
    {"domain": [0, 1], "density": "2*max(0, abs(t - 0.5) - 0.1)",
     "flats": [[0.4, 0.6]]},
], ids=["exp", "kink-atom", "flat"])
def test_the_ftc_harnesses_differentiate_a_plain_f_by_its_quotient(data):
    # they test the theorem through its definition: point after point on
    # one gauge, bit for bit the quotient's, where two slopes give other bits
    F = lambda t: math.sin(3.0 * t) + t * t  # noqa: E731
    points = [i / 16 for i in range(17)]
    values, excluded, violations = _derivatives(
        F, Gauge.from_dict(data), points, DEFAULT_SHRINK_LEVELS)
    g = Gauge.from_dict(data)
    quotients = [(t, outcome(lambda: quotient_derivative(
        F, g, lambda u, v: v - u, t))) for t in points]
    assert [(t, d.value.hex()) for t, d in quotients
            if not isinstance(d, str) and d.value is not None] == \
        [(t, v.hex()) for t, v in values]
    assert [t for t, d in quotients if not isinstance(d, str)
            and d.value is None] == excluded
    assert [{"point": t, "reason": d.split(": ", 1)[1]}
            for t, d in quotients if isinstance(d, str)] == violations
    fresh = Gauge.from_dict(data)
    assert any(delta_derivative(F, fresh, t).value != v for t, v in values)


def _side_points_by_powers(x, direction, reach, levels):
    # each level's step as reach times a power of two, its floor with it
    if reach < 1e3 * _EPS * max(1.0, abs(x)):
        return []
    ys = []
    for k in range(min(levels, 1024)):
        h = reach * 2.0 ** (-k)
        if h < 32.0 * _EPS * max(1.0, abs(x)):
            break
        ys.append(x + direction * h)
    return ys


@settings(max_examples=500, deadline=None, derandomize=True)
@given(x=st.floats(-1e300, 1e300), reach=st.floats(0.0, 1e300),
       direction=st.sampled_from([1, -1]), levels=st.integers(2, 2000))
@example(x=0.5, reach=0.25, direction=1, levels=DEFAULT_SHRINK_LEVELS)
@example(x=0.5, reach=1e300, direction=-1, levels=2000)
def test_side_points_by_halving_are_those_by_powers_of_two(x, reach,
                                                           direction, levels):
    # halving h is exact: it never comes near the subnormals
    with mock.patch.object(calculus, "_reach", lambda *_: reach):
        ys = calculus._side_points(x, direction, None, None, (), levels)
    assert [y.hex() for y in ys] == \
        [y.hex() for y in _side_points_by_powers(x, direction, reach, levels)]
