"""Tests for gauge differentiation, Stieltjes integration, and the
reconstruction checks tying the two together.

Reference values are short closed forms: quotients of polynomials, the
integral of the extracted exponential density e - 1/e, and exact jump
quotients computed from stored atom sizes.
"""

import math
import random
import re

import pytest

from displace.calculus import (
    CalculusError,
    CumulativeStieltjesIntegral,
    DerivativeError,
    MeasurePath,
    delta_derivative,
    ftc2_check,
    ftc_forward_check,
    pair_derivative,
    path_integral,
    stieltjes_integral,
)
from displace.displacement import (DisplacementError, Smooth, Stieltjes,
                                   gauge_from_smooth, make_builtin)
from displace.expr import DomainError, as_function, parse
from displace.gauge import CumulativeQuadrature, Gauge, GaugeError

E_MINUS_EINV = 2.3504023872876028


def identity_gauge():
    return Gauge.identity((0.0, 1.0))


def mixed_gauge():
    return Gauge((0.0, 1.0), lambda t: 2.0 * t + 1.0,
                 jumps=((0.25, 0.5), (0.75, 1.0)),
                 density_source="2*t + 1")


def jump_gauge(size=2.0):
    return Gauge((0.0, 1.0), lambda t: 0.0, jumps=((0.5, size),),
                 density_source="0")


# ---------------------------------------------------------------------------
# derivatives at continuity points
# ---------------------------------------------------------------------------

def test_gauge_differentiated_against_itself_is_one():
    g = mixed_gauge()
    for x in (0.1, 0.4, 0.6, 0.9):
        d = delta_derivative(g, g, x)
        assert d.point_class == "continuity"
        assert d.value == 1.0


def test_derivative_of_identity_function_against_quadratic_gauge():
    # f(t) = t against g(t) = t^2 + t differentiates to 1 / (2t + 1)
    g = gauge_from_smooth(make_builtin("exponential"))
    for x in (0.1, 0.5, 0.9):
        d = delta_derivative(lambda t: t, g, x)
        assert d.point_class == "continuity"
        assert abs(d.value - 1.0 / (2.0 * x + 1.0)) <= 1e-9
        assert d.error_estimate <= 1e-6
        assert d.samples_used > 0


def test_a_bare_running_integral_is_differentiated_by_its_quotient():
    # F(t) = t^2 / 2 against g(t) = t: F is called as f, then read by value
    d = delta_derivative(CumulativeQuadrature(lambda t: t, 0.0, 1.0),
                         identity_gauge(), 0.5)
    assert d.point_class == "continuity"
    assert abs(d.value - 0.5) <= 1e-9
    assert d.samples_used == 24


def test_error_estimate_covers_the_error_just_past_a_flat():
    # t = 7/11 is 5.6e-6 right of the flat's end, where the density is
    # about 7e-6: the running integral's derivative is off by 1.53e-4,
    # and the derivative reports so (error_estimate 1.57e-4)
    g = Gauge.from_dict({
        "domain": [0, 1],
        "density": "1.216136*max(0, abs(t - 0.525568) - 0.110790)",
        "jumps": [[0.748339, 0.180371]], "flats": [[0.414778, 0.636358]]})
    f = as_function(parse("1.758397*sin(t) + 0.520739*t^2", {"t"}), "t")
    t = 7 / 11
    d = delta_derivative(CumulativeStieltjesIntegral(f, g), g, t)
    assert d.point_class == "continuity"
    assert d.error_estimate >= abs(d.value - f(t))


def test_derivative_result_to_dict():
    d = delta_derivative(lambda t: t, identity_gauge(), 0.5)
    payload = d.to_dict()
    assert set(payload) == {"value", "point_class", "error_estimate",
                            "samples_used"}
    assert abs(payload["value"] - 1.0) <= 1e-10


def test_derivative_against_flat_region_gauge():
    # density vanishes on [0, 0.5]: points inside the flat carry no
    # measure and are excluded, points beyond differentiate normally
    g = Gauge((0.0, 1.0), lambda t: max(0.0, 2.0 * (t - 0.5)),
              flats=((0.0, 0.5),), density_source="max(0, 2*(t - 0.5))")
    d = delta_derivative(lambda t: t, g, 0.25)
    assert d.point_class == "excluded"
    assert d.value is None
    assert d.samples_used == 0
    d = delta_derivative(lambda t: t, g, 0.75)
    assert d.point_class == "continuity"
    assert abs(d.value - 2.0) <= 1e-9


def test_kink_raises_with_side_diagnostics():
    # curvature moves each side's first quotients +-c + q h far from their
    # limit +-c, but the sides still disagree
    for f in (lambda t: abs(t - 0.5),
              lambda t: abs(t - 0.5) + 1e4 * (t - 0.5) ** 2,
              lambda t: 1e-3 * abs(t - 0.5) + 5.0 * (t - 0.5) ** 2):
        with pytest.raises(DerivativeError) as exc_info:
            delta_derivative(f, identity_gauge(), 0.5)
        err = exc_info.value
        assert err.point == 0.5
        assert set(err.diagnostics) == {"left", "right"}
        assert "disagree" in str(err)
    # at an atom the extrapolated f(x+) meets the same convergence test:
    # sin(1/(t - 0.5)) has no right limit at 0.5
    g = Gauge((0.0, 1.0), lambda t: 1.0, jumps=((0.5, 0.25),),
              density_source="1")
    with pytest.raises(DerivativeError, match=re.escape(
            "do not converge on the right side at x = 0.5")) as exc_info:
        delta_derivative(lambda t: math.sin(1.0 / max(t - 0.5, 1e-12)), g, 0.5)
    assert set(exc_info.value.diagnostics) == {"right"}


def test_a_right_limit_at_an_atom_must_settle_near_its_samples():
    # cos(8 (t - 0.6875)) takes one value at 0.75 and 0.625, the first two
    # points right of the atom, so their Richardson spread is 0; the
    # extrapolation 0.877 lies far from the last sample 0.0717, and f is
    # continuous at 0.5, where the jump quotient is 0, not 3.2273814408906794
    g = Gauge((0.0, 1.0), lambda t: 1.0, jumps=((0.5, 0.25),))
    f = lambda t: math.cos(8.0 * (t - 0.6875))  # noqa: E731
    with pytest.raises(DerivativeError, match=re.escape(
            "difference quotients do not converge on the right side at "
            "x = 0.5")) as exc_info:
        delta_derivative(f, g, 0.5)
    samples = exc_info.value.diagnostics["right"]
    assert set(exc_info.value.diagnostics) == {"right"} and len(samples) == 12
    assert samples[0] == samples[1] == f(0.75)
    # a right limit that settles keeps the extrapolation's bits
    d = delta_derivative(lambda t: t * t, g, 0.5)
    assert d.point_class == "jump" and abs(d.value) <= 1e-12


def test_a_steep_right_limit_at_an_atom_still_settles():
    # the samples of a linear f lie one last step from its right limit,
    # however far that step is in absolute terms: 100 (t - 0.5) reaches
    # 0.0122 at the nearest point, t - 50 on [0, 100] the same
    for g, f, x in (
            (Gauge((0.0, 1.0), lambda t: 1.0, jumps=((0.5, 0.25),)),
             lambda t: 100.0 * (t - 0.5), 0.5),
            (Gauge((0.0, 100.0), lambda t: 1.0, jumps=((50.0, 0.25),)),
             lambda t: t - 50.0, 50.0)):
        d = delta_derivative(f, g, x)
        assert (d.value, d.point_class, d.error_estimate, d.samples_used) \
            == (0.0, "jump", 0.0, 13)
    # a curved f: f(x+) - f(x) over the atom, to the estimate
    g = Gauge((0.0, 1.0), lambda t: 1.0, jumps=((0.5, 0.25),))
    d = delta_derivative(lambda t: math.exp(9.0 * t), g, 0.5)
    assert d.point_class == "jump" and abs(d.value) <= 1e-9


def test_a_small_f_is_held_to_its_own_scale_at_an_atom():
    # 0.01 cos(8 (t - 0.6875)) agrees at 0.75 and 0.625 as cos does; the
    # extrapolation 0.00878 lies 0.0081 from the nearest sample, inside
    # 1e-2 * (1 + |estimate|) but not 1e-2 of the samples' own scale
    g = Gauge((0.0, 1.0), lambda t: 1.0, jumps=((0.5, 0.25),))
    with pytest.raises(DerivativeError, match=re.escape(
            "difference quotients do not converge on the right side at "
            "x = 0.5")) as exc_info:
        delta_derivative(lambda t: 0.01 * math.cos(8.0 * (t - 0.6875)), g,
                         0.5)
    assert len(exc_info.value.diagnostics["right"]) == 12
    # limits that settle keep their value and error bits
    for f, error in ((lambda t: t * t, 0.0),
                     (lambda t: math.exp(9.0 * t), 2.0 ** -44),
                     (lambda t: math.sin(3.0 * t), 2.0 ** -51)):
        d = delta_derivative(f, g, 0.5)
        assert (d.value, d.point_class, d.error_estimate, d.samples_used) \
            == (0.0, "jump", error, 13)


@pytest.mark.parametrize("density, x, side", [
    ("2*t", 0.0, "right"), ("3*t^2", 0.0, "right"),
    ("3*(1 - t)^2", 1.0, "left")])
def test_quotients_that_diverge_have_no_limit(density, x, side):
    # t against t^2 at 0: the quotients 1/y are 2, 4, ..., 4096, whose
    # Richardson estimate 6 has spread 4 and lies 4 from the first of
    # them: an error far above 1e-2 of the scale 6 + 4
    g = Gauge.from_dict({"domain": [0, 1], "density": density})
    with pytest.raises(DerivativeError, match=re.escape(
            f"difference quotients do not converge on the {side} side")):
        delta_derivative(lambda t: t, g, x)


def test_a_side_has_at_most_one_point_per_richardson_divisor():
    # on [0, 1e300] the right side of 0.5 halves 5e299 about 1050 times
    # before the step is rounding; 2.0 ** j overflows past j = 1023
    g = Gauge((0.0, 1e300), lambda t: 1.0)
    d = delta_derivative(lambda t: t, g, 0.5, shrink_levels=2000)
    assert (d.value, d.point_class, d.samples_used) == \
        (1.0, "continuity", 1024 + 46)


def test_derivative_point_outside_domain():
    for x in (1.5, -1e-9, math.nan, math.inf):
        with pytest.raises(CalculusError, match=re.escape(
                f"x = {x!r} outside the domain [0.0, 1.0]")):
            delta_derivative(lambda t: t, identity_gauge(), x)
    # one sample per side can converge to nothing: refused outright, not
    # reported point by point as a violation
    for levels in (1, 0, -1):
        message = f"shrink_levels must be at least 2, got {levels}"
        for call in (lambda: delta_derivative(lambda t: t, identity_gauge(),
                                              0.5, shrink_levels=levels),
                     lambda: ftc_forward_check(lambda t: t, identity_gauge(),
                                               shrink_levels=levels)):
            with pytest.raises(CalculusError, match=message) as exc_info:
                call()
            assert not isinstance(exc_info.value, DerivativeError)


# ---------------------------------------------------------------------------
# derivatives at jump points
# ---------------------------------------------------------------------------

def test_jump_quotient_from_plain_callable():
    g = jump_gauge(size=2.0)
    f = lambda t: 3.0 if t > 0.5 else 0.0
    d = delta_derivative(f, g, 0.5)
    assert d.point_class == "jump"
    # (f(0.5+) - f(0.5)) / atom = (3 - 0) / 2
    assert d.value == 1.5
    assert d.error_estimate == 0.0


def test_jump_quotient_uses_right_limit_method_exactly():
    class StepWithLimit:
        def __call__(self, t):
            return 3.0 if t > 0.5 else 0.0

        def right_limit(self, t):
            return 3.0

    d = delta_derivative(StepWithLimit(), jump_gauge(size=2.0), 0.5)
    assert d.point_class == "jump"
    assert d.value == 1.5
    assert d.error_estimate == 0.0
    assert d.samples_used == 2


def test_gauge_against_itself_at_jump_is_exactly_one():
    g = mixed_gauge()
    for tau in (0.25, 0.75):
        d = delta_derivative(g, g, tau)
        assert d.point_class == "jump"
        assert d.value == 1.0
        assert d.error_estimate == 0.0


# ---------------------------------------------------------------------------
# pair derivatives (displaced numerator)
# ---------------------------------------------------------------------------

def test_pair_derivative_cubic_value_space():
    # value-space gauge g2(u) = u^3, so the quotient of f(t) = t at x
    # tends to the chain value 3 x^2
    value_gauge = Gauge((0.0, 1.0), lambda u: 3.0 * u * u,
                        density_source="3*t^2")
    d = pair_derivative(lambda t: t, identity_gauge(),
                        Stieltjes(value_gauge), 0.5)
    assert d.point_class == "continuity"
    assert abs(d.value - 0.75) <= 1e-9


def test_pair_derivative_difference_space_matches_plain_derivative():
    # the plain difference is the displacement delta(x, y) = y - x, so
    # every point class must come out bit for bit the same
    diff_space = Smooth((-100.0, 100.0), parse("y - x", {"x", "y"}))
    flat = Gauge((0.0, 1.0), lambda t: 0.0 if 0.4 < t < 0.6 else 1.0 + t,
                 jumps=((0.25, 0.5), (0.75, 1.0)), flats=((0.4, 0.6),))
    classes = set()
    for g, points in ((identity_gauge(), (0.2, 0.4, 0.7)),
                      (flat, (0.1, 0.25, 0.5, 0.6, 0.75, 0.9))):
        # t^2 reaches jumps by extrapolation, the running integral exactly
        for f in (lambda t: t * t,
                  CumulativeStieltjesIntegral(math.cos, g)):
            for x in points:
                paired = pair_derivative(f, g, diff_space, x)
                plain = delta_derivative(f, g, x)
                assert paired.to_dict() == plain.to_dict()
                classes.add(plain.point_class)
    assert classes == {"continuity", "jump", "excluded"}


def test_pair_derivative_constant_function_is_zero():
    value_gauge = Gauge((0.0, 1.0), lambda u: 3.0 * u * u,
                        density_source="3*t^2")
    d = pair_derivative(lambda t: 0.7, identity_gauge(),
                        Stieltjes(value_gauge), 0.3)
    assert d.value == 0.0


def test_pair_derivative_jump_point():
    diff_space = Smooth((0.0, 4.0), parse("y - x", {"x", "y"}))
    f = lambda t: 3.0 if t > 0.5 else 0.0
    d = pair_derivative(f, jump_gauge(size=2.0), diff_space, 0.5)
    assert d.point_class == "jump"
    assert d.value == 1.5


# ---------------------------------------------------------------------------
# Stieltjes integration
# ---------------------------------------------------------------------------

def test_integral_of_one_is_total_mass():
    assert abs(stieltjes_integral(lambda t: 1.0, identity_gauge(), 1.0)
               - 1.0) <= 1e-12
    # density mass 2 plus atoms 0.5 and 1.0
    assert abs(stieltjes_integral(lambda t: 1.0, mixed_gauge(), 1.0)
               - 3.5) <= 1e-10


def test_integral_is_half_open_at_the_upper_limit():
    g = Gauge((0.0, 1.0), lambda t: 0.0, jumps=((0.5, 1.0),),
              density_source="0")
    f = lambda t: t
    assert stieltjes_integral(f, g, 0.5) == 0.0
    assert stieltjes_integral(f, g, 0.75) == 0.5
    assert stieltjes_integral(f, g, 1.0) == 0.5


def test_cumulative_integral_right_limit_includes_the_atom():
    g = Gauge((0.0, 1.0), lambda t: 0.0, jumps=((0.5, 1.0),),
              density_source="0")
    F = CumulativeStieltjesIntegral(lambda t: t, g)
    assert F(0.5) == 0.0
    assert F.right_limit(0.5) == 0.5
    assert F.right_limit(0.25) == F(0.25)


def test_integral_linearity_sampled():
    g = mixed_gauge()
    f1 = lambda t: t
    f2 = math.cos
    combo = lambda t: 2.0 * f1(t) - 3.0 * f2(t)
    F1 = CumulativeStieltjesIntegral(f1, g)
    F2 = CumulativeStieltjesIntegral(f2, g)
    Fc = CumulativeStieltjesIntegral(combo, g)
    rng = random.Random(17)
    for _ in range(40):
        u = rng.uniform(0.0, 1.0)
        assert abs(Fc(u) - (2.0 * F1(u) - 3.0 * F2(u))) <= 1e-9


def test_integral_monotone_for_nonnegative_integrand():
    g = mixed_gauge()
    F = CumulativeStieltjesIntegral(lambda t: 0.5 + t * t, g)
    uppers = sorted(random.Random(23).uniform(0.0, 1.0) for _ in range(50))
    values = [F(u) for u in uppers]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def test_a_kinked_integrand_seeds_its_kinks():
    # a spike of mass 5 on (0.01, 0.02) that no node of the first QK21
    # panel [0, 0.6] falls in: f's own kinks seed the running integral
    spike = "1 + 200000*max(0, 0.005 - abs(t - 0.015))"
    f = as_function(parse(spike, {"t"}), "t")
    F = CumulativeStieltjesIntegral(f, identity_gauge())
    assert F._seeds == [0.009999999999999998, 0.015, 0.02]
    assert abs(F(0.6) - 5.6) <= 1e-9


def test_an_integrand_that_raises_raises_alike_through_the_product():
    # f and the density run as one compiled product; a row it cannot
    # settle makes the two calls, so the error is f's own
    f = as_function(parse("ln(t - 0.5)", {"t"}), "t")
    g = Gauge.from_dict({"domain": [0, 1], "density": "2*t + 1"})
    outcomes = []
    for integrand in (f, lambda t: f(t)):
        with pytest.raises(Exception) as info:
            stieltjes_integral(integrand, g, 1.0)
        outcomes.append((info.type, str(info.value)))
    assert outcomes[0] == outcomes[1] == (
        DomainError, "ln of a non-positive number in 'ln(t - 0.5)'")


def test_integrand_infinite_at_jump_rejected():
    g = mixed_gauge()
    f = lambda t: math.inf if t == 0.25 else t
    with pytest.raises(CalculusError):
        CumulativeStieltjesIntegral(f, g)


# ---------------------------------------------------------------------------
# path integrals against a moving base point
# ---------------------------------------------------------------------------

def test_path_integral_along_diagonal_matches_extracted_gauge():
    spec = make_builtin("exponential")
    g = gauge_from_smooth(spec)
    path = MeasurePath(alpha=lambda t: t, description="diagonal")
    f = lambda t: t * t
    lhs = path_integral(f, path, spec, 1.0)
    rhs = stieltjes_integral(f, g, 1.0)
    assert abs(lhs - rhs) <= 1e-9
    # integral of t^2 (2t + 1) over [0, 1] is 5/6
    assert abs(lhs - 5.0 / 6.0) <= 1e-9


def test_path_integral_fixed_base_point_closed_form():
    # alpha constant at 0: the density is d2(0, t) = 2 t exp(t^2) + exp(-t),
    # whose integral over [0, 1] is (e - 1) + (1 - 1/e) = e - 1/e
    spec = make_builtin("exponential")
    path = MeasurePath(alpha=lambda t: 0.0)
    value = path_integral(lambda t: 1.0, path, spec, 1.0)
    assert abs(value - E_MINUS_EINV) <= 1e-10
    assert path.description == ""


def test_path_integral_requires_smooth_spec():
    # the smooth-only rule and its message belong to displacement
    path = MeasurePath(alpha=lambda t: t)
    with pytest.raises(DisplacementError, match="^path_integral requires a "
                       "smooth variant, got 'stieltjes'$"):
        path_integral(lambda t: 1.0, path, make_builtin("identity_gauge"), 1.0)


def test_unconverged_quadrature_is_refused_with_each_modules_error():
    # 200 intervals cannot resolve sin(1e4 t) on [0, 1]; the partial sum
    # was returned as the value before
    f = lambda t: math.sin(10000.0 * t)
    with pytest.raises(GaugeError, match=r"^quadrature over \[0\.0, 1\.0\] "
                       "did not converge"):
        stieltjes_integral(f, Gauge.identity(), 1.0)
    path = MeasurePath(alpha=lambda t: t)
    with pytest.raises(CalculusError, match=r"^quadrature over \[0\.0, 1\.0\] "
                       "did not converge"):
        path_integral(f, path, make_builtin("exponential"), 1.0)


def test_path_integral_refuses_a_negative_tolerance():
    path = MeasurePath(alpha=lambda t: t)
    with pytest.raises(CalculusError, match="^quad_tol must be finite and "
                       "non-negative, got -1.0$"):
        path_integral(lambda t: t, path, make_builtin("exponential"), 1.0,
                      quad_tol=-1.0)


def test_path_integral_upper_outside_domain():
    path = MeasurePath(alpha=lambda t: t)
    for upper in (2.0, math.nan, -math.inf):
        with pytest.raises(CalculusError, match=re.escape(
                f"upper = {upper!r} outside the domain [0.0, 1.0]")):
            path_integral(lambda t: 1.0, path, make_builtin("exponential"),
                          upper)


@pytest.mark.parametrize("end, past", [(1.0, 1.0 + 5e-13), (0.0, -5e-13)])
def test_path_integral_snaps_upper_just_past_the_end(end, past):
    # within SNAP_RADIUS outside the domain the upper limit is the end point
    spec = make_builtin("exponential")
    path = MeasurePath(alpha=lambda t: t)
    at_end = path_integral(lambda t: 1.0, path, spec, end)
    assert path_integral(lambda t: 1.0, path, spec, past).hex() == at_end.hex()
    with pytest.raises(CalculusError):
        path_integral(lambda t: 1.0, path, spec, end + 10.0 * (past - end))


# ---------------------------------------------------------------------------
# forward reconstruction: differentiate the running integral
# ---------------------------------------------------------------------------

def test_ftc_forward_identity_integrand():
    g = gauge_from_smooth(make_builtin("exponential"))
    report = ftc_forward_check(lambda t: t, g)
    assert report.max_error <= 1e-4
    assert report.violations == ()
    assert report.checked == 101


def test_ftc_forward_constant_on_mixed_gauge():
    report = ftc_forward_check(lambda t: 1.0, mixed_gauge())
    assert report.max_error <= 1e-9
    assert report.violations == ()


def test_ftc_forward_recovers_integrand_value_at_jump():
    # grid 101 places a candidate exactly on the jump at 0.5, where the
    # derivative is the stored-atom quotient and reproduces f exactly
    g = Gauge((0.0, 1.0), lambda t: 1.0, jumps=((0.5, 0.25),),
              density_source="1")
    f = lambda t: 7.0 if t == 0.5 else 1.0
    report = ftc_forward_check(f, g)
    assert report.max_error <= 1e-9
    assert report.violations == ()


def test_ftc_forward_guards_declared_breakpoints():
    heaviside = lambda t: 1.0 if t >= 0.6 else 0.0
    report = ftc_forward_check(heaviside, identity_gauge(), grid=4,
                               f_breaks=(0.6,))
    assert any(abs(p - 0.6) <= 1e-9 for p in report.excluded)
    assert report.checked == 3
    assert report.max_error <= 1e-9


def test_ftc_forward_undeclared_breakpoint_is_a_violation():
    heaviside = lambda t: 1.0 if t >= 0.6 else 0.0
    report = ftc_forward_check(heaviside, identity_gauge(), grid=4)
    assert any(abs(v["point"] - 0.6) <= 1e-9 for v in report.violations)


def test_ftc_report_to_dict():
    report = ftc_forward_check(lambda t: 1.0, identity_gauge(), grid=9)
    payload = report.to_dict()
    assert set(payload) == {"max_error", "worst_point", "checked",
                            "excluded", "violations"}
    assert payload["checked"] == 9


@pytest.mark.parametrize("grid", [0, -1, -2])
def test_ftc_forward_rejects_a_grid_without_points(grid):
    with pytest.raises(CalculusError, match="grid must be at least 1"):
        ftc_forward_check(lambda t: t, identity_gauge(), grid=grid)
    assert ftc_forward_check(lambda t: t, identity_gauge(), grid=1).checked == 1


# ---------------------------------------------------------------------------
# second-form reconstruction: rebuild F from its derivative
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid", [1, 0, -1])
def test_ftc2_rejects_a_comparison_grid_that_stops_at_a(grid):
    # with atoms the jump knots alone would give two derivative samples,
    # and a grid of one compares only at a, where the rebuild is exact
    g = mixed_gauge()
    with pytest.raises(CalculusError, match="grid must be at least 2"):
        ftc2_check(g, g, grid=grid)

def test_ftc2_gauge_rebuilds_itself():
    g = mixed_gauge()
    report = ftc2_check(g, g, grid=51)
    assert report.max_error <= 1e-6
    assert report.violations == ()


def test_ftc2_smooth_function_on_identity():
    report = ftc2_check(lambda t: t * t, identity_gauge(), grid=51)
    assert report.max_error <= 1e-3


def test_ftc2_flags_function_with_foreign_jump():
    # F jumps at a point the gauge gives no mass: not reconstructible,
    # reported through violations and a large deviation
    H = lambda t: 1.0 if t >= 0.37 else 0.0
    report = ftc2_check(H, identity_gauge(), grid=101)
    assert report.max_error > 0.5
    assert len(report.violations) >= 1


def _undefined_left_of_half(t):
    # oscillates right of 0.5 and is undefined at the left points nearest
    # it, 0.5 - 0.25 / 2**k for k >= 9
    if 0.4995 < t < 0.5:
        raise ValueError("F is undefined here")
    return (t - 0.5) * math.sin(1.0 / (t - 0.5)) if t > 0.5 else 0.0


def test_ftc2_takes_the_right_side_before_it_samples_the_left():
    # the right side's refusal is a violation, and the left side is never
    # sampled
    report = ftc2_check(_undefined_left_of_half, identity_gauge())
    assert report.violations[0] == {
        "point": 0.5,
        "reason": "difference quotients do not converge on the right side "
                  "at x = 0.5"}


def test_delta_derivative_takes_the_right_side_before_it_samples_the_left():
    # two slopes sample a side as they take its limit, as the quotient
    # does: the right side's refusal is raised, not F's error on the left
    with pytest.raises(DerivativeError, match=(
            r"^difference quotients do not converge on the right side "
            r"at x = 0\.5$")) as info:
        delta_derivative(_undefined_left_of_half, identity_gauge(), 0.5)
    assert list(info.value.diagnostics) == ["right"]


def test_running_integral_snaps_points_just_outside_the_domain():
    g = Gauge((0.0, 1.0), lambda t: 1.0, jumps=((0.0, 0.25), (1.0, 0.5)),
              density_source="1")
    F = CumulativeStieltjesIntegral(lambda t: t + 1.0, g)
    assert F(1.0 + 1e-13) == F(1.0)
    assert stieltjes_integral(lambda t: t + 1.0, g, 1.0 + 1e-13) == F(1.0)
    assert F.right_limit(0.0 - 1e-13) == F.right_limit(0.0) == 0.25
    assert F.right_limit(1.0 + 1e-13) == F.right_limit(1.0) == F(1.0) + 1.0
    for t in (1.0 + 1e-9, math.nan):
        with pytest.raises(GaugeError):
            F(t)
        with pytest.raises(GaugeError):
            F.right_limit(t)


# ---------------------------------------------------------------------------
# which grid points the harnesses exclude, compare and flag
# ---------------------------------------------------------------------------

def flat_atom_gauge():
    return Gauge((0.0, 1.0), lambda t: 0.0 if 0.4 < t < 0.6 else 1.0,
                 jumps=((0.25, 0.5),), flats=((0.4, 0.6),))


FLAT_EXCLUDED = (0.4, 0.45, 0.5, 0.55, 0.6000000000000001)
F_BREAK = 0.6 + 5e-7     # within the 1e-6 guard of the grid point at 0.6


def broken(t):
    return t if t < F_BREAK else 2.0 * t


def stepped(t):
    return t if t < 0.8 else t + 1.0


@pytest.mark.parametrize("f, checked, violations", [
    (broken, 13, ()),
    (stepped, 12, ({"point": 0.8, "reason": "left and right difference "
                    "quotients disagree at x = 0.8"},)),
])
def test_ftc_forward_exclusions_on_a_flat_and_an_atom(f, checked, violations):
    # recorded before the engine became the only classifier: the flat's
    # interior and end points come from the point class, 0.9 from the
    # guard around the declared breakpoint 0.9 + 1e-7
    report = ftc_forward_check(f, flat_atom_gauge(), grid=19,
                               f_breaks=(F_BREAK, 0.9 + 1e-7))
    assert report.excluded == FLAT_EXCLUDED + (0.9,)
    assert report.checked == checked
    assert report.violations == violations


def test_ftc_forward_keeps_guarded_and_flat_points_in_grid_order():
    # the guard holds back the grid point by 0.3 before the flat's points
    # and 0.9 after them
    report = ftc_forward_check(lambda t: t, flat_atom_gauge(), grid=19,
                               f_breaks=(0.3 + 1e-7, 0.9 + 1e-7))
    assert report.excluded == (0.30000000000000004,) + FLAT_EXCLUDED + (0.9,)
    assert report.checked == 12
    assert report.violations == ()


@pytest.mark.parametrize("F, checked, violations", [
    (lambda t: abs(t - 0.7), 14, (
        {"point": 0.7000000000000001, "reason": "left and right difference "
         "quotients disagree at x = 0.7000000000000001"},)),
    ("gauge", 15, ()),
])
def test_ftc2_exclusions_on_a_flat_and_an_atom(F, checked, violations):
    g = flat_atom_gauge()
    report = ftc2_check(g if F == "gauge" else F, g, grid=19)
    assert report.excluded == FLAT_EXCLUDED
    assert report.checked == checked
    assert report.violations == violations
