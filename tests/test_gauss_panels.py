"""Gauss-Legendre panels by degree, and the quotient's reads of a table.

A running integral of an affine f against a piecewise-affine density
integrates a quadratic between its seeds, and takes the 2-point
Gauss-Legendre rule there, which is exact for it: against random
densities with kinks, atoms and flats, declared or not, every value must
match the closed form to a few ulps of the integral's scale, computed in
exact rational arithmetic, and no QK21 panel may run.  Every coefficient,
kink and atom is a dyadic rational, so the expressions' floats and the
closed form hold the same numbers.

The quotient reads each side in one walk of g's table, and of a running
integral's, with the plain difference without a per-sample lambda,
quotients filtered once and a Richardson row updated in place; a copy of
the earlier engine, which queries a point at a time, must give, bit for
bit, the same results, errors and tables.  A point already in a table is
answered from it, under the lock, with its first bits.
"""

import math
import random
import sys
import threading
from fractions import Fraction
from typing import Optional
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import displace.gauge as gauge_mod  # noqa: E402
from displace import calculus  # noqa: E402
from displace.calculus import (CumulativeStieltjesIntegral,  # noqa: E402
                               DerivativeError, DerivativeResult, _disagree,
                               _limit, _side_points, _two_slopes, ftc2_check,
                               stieltjes_integral)
from displace.expr import as_function, parse  # noqa: E402
from displace.gauge import (CumulativeQuadrature, Gauge,  # noqa: E402
                            GaugeError, _check_count, _snap)

EPS = 2.0 ** -52


def _shifted(k: float) -> str:
    """The text of t - k."""
    return f"t - {k!r}" if k >= 0 else f"t + {-k!r}"


@st.composite
def affine_cases(draw):
    """(f, gauge, f's and the density's rational forms, queries)."""
    a = draw(st.sampled_from([-1.0, 0.0, 0.5]))
    b = a + draw(st.sampled_from([1.0, 2.0]))
    grid = st.integers(0, int((b - a) * 1024)).map(lambda n: a + n / 1024)
    weight = st.integers(1, 256).map(lambda n: n / 64)
    terms = []      # (text, exact value as a function of a Fraction)
    has_flat = draw(st.booleans())
    if has_flat:
        n = draw(st.integers(1, 128))
        w = n / 1024
        m = a + draw(st.integers(n, int((b - a) * 1024) - n)) / 1024
        lo, hi = m - w, m + w
        c = draw(weight)
        terms.append((f"{c!r}*max(0, abs({_shifted(m)}) - {w!r})",
                      lambda t, c=c, m=m, w=w: c * max(0, abs(t - Fraction(m))
                                                       - Fraction(w))))
    else:
        c0, c1 = draw(weight), draw(weight)
        terms.append((f"{c0!r} + {c1!r}*({_shifted(a)})",
                      lambda t, c0=c0, c1=c1: c0 + c1 * (t - Fraction(a))))
    for kind, k, c in draw(st.lists(st.tuples(
            st.sampled_from(["right", "left", "vee"]), grid, weight),
            max_size=4)):
        if kind == "right" and not (has_flat and k < hi):
            terms.append((f"{c!r}*max(0, {_shifted(k)})",
                          lambda t, c=c, k=k: c * max(0, t - Fraction(k))))
        elif kind == "left" and not (has_flat and k > lo):
            terms.append((f"{c!r}*max(0, {k!r} - t)",
                          lambda t, c=c, k=k: c * max(0, Fraction(k) - t)))
        elif kind == "vee" and not has_flat:
            terms.append((f"{c!r}*abs({_shifted(k)})",
                          lambda t, c=c, k=k: c * abs(t - Fraction(k))))
    taus = sorted(set(draw(st.lists(grid, max_size=4))))
    if has_flat:
        taus = [tau for tau in taus if not lo < tau < hi]
    jumps = [(tau, draw(weight)) for tau in taus]
    flats = [(lo, hi)] if has_flat and draw(st.booleans()) else []
    g = Gauge.from_dict({"domain": [a, b],
                         "density": " + ".join(text for text, _ in terms),
                         "jumps": jumps, "flats": flats})
    c0 = draw(st.integers(-256, 256)) / 64
    c1 = draw(st.integers(-256, 256)) / 64
    f = as_function(parse(f"{c0!r} + {c1!r}*t", {"t"}), "t")
    knots = {a, b, *(tau for tau, _ in jumps)}
    queries = draw(st.lists(st.one_of(
        st.floats(a, b), st.sampled_from(sorted(knots)), grid),
        min_size=1, max_size=12))
    exact_f = lambda t: Fraction(c0) + Fraction(c1) * t  # noqa: E731
    exact_rho = lambda t: sum(fn(t) for _, fn in terms)  # noqa: E731
    return f, g, exact_f, exact_rho, queries


def _closed_form(g, exact_f, exact_rho, u: float) -> Fraction:
    """The integral of exact_f against g over [a, u), exactly: exact_rho
    is affine between the density's kinks, so exact_f * exact_rho is a
    quadratic there, integrated by Simpson's rule, which is exact for it."""
    a, _ = g.domain
    u = Fraction(u)
    cuts = sorted({Fraction(a), u} | {Fraction(k) for k in g._kinks
                                      if a < k < u})
    total = Fraction(0)
    for p, q in zip(cuts, cuts[1:]):
        fr = lambda t: exact_f(t) * exact_rho(t)  # noqa: E731
        total += (q - p) / 6 * (fr(p) + 4 * fr((p + q) / 2) + fr(q))
    return total + sum(exact_f(Fraction(tau)) * Fraction(size)
                       for tau, size in g.jumps if tau < u)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=affine_cases())
def test_an_affine_f_against_a_piecewise_affine_density_is_exact(case):
    f, g, exact_f, exact_rho, queries = case
    F = CumulativeStieltjesIntegral(f, g)
    assert (g._gauss, F._gauss) == (1, 2)
    a, b = g.domain
    one = lambda t: Fraction(1)  # noqa: E731
    # the largest |f| times the total mass bounds every partial integral
    scale = float(max(abs(exact_f(Fraction(a))), abs(exact_f(Fraction(b))))
                  * _closed_form(g, one, exact_rho, b)
                  + sum(size for _, size in g.jumps))
    mass = float(_closed_form(g, one, exact_rho, b) + sum(
        size for _, size in g.jumps))
    with mock.patch.object(gauge_mod, "_qk21",
                           wraps=gauge_mod._qk21) as spy:
        for u in queries:
            got = F(u)
            want = _closed_form(g, exact_f, exact_rho, u)
            assert abs(got - want) <= 4 * EPS * scale, (u, got, float(want))
            got = g(u)
            want = _closed_form(g, one, exact_rho, u)
            assert abs(got - want) <= 4 * EPS * mass, (u, got, float(want))
    assert spy.call_count == 0


def test_t_against_two_t_plus_one_is_the_double_nearest_seven_sixths():
    tt = Gauge.from_dict({"domain": [0, 1], "density": "2*t + 1"})
    t = as_function(parse("t", {"t"}), "t")
    assert stieltjes_integral(t, tt, 1.0) == float(Fraction(7, 6))


def test_a_rebuild_against_a_piecewise_affine_gauge_runs_no_qk21_panel():
    # ftc2's interpolant is affine between its knots, which its running
    # integral seeds: the rebuild takes 2-point panels, and the gauge's
    # own queries midpoints
    g = Gauge.from_dict({"domain": [0, 1],
                         "density": "1 + 2*max(0, t - 0.3) + abs(t - 0.7)",
                         "jumps": [[0.5, 0.25]]})
    with mock.patch.object(gauge_mod, "_qk21",
                           wraps=gauge_mod._qk21) as spy:
        report = ftc2_check(g, g, grid=11)
    assert spy.call_count == 0
    assert report.max_error <= 1e-12 and not report.violations


def test_an_f_that_is_not_affine_keeps_its_qk21_panels():
    g = Gauge.from_dict({"domain": [0, 1], "density": "1 + t"})
    smooth = Gauge.from_dict({"domain": [0, 1], "density": "exp(t)"})
    t = as_function(parse("t", {"t"}), "t")
    square = as_function(parse("t^2", {"t"}), "t")
    assert CumulativeStieltjesIntegral(square, g)._gauss is None
    assert CumulativeStieltjesIntegral(t, smooth)._gauss is None
    assert CumulativeStieltjesIntegral(lambda s: s, g)._gauss is None
    assert CumulativeStieltjesIntegral(t, g)._gauss == 2


def test_a_non_finite_two_point_panel_is_refused():
    g = Gauge.from_dict({"domain": [0, 2], "density": "1"})
    huge = as_function(parse("1" + "0" * 308 + "*t", {"t"}), "t")
    F = CumulativeStieltjesIntegral(huge, g)
    assert F._gauss == 2
    # each node is finite (0.42e308 and 1.58e308); their sum is not
    with pytest.raises(GaugeError, match=r"^non-finite integral over "
                                         r"\[0\.0, 2\.0\]$"):
        F(2.0)


# ---------------------------------------------------------------------------
# the quotient's reads, against a copy of the earlier engine
# ---------------------------------------------------------------------------

def _parent_richardson(values):
    n = len(values)
    above = list(values[:1])
    diag = above[:]
    for i in range(1, n):
        row = [values[i]]
        prev = row[0]
        for j in range(1, i + 1):
            prev = prev + (prev - above[j - 1]) / calculus._RICHARDSON_DIV[j]
            row.append(prev)
        diag.append(prev)
        above = row
    if n == 1:
        return diag[0], math.inf
    best_i = 1
    best_spread = abs(diag[1] - diag[0])
    for i in range(2, n):
        spread = abs(diag[i] - diag[i - 1])
        if spread <= best_spread:
            best_spread = spread
            best_i = i
    return diag[best_i], best_spread


def _parent_side_limit(samples, key, x, diagnostics):
    values = [v for v in samples if v is not None]
    diagnostics[key] = values
    if not values:
        raise DerivativeError(
            "gauge increments vanish on one side", x, diagnostics)
    limit = _limit(values)
    if limit is None:
        raise DerivativeError(
            f"difference quotients do not converge on the {key} side",
            x, diagnostics)
    return limit


def _parent_derivative(f, g, displaced, x, shrink_levels, dsets, avoid,
                       quotient=False) -> DerivativeResult:
    _check_count(shrink_levels, 2, "shrink_levels", calculus.CalculusError)
    if dsets is None:
        dsets = g.distinguished_sets()
    a, b = g.domain
    x = _snap(x, a, b, "x", calculus.CalculusError)

    tau = dsets.jump_near(x)
    if tau is not None and tau < b:
        atom = g.jump_at(tau)
        fx = float(f(tau))
        if hasattr(f, "right_limit"):
            fplus, error, used = float(f.right_limit(tau)), 0.0, 1
        else:
            ys = _side_points(tau, +1, g, dsets, avoid, shrink_levels)
            if not ys:
                raise DerivativeError("no room to the right of the jump", tau)
            fplus, error = _parent_side_limit([float(f(y)) for y in ys],
                                              "right", tau, {})
            used = len(ys)
        return DerivativeResult(value=displaced(fx, fplus) / atom,
                                point_class="jump",
                                error_estimate=error / atom,
                                samples_used=used + 1)

    if dsets.excludes(x):
        return DerivativeResult(value=None, point_class="excluded",
                                error_estimate=0.0, samples_used=0)

    quotient = quotient or isinstance(f, CumulativeQuadrature)
    fx = float(f(x))
    gx = g(x)
    sides = []
    for key, direction in (("right", +1), ("left", -1)):
        ys = _side_points(x, direction, g, dsets, avoid, shrink_levels)
        if ys:
            sides.append((key, ys))
            if not quotient:
                g(ys[0])
    diagnostics: dict = {}
    if not sides:
        raise DerivativeError("no side of x admits difference quotients",
                              x, diagnostics)
    nums: list = []
    limits: list = []
    if not quotient:
        for _, ys in sides:
            nums.append([displaced(fx, float(f(y))) for y in ys])
            limits.append(_two_slopes(nums[-1], ys, x, g.density))
            if limits[-1] is None:
                break
    if not limits or None in limits or _disagree(limits):
        limits = []
        for i, (key, ys) in enumerate(sides):
            num = (nums[i] if i < len(nums)
                   else [displaced(fx, float(f(y))) for y in ys])
            den = [g(y) - gx for y in ys]
            limits.append(_parent_side_limit(
                [n / d if d != 0.0 else None for n, d in zip(num, den)],
                key, x, diagnostics))
        if _disagree(limits):
            raise DerivativeError(
                "left and right difference quotients disagree", x, diagnostics)
    if len(limits) == 2:
        (lr, er), (ll, el) = limits
        value = 0.5 * (lr + ll)
        error = max(er, el, 0.5 * abs(lr - ll))
    else:
        (value, error), = limits
    return DerivativeResult(value=value, point_class="continuity",
                            error_estimate=error,
                            samples_used=sum(len(ys) for _, ys in sides))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_the_richardson_row_in_place_is_the_parents_tableau(values):
    assert repr(calculus._richardson(values)) == repr(
        _parent_richardson(values))


DENSITIES = ["1 + t", "2*max(0, abs(t - 0.5) - 0.1)", "exp(t)",
             "3*(t - 0.5)^2", "1 + 2*max(0, t - 0.3)"]
INTEGRANDS = ["t", "t^2", "sin(3*t)", "abs(t - 0.45)", "sqrt(t - 0.2)",
              "1 + 0*t"]


def _world(density, jumps, flats, f_source, kind):
    """A gauge and the f to differentiate against it: an expression, its
    running integral against the gauge, or the gauge itself."""
    g = Gauge.from_dict({"domain": [0, 1], "density": density,
                         "jumps": jumps, "flats": flats})
    f = as_function(parse(f_source, {"t"}), "t")
    if kind == "running":
        f = CumulativeStieltjesIntegral(f, g)
    elif kind == "gauge":
        f = g
    return g, f


def _outcome(run) -> tuple:
    try:
        return ("ok", repr(run()))
    except Exception as exc:
        return (type(exc).__name__, str(exc),
                repr(getattr(exc, "diagnostics", None)))


def _table(q: Optional[CumulativeQuadrature]) -> list:
    if not isinstance(q, CumulativeQuadrature):
        return []
    return [t.hex() for t in q._ts] + [v.hex() for v in q._vals]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(density=st.sampled_from(DENSITIES),
       f_source=st.sampled_from(INTEGRANDS),
       kind=st.sampled_from(["plain", "running", "gauge"]),
       atoms=st.lists(st.sampled_from([0.25, 0.5, 0.8, 1.0]), max_size=2,
                      unique=True),
       flat=st.booleans(), quotient=st.booleans(),
       levels=st.sampled_from([2, 5, 12]),
       xs=st.lists(st.one_of(st.floats(0.0, 1.0),
                             st.sampled_from([0.0, 0.25, 0.4, 0.5, 0.6,
                                              0.8, 1.0])),
                   min_size=1, max_size=6))
def test_the_quotient_reads_keep_the_parents_bits(density, f_source, kind,
                                                  atoms, flat, quotient,
                                                  levels, xs):
    jumps = [[tau, 0.25] for tau in sorted(atoms)
             if not (flat and 0.4 < tau < 0.6)]
    flats = [[0.4, 0.6]] if flat else []
    g, f = _world(density, jumps, flats, f_source, kind)
    g0, f0 = _world(density, jumps, flats, f_source, kind)
    got, want = [], []
    for x in xs:
        got.append(_outcome(lambda: calculus._derivative(
            f, g, calculus._difference, x, levels, None, (), quotient)))
        with mock.patch.object(calculus, "_richardson", _parent_richardson):
            want.append(_outcome(lambda: _parent_derivative(
                f0, g0, lambda u, v: v - u, x, levels, None, (), quotient)))
    assert got == want
    assert _table(g) == _table(g0)
    assert _table(f) == _table(f0)


# ---------------------------------------------------------------------------
# a point already in the table
# ---------------------------------------------------------------------------

def _answers(q, t):
    try:
        return q(t).hex()
    except GaugeError as exc:
        return str(exc)


def test_a_point_in_the_table_is_answered_as_the_lock_path_answers_it():
    g = Gauge.from_dict({"domain": [0, 1], "density": "1 + abs(t - 0.3)",
                         "jumps": [[0.0, 0.5], [0.5, 0.25], [1.0, 0.125]]})
    rng = random.Random(7)
    points = [0.0, 0.5, 1.0] + [rng.random() for _ in range(20)]
    first = {}
    for t in points + points[::-1] + points:
        got = _answers(g, t)
        assert first.setdefault(t, got) == got, t
    # the seed 0.3, a kink that no query asked for, is in the table too
    assert g._ts == sorted(set(points) | {0.3})


def test_a_snapped_end_point_is_answered_as_the_end_point():
    g = Gauge.from_dict({"domain": [0, 1], "density": "2*t + 1",
                         "jumps": [[0.0, 0.5], [1.0, 0.25]]})
    for t, end in ((1.0 + 5e-13, 1.0), (-5e-13, 0.0), (1.0 + 1e-12, 1.0),
                   (-1e-12, 0.0)):
        assert _answers(g, t) == _answers(g, end), t
    # the atom at 1 counts only right of it, and there is no right of it
    assert g(1.0 + 5e-13) == g(1.0) == 2.5
    assert g(-5e-13) == g(0.0) == 0.0
    assert g._ts == [0.0, 1.0]


def test_a_refused_seed_is_refused_again_at_every_query():
    # the kinks 0.01, 0.015 and 0.02 seed the table; the first integrates,
    # the second is refused, and the table goes back to [0]: the point
    # 0.01, integrated before the refusal, is refused with the rest
    g = Gauge.from_dict({
        "domain": [0, 1],
        "density": "1 - 200000*max(0, 0.005 - abs(t - 0.015))"})
    first = g._seeds[0]
    for t in (0.5, first, 0.5, first, 0.0):
        assert _answers(g, t).startswith("density integrates to -2.495"), t
        assert g._ts == [0.0]


def test_threads_racing_to_a_refused_seed_are_all_refused():
    # while one thread integrates the seeds, under the lock, the others
    # wait for it: the seed 0.01, integrated before the refusal of the
    # next, is gone from the table before they read it
    data = {"domain": [0, 1],
            "density": "1 - 200000*max(0, 0.005 - abs(t - 0.015))"}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = Gauge.from_dict(data)
            points = [g._seeds[0], 0.5, 0.0] * 20
            start = threading.Barrier(4, timeout=30)
            got = {}

            def query(k):
                start.wait()
                got[k] = {_answers(g, t)[:28] for t in points}

            workers = [threading.Thread(target=query, args=(k,))
                       for k in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers)
            assert all(got[k] == {"density integrates to -2.495"}
                       for k in range(4)), got
    finally:
        sys.setswitchinterval(switch)
