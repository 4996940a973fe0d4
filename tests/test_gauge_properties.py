"""Property tests of the half-open rule, the end-point snap and JSON.

Random gauges carry atoms (also at either end point) and a flat; random
query sequences, taken in random order, include the exact end points,
the atom positions and points within SNAP_RADIUS outside the domain.
The table a gauge seeds at its first query must be, bit for bit, the
one seeded before any query.  The gauge must be nondecreasing, must
give every query exactly the value of the point it snaps to, and must
agree bit for bit with the running Stieltjes integral of f = 1 against
it, which is the same half-open measure reached through
CumulativeStieltjesIntegral.  A gauge read back from its JSON form
must give the same values, bit for bit, and so must a displacement spec
of any kind.  Interval measures queried in random order are
nonnegative, grow with the right end and add up over adjacent
intervals.  The grids the package builds without numpy must be numpy's
grids, bit for bit.  The flats of a piecewise-affine density, declared
or not, are its exact zero pieces.  A running integral whose integrand
and density are both expressions integrates one compiled product, and
must match, value, error and table, a twin with the same panel rule that
calls the two per node.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from displace.calculus import (CumulativeStieltjesIntegral,  # noqa: E402
                               delta_derivative)
from displace.displacement import (  # noqa: E402
    Angular, FiniteGraph, Smooth, Stieltjes, spec_from_dict, spec_to_dict)
from displace.expr import as_function, parse  # noqa: E402
from displace.gauge import (SNAP_RADIUS, CumulativeQuadrature,  # noqa: E402
                            Gauge, _linspace)
from displace.serialize import dumps  # noqa: E402

unit = st.floats(0.0, 1.0)


@st.composite
def gauges_and_queries(draw):
    a = draw(st.sampled_from([-1.0, 0.0, 0.5, 3.0]))
    b = a + draw(st.sampled_from([0.25, 1.0, 2.0, 7.5]))
    flat = sorted(a + (b - a) * u for u in draw(st.tuples(unit, unit)))
    has_flat = draw(st.booleans()) and a <= flat[0] < flat[1] <= b
    taus = {a + (b - a) * u for u in draw(st.lists(unit, max_size=6))}
    if draw(st.booleans()):
        taus.add(a)
    if draw(st.booleans()):
        taus.add(b)
    if has_flat:
        taus = {tau for tau in taus if not flat[0] < tau < flat[1]}
    taus = sorted(taus)
    sizes = draw(st.lists(st.floats(1e-3, 2.0), min_size=len(taus),
                          max_size=len(taus)))
    slope = draw(st.floats(0.0, 3.0))

    def density(t):
        if has_flat and flat[0] < t < flat[1]:
            return 0.0
        return 1.0 + slope * (t - a)

    g = Gauge((a, b), density, jumps=tuple(zip(taus, sizes)),
              flats=(tuple(flat),) if has_flat else ())
    inside = unit.map(lambda u: a + (b - a) * u)
    outside = st.one_of(unit.map(lambda u: a - SNAP_RADIUS * u),
                        unit.map(lambda u: b + SNAP_RADIUS * u))
    special = st.sampled_from([a, b] + taus + (flat if has_flat else []))
    queries = draw(st.lists(st.one_of(inside, outside, special),
                            min_size=1, max_size=40))
    return g, queries


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=gauges_and_queries())
def test_half_open_gauge_snaps_and_matches_the_running_integral(case):
    g, queries = case
    a, b = g.domain
    running = CumulativeStieltjesIntegral(lambda t: 1.0, g)
    values = [g(q) for q in queries]
    integrals = [running(q) for q in queries]
    assert [v.hex() for v in integrals] == [v.hex() for v in values]
    snapped = [min(max(q, a), b) for q in queries]
    assert [g(s).hex() for s in snapped] == [v.hex() for v in values]
    ordered = [v for _, v in sorted(zip(snapped, values))]
    assert all(lo <= hi for lo, hi in zip(ordered, ordered[1:]))


def _seeded_twin(g):
    """g's twin with its table built at every seed first, in increasing
    order, as the constructor once did."""
    twin = Gauge(g.domain, g.density, jumps=g.jumps, flats=g.flats)
    a, b = g.domain
    for t in sorted({p for iv in g.flats for p in iv}
                    | {tau for tau, _ in g.jumps}):
        if a < t <= b:
            twin(t)
    return twin


def _bump(t):
    return 0.0 if 0.2 < t < 0.4 else 1.0 + t * t


# atoms at a and inside, flat ends as seeds; the last seed, 0.55, is
# below b: the first query lies below the first seed, then above the last
@example(case=(Gauge((0.0, 1.0), _bump, jumps=((0.0, 0.3), (0.55, 0.2)),
                     flats=((0.2, 0.4),)),
               [0.1, 0.9, 0.4, 0.0, 1.0, 0.55, 0.3]))
@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=gauges_and_queries())
def test_a_table_seeded_at_the_first_query_is_the_table_seeded_first(case):
    g, queries = case
    twin = _seeded_twin(g)
    for q in queries:
        assert g(q).hex() == twin(q).hex()
        assert [t.hex() for t in g._ts] == [t.hex() for t in twin._ts]
        assert [v.hex() for v in g._vals] == [v.hex() for v in twin._vals]


@st.composite
def serializable_gauges(draw):
    a = draw(st.sampled_from([-1.0, 0.0, 0.5, 3.0]))
    b = a + draw(st.sampled_from([0.25, 1.0, 2.0, 7.5]))
    flat = sorted(a + (b - a) * u for u in draw(st.tuples(unit, unit)))
    flats = [tuple(flat)] if a <= flat[0] < flat[1] <= b else []
    taus = {a + (b - a) * u for u in draw(st.lists(unit, max_size=6))}
    if draw(st.booleans()):
        taus.add(a)
    if draw(st.booleans()):
        taus.add(b)
    taus = sorted(tau for tau in taus
                  if not any(lo < tau < hi for lo, hi in flats))
    sizes = draw(st.lists(st.floats(1e-3, 2.0), min_size=len(taus),
                          max_size=len(taus)))
    c, s = draw(st.sampled_from([0, 1, 2])), draw(st.sampled_from([0, 0.5, 3]))
    source = draw(st.sampled_from([f"{c} + {s}*abs(t)", "sin(t)^2"]))
    data = {"domain": [a, b], "density": source,
            "jumps": [[tau, size] for tau, size in zip(taus, sizes)],
            "flats": [list(iv) for iv in flats]}
    special = [a, b] + taus + flat
    queries = draw(st.lists(st.one_of(unit.map(lambda u: a + (b - a) * u),
                                      st.sampled_from(special)),
                            min_size=1, max_size=20))
    return Gauge.from_dict(data), queries


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=serializable_gauges())
def test_gauge_json_round_trip_keeps_every_value(case):
    g, queries = case
    for back in (Gauge.from_dict(g.to_dict()),
                 Gauge.from_dict(json.loads(dumps(g.to_dict())))):
        assert back.domain == g.domain
        assert back.jumps == g.jumps
        assert back.flats == g.flats
        assert back.density_source == g.density_source
        assert [back(q).hex() for q in queries] == [g(q).hex() for q in queries]
        assert back.to_dict() == g.to_dict()


@st.composite
def specs_and_pairs(draw):
    kind = draw(st.sampled_from(["smooth", "stieltjes", "graph", "angular"]))
    if kind == "graph":
        n = draw(st.integers(1, 5))
        weight = st.floats(allow_nan=False, allow_infinity=False)
        spec = FiniteGraph([draw(st.lists(weight, min_size=n, max_size=n))
                            for _ in range(n)])
        return spec, [(float(i), float(j)) for i in range(n) for j in range(n)]
    if kind == "angular":
        points = st.floats(-10.0, 10.0)
        return Angular(), draw(st.lists(st.tuples(points, points), max_size=20))
    if kind == "stieltjes":
        g, queries = draw(serializable_gauges())
        spec, points = Stieltjes(g), st.sampled_from(queries)
    else:
        a = draw(st.sampled_from([-1.0, 0.0, 0.5]))
        b = a + draw(st.sampled_from([0.25, 1.0, 3.0]))
        c = draw(st.sampled_from(["0.5", "1", "2.25"]))
        delta, d2 = draw(st.sampled_from([
            (f"{c}*(y - x)", c),
            (f"exp({c}*(y^2 - x^2)) - exp(x - y)", None),
            (f"y^3 - x^3 + {c}*(y - x)", f"3*y^2 + {c}")]))
        spec = Smooth((a, b), parse(delta, {"x", "y"}),
                      d2 and parse(d2, {"x", "y"}))
        points = unit.map(lambda u: a + (b - a) * u)
    return spec, draw(st.lists(st.tuples(points, points), min_size=1,
                               max_size=10))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=specs_and_pairs())
def test_spec_json_round_trip_keeps_every_value(case):
    spec, pairs = case
    back = spec_from_dict(json.loads(dumps(spec_to_dict(spec))))
    assert back.kind == spec.kind
    assert spec_to_dict(back) == spec_to_dict(spec)
    assert [back.delta(x, y).hex() for x, y in pairs] == \
        [spec.delta(x, y).hex() for x, y in pairs]
    if spec.kind == "smooth":
        assert [back.d2(x, y).hex() for x, y in pairs] == \
            [spec.d2(x, y).hex() for x, y in pairs]


_INTERVAL_KINDS = ("[)", "()", "[]", "(]")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=gauges_and_queries(), order=st.randoms(use_true_random=False))
def test_measure_algebra_under_random_query_order(case, order):
    g, queries = case
    a, b = g.domain
    points = [min(max(q, a), b) for q in queries]
    triples = [sorted(order.choice(points) for _ in range(3))
               for _ in points]
    # every value is taken in the random order before g(b) is asked for
    rows = [(c, d, [(kind, g.measure(c, d, kind), g.measure(c, e, kind))
                    for kind in _INTERVAL_KINDS],
             g.measure(c, kind="{}"),
             (g.measure(c, e), g.measure(c, d), g.measure(d, e)))
            for c, d, e in triples]
    # rounding: a sum of a few values no larger than g(b)
    slack = 4.0 * math.ulp(g(b))
    for c, d, grows, point, (whole, left, right) in rows:
        for kind, to_d, to_e in grows:
            if kind == "()" and c == d:
                continue  # test_open_interval_from_a_point_to_itself_is_empty
            assert to_d >= -slack and to_d <= to_e + slack, (kind, c, d)
            if kind == "[)":
                assert 0.0 <= to_d <= to_e    # g itself is monotone
        assert point >= 0.0
        assert abs(whole - (left + right)) <= slack


def _decimal(draw, lo: float, hi: float) -> str:
    # the grammar has no exponent notation
    return f"{draw(st.floats(lo, hi)):.9f}"


@st.composite
def tents_on_affine_bases(draw):
    k, c = _decimal(draw, 0.1, 3.0), _decimal(draw, 0.0, 2.0)
    m, w = _decimal(draw, 0.05, 0.95), _decimal(draw, 1e-4, 0.02)
    h = _decimal(draw, 1.0, 1e5)
    source = f"{k} + {c}*t + {h}*max(0, {w} - abs(t - {m}))"
    k, c, m, w, h = map(float, (k, c, m, w, h))

    def closed_form(t: float) -> float:
        # the tent's mass below t: it rises on (m - w, m), falls on (m, m + w)
        if t <= m - w:
            tent = 0.0
        elif t <= m:
            tent = 0.5 * (t - (m - w)) ** 2
        else:
            tent = w * w - 0.5 * max(0.0, m + w - t) ** 2
        return k * t + 0.5 * c * t * t + h * tent

    return source, closed_form


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=tents_on_affine_bases(), queries=st.lists(unit, min_size=1,
                                                       max_size=12))
def test_a_narrow_tent_is_integrated_whatever_is_queried_first(case, queries):
    # the first panel of a fresh gauge once spanned the tent without a
    # node inside it; the kinks seeded at the first query bound the pieces
    source, closed_form = case
    g = Gauge.from_dict({"domain": [0.0, 1.0], "density": source})
    running = CumulativeStieltjesIntegral(lambda t: 1.0, g)
    for q in queries:
        want = closed_form(q)
        assert abs(g(q) - want) <= g.quad_tol, (source, q)
        assert abs(running(q) - want) <= g.quad_tol, (source, q)


@st.composite
def zero_stretch_densities(draw):
    """(source, jumps, declared flats, the exact flats): a density that is
    zero on random stretches and positive off them, with atoms.

    k*max(0, abs(t - m) - w) is zero exactly on [m - w, m + w], and the
    min of several is zero on the union.  Every number is a multiple of
    1/64 or 1/128, so each kink is exact.  The flats are the maximal zero
    intervals inside [0, 1], split at the atoms strictly inside; some of
    them are declared.
    """
    terms, stretches = [], []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(0, 64)) / 64
        w = draw(st.integers(1, 16)) / 64
        k = draw(st.sampled_from(["0.5", "1", "3"]))
        terms.append(f"{k}*max(0, abs(t - {m!r}) - {w!r})")
        stretches.append((max(0.0, m - w), min(1.0, m + w)))
    source = terms[0]
    for term in terms[1:]:
        source = f"min({source}, {term})"
    taus = sorted(set(draw(st.lists(st.integers(1, 127), max_size=3))))
    jumps = [(tau / 128, 0.25) for tau in taus]
    merged: list = []
    for lo, hi in sorted(stretches):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    flats = []
    for lo, hi in merged:
        cuts = [tau for tau, _ in jumps if lo < tau < hi]
        flats += zip([lo] + cuts, cuts + [hi])
    declared = [flat for flat in flats if draw(st.booleans())]
    return source, jumps, declared, flats


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=zero_stretch_densities())
@example(case=("2*max(0, abs(t - 0.512345) - 0.081)", [], [],
               [(0.43134500000000003, 0.593345)]))
def test_the_flats_of_a_piecewise_affine_density_are_its_exact_zero_pieces(
        case):
    # declared or not, each flat is found with its exact ends, and a
    # point inside one has no derivative
    source, jumps, declared, flats = case
    g = Gauge.from_dict({"domain": [0.0, 1.0], "density": source,
                         "jumps": jumps, "flats": declared})
    sets = g.distinguished_sets()
    assert sets.c_set == tuple(flats), source
    assert sets.n_set == tuple(sorted(
        {p for flat in flats for p in flat} - {tau for tau, _ in jumps}))
    square = as_function(parse("t^2", {"t"}), "t")
    for lo, hi in flats:
        x = 0.5 * (lo + hi)
        assert delta_derivative(square, g, x).point_class == "excluded"
    # off the grids of the ends and the atoms, a point is excluded exactly
    # where it lies inside a flat
    for i in range(1, 1024, 2):
        y = i / 1024
        assert sets.excludes(y) == any(lo < y < hi for lo, hi in flats), y


_safe_leaves = st.sampled_from(["t", "0.5", "2", "0.125", "3.7", "pi"])


def _grow(children, *funcs):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*"), children).map(
            lambda x: f"({x[0]} {x[1]} {x[2]})"),
        st.tuples(st.sampled_from(funcs), children).map(
            lambda x: f"{x[0]}({x[1]})"),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda x: f"{x[0]}({x[1]}, {x[2]})"),
        children.map(lambda x: f"{x}^2"))


# integrands may raise: ln, sqrt and division reach outside their domains
integrand_sources = st.recursive(
    _safe_leaves,
    lambda children: st.one_of(
        _grow(children, "sin", "cos", "exp", "abs", "sqrt", "ln"),
        st.tuples(children, children).map(lambda x: f"({x[0]} / {x[1]})")),
    max_leaves=6)
# densities are the absolute value of a tree that raises nowhere
density_sources = st.recursive(
    _safe_leaves, lambda children: _grow(children, "sin", "cos", "abs"),
    max_leaves=6).map(lambda x: f"abs({x})")


def _outcome(fn, t):
    try:
        return fn(t).hex()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(f_source=integrand_sources, density=density_sources,
       queries=st.lists(unit, min_size=1, max_size=8))
@example(f_source="1.234567*sin(t) + 0.345678*t^2",
         density="2.1*max(0, abs(t - 0.5) - 0.08)", queries=[0.9, 0.1, 0.5])
@example(f_source="ln(t - 0.5)", density="1", queries=[0.25, 1.0, 0.75])
def test_the_compiled_integrand_keeps_the_running_integral_bit_for_bit(
        f_source, density, queries):
    # the running integral of an f from as_function against a density
    # expression integrates one compiled product; its twin, seeded alike
    # and with the same panel rule, calls f and the density per node:
    # values, errors and tables match
    g = Gauge.from_dict({"domain": [0.0, 1.0], "density": density})
    f = as_function(parse(f_source, {"t"}), "t")
    F = CumulativeStieltjesIntegral(f, g)
    assert F.fn.__code__.co_filename == "<displace.expr>"
    twin = CumulativeQuadrature(
        lambda t: float(f(t)) * float(g.density(t)), *g.domain,
        tol=g.quad_tol, breakpoints=list(F._seeds), atoms=F.atoms)
    twin._gauss = F._gauss
    for q in queries + queries[::-1]:
        assert _outcome(F.value, q) == _outcome(twin.value, q), q
    assert F._ts == twin._ts
    assert [v.hex() for v in F._vals] == [v.hex() for v in twin._vals]


def test_a_negative_zero_weight_keeps_its_sign_through_json():
    spec = FiniteGraph([[-0.0]])
    back = spec_from_dict(json.loads(dumps(spec_to_dict(spec))))
    assert back.delta(0, 0).hex() == spec.delta(0, 0).hex()


@pytest.mark.xfail(strict=True, reason="measure(c, c, '()') subtracts the "
                   "atom at c from the empty interval (c, c)")
def test_open_interval_from_a_point_to_itself_is_empty():
    g = Gauge((0.0, 1.0), lambda t: 1.0, jumps=((0.5, 0.25),))
    assert g.measure(0.5, 0.5, "()") == 0.0


# equal, negative, huge (their difference overflows) and subnormal ends
span_ends = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 5e-324, -5e-324, 1e-310,
                     2.2250738585072014e-308, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(start=span_ends, stop=span_ends, same=st.booleans(),
       num=st.integers(0, 300), endpoint=st.booleans())
@example(start=0.0, stop=1.0, same=False, num=0, endpoint=True)
@example(start=0.0, stop=1.0, same=False, num=1, endpoint=True)
@example(start=0.0, stop=1.0, same=False, num=1, endpoint=False)
@example(start=0.0, stop=5e-324, same=False, num=7, endpoint=True)
@example(start=-1.7976931348623157e308, stop=1.7976931348623157e308,
         same=False, num=5, endpoint=False)
def test_linspace_matches_numpy_bit_for_bit(start, stop, same, num, endpoint):
    if same:
        stop = start
    with np.errstate(all="ignore"):   # an infinite span makes inf * 0
        expected = [float(v).hex()
                    for v in np.linspace(start, stop, num, endpoint=endpoint)]
    assert [v.hex() for v in _linspace(start, stop, num, endpoint)] == expected


def test_linspace_refuses_a_negative_count_as_numpy_does():
    with pytest.raises(ValueError, match="Number of samples, -1, must be "
                                         "non-negative."):
        _linspace(0.0, 1.0, -1)
