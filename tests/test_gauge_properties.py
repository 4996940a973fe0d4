"""Property tests of the half-open rule, the end-point snap and JSON.

Random gauges carry atoms (also at either end point) and a flat; random
query sequences, taken in random order, include the exact end points,
the atom positions and points within SNAP_RADIUS outside the domain.
The gauge must be nondecreasing, must give every query exactly the
value of the point it snaps to, and must agree bit for bit with the
running Stieltjes integral of f = 1 against it, which is the same
half-open measure reached through CumulativeStieltjesIntegral.  A gauge
read back from its JSON form must give the same values, bit for bit.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from displace.calculus import CumulativeStieltjesIntegral  # noqa: E402
from displace.gauge import SNAP_RADIUS, Gauge  # noqa: E402
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
