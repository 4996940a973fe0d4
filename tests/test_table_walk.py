"""One walk of a table for each side of a quotient.

CumulativeQuadrature._values_at answers a list of points in order under
one hold of the table's lock, and value(t) is the walk of one point.  A
walk must answer each point, bit for bit, as a query per point on a
fresh twin does, and leave the same table: on a gauge with midpoint
panels, on a running integral with 2-point panels, and on one that
tries a 7-point Gauss-Kronrod panel before QK21, with repeats, atoms
and points within SNAP_RADIUS outside the domain; a walk that reaches a
refused panel raises the same text and leaves the same table.  A
quotient reads no table: a spy records the walks and counts the panels
of two FTC harness runs, whose walks only seed the tables, query the
jumps and rebuild ftc2's integral.  Threads that walk one table while
others query it single points get the closed form, and leave a sorted,
monotone table.
"""

import math
import sys
import threading
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import displace.gauge as gauge_mod  # noqa: E402
from displace.calculus import (CumulativeStieltjesIntegral,  # noqa: E402
                               _side_points, ftc2_check, ftc_forward_check)
from displace.expr import as_function, parse  # noqa: E402
from displace.gauge import (SNAP_RADIUS, CumulativeQuadrature,  # noqa: E402
                            Gauge, GaugeError, _adaptive_quad)

ATOMS = [[0.0, 0.125], [0.25, 0.25], [0.5, 0.375], [1.0, 0.5]]


def _fn(source):
    return as_function(parse(source, {"t"}), "t")


def _midpoint_gauge():
    g = Gauge.from_dict({"domain": [0, 1],
                         "density": "1 + 2*max(0, t - 0.3)",
                         "jumps": ATOMS})
    assert g._gauss == 1
    return g


def _two_point_integral():
    g = Gauge.from_dict({"domain": [0, 1], "density": "0.5 + abs(t - 0.6)",
                         "jumps": ATOMS})
    F = CumulativeStieltjesIntegral(_fn("2*t - 0.75"), g)
    assert F._gauss == 2
    return F


def _k7_integral():
    g = Gauge.from_dict({"domain": [0, 1], "density": "exp(t)",
                         "jumps": ATOMS})
    F = CumulativeStieltjesIntegral(_fn("sqrt(abs(t - 0.37))"), g)
    assert F._gauss is None
    F._gauss = gauge_mod._K7
    return F


TABLES = {"midpoint": _midpoint_gauge, "two-point": _two_point_integral,
          "k7": _k7_integral}


def _state(q: CumulativeQuadrature) -> tuple:
    return [t.hex() for t in q._ts], [v.hex() for v in q._vals]


def _answers(run) -> tuple:
    try:
        return ("ok", [v.hex() for v in run()])
    except GaugeError as exc:
        return ("GaugeError", str(exc))


def _assert_walk_is_the_queries(make, ts):
    walked, queried = make(), make()
    got = _answers(lambda: walked._values_at(ts))
    want = _answers(lambda: [queried.value(t) for t in ts])
    assert got == want
    assert _state(walked) == _state(queried)
    return got


points = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([tau for tau, _ in ATOMS] + [0.3, 0.37, 0.6]),
    st.floats(0.0, 1.0).map(lambda u: -SNAP_RADIUS * u),
    st.floats(0.0, 1.0).map(lambda u: 1.0 + SNAP_RADIUS * u))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(TABLES)),
       ts=st.lists(points, min_size=1, max_size=24),
       repeats=st.integers(0, 3))
def test_a_walk_answers_as_a_query_per_point(kind, ts, repeats):
    # repeats come back from the walk itself, not from a later one
    _assert_walk_is_the_queries(TABLES[kind], ts + ts[::-1][:repeats])


def test_a_walk_through_a_panel_that_k7_refuses_takes_qk21_alike():
    ts = [0.9, 0.36, 0.38, 0.9, 0.37, -SNAP_RADIUS, 1.0 + SNAP_RADIUS]
    with mock.patch.object(gauge_mod, "_adaptive_quad",
                           wraps=_adaptive_quad) as qk21:
        got = _assert_walk_is_the_queries(_k7_integral, ts)
    assert got[0] == "ok" and qk21.call_count > 0


DIP = "1 - 200000*max(0, 0.005 - abs(t - 0.015))"


def _dip_without_kinks():
    # a plain callable has no pieces: the dip is found by the panel that
    # crosses it, after the points below it are in the table
    return Gauge((0.0, 1.0), lambda t: 1.0 - 200000.0 * max(
        0.0, 0.005 - abs(t - 0.015)))


@pytest.mark.parametrize("make, ts, table", [
    (lambda: Gauge.from_dict({"domain": [0, 1], "density": DIP}),
     [0.5, 0.005, 0.5], 1),
    (_dip_without_kinks, [0.004, 0.008, 0.004, 0.03, 0.9], 3),
])
def test_a_walk_that_reaches_a_refused_panel_raises_as_the_queries(
        make, ts, table):
    got = _assert_walk_is_the_queries(make, ts)
    assert got[0] == "GaugeError"
    assert got[1].startswith("density integrates to -")
    walked = make()
    with pytest.raises(GaugeError):
        walked._values_at(ts)
    assert len(walked._ts) == table


# ---------------------------------------------------------------------------
# the work of the FTC harnesses
# ---------------------------------------------------------------------------

F_GAUGE = {"domain": [0, 1], "density": "1.7*max(0, abs(t - 0.5) - 0.1)",
           "jumps": [[0.25, 0.3], [0.8, 0.1]], "flats": [[0.4, 0.6]]}
L_GAUGE = {"domain": [0, 1], "density": "0.8 + 1.2*t",
           "jumps": [[0.35, 0.2], [0.7, 0.05]]}


def _work(run):
    """run's result, the points of each walk in order, and the panel
    count."""
    walks, panels = [], []
    walk, panel = CumulativeQuadrature._values_at, CumulativeQuadrature._panel

    def counted_walk(self, ts):
        walks.append(list(ts))
        return walk(self, ts)

    def counted_panel(self, lo, hi):
        panels.append(hi - lo)
        return panel(self, lo, hi)

    with mock.patch.object(CumulativeQuadrature, "_values_at",
                           counted_walk), \
            mock.patch.object(CumulativeQuadrature, "_panel",
                              counted_panel):
        result = run()
    return result, walks, len(panels)


def test_ftc_quotients_insert_no_table_point():
    f = _fn("1.3*sin(t) + 0.4*t^2")
    g = Gauge.from_dict(F_GAUGE)
    report, walks, panels = _work(lambda: ftc_forward_check(f, g, grid=21))
    # the two walks seed g and the running integral at the jumps and the
    # flat's ends; then each of the 16 compared points takes 12 samples a
    # side, and each sample one panel of each table (a query per point
    # walked 808 points with 786 panels)
    seeds = [0.25, 0.4, 0.6, 0.8]
    assert (walks, panels) == ([seeds, seeds], 8 + 16 * 2 * 12 * 2)
    assert g._ts == [0.0] + seeds
    assert report.checked == 16
    assert report.max_error == 6.661338147750939e-16


def test_ftc2_quotients_insert_no_table_point():
    g = Gauge.from_dict(L_GAUGE)
    report, walks, panels = _work(lambda: ftc2_check(g, g, grid=21))
    # F is g: the jumps are its seeds and its only queries, so its table
    # holds nothing else, and a numerator takes its denominator's panels;
    # the rest of the walks rebuild it (a query per point walked 1,148
    # points with 583 panels)
    assert g._ts == [0.0, 0.35, 0.7]
    assert walks[0] == [0.35, 0.7]
    assert (sum(map(len, walks)), panels, len(walks)) == (50, 601, 28)
    assert report.max_error == 2.220446049250313e-16


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

def test_threads_walking_and_querying_one_table_get_the_closed_form():
    # g(t) = t + max(0, t - 0.3)^2 + 0.25 [t > 0.5]
    def exact(t):
        return t + max(0.0, t - 0.3) ** 2 + (0.25 if t > 0.5 else 0.0)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        g = Gauge.from_dict({"domain": [0, 1],
                             "density": "1 + 2*max(0, t - 0.3)",
                             "jumps": [[0.5, 0.25]]})
        dsets = g.distinguished_sets()
        start = threading.Barrier(4, timeout=30)
        errors = {}

        def run(k):
            start.wait()
            worst = 0.0
            for i in range(12):
                x = (k + 4 * i + 0.5) / 48.0
                for direction in (+1, -1):
                    ys = _side_points(x, direction, g, dsets, (), 12)
                    for y, v in zip(ys, g._values_at(ys)):
                        worst = max(worst, abs(v - exact(y)))
                worst = max(worst, abs(g.value(x) - exact(x)))
            errors[k] = worst

        workers = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(switch)
    assert sorted(errors) == [0, 1, 2, 3]
    assert all(e <= 1e-12 for e in errors.values()), errors
    assert all(a < b for a, b in zip(g._ts, g._ts[1:]))
    assert all(a <= b for a, b in zip(g._vals, g._vals[1:]))
    assert all(math.isfinite(v) for v in g._vals)
