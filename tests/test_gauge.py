"""Tests for gauges, their measures, and the distinguished sets."""

import math
import re
import sys
import threading

import numpy as np
import pytest

from displace import expr
from displace.calculus import delta_derivative, stieltjes_integral
from displace.displacement import Smooth, gauge_from_smooth, make_builtin
from displace.gauge import (CumulativeQuadrature, DistinguishedSets, Gauge,
                            GaugeError, _adaptive_quad, _qk21)


def jump_gauge():
    """Zero density with a single jump of 0.5 at tau = 0.5."""
    return Gauge((0.0, 1.0), lambda t: 0.0, jumps=((0.5, 0.5),),
                 density_source="0")


def mixed_gauge():
    """Density 2t+1 with jumps at 0.25 and 0.75."""
    return Gauge((0.0, 1.0), lambda t: 2.0 * t + 1.0,
                 jumps=((0.25, 0.5), (0.75, 1.0)), density_source="2*t + 1")


def test_identity_gauge_values():
    g = Gauge.identity((0.0, 1.0))
    assert g(0.0) == 0.0
    for t in (0.1, 0.5, 0.75, 1.0):
        assert math.isclose(g(t), t, rel_tol=0.0, abs_tol=1e-12)
    assert math.isclose(g.measure(0.2, 0.7), 0.5, abs_tol=1e-12)


def test_left_continuity_convention_at_jump():
    g = jump_gauge()
    assert g(0.5) == 0.0
    assert g(0.6) == 0.5
    assert g(1.0) == 0.5
    assert g.right_limit(0.5) - g(0.5) == 0.5
    assert g.jump_at(0.5) == 0.5
    assert g.jump_at(0.3) == 0.0


def test_left_limit_approaches_gauge_value_at_jump():
    g = mixed_gauge()
    for h in (1e-4, 1e-6, 1e-8):
        assert abs(g(0.25 - h) - g(0.25)) <= 4.0 * h


def test_singleton_measure_is_exact_atom():
    g = jump_gauge()
    assert g.measure(0.5, kind="{}") == 0.5
    assert g.measure(0.25, kind="{}") == 0.0


def test_interval_kind_formulas():
    g = jump_gauge()
    # the only mass is the atom at 0.5
    assert g.measure(0.2, 0.5, "[)") == 0.0
    assert g.measure(0.2, 0.5, "[]") == 0.5
    assert g.measure(0.5, 0.9, "[)") == 0.5
    assert g.measure(0.5, 0.9, "()") == 0.0
    assert g.measure(0.2, 0.9, "(]") == 0.5
    assert g.measure(0.5, 0.5, "[]") == 0.5


def test_measure_kinds_are_nonnegative_and_consistent():
    g = mixed_gauge()
    rng = np.random.default_rng(7)
    for _ in range(300):
        c, d = sorted(rng.uniform(0.0, 1.0, size=2))
        for kind in ("[)", "()", "[]", "(]"):
            assert g.measure(c, d, kind) >= -1e-15
        closed = g.measure(c, d, "[]")
        half = g.measure(c, d, "[)")
        assert abs(closed - (half + g.measure(d, kind="{}"))) <= 1e-12
        open_ = g.measure(c, d, "()")
        assert abs(half - (open_ + g.measure(c, kind="{}"))) <= 1e-12


def test_finite_additivity_of_half_open_intervals():
    g = mixed_gauge()
    rng = np.random.default_rng(11)
    for _ in range(300):
        c, d, e = sorted(rng.uniform(0.0, 1.0, size=3))
        lhs = g.measure(c, d) + g.measure(d, e)
        assert abs(lhs - g.measure(c, e)) <= 1e-12


def test_measure_monotone_in_the_interval():
    g = mixed_gauge()
    rng = np.random.default_rng(13)
    for _ in range(200):
        c, d = sorted(rng.uniform(0.0, 1.0, size=2))
        pad_lo = rng.uniform(0.0, c)
        pad_hi = rng.uniform(d, 1.0)
        assert g.measure(c, d) <= g.measure(pad_lo, pad_hi) + 1e-12


def test_gauge_evaluation_is_monotone_after_random_insertion_order():
    """Cached values must be jointly monotone no matter the query order."""
    g = Gauge((0.0, 1.0), lambda t: 2.0 + math.sin(100.0 * t),
              density_source="2 + sin(100*t)")
    rng = np.random.default_rng(3)
    ts = rng.uniform(0.0, 1.0, size=1500)
    values = {float(t): g(float(t)) for t in ts}
    ordered = sorted(values)
    for s, t in zip(ordered, ordered[1:]):
        assert values[s] <= values[t]


def test_increments_telescope_exactly():
    g = mixed_gauge()
    ts = [0.1, 0.2, 0.4, 0.6, 0.9]
    total = sum(g(t2) - g(t1) for t1, t2 in zip(ts, ts[1:]))
    assert total == g(ts[-1]) - g(ts[0])


def test_jump_at_right_end_is_allowed_and_half_open_excludes_it():
    g = Gauge((0.0, 1.0), lambda t: 1.0, jumps=((1.0, 2.0),),
              density_source="1")
    assert math.isclose(g(1.0), 1.0, abs_tol=1e-12)
    assert math.isclose(g.right_limit(1.0), 3.0, abs_tol=1e-12)
    assert math.isclose(g.measure(0.0, 1.0, "[)"), 1.0, abs_tol=1e-12)
    assert math.isclose(g.measure(0.0, 1.0, "[]"), 3.0, abs_tol=1e-12)


def test_constructor_rejects_bad_data():
    with pytest.raises(GaugeError):
        Gauge((1.0, 0.0), lambda t: 1.0)
    with pytest.raises(GaugeError):
        Gauge((0.0, 1.0), lambda t: 1.0, jumps=((1.5, 1.0),))
    for size in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(GaugeError, match="must be positive and finite"):
            Gauge((0.0, 1.0), lambda t: 1.0, jumps=((0.5, size),))
    with pytest.raises(GaugeError):
        Gauge((0.0, 1.0), lambda t: 1.0, jumps=((0.5, 1.0), (0.5, 1.0)))
    with pytest.raises(GaugeError):
        Gauge((0.0, 1.0), lambda t: 1.0, flats=((0.2, 0.1),))
    with pytest.raises(GaugeError):
        Gauge((0.0, 1.0), lambda t: 1.0, flats=((0.1, 0.4), (0.3, 0.6)))
    with pytest.raises(GaugeError):
        Gauge((0.0, 1.0), lambda t: 0.0, jumps=((0.3, 1.0),),
              flats=((0.2, 0.4),))
    with pytest.raises(GaugeError):
        Gauge((0.0, 1.0), lambda t: -1.0)
    with pytest.raises(GaugeError, match="^quad_tol must be finite and "
                       "non-negative, got nan$"):
        Gauge((0.0, 1.0), lambda t: 1.0, quad_tol=math.nan)


def test_evaluation_outside_domain_raises():
    g = Gauge.identity((0.0, 1.0))
    with pytest.raises(GaugeError):
        g(1.5)
    with pytest.raises(GaugeError):
        g(-0.1)
    with pytest.raises(GaugeError):
        g.measure(0.5, 0.2)
    with pytest.raises(GaugeError):
        g.measure(0.1, 0.5, "><")


def test_distinguished_sets_trivial_gauge():
    sets = Gauge.identity((0.0, 1.0)).distinguished_sets()
    assert sets.d_set == ()
    assert sets.c_set == ()
    assert sets.n_set == ()


def test_distinguished_sets_jump_only():
    sets = jump_gauge().distinguished_sets()
    assert sets.d_set == (0.5,)
    # zero density everywhere: constancy on both sides of the atom,
    # split at the jump, whose point belongs to d_set rather than n_set
    assert len(sets.c_set) == 2
    (l1, h1), (l2, h2) = sets.c_set
    assert (l1, h1) == (0.0, 0.5) and (l2, h2) == (0.5, 1.0)
    assert 0.5 not in sets.n_set
    assert set(sets.n_set) == {0.0, 1.0}
    assert sets.is_jump(0.5)
    assert not sets.excludes(0.5)
    assert sets.excludes(0.25)


def test_jump_near_returns_the_snapped_jump_position():
    sets = DistinguishedSets(d_set=(0.25, 0.5), c_set=(), n_set=())
    assert sets.jump_near(0.5) == 0.5
    assert sets.jump_near(0.5 - 1e-12) == 0.5
    assert sets.jump_near(0.25 + 5e-13) == 0.25
    assert sets.jump_near(0.5 + 2e-12) is None
    assert sets.jump_near(0.4, snap=0.2) == 0.25  # the first within snap
    for x in (0.5 - 1e-12, 0.5 + 2e-12, 0.3):
        assert sets.is_jump(x) == (sets.jump_near(x) is not None)


def plateau_density(t):
    return max(0.0, t - 0.4) + max(0.0, 0.2 - t)


def test_declared_flat_is_reported_with_endpoints():
    g = Gauge((0.0, 1.0), plateau_density, flats=((0.2, 0.4),),
              density_source="max(0, t - 0.4) + max(0, 0.2 - t)")
    sets = g.distinguished_sets()
    assert any(lo <= 0.2 and hi >= 0.4 for lo, hi in sets.c_set)
    assert sets.excludes(0.3)
    assert not sets.excludes(0.5)
    # the flat carries no measure, nor do its endpoints
    assert abs(g.measure(0.2, 0.4, "()")) <= 1e-12
    for p in sets.n_set:
        assert g.measure(p, kind="{}") == 0.0


def test_flat_detection_without_declaration():
    g = Gauge((0.0, 1.0), plateau_density,
              density_source="max(0, t - 0.4) + max(0, 0.2 - t)")
    sets = g.distinguished_sets()
    assert len(sets.c_set) == 1
    lo, hi = sets.c_set[0]
    assert abs(lo - 0.2) < 2e-3
    assert abs(hi - 0.4) < 2e-3
    assert sets.excludes(0.3)
    assert not sets.excludes(0.1)


def test_detection_merges_with_declared_flat():
    g = Gauge((0.0, 1.0), plateau_density, flats=((0.2, 0.3),),
              density_source="max(0, t - 0.4) + max(0, 0.2 - t)")
    sets = g.distinguished_sets()
    assert len(sets.c_set) == 1
    lo, hi = sets.c_set[0]
    assert lo <= 0.2 and hi >= 0.4 - 2e-3


def test_the_flat_of_a_piecewise_affine_density_has_its_exact_ends():
    # with no flat declared, the zero piece of the density is the flat; a
    # scan of 1,025 density samples put its ends at (0.431640625,
    # 0.5927734375), so 0.43135 lay outside it and its quotients vanished
    # on the right
    g = Gauge.from_dict({"domain": [0, 1],
                         "density": "2*max(0, abs(t - 0.512345) - 0.081)"})
    sets = g.distinguished_sets()
    assert sets.c_set == ((0.43134500000000003, 0.593345),)
    assert sets.n_set == (0.43134500000000003, 0.593345)
    f = expr.as_function(expr.parse("t^2", {"t"}), "t")
    assert delta_derivative(f, g, 0.43135).point_class == "excluded"


def test_a_tiny_piece_that_is_not_zero_is_not_flat():
    # the scan takes a density below 1e-12 of its largest sample as zero;
    # the pieces of an expression take only a zero piece
    source = "max(0.0000000000001, t - 0.5)"
    g = Gauge.from_dict({"domain": [0, 1], "density": source})
    assert g.distinguished_sets().c_set == ()
    scanned = Gauge((0.0, 1.0), lambda t: max(1e-13, t - 0.5))
    assert scanned.distinguished_sets().c_set == ((0.0, 0.5),)


def test_the_density_scan_runs_only_for_a_density_without_pieces(
        monkeypatch):
    scanned = []
    scan = Gauge._scan

    def spy(self, samples):
        scanned.append(self.density_source)
        return scan(self, samples)

    monkeypatch.setattr(Gauge, "_scan", spy)
    for source in ("2*max(0, abs(t - 0.5) - 0.1)", "1", "exp(t)"):
        g = Gauge.from_dict({"domain": [0, 1], "density": source})
        g.distinguished_sets()
        g.distinguished_sets(samples=65)
    assert scanned == ["exp(t)", "exp(t)"]


@pytest.mark.parametrize("source", ["exp(t)", "2*max(0, abs(t - 0.5) - 0.1)"])
@pytest.mark.parametrize("samples", [0, 1, -3])
def test_distinguished_sets_refuses_fewer_than_two_samples(source, samples):
    # a grid of one point holds no run, and one of none has no largest
    # sample; a density with pieces, which samples nothing, refuses alike
    g = Gauge.from_dict({"domain": [0, 1], "density": source})
    with pytest.raises(GaugeError,
                       match=f"^samples must be at least 2, got {samples}$"):
        g.distinguished_sets(samples=samples)
    assert g.distinguished_sets(samples=2).d_set == ()


def test_exclusion_snap_radius():
    g = Gauge((0.0, 1.0), plateau_density, flats=((0.2, 0.4),),
              density_source="max(0, t - 0.4) + max(0, 0.2 - t)")
    sets = g.distinguished_sets()
    assert sets.excludes(0.2)
    assert sets.excludes(0.4 - 1e-13)
    assert sets.excludes(0.2 + 5e-13, snap=1e-12)


def test_json_round_trip():
    g = Gauge((0.0, 1.0), plateau_density,
              jumps=((0.5, 0.25), (0.8, 1.5)), flats=((0.2, 0.4),),
              density_source="max(0, t - 0.4) + max(0, 0.2 - t)")
    data = g.to_dict()
    assert data["domain"] == [0.0, 1.0]
    assert data["jumps"] == [[0.5, 0.25], [0.8, 1.5]]
    assert data["flats"] == [[0.2, 0.4]]
    back = Gauge.from_dict(data)
    for t in np.linspace(0.0, 1.0, 41):
        assert abs(back(float(t)) - g(float(t))) <= 1e-9
    assert back.jumps == g.jumps
    assert back.flats == g.flats


def test_to_dict_requires_expression_density():
    g = Gauge((0.0, 1.0), lambda t: 1.0)
    with pytest.raises(GaugeError):
        g.to_dict()


def test_from_dict_rejects_malformed_data():
    with pytest.raises(GaugeError):
        Gauge.from_dict({"density": "1"})
    # parse decides that the density is text
    with pytest.raises(expr.ParseError, match="NoneType value"):
        Gauge.from_dict({"domain": [0.0, 1.0], "density": None})


def test_cumulative_quadrature_signed_integrand():
    """The running integral of a signed function must not be clamped."""
    cq = CumulativeQuadrature(lambda t: math.cos(20.0 * t), 0.0, 1.0,
                              tol=1e-12)
    rng = np.random.default_rng(5)
    ts = rng.uniform(0.0, 1.0, size=200)
    for t in ts:
        t = float(t)
        assert abs(cq.value(t) - math.sin(20.0 * t) / 20.0) <= 1e-9


@pytest.mark.parametrize("order", [(0.01, 0.015), (0.5, 0.02, 0.015)])
def test_density_negative_between_probes_raises_in_any_query_order(order):
    # negative on (0.01, 0.02), which none of the 17 construction probes
    # hits; clamping would make g(0.5) depend on the query order
    g = Gauge((0.0, 1.0), lambda t: -1.0 if 0.01 < t < 0.02 else 1.0)
    for t in order[:-1]:
        g(t)
    with pytest.raises(GaugeError):
        g(order[-1])


# negative on (0.01, 0.02), between the 17 construction probes
NEGATIVE_BUMP = "1 - 200000*max(0, 0.005 - abs(t - 0.015))"


@pytest.mark.parametrize("jumps, text", [
    # the atom at 0.5 seeds the QK21 panel [0, 0.5], which integrates
    # below zero
    ([[0.5, 0.1]], "density integrates to -4.500000000000105 over [0.0, 0.5]"),
    # the seed at 0.005 integrates, the next one does not
    ([[0.005, 0.1], [0.5, 0.1]],
     "density integrates to -4.504999999999436 over [0.005, 0.5]"),
])
def test_a_failed_seeding_raises_again_at_every_query(jumps, text):
    # the gauge also seeds the density's kinks, 0.01, 0.015 and 0.02 up
    # to rounding, and takes one midpoint per panel: the first piece of
    # the dip is refused whatever the atoms
    g = Gauge.from_dict({"domain": [0, 1], "density": NEGATIVE_BUMP,
                         "jumps": jumps})
    dip = ("density integrates to -2.495 over [0.009999999999999998, 0.015]"
           "; it must be nonnegative")
    for t in (0.9, 0.0, 0.003, 0.3, 0.9):
        with pytest.raises(GaugeError, match=f"^{re.escape(dip)}$"):
            g(t)
        assert g._ts == [0.0] and g._vals == [0.0]
    # a running integral against g never queries it, but refuses it too
    with pytest.raises(GaugeError, match=f"^{re.escape(dip)}$"):
        stieltjes_integral(lambda t: t, g, 0.003)
    # a bare table of the same density knows no kinks: its QK21 panel
    # between the atoms refuses the dip
    cq = CumulativeQuadrature(g.density, 0.0, 1.0, nonnegative=True,
                              breakpoints=[tau for tau, _ in jumps])
    text += "; it must be nonnegative"
    for t in (1.0, 0.003):
        with pytest.raises(GaugeError, match=f"^{re.escape(text)}$"):
            cq.value(t)


def test_a_non_finite_midpoint_panel_keeps_the_quadrature_text():
    # 1e308 over a width of 10 overflows in the affine density's one
    # midpoint and in the QK21 panel of a bare table alike
    big = "1" + "0" * 308
    g = Gauge.from_dict({"domain": [0, 10], "density": big})
    assert g._kinks == ()
    bare = CumulativeQuadrature(g.density, 0.0, 10.0, nonnegative=True)
    text = r"^non-finite integral over \[0\.0, 10\.0\]$"
    for table in (g, bare):
        with pytest.raises(GaugeError, match=text):
            table.value(10.0)


def test_threads_racing_to_the_first_query_seed_the_table_once():
    # the density is no polynomial, so a point integrated from another
    # left neighbour than the seeded table's would move in the last bits
    def make():
        return Gauge((0.0, 1.0), lambda t: 1.0 / (1.0 + t),
                     jumps=tuple((k / 50.0, 0.01) for k in range(1, 50)))

    points = [k / 37.0 for k in range(38)]
    twin = make()
    want = [twin(t).hex() for t in points]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g, got = make(), {}
            start = threading.Barrier(4, timeout=30)

            def query(k):
                start.wait()
                got[k] = [g(t).hex() for t in points[k:] + points[:k]]

            workers = [threading.Thread(target=query, args=(k,))
                       for k in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers)
            for k in range(4):
                assert got[k] == want[k:] + want[:k]
            assert g._ts == twin._ts and g._vals == twin._vals
    finally:
        sys.setswitchinterval(switch)


def test_cumulative_quadrature_rejects_outside_queries():
    cq = CumulativeQuadrature(lambda t: 1.0, 0.0, 1.0)
    with pytest.raises(GaugeError):
        cq.value(2.0)


def test_distinguished_sets_serialization():
    sets = DistinguishedSets(d_set=(0.5,), c_set=((0.1, 0.2),), n_set=(0.1, 0.2))
    data = sets.to_dict()
    assert data == {"d_set": [0.5], "c_set": [[0.1, 0.2]], "n_set": [0.1, 0.2]}
    assert sets.o_set == {"intervals": ((0.1, 0.2),), "points": (0.1, 0.2)}


# ---------------------------------------------------------------------------
# the adaptive Gauss-Kronrod quadrature behind every panel
# ---------------------------------------------------------------------------

def counted(f):
    """Wrap f so that wrapper.calls counts its evaluations."""
    def wrapper(t):
        wrapper.calls += 1
        return f(t)
    wrapper.calls = 0
    return wrapper


@pytest.mark.parametrize("degree", range(21))
def test_quadrature_is_exact_on_polynomials(degree):
    a, b = -0.5, 1.5
    exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
    tol = 1e-13 * max(1.0, abs(exact))
    assert abs(_qk21(lambda t: t ** degree, a, b)[0] - exact) <= tol
    assert abs(_adaptive_quad(lambda t: t ** degree, a, b, 1e-10) - exact) <= tol


@pytest.mark.parametrize("density, exact", [
    # |t - 0.3| + 0.1 on [0, 1]: 0.3^2/2 + 0.7^2/2 + 0.1
    (lambda t: abs(t - 0.3) + 0.1, 0.39),
    # 1 before 0.37, 2.5 after
    (lambda t: 1.0 if t < 0.37 else 2.5, 0.37 + 2.5 * 0.63),
    # a tiny step: its error estimate saturates at resasc, and QUADPACK
    # refuses such a panel even below the tolerance
    (lambda t: 1e-11 if t < 0.37 else 0.0, 0.37e-11),
])
def test_quadrature_bisects_kinks_and_steps_to_the_closed_form(density, exact):
    f = counted(density)
    value = _adaptive_quad(f, 0.0, 1.0, 1e-10)
    assert f.calls > 21  # the first panel was refused
    assert abs(value - exact) <= 1e-10
    cq = CumulativeQuadrature(density, 0.0, 1.0, nonnegative=True)
    assert abs(cq.value(1.0) - exact) <= 1e-10


def test_quadrature_refuses_a_sum_left_unconverged_at_the_interval_limit():
    # 200 intervals cannot resolve 1592 periods: the partial sum, -2.3e-3
    # against the exact (1 - cos 1e4)/1e4 = 1.95e-4, is refused
    f = counted(lambda t: math.sin(10000.0 * t))
    with pytest.raises(GaugeError, match=r"^quadrature over \[0\.0, 1\.0\] did "
                       r"not converge: estimate -0\.0023\d* with error "
                       r"estimate 0\.52\d* above the tolerance 1e-10$"):
        _adaptive_quad(f, 0.0, 1.0, 1e-10)
    assert f.calls == 21 * 399
    # density abs(sin(3000 t)) gave g(1) = 0.64665 where 0.63666 is exact
    g = Gauge((0.0, 1.0), lambda t: abs(math.sin(3000.0 * t)))
    with pytest.raises(GaugeError, match="did not converge"):
        g(1.0)


def test_quadrature_refuses_a_sum_left_unconverged_at_the_round_off_stop():
    # three adjacent doubles: the first panel mixes -1e300 and 1e300 and is
    # refused; each one-ulp half is constant, but its round-off floor of
    # 50 eps |f| ulp stays far above the tolerance and it cannot be bisected
    a = 1.0
    mid = math.nextafter(a, 2.0)
    b = math.nextafter(mid, 2.0)
    f = counted(lambda t: 1e300 if t > mid else -1e300)
    with pytest.raises(GaugeError, match=r"^quadrature over \[1\.0, "
                       r"1\.0000000000000004\] did not converge: estimate "
                       r"0\.0 with error estimate 4\.95\d*e\+270 above the "
                       r"tolerance 1e-10$"):
        _adaptive_quad(f, a, b, 1e-10)
    assert f.calls == 3 * 21  # the first panel and one bisection
    cq = CumulativeQuadrature(lambda t: 1e300 if t > mid else -1e300, a, b)
    with pytest.raises(GaugeError, match="did not converge"):
        cq.value(b)


# Recorded from scipy.integrate.quad(f, a, b, epsabs=1e-10, epsrel=1e-12,
# limit=200), which accepts each first panel (neval 21).  Only + - * /
# enter, so no libm routine can move the bits.
_QUAD_GOLDEN = [
    (lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, "0x1.921fb54442d19p-1"),
    (lambda t: t * t * t - 2.0 * t + 0.5, -1.0, 2.0, "0x1.1ffffffffffffp+1"),
    (lambda t: (t * t + 1.0) / (t + 3.0), 0.1, 0.7, "0x1.aca930f20765fp-3"),
    (lambda t: 1.0 / (2.0 + t), 0.0, 3.0, "0x1.d5240f0e0e078p-1"),
    (lambda t: (1.0 - t) * (3.0 + t) / (5.0 + t * t), 0.25, 0.3,
     "0x1.7f2ea82084717p-6"),
]


@pytest.mark.parametrize("f, a, b, golden", _QUAD_GOLDEN)
def test_qk21_reproduces_quadpack_bit_for_bit(f, a, b, golden):
    assert _qk21(f, a, b)[0].hex() == golden
    counter = counted(f)
    assert _adaptive_quad(counter, a, b, 1e-10).hex() == golden
    assert counter.calls == 21


# (result, abserr, resabs, resasc) of one panel, recorded from the loop
# form of the port.  The kink and the two steps are panels _adaptive_quad
# refuses, and the reversed interval has a negative half-length.
_QK21_GOLDEN = [
    (lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0,
     ('0x1.921fb54442d19p-1', '0x1.3a28c59d5433cp-47',
      '0x1.921fb54442d19p-1', '0x1.239e103572fa8p-3')),
    (lambda t: t * t * t - 2.0 * t + 0.5, -1.0, 2.0,
     ('0x1.1ffffffffffffp+1', '0x1.2f2f36bbc98a9p-45',
      '0x1.8413794249a72p+1', '0x1.606809bedfbeap+1')),
    (lambda t: (t * t + 1.0) / (t + 3.0), 0.1, 0.7,
     ('0x1.aca930f20765fp-3', '0x1.4ee42e3d15c7ap-49',
      '0x1.aca930f20765fp-3', '0x1.91173e7c3aab4p-7')),
    (lambda t: 1.0 / (2.0 + t), 0.0, 3.0,
     ('0x1.d5240f0e0e078p-1', '0x1.6e842bc2faf5ep-47',
      '0x1.d5240f0e0e078p-1', '0x1.a77e7fd36a656p-3')),
    (lambda t: (1.0 - t) * (3.0 + t) / (5.0 + t * t), 0.25, 0.3,
     ('0x1.7f2ea82084717p-6', '0x1.2b5c73596778ap-52',
      '0x1.7f2ea82084717p-6', '0x1.6948733903c17p-12')),
    (lambda t: abs(t - 0.3) + 0.1, 0.0, 1.0,
     ('0x1.8f76f02347ce5p-2', '0x1.58467d11e0cc8p-3',
      '0x1.8f76f02347ce5p-2', '0x1.58467d11e0cc8p-3')),
    (lambda t: 1.0 if t < 0.37 else 2.5, 0.0, 1.0,
     ('0x1.eab6724888caep+0', '0x1.6cff01440290cp-1',
      '0x1.eab6724888caep+0', '0x1.6cff01440290cp-1')),
    (lambda t: 1e-11 if t < 0.37 else 0.0, 0.0, 1.0,
     ('0x1.1192685711d8cp-38', '0x1.4e6e64c8a2b76p-38',
      '0x1.1192685711d8cp-38', '0x1.4e6e64c8a2b76p-38')),
    (lambda t: t - 0.5, 1.0, 0.0,
     ('-0x1.0376159bdd1ddp-59', '0x1.8e823e2468a85p-49',
      '0x1.fe1759c8340aap-3', '0x1.fe1759c8340aap-3')),
]


@pytest.mark.parametrize("f, a, b, golden", _QK21_GOLDEN)
def test_qk21_reproduces_all_four_recorded_outputs(f, a, b, golden):
    assert tuple(v.hex() for v in _qk21(f, a, b)) == golden


def test_qk21_calls_the_integrand_in_dqk21_order():
    calls = []
    _qk21(lambda t: calls.append(t) or t, -1.0, 1.0)
    # the centre, then the five Gauss pairs, then the five Kronrod-only
    # pairs, each pair left point first
    assert calls[0] == 0.0
    nodes = [abs(t) for t in calls[1::2]]
    assert nodes == sorted(nodes[:5], reverse=True) + sorted(nodes[5:], reverse=True)
    assert calls[1::2] == [-t for t in calls[2::2]]
    assert len(calls) == 21 and nodes[0] < nodes[5]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_density_raises_after_one_panel(bad):
    f = counted(lambda t: bad if t > 0.9 else 1.0)
    cq = CumulativeQuadrature(f, 0.0, 1.0, nonnegative=True)
    with pytest.raises(GaugeError, match="non-finite"):
        cq.value(1.0)
    assert f.calls == 21


def test_quadrature_matches_scipy_quad_on_smooth_gauge_densities():
    integrate = pytest.importorskip("scipy.integrate")
    cubic = Smooth((0.0, 2.0), expr.parse("y^3/3 + y - x^3/3 - x", {"x", "y"}),
                   expr.parse("y^2 + 1", {"x", "y"}))
    rng = np.random.default_rng(11)
    for spec in (make_builtin("exponential"), cubic):
        density = gauge_from_smooth(spec).density
        lo, hi = spec.domain
        for _ in range(150):
            a = float(rng.uniform(lo, hi))
            b = min(hi, a + float(10.0 ** rng.uniform(-6.0, 0.3)))
            want, _ = integrate.quad(density, a, b, epsabs=1e-10,
                                     epsrel=1e-12, limit=200)
            assert _adaptive_quad(density, a, b, 1e-10) == want


# ---------------------------------------------------------------------------
# end-point snap: one rule for the table lookup and the atom lookup
# ---------------------------------------------------------------------------

def end_atom_gauge():
    """Density 2t with atoms of 0.25 at a = 0 and 0.5 at b = 1."""
    return Gauge((0.0, 1.0), lambda t: 2.0 * t,
                 jumps=((0.0, 0.25), (1.0, 0.5)), density_source="2*t")


def test_points_just_past_the_ends_behave_like_the_ends():
    g = end_atom_gauge()
    past_b, before_a = 1.0 + 1e-13, 0.0 - 1e-13
    # the atom at b sits to the right of b, so it is not in g(b + 1e-13)
    assert g(past_b) == g(1.0)
    assert g(before_a) == g(0.0) == 0.0
    assert g.right_limit(before_a) == g.right_limit(0.0) == 0.25
    assert g.right_limit(past_b) == g.right_limit(1.0)
    assert g.jump_at(past_b) == g.jump_at(1.0) == 0.5
    assert g.jump_at(before_a) == g.jump_at(0.0) == 0.25
    assert g.measure(0.0, past_b, "[)") == g.measure(0.0, 1.0, "[)")
    assert g.measure(before_a, past_b, "[]") == g.measure(0.0, 1.0, "[]")


def test_jump_at_beyond_the_snap_radius_raises():
    g = end_atom_gauge()
    for t in (1.0 + 1e-9, -1e-9, 2.0, math.nan):
        text = f"point = {t!r} outside the domain [0.0, 1.0]"
        with pytest.raises(GaugeError, match=re.escape(text)):
            g(t)
        with pytest.raises(GaugeError, match=re.escape(text)):
            g.jump_at(t)
        with pytest.raises(GaugeError):
            g.right_limit(t)
        with pytest.raises(GaugeError):
            g.measure(t, None, "{}")


def test_cumulative_quadrature_atoms_are_half_open():
    cq = CumulativeQuadrature(lambda t: 1.0, 0.0, 1.0,
                              atoms=((0.0, 1.0), (0.5, 2.0), (1.0, 4.0)))
    assert cq.value(0.0) == 0.0
    assert cq.value(0.5) == 0.5 + 1.0
    assert cq.value(0.75) == 0.75 + 3.0
    assert cq.value(1.0) == cq.value(1.0 + 1e-13) == 1.0 + 3.0
    assert cq.right_limit(0.5) == 0.5 + 3.0
    assert cq.right_limit(1.0) == 1.0 + 7.0
    assert cq.jump_at(0.5) == 2.0 and cq.jump_at(0.25) == 0.0


def test_jumps_on_matches_jump_at_on_every_node():
    g = Gauge((0.0, 1.0), lambda t: 1.0,
              jumps=((0.0, 0.25), (0.3, 0.5), (1.0 / 3.0, 0.125), (1.0, 2.0)))
    mesh = np.unique(np.concatenate([np.linspace(0.0, 1.0, 11),
                                     np.array([0.3, 1.0 / 3.0])]))
    atoms = g.jumps_on(mesh)
    assert atoms.tolist() == [g.jump_at(t) for t in mesh.tolist()]
    assert Gauge.identity().jumps_on(mesh).tolist() == [0.0] * len(mesh)


@pytest.mark.parametrize("field, value", [
    ("jumps", 5), ("flats", 5), ("jumps", [[0.5]]), ("jumps", [0.5]),
    ("flats", [[0.1, 0.2, 0.3]]), ("jumps", [["x", 1.0]]), ("jumps", None),
    # integers too large for a float
    ("jumps", [[0.5, 10 ** 400]]), ("flats", [[0, 10 ** 400]]),
    ("domain", [0, 10 ** 400]),
])
def test_from_dict_rejects_malformed_jumps_and_flats(field, value):
    data = {"domain": [0.0, 1.0], "density": "1", field: value}
    with pytest.raises(GaugeError, match="malformed gauge data"):
        Gauge.from_dict(data)
