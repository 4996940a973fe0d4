"""Left-continuous monotone gauges and the interval measures they induce.

A gauge g on [a, b] is built from a nonnegative density, a finite sorted
list of positive jumps, and optional declared constancy (flat) intervals.
By convention g(a) = 0 and g(t) is the measure of [a, t), which makes g
left-continuous and nondecreasing; the jump at tau contributes to g(t)
only for t > tau.

CumulativeQuadrature owns that rule: it holds the atoms next to the
density table and snaps each query into the domain with _snap before
looking up either.  A Gauge is one, the running integral of its density
with its jumps as atoms, and so are the running integrals in calculus.
_snap is every module's domain rule: a point within a slack (SNAP_RADIUS
by default) outside [a, b] is the end point, and one farther out, NaN
included, raises that module's error.

Evaluation goes through an insert-only cumulative quadrature cache.  The
naive alternative, re-running an adaptive quadrature from a to t for
every query, produces values that are individually accurate but not
jointly monotone: two nearby queries can come back in the wrong order by
an ulp or two, which is enough to break interval bisection and the sign
of small increments g(y) - g(x).  The cache instead keeps a sorted
breakpoint table that holds the left end until the first query, which
seeds it with the jump positions and flat endpoints first.  A new query
point t is integrated only over the gap from its nearest cached
neighbor below, and the resulting cumulative value is clamped into the
interval spanned by the neighbors, so the stored table is monotone by
construction and differences of cached values telescope exactly.  The
clamp only absorbs rounding: a gap larger than the quadrature tolerance
means the density is negative somewhere between the 17 construction
probes, and raises GaugeError instead of silently dropping mass.  The
solvers never query the table; they refuse a negative density at their
own mesh nodes and the density's kinks, with the probes' threshold and
message.

A panel has one rule, by degree: an n-point Gauss-Legendre panel where
the integrand is a polynomial of degree at most 2n - 1 on it, and the
adaptive 21-point Gauss-Kronrod quadrature of _adaptive_quad everywhere
else.  A density compiled from an expression that is piecewise affine in
t (numbers, constants, t, unary minus, + and -, * and / by a constant,
abs, min and max: expr._pieces) makes a gauge seed its table at the
expression's kinks, the starts of its pieces, so no panel crosses one,
and a panel is then the 1-point rule, the midpoint, exact on an affine
piece.  A running integral in calculus takes the 2-point rule where f is
affine between its seeds too, since f times the density is then a
quadratic.  The running integral that ftc_forward_check differentiates
tries the 7-point Gauss-Kronrod rule on a panel before the adaptive
QK21 where it would take QK21: nearly all of its panels are the tiny
gaps between quotient samples.  A gauge's flats are its pieces that are
exactly zero; the density of any other gauge is scanned for them on a
grid.  A narrow feature of any other density, such as
max(0, sin(30*t)), can still fall between the nodes of a first
Gauss-Kronrod panel unseen.
"""

from __future__ import annotations

import bisect
import heapq
import math
import sys
import threading
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from . import expr as expr_mod
from .serialize import Record

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GaugeError",
    "CumulativeQuadrature",
    "Gauge",
    "DistinguishedSets",
    "SNAP_RADIUS",
]

SNAP_RADIUS = 1e-12
_FLAT_SAMPLES = 1025


class GaugeError(ValueError):
    """Invalid gauge data or evaluation outside the domain."""


def _snap(value: float, lo: float, hi: float, name: str = "point",
          error: type[Exception] = GaugeError,
          slack: float = SNAP_RADIUS) -> float:
    """value clamped into [lo, hi] if it lies within slack of it.

    Otherwise, and for NaN, which no comparison admits, raise error.
    Hot paths call it only for a point that fails lo <= value <= hi.
    """
    value = float(value)
    if not lo - slack <= value <= hi + slack:
        raise error(f"{name} = {value!r} outside the domain [{lo!r}, {hi!r}]")
    return min(max(value, lo), hi)


# a density value below this is negative, not rounding: the construction
# probes and the solvers' mesh nodes refuse it with _negative_density
_NEGATIVE_DENSITY = -1e-9


def _negative_density(t: float) -> GaugeError:
    return GaugeError(f"density is negative at t = {t!r}")


def _check_tolerance(value: float, name: str,
                     error: type[Exception] = GaugeError) -> float:
    """value as a float if it is finite and non-negative (NaN is not);
    otherwise raise error."""
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise error(f"{name} must be finite and non-negative, got {value!r}")
    return value


def _check_domain(domain: tuple[float, float],
                  error: type[Exception] = GaugeError) -> tuple[float, float]:
    """(a, b) as floats if they are finite and a < b; otherwise raise error."""
    a, b = float(domain[0]), float(domain[1])
    if not -math.inf < a < b < math.inf:
        raise error(f"invalid domain [{a!r}, {b!r}]")
    return a, b


def _check_count(value: int, least: int, name: str,
                 error: type[Exception] = GaugeError) -> None:
    """Raise error, naming the count, when value is below least."""
    if value < least:
        raise error(f"{name} must be at least {least}, got {value!r}")


# QUADPACK dqk21 (Piessens et al., 1983), one module name per constant:
# the Kronrod abscissae _X0 .. _X9 (odd index: also a 10-point Gauss
# node), their Kronrod weights _W0 .. _W9 and the centre weight _WC, and
# the Gauss weights _G1 .. _G9 of the odd nodes.  The decimal digits are
# QUADPACK's own; nodes from numpy's leggauss differ in the last ulp and
# would move results.
_X0 = 0.995657163025808080735527280689003
_X1 = 0.973906528517171720077964012084452
_X2 = 0.930157491355708226001207180059508
_X3 = 0.865063366688984510732096688423493
_X4 = 0.780817726586416897063717578345042
_X5 = 0.679409568299024406234327365114874
_X6 = 0.562757134668604683339000099272694
_X7 = 0.433395394129247190799265943165784
_X8 = 0.294392862701460198131126603103866
_X9 = 0.148874338981631210884826001129720
_W0 = 0.011694638867371874278064396062192
_W1 = 0.032558162307964727478818972459390
_W2 = 0.054755896574351996031381300244580
_W3 = 0.075039674810919952767043140916190
_W4 = 0.093125454583697605535065465083366
_W5 = 0.109387158802297641899210590325805
_W6 = 0.123491976262065851077208703806519
_W7 = 0.134709217311473325928054001771707
_W8 = 0.142775938577060080797094273138717
_W9 = 0.147739104901338491374841515972068
_WC = 0.149445554002916905664936468389821
_G1 = 0.066671344308688137593568809893332
_G3 = 0.149451349150580593145776339657697
_G5 = 0.219086362515982043995534934228163
_G7 = 0.269266719309996355091226921569469
_G9 = 0.295524224714752870173892994651338
# The 7-point Gauss-Kronrod rule G3K7 (Kronrod, 1965; tabulated in
# Piessens et al., QUADPACK, 1983, and Laurie, Math. Comp. 66, 1997):
# the Kronrod abscissae _K0 .. _K2 (_K1 = sqrt(3/5) is also a 3-point
# Gauss node), their Kronrod weights _KW0 .. _KW2 and the centre weight
# _KWC, and the Gauss weights _KG1 = 5/9 and _KGC = 8/9.  30 digits,
# checked against the exact moments of [-1, 1] in fractions.
_K0 = 0.960491268708020283423507092629
_K1 = 0.774596669241483377035853079956
_K2 = 0.434243749346802558002071502845
_KW0 = 0.104656226026467265193823857192
_KW1 = 0.268488089868333440728569280667
_KW2 = 0.401397414775962222905051818618
_KWC = 0.450916538658474142345110087046
_KG1 = 0.555555555555555555555555555556
_KGC = 0.888888888888888888888888888889
# the 2-point Gauss-Legendre nodes are mid -+ half * _GL2, _GL2 = 1/sqrt(3)
# as its nearest double (1.0 / math.sqrt(3.0) is one ulp above it)
_GL2 = 0.577350269189625764509148780502
_EPS = sys.float_info.epsilon
# dqk21 floors abserr at 50 eps * resabs only above this
_ERR_FLOOR = sys.float_info.min / (50.0 * _EPS)
# every quadrature's default absolute tolerance per panel, _adaptive_quad's
# relative tolerance and its interval limit: those of the
# scipy.integrate.quad calls its goldens were recorded with
_QUAD_TOL = 1e-10
_QUAD_EPSREL = 1e-12
_QUAD_LIMIT = 200
# CumulativeQuadrature._gauss for "a _qk7 panel, then _adaptive_quad"
_K7 = "K7"


def _linspace(start: float, stop: float, num: int,
              endpoint: bool = True) -> list[float]:
    """np.linspace(start, stop, num, endpoint) as a list, bit for bit.

    It performs numpy's float operations: i * step + start, or
    (i / div) * delta + start when the step underflows to zero, with the
    end point set to stop, so grids need not import numpy.
    """
    if num < 0:
        raise ValueError(f"Number of samples, {num}, must be non-negative.")
    start, stop = float(start), float(stop)
    div = num - 1 if endpoint else num
    delta = stop - start
    if div <= 0:
        # no step exists: numpy scales the single index 0 by delta
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0.0:
        ys = [i / div * delta + start for i in range(num)]
    else:
        ys = [i * step + start for i in range(num)]
    if endpoint:
        ys[-1] = stop
    return ys


def _pieces_of(fn: Callable[[float], float], lo: float, hi: float):
    """expr._pieces on [lo, hi] of a function from expr.as_function, in
    its first variable, or None for any other callable."""
    tree, names = getattr(fn, "_expr", None), getattr(fn, "_names", ())
    if not (isinstance(tree, expr_mod.Expr) and names):
        return None
    return expr_mod._pieces(tree, names[0], lo, hi, _QUAD_LIMIT)


def _qk21(f: Callable[[float], float], a: float, b: float
          ) -> tuple[float, float, float, float]:
    """One 21-point Gauss-Kronrod panel, a port of QUADPACK dqk21.

    Returns (result, abserr, resabs, resasc).  f is called in dqk21's
    order, centre first, then the Gauss pairs, then the Kronrod-only
    pairs, each pair left point first, and every sum accumulates in
    dqk21's order, so the result matches QUADPACK bit for bit.  The loops
    are written out: the panel is the innermost step of every gauge
    value and running integral.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    absc = hlgth * _X1
    l1 = f(centr - absc)
    r1 = f(centr + absc)
    absc = hlgth * _X3
    l3 = f(centr - absc)
    r3 = f(centr + absc)
    absc = hlgth * _X5
    l5 = f(centr - absc)
    r5 = f(centr + absc)
    absc = hlgth * _X7
    l7 = f(centr - absc)
    r7 = f(centr + absc)
    absc = hlgth * _X9
    l9 = f(centr - absc)
    r9 = f(centr + absc)
    absc = hlgth * _X0
    l0 = f(centr - absc)
    r0 = f(centr + absc)
    absc = hlgth * _X2
    l2 = f(centr - absc)
    r2 = f(centr + absc)
    absc = hlgth * _X4
    l4 = f(centr - absc)
    r4 = f(centr + absc)
    absc = hlgth * _X6
    l6 = f(centr - absc)
    r6 = f(centr + absc)
    absc = hlgth * _X8
    l8 = f(centr - absc)
    r8 = f(centr + absc)
    s1 = l1 + r1
    s3 = l3 + r3
    s5 = l5 + r5
    s7 = l7 + r7
    s9 = l9 + r9
    resg = 0.0 + _G1 * s1 + _G3 * s3 + _G5 * s5 + _G7 * s7 + _G9 * s9
    resk = _WC * fc
    resabs = abs(resk)
    resk = (resk + _W1 * s1 + _W3 * s3 + _W5 * s5 + _W7 * s7 + _W9 * s9
            + _W0 * (l0 + r0) + _W2 * (l2 + r2) + _W4 * (l4 + r4)
            + _W6 * (l6 + r6) + _W8 * (l8 + r8))
    resabs = (resabs + _W1 * (abs(l1) + abs(r1)) + _W3 * (abs(l3) + abs(r3))
              + _W5 * (abs(l5) + abs(r5)) + _W7 * (abs(l7) + abs(r7))
              + _W9 * (abs(l9) + abs(r9)) + _W0 * (abs(l0) + abs(r0))
              + _W2 * (abs(l2) + abs(r2)) + _W4 * (abs(l4) + abs(r4))
              + _W6 * (abs(l6) + abs(r6)) + _W8 * (abs(l8) + abs(r8)))
    reskh = resk * 0.5
    resasc = (_WC * abs(fc - reskh)
              + _W0 * (abs(l0 - reskh) + abs(r0 - reskh))
              + _W1 * (abs(l1 - reskh) + abs(r1 - reskh))
              + _W2 * (abs(l2 - reskh) + abs(r2 - reskh))
              + _W3 * (abs(l3 - reskh) + abs(r3 - reskh))
              + _W4 * (abs(l4 - reskh) + abs(r4 - reskh))
              + _W5 * (abs(l5 - reskh) + abs(r5 - reskh))
              + _W6 * (abs(l6 - reskh) + abs(r6 - reskh))
              + _W7 * (abs(l7 - reskh) + abs(r7 - reskh))
              + _W8 * (abs(l8 - reskh) + abs(r8 - reskh))
              + _W9 * (abs(l9 - reskh) + abs(r9 - reskh)))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _ERR_FLOOR:
        abserr = max((50.0 * _EPS) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qk7(f: Callable[[float], float], a: float, b: float
         ) -> tuple[float, float, float, float]:
    """One 7-point Gauss-Kronrod panel, written out like _qk21.

    Returns (result, abserr, resabs, resasc), with dqk21's error formula:
    |K7 - G3| scaled by resasc * min(1, (200 * abserr / resasc) ** 1.5)
    and floored at 50 eps * resabs.  f is called centre first, then the
    Gauss pair, then the Kronrod-only pairs, each pair left point first.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    absc = hlgth * _K1
    l1 = f(centr - absc)
    r1 = f(centr + absc)
    absc = hlgth * _K0
    l0 = f(centr - absc)
    r0 = f(centr + absc)
    absc = hlgth * _K2
    l2 = f(centr - absc)
    r2 = f(centr + absc)
    s1 = l1 + r1
    resg = _KGC * fc + _KG1 * s1
    resk = _KWC * fc
    resabs = abs(resk)
    resk = resk + _KW1 * s1 + _KW0 * (l0 + r0) + _KW2 * (l2 + r2)
    resabs = (resabs + _KW1 * (abs(l1) + abs(r1)) + _KW0 * (abs(l0) + abs(r0))
              + _KW2 * (abs(l2) + abs(r2)))
    reskh = resk * 0.5
    resasc = (_KWC * abs(fc - reskh)
              + _KW0 * (abs(l0 - reskh) + abs(r0 - reskh))
              + _KW1 * (abs(l1 - reskh) + abs(r1 - reskh))
              + _KW2 * (abs(l2 - reskh) + abs(r2 - reskh)))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _ERR_FLOOR:
        abserr = max((50.0 * _EPS) * resabs, abserr)
    return result, abserr, resabs, resasc


def _first_panel_passes(result: float, err: float, resabs: float,
                        resasc: float, epsabs: float) -> bool:
    """True when QUADPACK dqagse accepts a first panel with these figures:
    its error meets max(epsabs, 1e-12 * |result|), and is not resasc,
    or it is rounding, at most 100 eps * resabs."""
    errbnd = max(epsabs, _QUAD_EPSREL * abs(result))
    return (err == 0.0 or (err <= errbnd and err != resasc)
            or errbnd < err <= (100.0 * _EPS) * resabs)


def _adaptive_quad(f: Callable[[float], float], a: float, b: float,
                   epsabs: float, error: type[Exception] = GaugeError
                   ) -> float:
    """Adaptive Gauss-Kronrod integral of f over [a, b].

    The first panel is accepted exactly when QUADPACK dqagse accepts it,
    so smooth integrands reproduce scipy.integrate.quad bit for bit.
    Otherwise the interval with the largest error estimate is bisected
    (QAG, without Wynn extrapolation) until the summed error meets the
    tolerance.  If _QUAD_LIMIT intervals exist first, or the widest-error
    interval is too small to bisect, with the tolerance still unmet, the
    sum would be a wrong number: error is raised instead, as dqagse
    reports ier 1 and ier 3.  A non-finite panel raises error at once.
    """
    result, err, resabs, resasc = _qk21(f, a, b)
    if not math.isfinite(result):
        raise error(f"non-finite integral over [{a!r}, {b!r}]")
    if _first_panel_passes(result, err, resabs, resasc, epsabs):
        return result
    heap = [(-err, a, b, result)]
    errsum, area = err, result
    while len(heap) < _QUAD_LIMIT:
        neg_err, lo, hi, r = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            heapq.heappush(heap, (neg_err, lo, hi, r))
            break
        r1, e1, _, _ = _qk21(f, lo, mid)
        r2, e2, _, _ = _qk21(f, mid, hi)
        if not (math.isfinite(r1) and math.isfinite(r2)):
            raise error(f"non-finite integral over [{a!r}, {b!r}]")
        heapq.heappush(heap, (-e1, lo, mid, r1))
        heapq.heappush(heap, (-e2, mid, hi, r2))
        errsum += e1 + e2 + neg_err
        area += r1 + r2 - r
        if errsum <= max(epsabs, _QUAD_EPSREL * abs(area)):
            break
    value = math.fsum(item[3] for item in heap)
    bound = max(epsabs, _QUAD_EPSREL * abs(area))
    if errsum > bound:
        raise error(f"quadrature over [{a!r}, {b!r}] did not converge: "
                    f"estimate {value!r} with error estimate {errsum!r} "
                    f"above the tolerance {bound!r}")
    return value


class CumulativeQuadrature:
    """Half-open running integral F(t) = integral of fn over [lo, t) plus atoms.

    atoms holds (tau, mass) pairs inside [lo, hi], strictly increasing in
    tau; the atom at tau counts in F(t) only for t > tau, and right_limit
    adds the atom at t itself.  Each query is first snapped into [lo, hi]
    by _snap, which raises GaugeError.

    The density part is memoized in a sorted breakpoint table.  It holds
    only lo until the first query, which seeds it at the breakpoints and
    atoms inside (lo, hi], in increasing order, before its own point: a
    caller that never queries, such as the solvers, integrates nothing,
    and a seed panel's error is raised by every query, not by the
    constructor.  A query at a new t integrates fn only across the gap
    from the nearest cached point below and clamps the result between
    the neighboring cached values.  A panel is _adaptive_quad of fn, or,
    where _gauss is n (1 or 2), the n-point Gauss-Legendre rule, exact
    where fn is a polynomial of degree at most 2n - 1: whoever sets
    _gauss also seeds the breaks between fn's polynomial pieces, so no
    panel crosses one.  A Gauge whose density is a piecewise-affine
    expression takes n = 1, its width times fn at its midpoint.  Where
    _gauss is _K7, a panel is one 7-point Gauss-Kronrod panel (_qk7)
    that passes _adaptive_quad's first-panel test and is finite, or else
    _adaptive_quad itself, unchanged; only the running integral that
    calculus.ftc_forward_check differentiates takes it.  With
    nonnegative=True the table must stay nondecreasing: a panel that
    integrates below -tol, or a new value above its right neighbor by
    more than tol, means the integrand is negative somewhere and raises
    GaugeError; smaller violations are rounding and are clamped away.  A
    non-finite panel raises GaugeError.  _values_at walks a list of
    points through the table in order, under one hold of the lock for all
    of them, and answers each as its own query would be answered there;
    value(t) is the walk of one point.  Thread-safe.
    The cache is not invisible: a value is a sum of panels from the
    points cached before it, so its last bits depend on the points
    queried before it.
    """

    # the nodes of the Gauss-Legendre panel, _K7 for a _qk7 panel before
    # _adaptive_quad, or None for _adaptive_quad
    _gauss: int | str | None = None

    def __init__(self, fn: Callable[[float], float], lo: float, hi: float,
                 tol: float = _QUAD_TOL, breakpoints: Sequence[float] = (),
                 nonnegative: bool = False,
                 atoms: Sequence[tuple[float, float]] = ()):
        self.fn = fn
        self.lo = float(lo)
        self.hi = float(hi)
        self.tol = _check_tolerance(tol, "quad_tol")
        self.nonnegative = nonnegative
        self.atoms = tuple((float(tau), float(mass)) for tau, mass in atoms)
        self._taus = [tau for tau, _ in self.atoms]
        self._prefix = [0.0]
        for _, mass in self.atoms:
            self._prefix.append(self._prefix[-1] + mass)
        self._ts = [self.lo]
        self._vals = [0.0]
        self._lock = threading.RLock()
        # integrated, in this order, by _seed at the first query
        self._seeds = [t for t in sorted(set(float(p) for p in breakpoints)
                                         | set(self._taus))
                       if self.lo < t <= self.hi]

    def _seed(self) -> None:
        """Integrate the pending seeds, if any, in increasing order, each
        from the one before.  The first query calls it, and so does a
        running integral against a gauge, which may never query it.

        On an error the table goes back to [lo] and the seeds stay
        pending, so every later call raises it again.
        """
        with self._lock:
            seeds, self._seeds = self._seeds, []
            try:
                self._values_at(seeds)
            except BaseException:
                self._seeds = seeds
                del self._ts[1:], self._vals[1:]
                raise

    def _panel(self, lo: float, hi: float) -> float:
        if self._gauss is None:
            value = _adaptive_quad(self.fn, lo, hi, self.tol)
        elif self._gauss == _K7:
            value, err, resabs, resasc = _qk7(self.fn, lo, hi)
            if not (math.isfinite(value) and _first_panel_passes(
                    value, err, resabs, resasc, self.tol)):
                value = _adaptive_quad(self.fn, lo, hi, self.tol)
        else:
            # no panel crosses a break of fn, so the rule is exact on it
            if self._gauss == 1:
                value = (hi - lo) * self.fn(0.5 * (lo + hi))
            else:
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                value = half * (self.fn(mid - half * _GL2)
                                + self.fn(mid + half * _GL2))
            if not math.isfinite(value):
                raise GaugeError(f"non-finite integral over [{lo!r}, {hi!r}]")
        if self.nonnegative and value < 0.0:
            if value < -self.tol:
                raise GaugeError(
                    f"density integrates to {value!r} over [{lo!r}, {hi!r}]; "
                    "it must be nonnegative")
            value = 0.0
        return value

    def __call__(self, t: float) -> float:
        """F(t), as value(t)."""
        return self.value(t)

    def value(self, t: float) -> float:
        """F(t): the density part over [lo, t) plus the atoms below t."""
        return self._values_at((t,))[0]

    def _values_at(self, ts: Sequence[float]) -> list[float]:
        """[F(t) for t in ts]: the table's walk, one point after another
        under one hold of the lock."""
        out = []
        # _seed empties the table in place: these stay its lists
        table, vals, lo, hi = self._ts, self._vals, self.lo, self.hi
        with self._lock:
            for t in ts:
                t = float(t)
                if not lo <= t <= hi:
                    t = _snap(t, lo, hi)
                if self._seeds:
                    self._seed()
                i = bisect.bisect_left(table, t)
                if i < len(table) and table[i] == t:
                    v = vals[i]
                else:
                    left_v = vals[i - 1]
                    v = left_v + self._panel(table[i - 1], t)
                    if self.nonnegative:
                        if v < left_v:
                            v = left_v
                        if i < len(table) and v > vals[i]:
                            if v > vals[i] + self.tol:
                                raise GaugeError(
                                    f"running integral at {t!r} exceeds the "
                                    f"value at {table[i]!r} by "
                                    f"{v - vals[i]!r}; the density "
                                    "must be nonnegative")
                            v = vals[i]
                    table.insert(i, t)
                    vals.insert(i, v)
                out.append(v + self._prefix[bisect.bisect_left(self._taus, t)])
        return out

    def jump_at(self, t: float) -> float:
        """Mass of the atom at t, or 0.0."""
        t = _snap(t, self.lo, self.hi)
        i = bisect.bisect_left(self._taus, t)
        if i < len(self._taus) and self._taus[i] == t:
            return self.atoms[i][1]
        return 0.0

    def right_limit(self, t: float) -> float:
        """F(t+), i.e. F(t) plus the atom at t."""
        return self.value(t) + self.jump_at(t)

    def jumps_on(self, ts: np.ndarray) -> np.ndarray:
        """jump_at of every point of ts, a strictly increasing array
        inside [lo, hi].

        Each of the few atoms is looked up among the points, not each
        point among the atoms; an atom lands on the first point not below
        it, if that point equals it.
        """
        import numpy as np

        taus = np.array(self._taus, dtype=float)
        idx = np.searchsorted(ts, taus)
        hit = idx < len(ts)
        hit[hit] = ts[idx[hit]] == taus[hit]
        out = np.zeros(len(ts))
        out[idx[hit]] = np.array([mass for _, mass in self.atoms],
                                 dtype=float)[hit]
        return out


class DistinguishedSets(Record):
    """Jump points, constancy intervals, and their endpoints for a gauge.

    d_set holds the jump positions, c_set the maximal open constancy
    intervals, and n_set the constancy endpoints that are not themselves
    jumps.  Points of c_set and n_set carry no measure and are excluded
    from differentiation.
    """

    d_set: tuple[float, ...]
    c_set: tuple[tuple[float, float], ...]
    n_set: tuple[float, ...]

    @property
    def o_set(self) -> dict:
        return {"intervals": self.c_set, "points": self.n_set}

    def jump_near(self, x: float, snap: float = SNAP_RADIUS) -> Optional[float]:
        """The first jump position within snap of x, or None."""
        for tau in self.d_set:
            if abs(x - tau) <= snap:
                return tau
        return None

    def is_jump(self, x: float, snap: float = SNAP_RADIUS) -> bool:
        return self.jump_near(x, snap) is not None

    def excludes(self, x: float, snap: float = SNAP_RADIUS) -> bool:
        """True when x sits inside a constancy interval or on an n_set point."""
        if self.is_jump(x, snap):
            return False
        for lo, hi in self.c_set:
            if lo + snap < x < hi - snap:
                return True
        return any(abs(x - p) <= snap for p in self.n_set)


_MEASURE_KINDS = ("[)", "()", "[]", "(]", "{}")


class Gauge(CumulativeQuadrature):
    """A left-continuous nondecreasing gauge on [a, b] with g(a) = 0.

    It is the running integral of its density with its jumps as atoms.

    Args:
        domain: pair (a, b) with a < b.
        density: nonnegative integrable callable on [a, b].
        jumps: iterable of (tau, size) with a <= tau <= b and size > 0,
            strictly increasing in tau.
        flats: declared open constancy intervals, disjoint, inside (a, b);
            the density is expected to vanish on them.
        quad_tol: absolute tolerance per quadrature panel, finite and
            non-negative.
        density_source: optional expression text in the variable t that
            reproduces the density; required only for JSON serialization.

    Instances are immutable apart from the internal quadrature cache and
    are callable: g(t) evaluates the gauge.  The constructor probes the
    density at 17 points and integrates nothing; the first query seeds
    the cache at the jumps, the flat ends and, for a density from
    expr.as_function that is piecewise affine, its kinks, and raises
    GaugeError if a panel between them integrates below zero.
    """

    def __init__(self, domain: tuple[float, float],
                 density: Callable[[float], float],
                 jumps: Sequence[tuple[float, float]] = (),
                 flats: Sequence[tuple[float, float]] = (),
                 quad_tol: float = _QUAD_TOL,
                 density_source: Optional[str] = None):
        a, b = _check_domain(domain)
        self._density_source = density_source

        pairs = []
        for tau, size in jumps:
            tau, size = float(tau), float(size)
            if not (a <= tau <= b):
                raise GaugeError(f"jump position {tau!r} outside [{a!r}, {b!r}]")
            if not 0.0 < size < math.inf:
                raise GaugeError(
                    f"jump size {size!r} must be positive and finite")
            if pairs and tau <= pairs[-1][0]:
                raise GaugeError("jump positions must be strictly increasing")
            pairs.append((tau, size))

        flat_list = []
        for lo, hi in flats:
            lo, hi = float(lo), float(hi)
            if not (a <= lo < hi <= b):
                raise GaugeError(f"flat ({lo!r}, {hi!r}) outside the domain")
            if flat_list and lo < flat_list[-1][1]:
                raise GaugeError("flats must be disjoint and sorted")
            if any(lo < tau < hi for tau, _ in pairs):
                raise GaugeError(
                    f"flat ({lo!r}, {hi!r}) contains a jump in its interior")
            flat_list.append((lo, hi))
        self._flats = tuple(flat_list)

        for t in _linspace(a, b, 17):
            if float(density(t)) < _NEGATIVE_DENSITY:
                raise _negative_density(t)

        self._pieces = _pieces_of(density, a, b)
        kinks = (None if self._pieces is None
                 else tuple(x for x, _ in self._pieces[1:]))
        super().__init__(density, a, b, tol=quad_tol, nonnegative=True,
                         breakpoints=[p for iv in flat_list for p in iv]
                         + list(kinks or ()),
                         atoms=pairs)
        # the sorted kinks inside (a, b), between which the density is
        # affine, or None for a density without pieces
        self._kinks = kinks
        if kinks is not None:
            self._gauss = 1
        self._dsets: Optional[DistinguishedSets] = None
        self._dsets_lock = threading.Lock()

    # --- basic accessors ---

    @property
    def domain(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def density(self) -> Callable[[float], float]:
        return self.fn

    @property
    def jumps(self) -> tuple[tuple[float, float], ...]:
        return self.atoms

    @property
    def flats(self) -> tuple[tuple[float, float], ...]:
        return self._flats

    @property
    def quad_tol(self) -> float:
        return self.tol

    @property
    def density_source(self) -> Optional[str]:
        return self._density_source

    # --- evaluation ---

    def __call__(self, t: float) -> float:
        """g(t) = measure of [a, t); left-continuous, g(a) = 0."""
        return self.value(t)

    # --- measures ---

    def measure(self, c: float, d: Optional[float] = None, kind: str = "[)") -> float:
        """Measure of an interval against this gauge.

        kind selects the interval form: '[)' for [c, d), '()' for (c, d),
        '[]' for [c, d], '(]' for (c, d], and '{}' for the singleton {c}
        (d is ignored).  Endpoints must satisfy c <= d and lie in the
        domain.
        """
        if kind not in _MEASURE_KINDS:
            raise GaugeError(f"unknown interval kind {kind!r}")
        if kind == "{}":
            return self.jump_at(c)
        if d is None:
            raise GaugeError("interval measure needs both endpoints")
        c, d = float(c), float(d)
        if c > d:
            raise GaugeError(f"endpoints out of order: {c!r} > {d!r}")
        # g(t) measures [a, t): a closed right end adds the atom at d, an
        # open left end takes away the atom at c
        value = self(d)
        if kind[1] == "]":
            value += self.jump_at(d)
        value -= self(c)
        if kind[0] == "(":
            value -= self.jump_at(c)
        return value

    # --- distinguished sets ---

    def distinguished_sets(self, samples: int = _FLAT_SAMPLES) -> DistinguishedSets:
        """Jump set, constancy intervals and constancy endpoints.

        Declared flats are trusted verbatim, and detected constancy
        intervals supplement them, never override them.  For a density
        from expr.as_function that is piecewise affine (expr._pieces),
        the detected intervals are its pieces whose coefficients are
        exactly zero, with their exact ends: a piece that is tiny but not
        zero is not flat.  Only for any other density is the density
        sampled, at samples points of a uniform grid, collecting maximal
        runs that stay below a relative threshold.  A jump strictly inside
        splits an interval.  The default-resolution result is cached.

        Raises:
            GaugeError: when samples is below 2, for every density: a grid
                of fewer points holds no run.
        """
        _check_count(samples, 2, "samples")
        if samples == _FLAT_SAMPLES and self._dsets is not None:
            return self._dsets
        result = self._compute_dsets(samples)
        if samples == _FLAT_SAMPLES:
            with self._dsets_lock:
                if self._dsets is None:
                    self._dsets = result
                result = self._dsets
        return result

    def _compute_dsets(self, samples: int) -> DistinguishedSets:
        a, b = self.lo, self.hi
        if self._pieces is not None:
            # each piece runs to the next kink, the last one to b
            runs = [(x, end) for (x, c), end
                    in zip(self._pieces, (*self._kinks, b))
                    if c == (0.0, 0.0)]
            shortest = 0.0
        else:
            runs = self._scan(samples)
            shortest = 2.0 * (b - a) / (samples - 1)

        detected: list[tuple[float, float]] = []
        for lo, hi in runs:
            # a jump strictly inside splits the run
            cuts = [tau for tau in self._taus if lo < tau < hi]
            for plo, phi in zip([lo] + cuts, cuts + [hi]):
                if phi - plo > shortest:
                    detected.append((plo, phi))

        merged = self._merge_intervals(list(self._flats) + detected)
        endpoints = sorted({p for iv in merged for p in iv})
        n_set = tuple(p for p in endpoints if self.jump_at(p) == 0.0)
        return DistinguishedSets(d_set=tuple(self._taus),
                                 c_set=tuple(merged),
                                 n_set=n_set)

    def _scan(self, samples: int) -> list[tuple[float, float]]:
        """The maximal runs of at least two points of a uniform grid of
        samples points where the density stays below a relative threshold,
        as (first point, last point)."""
        ts = _linspace(self.lo, self.hi, samples)
        dens = [abs(float(self.density(t))) for t in ts]
        threshold = SNAP_RADIUS * (1.0 + max(dens))
        flat_mask = [d <= threshold for d in dens]
        runs = []
        i = 0
        while i < samples:
            if not flat_mask[i]:
                i += 1
                continue
            j = i
            while j + 1 < samples and flat_mask[j + 1]:
                j += 1
            if j > i:
                runs.append((ts[i], ts[j]))
            i = j + 1
        return runs

    def _merge_intervals(self, intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
        if not intervals:
            return []
        intervals.sort()
        merged = [intervals[0]]
        for lo, hi in intervals[1:]:
            mlo, mhi = merged[-1]
            # overlapping pieces merge freely; pieces that only touch merge
            # when the shared endpoint carries no atom, since an atom there
            # breaks constancy across it
            if lo < mhi or (lo == mhi and self.jump_at(lo) == 0.0):
                merged[-1] = (mlo, max(mhi, hi))
            else:
                merged.append((lo, hi))
        return merged

    # --- constructors and serialization ---

    @classmethod
    def identity(cls, domain: tuple[float, float] = (0.0, 1.0)) -> "Gauge":
        """The gauge with unit density and no jumps: g(t) = t - a."""
        return cls.from_dict({"domain": domain, "density": "1"})

    def to_dict(self) -> dict:
        if self._density_source is None:
            raise GaugeError(
                "gauge density has no expression form; cannot serialize")
        return {
            "domain": [self.lo, self.hi],
            "density": self._density_source,
            "jumps": [[tau, size] for tau, size in self.jumps],
            "flats": [[lo, hi] for lo, hi in self._flats],
        }

    @classmethod
    def from_dict(cls, data: dict, quad_tol: float = _QUAD_TOL) -> "Gauge":
        try:
            domain = (float(data["domain"][0]), float(data["domain"][1]))
            source = data["density"]
            jumps = tuple((float(t), float(s)) for t, s in data.get("jumps", ()))
            flats = tuple((float(lo), float(hi))
                          for lo, hi in data.get("flats", ()))
        except (KeyError, TypeError, IndexError, ValueError,
                OverflowError) as exc:
            raise GaugeError(f"malformed gauge data: {exc}") from exc
        density_expr = expr_mod.parse(source, {"t"})
        density = expr_mod.as_function(density_expr, "t")
        return cls(domain, density, jumps=jumps, flats=flats,
                   quad_tol=quad_tol, density_source=source)
