"""Differentiation and integration against a gauge.

The derivative of f at x against a gauge g is the limit of
(f(y) - f(x)) / (g(y) - g(x)) as y -> x.  The displacement derivative
replaces the numerator by delta2(f(x), f(y)) for a target space delta2;
the plain difference is the special case delta2(u, v) = v - u, so both
go through one engine.  Three point classes arise:

* continuity points: the limit is two-sided and is estimated here from
  geometrically shrinking one-sided difference quotients, extrapolated
  by a Richardson tableau; the sides must agree or DerivativeError is
  raised carrying the diagnostic sequences.  Each denominator is the
  mass g gives the interval between x and y (after López Pouso &
  Rodríguez, 2015), summed in panels over it and read from no table, so
  its rounding is of its own size, not of g's, and no earlier query
  moves its bits; its panels refuse a density that integrates below
  zero, as a query's do.  The numerator of an f that is itself a
  CumulativeQuadrature (a gauge or a running integral) is f's mass too
  under the plain difference, and delta2(f(x), f(x) + mass) under any
  other; a plain f's is delta2(f(x), f(y)).  A side is read in the loop
  that takes its limit, the right side first, so an f that raises on
  the left cannot mask the right side's refusal.
* jump points of g: the limit reduces to the exact one-sided quotient
  (f(x+) - f(x)) / atom, where atom is the jump size.  f(x+) comes from
  a right_limit method when the callable provides one (gauges and the
  running integrals below do), otherwise from the limit of f's samples
  right of x.
* excluded points: interiors of constancy intervals and their isolated
  endpoints carry no measure and no derivative; queries within 1e-12 of
  them return a result classed 'excluded' with no value.

One rule accepts every one-sided limit: a side's quotients and f right
of an atom.  Its estimate is the samples' Richardson extrapolation, its
error the larger of the tableau's spread and the distance to the nearest
sample less four of the samples' last steps (negative where they
approach the limit linearly).  The limit exists when the estimate is
finite and its error is at most 1e-2 of its scale, |estimate| plus the
first sample's distance from it: the samples' own size, small where they
diverge.  So a small f is held to its own size: the first two samples of
0.01*cos(8*(t - 0.6875)) right of an atom at 0.5 agree by chance, and
1e-2 * (1 + |estimate|) would pass their jump quotient 0.0323 (the value
is 0).  The error reported is the error tested.  The sides of a
continuity point agree within 1e-3 * (1 + |right| + |left|), not on
their scales, which grow with f's curvature over the reach.

Only this engine classifies points (after López Pouso & Rodríguez,
2015); the FTC harnesses read DerivativeResult.point_class.

Integration is the half-open Stieltjes sum: integral of f over [a, u)
equals the density part plus the atoms f(tau) * size for tau < u, so the
atom at the upper endpoint is excluded.  A running integral is a
CumulativeQuadrature, like the gauge behind it, so a difference quotient
reads its increments as it reads the gauge's.  Its panels follow the
gauge module's one rule by degree: against a piecewise-affine density,
whose own panels are the 1-point rule, the midpoint, an f that is
piecewise affine as well makes the integrand a quadratic between the
seeds, and a panel the exact 2-point Gauss-Legendre rule; any other pair
is integrated by adaptive QK21, in ftc_forward_check after one 7-point
Gauss-Kronrod panel that is kept where it passes QK21's first-panel
test.

The two fundamental-theorem harnesses close the loop: ftc_forward_check
differentiates the running integral of f and compares against f on a
grid; ftc2_check differentiates a given F and rebuilds it from its
derivative, reporting points where the derivative fails to exist.  Both
read a CumulativeQuadrature by its increments, so neither report
depends on the points queried before.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Optional, Sequence

from . import displacement, expr
from .gauge import (_EPS, _K7, _QUAD_TOL, SNAP_RADIUS,
                    CumulativeQuadrature, DistinguishedSets, Gauge,
                    _adaptive_quad, _check_count, _check_tolerance,
                    _linspace, _pieces_of, _snap)
from .serialize import Record

__all__ = [
    "CalculusError",
    "DerivativeError",
    "DerivativeResult",
    "delta_derivative",
    "pair_derivative",
    "CumulativeStieltjesIntegral",
    "stieltjes_integral",
    "MeasurePath",
    "path_integral",
    "FtcReport",
    "ftc_forward_check",
    "ftc2_check",
    "DEFAULT_SHRINK_LEVELS",
]

DEFAULT_SHRINK_LEVELS = 12


class CalculusError(Exception):
    """Base class for differentiation and integration failures."""


class DerivativeError(CalculusError):
    """Difference quotients failed to converge to a two-sided limit."""

    def __init__(self, message: str, point: float,
                 diagnostics: Optional[dict] = None):
        self.point = point
        self.diagnostics = diagnostics or {}
        super().__init__(f"{message} at x = {point!r}")


class DerivativeResult(Record):
    """Derivative estimate at one point.

    point_class is 'continuity', 'jump', or 'excluded'; value is None
    exactly for excluded points.
    """

    value: Optional[float]
    point_class: str
    error_estimate: float
    samples_used: int


# the Richardson divisors 2.0 ** j - 1.0, for every j whose power is finite
_RICHARDSON_DIV = tuple(2.0 ** j - 1.0 for j in range(1024))


def _richardson(values: Sequence[float]) -> tuple[float, float]:
    """Extrapolate a step-halving sequence; return (estimate, spread).

    Assumes the error expands in integer powers of the step.  The
    estimate is taken from the tableau diagonal at the index where
    consecutive diagonal entries agree best, which keeps rounding noise
    from the deepest levels out of the answer.  The tableau is built row
    by row in one list, which holds the row above until it is overwritten.
    """
    n = len(values)
    row: list[float] = []
    diag = []
    for value in values:
        # row holds the row above; entry j is overwritten once it is read
        prev = value
        for j, above in enumerate(row):
            row[j] = prev
            prev = prev + (prev - above) / _RICHARDSON_DIV[j + 1]
        row.append(prev)
        diag.append(prev)
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


def _reach(x: float, direction: int, g: Gauge, dsets: DistinguishedSets,
           avoid: Sequence[float]) -> float:
    """Half the room on one side of x before the domain end or a structure
    point: a jump, a flat end point or a point to avoid.  n_set is not
    scanned: its points are flat end points."""
    a, b = g.domain
    limit = (b - x) if direction > 0 else (x - a)
    for p in (*dsets.d_set, *avoid,
              *(end for iv in dsets.c_set for end in iv)):
        d = (p - x) if direction > 0 else (x - p)
        if d > SNAP_RADIUS:
            limit = min(limit, d)
    return 0.5 * limit


def _side_points(x: float, direction: int, g: Gauge, dsets: DistinguishedSets,
                 avoid: Sequence[float], levels: int) -> list[float]:
    """The points x + direction * h of one side, h = reach / 2**k for k <
    levels until h is rounding, at most one per Richardson divisor; none
    when the side has no room.  h is halved level by level, which is
    exact: it stays far above the subnormals."""
    reach = _reach(x, direction, g, dsets, avoid)
    scale = max(1.0, abs(x))
    if reach < 1e3 * _EPS * scale:
        return []
    floor = 32.0 * _EPS * scale
    ys = []
    h = reach
    for _ in range(min(levels, len(_RICHARDSON_DIV))):
        if h < floor:
            break
        ys.append(x + direction * h)
        h *= 0.5
    return ys


def _limit(values: Sequence[float]) -> Optional[tuple[float, float]]:
    """(estimate, error) of the limit of values, taken at points nearing
    x in order, or None where they have none, by the one rule the module
    docstring states."""
    if len(values) < 2:
        return None
    estimate, spread = _richardson(values)
    error = max(spread, abs(values[-1] - estimate)
                - 4.0 * abs(values[-1] - values[-2]))
    # not the farthest sample's distance, which grows where samples
    # diverge, nor the closest's, rounding where they settle after one
    scale = abs(estimate) + abs(values[0] - estimate)
    if math.isfinite(estimate) and error <= 1e-2 * scale:
        return estimate, error
    return None


def _side_limit(values: list[float], key: str, x: float,
                diagnostics: dict) -> tuple[float, float]:
    """_limit of one side's samples, taken at its points in order.  The
    samples go into diagnostics under key ('right' or 'left'), which
    DerivativeError carries where there is no limit."""
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


def _disagree(limits: Sequence[tuple[float, float]]) -> bool:
    """True when a left and a right limit differ by more than
    1e-3 * (1 + |right| + |left|)."""
    if len(limits) < 2:
        return False
    (lr, _), (ll, _) = limits
    return abs(lr - ll) > 1e-3 * (1.0 + abs(lr) + abs(ll))


def _difference(u: float, v: float) -> float:
    """The plain numerator v - u."""
    return v - u


def _signed(mass: Callable[[float, float], float], x: float,
            ys: Sequence[float], direction: int) -> list[float]:
    """mass(x, y) at each y of a right side, -mass(y, x) on a left one."""
    if direction > 0:
        return [mass(x, y) for y in ys]
    return [-mass(y, x) for y in ys]


def _derivative(f: Callable[[float], float], g: Gauge,
                displaced: Callable[[float, float], float], x: float,
                shrink_levels: int, dsets: Optional[DistinguishedSets],
                avoid: Sequence[float]) -> DerivativeResult:
    """Limit of displaced(f(x), f(y)) / (g(y) - g(x)) as y -> x, by the
    module docstring's rules.  A continuity point adds no point to g's
    table, nor to f's where f is a CumulativeQuadrature and displaced the
    plain difference: f is then not called at all."""
    # one level gives one sample per side, which no test can call converged
    _check_count(shrink_levels, 2, "shrink_levels", CalculusError)
    if dsets is None:
        dsets = g.distinguished_sets()
    a, b = g.domain
    x = _snap(x, a, b, "x", CalculusError)

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
            fplus, error = _side_limit([float(f(y)) for y in ys], "right",
                                       tau, {})
            used = len(ys)
        return DerivativeResult(value=displaced(fx, fplus) / atom,
                                point_class="jump",
                                error_estimate=error / atom,
                                samples_used=used + 1)

    if dsets.excludes(x):
        return DerivativeResult(value=None, point_class="excluded",
                                error_estimate=0.0, samples_used=0)

    cumulative = isinstance(f, CumulativeQuadrature)
    fx = None if cumulative and displaced is _difference else float(f(x))
    sides = []
    for key, direction in (("right", +1), ("left", -1)):
        ys = _side_points(x, direction, g, dsets, avoid, shrink_levels)
        if ys:
            sides.append((key, direction, ys))
    diagnostics: dict = {}
    if not sides:
        raise DerivativeError("no side of x admits difference quotients",
                              x, diagnostics)
    # a side's f is sampled in the loop that takes its limit, so an f that
    # raises on the left cannot mask the right side's refusal
    limits = []
    for key, direction, ys in sides:
        # the sides stop short of g's atoms, not of f's
        den = _signed(g._increment, x, ys, direction)
        if not cumulative:
            num = [displaced(fx, float(f(y))) for y in ys]
        else:
            # f = g takes each numerator's bits from its denominator
            num = den if f is g else _signed(f._mass, x, ys, direction)
            if fx is not None:
                num = [displaced(fx, fx + m) for m in num]
        limits.append(_side_limit(
            [n / d for n, d in zip(num, den) if d != 0.0],
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
                            samples_used=sum(len(ys) for *_, ys in sides))


def delta_derivative(f: Callable[[float], float], g: Gauge, x: float,
                     shrink_levels: int = DEFAULT_SHRINK_LEVELS,
                     dsets: Optional[DistinguishedSets] = None,
                     avoid: Sequence[float] = ()) -> DerivativeResult:
    """Derivative of f against the gauge g at x.

    Args:
        f: callable on the gauge domain; an optional right_limit method
            is used for exact jump quotients.
        g: the gauge.
        x: query point inside the domain.
        shrink_levels: number of geometric step halvings per side, at
            least 2.
        dsets: precomputed distinguished sets (computed if omitted).
        avoid: extra points (e.g. breakpoints of f) that shrink the
            initial step so quotients never straddle them.

    Raises:
        CalculusError: when shrink_levels is below 2 or x is outside the
            domain.
        DerivativeError: when the quotient sequences, or the samples of
            f(x+) at a jump, fail to converge, or the two sides disagree;
            the exception carries the sequences.
    """
    return _derivative(f, g, _difference, x, shrink_levels, dsets, avoid)


def pair_derivative(f: Callable[[float], float], g1: Gauge, delta2,
                    x: float, shrink_levels: int = DEFAULT_SHRINK_LEVELS,
                    dsets: Optional[DistinguishedSets] = None,
                    avoid: Sequence[float] = ()) -> DerivativeResult:
    """Derivative of f with displaced numerator and gauge denominator.

    The quotient is delta2(f(x), f(y)) / (g1(y) - g1(x)): the numerator
    measures the displacement between values of f in the target space
    delta2, the denominator is the source gauge increment.  Point
    classes and convergence rules match delta_derivative.
    """
    return _derivative(f, g1, delta2.delta, x, shrink_levels, dsets, avoid)


class CumulativeStieltjesIntegral(CumulativeQuadrature):
    """Running half-open integral F(u) = integral of f over [a, u).

    A CumulativeQuadrature of f times the gauge density whose atoms are
    f(tau) * size at the gauge's jumps, so the atom at tau counts only
    for u > tau, and right_limit(u) adds the atom at u itself: jump
    quotients against F are exact.  Its table is seeded at f_breaks, the
    gauge's flat ends and kinks, and the kinks of an f from
    expr.as_function that is piecewise affine, so no panel crosses one.
    The integrand is expr._product of f and the density: one compiled
    function where both come from expr.as_function.  Where the density is
    piecewise affine and so is f, f times the density is a quadratic on
    every panel, and a panel is the 2-point Gauss-Legendre rule, exact
    for it (gauge.CumulativeQuadrature._gauss); every other panel is
    QK21, after a 7-point Gauss-Kronrod panel in the one that
    ftc_forward_check builds.  f is piecewise affine when it is such an expression, or when
    it has a true _affine attribute: then it is affine between its
    f_breaks, as ftc2_check's interpolant is between its knots.
    """

    def __init__(self, f: Callable[[float], float], g: Gauge,
                 f_breaks: Sequence[float] = ()):
        # g's first query refuses a density that integrates below zero;
        # refuse it here too, since this integral may never query g
        g._seed()
        self.f = f
        self.g = g
        atoms = []
        for tau, size in g.jumps:
            contribution = float(f(tau)) * size
            if not math.isfinite(contribution):
                raise CalculusError(
                    f"integrand is not finite at the jump point {tau!r}")
            atoms.append((tau, contribution))
        pieces = _pieces_of(f, *g.domain)
        seeds = (list(f_breaks) + [p for iv in g.flats for p in iv]
                 + list(g._kinks or ())
                 + [x for x, _ in (pieces or ())[1:]])
        super().__init__(expr._product(f, g.density), *g.domain,
                         tol=g.quad_tol, breakpoints=seeds, atoms=atoms)
        if g._pieces is not None and (
                pieces is not None or getattr(f, "_affine", False)):
            self._gauss = 2


def stieltjes_integral(f: Callable[[float], float], g: Gauge, upper: float,
                       f_breaks: Sequence[float] = ()) -> float:
    """Integral of f against g over [a, upper); the atom at upper is excluded."""
    return CumulativeStieltjesIntegral(f, g, f_breaks)(upper)


class MeasurePath(Record):
    """A base-point path t -> alpha(t) for path-dependent measures."""

    alpha: Callable[[float], float]
    description: str = ""


def path_integral(f: Callable[[float], float], path: MeasurePath, spec,
                  upper: float, quad_tol: float = _QUAD_TOL) -> float:
    """Integral of f against the moving-base-point measure of a smooth space.

    The measure seen along the path has density d2(alpha(t), t), so the
    value is the ordinary integral of f(t) * d2(alpha(t), t) dt from the
    left domain endpoint to upper, to the finite, non-negative tolerance
    quad_tol per panel.
    """
    displacement._require_smooth(spec, "path_integral")
    quad_tol = _check_tolerance(quad_tol, "quad_tol", CalculusError)
    a, b = spec.domain
    upper = _snap(upper, a, b, "upper", CalculusError)

    def integrand(t: float) -> float:
        return float(f(t)) * spec.d2(path.alpha(t), t)

    return _adaptive_quad(integrand, a, upper, quad_tol, error=CalculusError)


class FtcReport(Record):
    """Grid comparison between a derivative and its target function."""

    max_error: float
    worst_point: Optional[float]
    checked: int
    excluded: tuple[float, ...]
    violations: tuple[dict, ...] = ()


_F_BREAK_GUARD = 1e-6


def _derivatives(F: Callable[[float], float], g: Gauge,
                 points: Sequence[float], shrink_levels: int,
                 f_breaks: Sequence[float] = ()
                 ) -> tuple[list, list, list]:
    """The derivative of F against g at each point, in order, sorted into
    (point, value) pairs, excluded points and violations.  A point off the
    jumps within 1e-6 of a breakpoint of f has no two-sided derivative: it
    is excluded, as are the points the derivative classes so."""
    dsets = g.distinguished_sets()
    values, excluded, violations = [], [], []
    for t in points:
        if any(abs(t - p) < _F_BREAK_GUARD for p in f_breaks) and \
                dsets.jump_near(t) is None:
            excluded.append(t)
            continue
        try:
            d = _derivative(F, g, _difference, t, shrink_levels, dsets,
                            f_breaks)
        except DerivativeError as exc:
            violations.append({"point": t, "reason": str(exc)})
            continue
        if d.point_class == "excluded":
            excluded.append(t)
        else:
            values.append((t, d.value))
    return values, excluded, violations


def _worst(pairs) -> tuple[float, Optional[float]]:
    """The first (error, point) of largest positive error, or (0.0, None)."""
    max_error, worst = 0.0, None
    for err, t in pairs:
        if err > max_error:
            max_error, worst = err, t
    return max_error, worst


def ftc_forward_check(f: Callable[[float], float], g: Gauge, grid: int = 101,
                      shrink_levels: int = DEFAULT_SHRINK_LEVELS,
                      f_breaks: Sequence[float] = ()) -> FtcReport:
    """Differentiate the running integral of f and compare against f.

    The running integral F of f is formed first; its derivative against
    g is then evaluated on interior grid points (plus nothing else) and
    compared with f pointwise.  Where F would take adaptive QK21 panels,
    it tries one 7-point Gauss-Kronrod panel first and keeps it where
    _adaptive_quad would accept it as a first panel
    (gauge.CumulativeQuadrature._gauss), so its last bits can differ
    from stieltjes_integral's, which keeps QK21.  Points the derivative
    classes as excluded, and points within 1e-6 of a declared breakpoint
    of f where a two-sided derivative cannot exist, are skipped and
    reported in the excluded list.  A grid on which no point is compared
    and none fails raises CalculusError: there is nothing to report a
    verdict on.
    """
    _check_count(grid, 1, "grid", CalculusError)
    F = CumulativeStieltjesIntegral(f, g, f_breaks)
    if F._gauss is None:
        # nearly every panel is a short increment between a grid point
        # and a quotient sample, where 7 points pass the test that 21 would
        F._gauss = _K7
    a, b = g.domain
    values, excluded, violations = _derivatives(
        F, g, _linspace(a, b, grid + 2)[1:-1], shrink_levels, f_breaks)
    if not values and not violations:
        raise CalculusError(
            f"no grid point can be compared: all {grid} are excluded")
    max_error, worst = _worst((abs(v - float(f(t))), t) for t, v in values)
    return FtcReport(max_error=max_error, worst_point=worst,
                     checked=len(values), excluded=tuple(excluded),
                     violations=tuple(violations))


def _interp(x: float, xs: Sequence[float], ys: Sequence[float]) -> float:
    """np.interp(x, xs, ys) for one non-NaN x and increasing xs, bit for bit.

    It performs numpy's float operations: the end values outside the
    knots, ys[j] on a knot, slope * (x - xs[j]) + ys[j] between knots and,
    when that is NaN, the same from the right knot.
    """
    j = max(bisect.bisect_right(xs, x) - 1, 0)
    if x <= xs[j] or j == len(xs) - 1:
        return ys[j]
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    value = slope * (x - xs[j]) + ys[j]
    if math.isnan(value):
        value = slope * (x - xs[j + 1]) + ys[j + 1]
        if math.isnan(value) and ys[j] == ys[j + 1]:
            value = ys[j]
    return value


def ftc2_check(F: Callable[[float], float], g: Gauge, grid: int = 101,
               shrink_levels: int = DEFAULT_SHRINK_LEVELS) -> FtcReport:
    """Differentiate F and rebuild it from the derivative.

    The derivative of F against g is sampled on interior grid points and
    at every jump, interpolated linearly in between (constancy regions
    carry no measure, so values there are immaterial), and integrated
    back from the left endpoint.  The report's max_error is the maximum
    reconstruction deviation |F(a) + integral - F| over the comparison
    grid, with F(t) - F(a) read as F's mass of [a, t) (_mass) where F is
    a CumulativeQuadrature, so that no earlier query of F moves it;
    points where the derivative fails to exist are reported as
    violations, which is what happens when F is not absolutely
    continuous for the gauge.
    """
    # the comparison grid must reach past a, where the rebuild is exact
    _check_count(grid, 2, "grid", CalculusError)
    a, b = g.domain
    knots = set(_linspace(a, b, grid + 2)[1:-1])
    knots.add(a)
    knots.update(tau for tau, _ in g.jumps if tau < b)
    values, excluded, violations = _derivatives(F, g, sorted(knots),
                                                shrink_levels)
    if len(values) < 2:
        raise CalculusError(
            "not enough derivative samples to attempt reconstruction")
    kx = [t for t, _ in values]
    kv = [v for _, v in values]

    def rebuilt(t: float) -> float:
        return _interp(t, kx, kv)

    # affine between the knots, which the running integral seeds
    rebuilt._affine = True
    R = CumulativeStieltjesIntegral(rebuilt, g, f_breaks=kx)
    if isinstance(F, CumulativeQuadrature):
        base, target = 0.0, lambda t: F._mass(a, t)
    else:
        base, target = float(F(a)), lambda t: float(F(t))
    max_error, worst = _worst((abs(base + R(t) - target(t)), t)
                              for t in _linspace(a, b, grid))
    return FtcReport(max_error=max_error, worst_point=worst, checked=len(kx),
                     excluded=tuple(excluded), violations=tuple(violations))
