"""Differentiation and integration against a gauge.

The derivative of f at x against a gauge g is the limit of
(f(y) - f(x)) / (g(y) - g(x)) as y -> x.  The displacement derivative
replaces the numerator by delta2(f(x), f(y)) for a target space delta2;
the plain difference is the special case delta2(u, v) = v - u, so both
go through one engine.  Three point classes arise:

* continuity points: the limit is two-sided and is estimated here from
  geometrically shrinking one-sided difference quotients, extrapolated
  by a Richardson tableau; the sides must agree or DerivativeError is
  raised carrying the diagnostic sequences.
* jump points of g: the limit reduces to the exact one-sided quotient
  (f(x+) - f(x)) / atom, where atom is the jump size.  f(x+) comes from
  a right_limit method when the callable provides one (gauges and the
  running integrals below do), otherwise from right-sided extrapolation.
* excluded points: interiors of constancy intervals and their isolated
  endpoints carry no measure and no derivative; queries within 1e-12 of
  them return a result classed 'excluded' with no value.

Only this engine classifies points (after López Pouso & Rodríguez,
2015); the FTC harnesses read DerivativeResult.point_class.

Integration is the half-open Stieltjes sum: integral of f over [a, u)
equals the density part plus the atoms f(tau) * size for tau < u, so
the atom at the upper endpoint is excluded.  A running integral is a
CumulativeQuadrature, like the gauge behind it, which keeps differences
of nearby values exact enough to feed back into difference quotients.

The two fundamental-theorem harnesses close the loop: ftc_forward_check
differentiates the running integral of f and compares against f on a
grid; ftc2_check differentiates a given F and rebuilds it from its
derivative, reporting points where the derivative fails to exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .gauge import (_EPS, SNAP_RADIUS, CumulativeQuadrature, DistinguishedSets,
                    Gauge, _adaptive_quad, _linspace)
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


@dataclass(frozen=True)
class DerivativeResult(Record):
    """Derivative estimate at one point.

    point_class is 'continuity', 'jump', or 'excluded'; value is None
    exactly for excluded points.
    """

    value: Optional[float]
    point_class: str
    error_estimate: float
    samples_used: int


def _richardson(values: Sequence[float]) -> tuple[float, float]:
    """Extrapolate a step-halving sequence; return (estimate, spread).

    Assumes the error expands in integer powers of the step.  The
    estimate is taken from the tableau diagonal at the index where
    consecutive diagonal entries agree best, which keeps rounding noise
    from the deepest levels out of the answer.
    """
    n = len(values)
    tableau = [[v] for v in values]
    for i in range(1, n):
        for j in range(1, i + 1):
            prev = tableau[i][j - 1]
            tableau[i].append(prev + (prev - tableau[i - 1][j - 1])
                              / (2.0 ** j - 1.0))
    diag = [tableau[i][i] for i in range(n)]
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
    point: a jump, a flat end point or a point to avoid."""
    a, b = g.domain
    limit = (b - x) if direction > 0 else (x - a)
    for p in (*dsets.d_set, *dsets.n_set, *avoid,
              *(end for iv in dsets.c_set for end in iv)):
        d = (p - x) if direction > 0 else (x - p)
        if d > SNAP_RADIUS:
            limit = min(limit, d)
    return 0.5 * limit


def _side_samples(sample: Callable[[float], Optional[float]], x: float,
                  direction: int, reach: float,
                  levels: int) -> tuple[list[float], int]:
    """sample(x + direction * h) for h = reach / 2**k until h is rounding;
    a None sample is dropped but counts as used."""
    values, used = [], 0
    for k in range(levels):
        h = reach * 2.0 ** (-k)
        if h < 32.0 * _EPS * max(1.0, abs(x)):
            break
        used += 1
        value = sample(x + direction * h)
        if value is not None:
            values.append(value)
    return values, used


def _two_sided_limit(numerator: Callable[[float], float], g: Gauge, x: float,
                     shrink_levels: int, dsets: DistinguishedSets,
                     avoid: Sequence[float]) -> tuple[float, float, int]:
    gx = g(x)

    def quotient(y: float) -> Optional[float]:
        den = g(y) - gx
        return numerator(y) / den if den != 0.0 else None

    sides = []
    used_total = 0
    diagnostics = {}
    for direction in (+1, -1):
        reach = _reach(x, direction, g, dsets, avoid)
        if reach < 1e3 * _EPS * max(1.0, abs(x)):
            continue
        values, used = _side_samples(quotient, x, direction, reach,
                                     shrink_levels)
        used_total += used
        key = "right" if direction > 0 else "left"
        diagnostics[key] = list(values)
        if not values:
            raise DerivativeError(
                "gauge increments vanish on one side", x, diagnostics)
        estimate, spread = _richardson(values)
        if not math.isfinite(estimate) or \
                spread > 1e-2 * (1.0 + abs(estimate)):
            raise DerivativeError(
                f"difference quotients do not converge on the {key} side",
                x, diagnostics)
        sides.append((estimate, spread))
    if not sides:
        raise DerivativeError("no side of x admits difference quotients",
                              x, diagnostics)
    if len(sides) == 2:
        (lr, er), (ll, el) = sides
        if abs(lr - ll) > 1e-3 * (1.0 + abs(lr) + abs(ll)):
            raise DerivativeError(
                "left and right difference quotients disagree", x, diagnostics)
        value = 0.5 * (lr + ll)
        error = max(er, el, 0.5 * abs(lr - ll))
    else:
        value, error = sides[0]
    return value, error, used_total


def _derivative(f: Callable[[float], float], g: Gauge,
                displaced: Callable[[float, float], float], x: float,
                shrink_levels: int, dsets: Optional[DistinguishedSets],
                avoid: Sequence[float]) -> DerivativeResult:
    """Limit of displaced(f(x), f(y)) / (g(y) - g(x)) as y -> x."""
    if dsets is None:
        dsets = g.distinguished_sets()
    a, b = g.domain
    if not (a - SNAP_RADIUS <= x <= b + SNAP_RADIUS):
        raise CalculusError(f"point {x!r} outside the gauge domain")
    x = min(max(float(x), a), b)

    tau = dsets.jump_near(x)
    if tau is not None and tau < b:
        atom = g.jump_at(tau)
        fx = float(f(tau))
        if hasattr(f, "right_limit"):
            fplus = float(f.right_limit(tau))
            spread, used = 0.0, 1
        else:
            reach = _reach(tau, +1, g, dsets, avoid)
            if reach < 1e3 * _EPS * max(1.0, abs(tau)):
                raise DerivativeError("no room to the right of the jump", tau)
            values, used = _side_samples(lambda y: float(f(y)), tau, +1,
                                         reach, shrink_levels)
            if len(values) < 2:
                raise DerivativeError(
                    "no room to the right for a one-sided limit", tau)
            fplus, spread = _richardson(values)
        return DerivativeResult(value=displaced(fx, fplus) / atom,
                                point_class="jump",
                                error_estimate=spread / atom,
                                samples_used=used + 1)

    if dsets.excludes(x):
        return DerivativeResult(value=None, point_class="excluded",
                                error_estimate=0.0, samples_used=0)

    fx = float(f(x))
    value, error, used = _two_sided_limit(
        lambda y: displaced(fx, float(f(y))), g, x, shrink_levels, dsets,
        avoid)
    return DerivativeResult(value=value, point_class="continuity",
                            error_estimate=error, samples_used=used)


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
        shrink_levels: number of geometric step halvings per side.
        dsets: precomputed distinguished sets (computed if omitted).
        avoid: extra points (e.g. breakpoints of f) that shrink the
            initial step so quotients never straddle them.

    Raises:
        DerivativeError: when the quotient sequences fail to converge or
            the two sides disagree; the exception carries the sequences.
    """
    return _derivative(f, g, lambda u, v: v - u, x, shrink_levels, dsets,
                       avoid)


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
    quotients against F are exact.
    """

    def __init__(self, f: Callable[[float], float], g: Gauge,
                 f_breaks: Sequence[float] = ()):
        self.f = f
        self.g = g
        atoms = []
        for tau, size in g.jumps:
            contribution = float(f(tau)) * size
            if not math.isfinite(contribution):
                raise CalculusError(
                    f"integrand is not finite at the jump point {tau!r}")
            atoms.append((tau, contribution))
        seeds = list(f_breaks) + [p for iv in g.flats for p in iv]
        density = g.density
        super().__init__(lambda t: float(f(t)) * float(density(t)),
                         *g.domain, tol=g.quad_tol, breakpoints=seeds,
                         atoms=atoms)

    def __call__(self, upper: float) -> float:
        return self.value(upper)


def stieltjes_integral(f: Callable[[float], float], g: Gauge, upper: float,
                       f_breaks: Sequence[float] = ()) -> float:
    """Integral of f against g over [a, upper); the atom at upper is excluded."""
    return CumulativeStieltjesIntegral(f, g, f_breaks)(upper)


@dataclass(frozen=True)
class MeasurePath:
    """A base-point path t -> alpha(t) for path-dependent measures."""

    alpha: Callable[[float], float]
    description: str = ""


def path_integral(f: Callable[[float], float], path: MeasurePath, spec,
                  upper: float, quad_tol: float = 1e-10) -> float:
    """Integral of f against the moving-base-point measure of a smooth space.

    The measure seen along the path has density d2(alpha(t), t), so the
    value is the ordinary integral of f(t) * d2(alpha(t), t) dt from the
    left domain endpoint to upper.
    """
    if spec.kind != "smooth":
        raise CalculusError(
            f"path_integral requires a smooth variant, got {spec.kind!r}")
    a, b = spec.domain
    upper = float(upper)
    if not (a - SNAP_RADIUS <= upper <= b + SNAP_RADIUS):
        raise CalculusError(f"upper limit {upper!r} outside [{a!r}, {b!r}]")

    def integrand(t: float) -> float:
        return float(f(t)) * spec.d2(path.alpha(t), t)

    value = _adaptive_quad(integrand, a, upper, quad_tol)
    if not math.isfinite(value):
        raise CalculusError("path integral is not finite")
    return value


@dataclass(frozen=True)
class FtcReport(Record):
    """Grid comparison between a derivative and its target function."""

    max_error: float
    worst_point: Optional[float]
    checked: int
    excluded: tuple[float, ...]
    violations: tuple[dict, ...] = field(default_factory=tuple)


_F_BREAK_GUARD = 1e-6


def ftc_forward_check(f: Callable[[float], float], g: Gauge, grid: int = 101,
                      shrink_levels: int = DEFAULT_SHRINK_LEVELS,
                      f_breaks: Sequence[float] = ()) -> FtcReport:
    """Differentiate the running integral of f and compare against f.

    The running integral F of f is formed first; its derivative against
    g is then evaluated on interior grid points (plus nothing else) and
    compared with f pointwise.  Points the derivative classes as
    excluded, and points within 1e-6 of a declared breakpoint of f where
    a two-sided derivative cannot exist, are skipped and reported in the
    excluded list.  A grid on which no point is compared and none fails
    raises CalculusError: there is nothing to report a verdict on.
    """
    if grid < 1:
        raise CalculusError(f"grid must be at least 1, got {grid!r}")
    F = CumulativeStieltjesIntegral(f, g, f_breaks)
    dsets = g.distinguished_sets()
    a, b = g.domain
    candidates = _linspace(a, b, grid + 2)[1:-1]
    max_error = 0.0
    worst: Optional[float] = None
    excluded = []
    violations = []
    checked = 0
    for t in candidates:
        if dsets.jump_near(t) is None and any(
                abs(t - p) < _F_BREAK_GUARD for p in f_breaks):
            excluded.append(t)
            continue
        try:
            d = delta_derivative(F, g, t, shrink_levels, dsets, avoid=f_breaks)
        except DerivativeError as exc:
            violations.append({"point": t, "reason": str(exc)})
            continue
        if d.point_class == "excluded":
            excluded.append(t)
            continue
        checked += 1
        err = abs(d.value - float(f(t)))
        if err > max_error:
            max_error = err
            worst = t
    if not checked and not violations:
        raise CalculusError(
            f"no grid point can be compared: all {grid} are excluded")
    return FtcReport(max_error=max_error, worst_point=worst, checked=checked,
                     excluded=tuple(excluded), violations=tuple(violations))


def ftc2_check(F: Callable[[float], float], g: Gauge, grid: int = 101,
               shrink_levels: int = DEFAULT_SHRINK_LEVELS) -> FtcReport:
    """Differentiate F and rebuild it from the derivative.

    The derivative of F against g is sampled on interior grid points and
    at every jump, interpolated linearly in between (constancy regions
    carry no measure, so values there are immaterial), and integrated
    back from the left endpoint.  The report's max_error is the maximum
    reconstruction deviation |F(a) + integral - F| over the comparison
    grid; points where the derivative fails to exist are reported as
    violations, which is what happens when F is not absolutely
    continuous for the gauge.
    """
    # the comparison grid must reach past a, where the rebuild is exact
    if grid < 2:
        raise CalculusError(f"grid must be at least 2, got {grid!r}")
    dsets = g.distinguished_sets()
    a, b = g.domain
    knots = set(_linspace(a, b, grid + 2)[1:-1])
    knots.add(a)
    knots.update(tau for tau, _ in g.jumps if tau < b)
    kx, kv = [], []
    excluded = []
    violations = []
    for t in sorted(knots):
        try:
            d = delta_derivative(F, g, t, shrink_levels, dsets)
        except DerivativeError as exc:
            violations.append({"point": t, "reason": str(exc)})
            continue
        if d.point_class == "excluded":
            excluded.append(t)
            continue
        kx.append(t)
        kv.append(d.value)
    if len(kx) < 2:
        raise CalculusError(
            "not enough derivative samples to attempt reconstruction")
    import numpy as np

    kx_arr, kv_arr = np.asarray(kx), np.asarray(kv)

    def integrand(t: float) -> float:
        return float(np.interp(t, kx_arr, kv_arr))

    R = CumulativeStieltjesIntegral(integrand, g, f_breaks=kx)
    base = float(F(a))
    max_error = 0.0
    worst: Optional[float] = None
    for t in _linspace(a, b, grid):
        err = abs(base + R(t) - float(F(t)))
        if err > max_error:
            max_error = err
            worst = t
    return FtcReport(max_error=max_error, worst_point=worst, checked=len(kx),
                     excluded=tuple(excluded), violations=tuple(violations))
