"""Displacement spaces: signed distance-like structures and their axioms.

A displacement on a set X assigns each ordered pair (x, y) a signed real
Delta(x, y) that vanishes on the diagonal.  Four variants are provided:

* Smooth: Delta given by a formula or callable on a compact interval,
  optionally with an analytic partial derivative in the second argument.
* Stieltjes: Delta(x, y) = g(y) - g(x) for a left-continuous monotone
  gauge g; this is the canonical integrable case.
* FiniteGraph: a square nonnegative weight matrix read as one-way travel
  costs between vertices.
* Angular: counter-clockwise angular distance on [0, 2*pi).

The axioms checked here, tagged H1 through H5 in reports:

    H1   Delta(x, x) = 0.
    H2   upper semicontinuity of z -> |Delta(x, z)| at y, in the
         topology generated by the displacement balls themselves.
    H2'  a sufficient rescaling condition: for a strictly increasing
         phi with phi(0) = 0, psi = phi(|Delta|) is subadditive.
    H3   monotonicity in the second argument: Delta(x, y) <= Delta(x, z)
         whenever y <= z.
    H4   two base points see comparable displacements, with the
         comparability constant approaching 1 as the base points merge;
         quantified here through gamma_estimate.
    H5   left-continuity of Delta(x, .) at x.

Checks report pass, fail (with witnesses), or inconclusive; they are
sampling procedures, exhaustive only on finite graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from . import expr as expr_mod
from .expr import Expr
from .gauge import _EPS, Gauge, GaugeError, SNAP_RADIUS, _linspace
from .serialize import Record

__all__ = [
    "DisplacementError",
    "Smooth",
    "Stieltjes",
    "FiniteGraph",
    "Angular",
    "DisplacementSpec",
    "BUILTIN_NAMES",
    "make_builtin",
    "AxiomReport",
    "GammaEstimate",
    "BallInterval",
    "check_h1",
    "check_h2_usc",
    "check_h2prime",
    "check_h3",
    "check_h5",
    "check_d2_positive",
    "gamma_estimate",
    "rn_density",
    "delta_ball",
    "gauge_from_smooth",
    "spec_to_dict",
    "spec_from_dict",
    "ALGEBRAIC_TOL",
    "LIMIT_TOL",
]

ALGEBRAIC_TOL = 1e-9
LIMIT_TOL = 1e-6
TWO_PI = 2.0 * math.pi
_CBRT_EPS = _EPS ** (1.0 / 3.0)


class DisplacementError(ValueError):
    """Invalid displacement data, unsupported variant, or bad query."""


def _domain_slack(a: float, b: float) -> float:
    return SNAP_RADIUS * (1.0 + abs(a) + abs(b))


def _check_domain_point(name: str, value: float, a: float, b: float,
                        slack: float) -> float:
    value = float(value)
    if not (a - slack <= value <= b + slack):
        raise DisplacementError(
            f"{name} = {value!r} outside the domain [{a!r}, {b!r}]")
    return min(max(value, a), b)


class Smooth:
    """Displacement on [a, b] given by a formula or callable.

    Args:
        domain: pair (a, b), a < b.
        delta: Expr in the variables x, y, or a callable (x, y) -> float.
        d2: optional partial derivative of delta in its second argument,
            again an Expr in x, y or a callable; when absent it is
            approximated by extrapolated central differences.
    """

    kind = "smooth"

    def __init__(self, domain: tuple[float, float],
                 delta: Union[Expr, Callable[[float, float], float]],
                 d2: Union[Expr, Callable[[float, float], float], None] = None):
        a, b = float(domain[0]), float(domain[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise DisplacementError(f"invalid domain [{a!r}, {b!r}]")
        self._domain = (a, b)
        self._slack = _domain_slack(a, b)
        if isinstance(delta, Expr):
            self._delta_expr: Optional[Expr] = delta
            self._delta_fn = expr_mod.as_function(delta, "x", "y")
        else:
            self._delta_expr = None
            self._delta_fn = delta
        if isinstance(d2, Expr):
            self._d2_expr: Optional[Expr] = d2
            self._d2_fn: Optional[Callable[[float, float], float]] = \
                expr_mod.as_function(d2, "x", "y")
        else:
            self._d2_expr = None
            self._d2_fn = d2

    @property
    def domain(self) -> tuple[float, float]:
        return self._domain

    @property
    def delta_source(self) -> Optional[str]:
        return self._delta_expr.source if self._delta_expr is not None else None

    @property
    def d2_source(self) -> Optional[str]:
        return self._d2_expr.source if self._d2_expr is not None else None

    @property
    def delta_expr(self) -> Optional[Expr]:
        return self._delta_expr

    @property
    def d2_expr(self) -> Optional[Expr]:
        return self._d2_expr

    @property
    def has_analytic_d2(self) -> bool:
        return self._d2_fn is not None

    def delta(self, x: float, y: float) -> float:
        # a point inside [a, b] is its own clamp; only the rest (NaN
        # included) goes through the snap-or-raise check
        a, b = self._domain
        x = float(x)
        if not a <= x <= b:
            x = _check_domain_point("x", x, a, b, self._slack)
        y = float(y)
        if not a <= y <= b:
            y = _check_domain_point("y", y, a, b, self._slack)
        return float(self._delta_fn(x, y))

    def d2(self, x: float, y: float) -> float:
        """Partial derivative of delta in the second argument at (x, y)."""
        a, b = self._domain
        x = float(x)
        if not a <= x <= b:
            x = _check_domain_point("x", x, a, b, self._slack)
        y = float(y)
        if not a <= y <= b:
            y = _check_domain_point("y", y, a, b, self._slack)
        if self._d2_fn is not None:
            return float(self._d2_fn(x, y))
        return self._fd_d2(x, y)

    def _fd_d2(self, x: float, y: float) -> float:
        a, b = self._domain
        h = _CBRT_EPS * max(1.0, abs(y))
        if b - a <= 4.0 * h:
            raise DisplacementError("domain too small for finite differences")
        d = self._delta_fn
        if y - h >= a and y + h <= b:
            def diff(step: float) -> float:
                return (d(x, y + step) - d(x, y - step)) / (2.0 * step)
        elif y + 2.0 * h <= b:
            def diff(step: float) -> float:
                return (-3.0 * d(x, y) + 4.0 * d(x, y + step)
                        - d(x, y + 2.0 * step)) / (2.0 * step)
        else:
            def diff(step: float) -> float:
                return (3.0 * d(x, y) - 4.0 * d(x, y - step)
                        + d(x, y - 2.0 * step)) / (2.0 * step)
        coarse = diff(h)
        fine = diff(h / 2.0)
        # both stencils are second order, one halving step extrapolates
        return (4.0 * fine - coarse) / 3.0


class Stieltjes:
    """Displacement induced by a gauge: Delta(x, y) = g(y) - g(x)."""

    kind = "stieltjes"

    def __init__(self, gauge: Gauge):
        self._gauge = gauge

    @property
    def gauge(self) -> Gauge:
        return self._gauge

    @property
    def domain(self) -> tuple[float, float]:
        return self._gauge.domain

    def delta(self, x: float, y: float) -> float:
        return self._gauge(y) - self._gauge(x)


class FiniteGraph:
    """Displacement on vertices {0, .., n-1} from a square cost matrix."""

    kind = "graph"

    def __init__(self, weights: Sequence[Sequence[float]]):
        try:
            rows = tuple(tuple(float(w) for w in row) for row in weights)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DisplacementError(f"malformed weight matrix: {exc}") from exc
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DisplacementError("weight matrix must be square and nonempty")
        self._weights = rows
        self._n = n

    @property
    def weights(self) -> tuple[tuple[float, ...], ...]:
        return self._weights

    @property
    def n(self) -> int:
        return self._n

    def delta(self, x: float, y: float) -> float:
        i, j = int(x), int(y)
        if i != x or j != y or not (0 <= i < self._n and 0 <= j < self._n):
            raise DisplacementError(
                f"vertex indices must be integers in [0, {self._n}), got ({x!r}, {y!r})")
        return self._weights[i][j]


class Angular:
    """Counter-clockwise angular displacement on the circle [0, 2*pi)."""

    kind = "angular"
    domain = (0.0, TWO_PI)

    @staticmethod
    def _wrap(theta: float) -> float:
        r = math.fmod(theta, TWO_PI)
        if r < 0.0:
            r += TWO_PI
        if r >= TWO_PI:
            r = 0.0
        return r

    def delta(self, x: float, y: float) -> float:
        return self._wrap(float(y) - float(x))


DisplacementSpec = Union[Smooth, Stieltjes, FiniteGraph, Angular]

BUILTIN_NAMES = ("exponential", "roundabout", "santiago_graph", "identity_gauge")

_SANTIAGO_WEIGHTS = (
    (0.0, 9.0, 4.0, 10.0),
    (10.0, 0.0, 14.0, 8.0),
    (7.0, 9.0, 0.0, 5.0),
    (11.0, 6.0, 7.0, 0.0),
)


def make_builtin(name: str) -> DisplacementSpec:
    """Construct one of the named example spaces.

    'exponential' is a smooth non-symmetric displacement on [0, 1] with
    an analytic second-argument derivative bounded below by 1/e;
    'roundabout' is the angular space; 'santiago_graph' is a four-vertex
    one-way travel-cost matrix; 'identity_gauge' is the Stieltjes space
    of g(t) = t on [0, 1].
    """
    if name == "exponential":
        delta = expr_mod.parse("exp(y^2 - x^2) - exp(x - y)", {"x", "y"})
        d2 = expr_mod.parse("2*y*exp(y^2 - x^2) + exp(x - y)", {"x", "y"})
        return Smooth((0.0, 1.0), delta, d2)
    if name == "roundabout":
        return Angular()
    if name == "santiago_graph":
        return FiniteGraph(_SANTIAGO_WEIGHTS)
    if name == "identity_gauge":
        return Stieltjes(Gauge.identity((0.0, 1.0)))
    raise DisplacementError(
        f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}")


# --- reports ---

@dataclass(frozen=True)
class AxiomReport(Record):
    """Outcome of one hypothesis check.

    verdict is 'pass', 'fail', or 'inconclusive'; witnesses carry the
    offending sample points for failures (capped at ten).
    """

    hypothesis: str
    verdict: str
    witnesses: tuple[dict, ...]
    sample_count: int
    tolerance: float
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class GammaEstimate(Record):
    """Grid estimate of the comparability factor between two base points."""

    z: float
    zbar: float
    value: float
    grid: int


@dataclass(frozen=True)
class BallInterval(Record):
    """A displacement ball on an interval: endpoints plus membership flags."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool


_WITNESS_CAP = 10


def _is_interval(spec: DisplacementSpec) -> bool:
    return spec.kind in ("smooth", "stieltjes")


def _require_interval(spec: DisplacementSpec, operation: str) -> None:
    if not _is_interval(spec):
        raise DisplacementError(
            f"{operation} requires an interval variant, got kind {spec.kind!r}")


def _require_smooth(spec: DisplacementSpec, operation: str) -> None:
    if spec.kind != "smooth":
        raise DisplacementError(
            f"{operation} requires a smooth variant, got {spec.kind!r}")


def _grid_points(spec: DisplacementSpec, samples: int) -> list[float]:
    # fewer than two samples would let a check pass without comparing
    if samples < 2:
        raise DisplacementError(f"samples must be at least 2, got {samples!r}")
    if spec.kind == "graph":
        return [float(i) for i in range(spec.n)]
    if spec.kind == "angular":
        return _linspace(0.0, TWO_PI, samples, endpoint=False)
    a, b = spec.domain
    return _linspace(a, b, samples)


# --- H1 ---

def check_h1(spec: DisplacementSpec, samples: int = 101,
             tol: float = ALGEBRAIC_TOL) -> AxiomReport:
    """Zero self-displacement on a sample grid (exhaustive on graphs)."""
    points = _grid_points(spec, samples)
    witnesses = []
    for x in points:
        value = spec.delta(x, x)
        if abs(value) > tol and len(witnesses) < _WITNESS_CAP:
            witnesses.append({"x": x, "value": value})
    verdict = "fail" if witnesses else "pass"
    return AxiomReport("H1", verdict, tuple(witnesses), len(points), tol)


# --- H2 upper semicontinuity ---

def check_h2_usc(spec: DisplacementSpec, samples: int = 11,
                 shrink_levels: int = 24, tol: float = LIMIT_TOL) -> AxiomReport:
    """Upper semicontinuity of |Delta(x, .)| in the displacement topology.

    For each sampled pair (x, y) the function |Delta(x, .)| is maximized
    over displacement balls around y of geometrically shrinking radius.
    The pair passes as soon as the sampled maximum drops to
    |Delta(x, y)| + tol.  If the excess persists without shrinking the
    pair is a failure witness; if it is still collapsing when the
    levels run out the check is inconclusive for that pair.
    """
    _require_interval(spec, "check_h2_usc")
    a, b = spec.domain
    points = _grid_points(spec, samples)
    inner = 9
    witnesses = []
    inconclusive = 0
    for y in points:
        rho0 = max(abs(spec.delta(y, a)), abs(spec.delta(y, b)))
        if rho0 == 0.0:
            rho0 = 1.0
        bounds = [(x, abs(spec.delta(x, y))) for x in points]
        pending = {i: None for i in range(len(points))}
        margins: dict[int, list[float]] = {i: [] for i in range(len(points))}
        for k in range(1, shrink_levels + 1):
            if not pending:
                break
            rho = rho0 * 2.0 ** (-k)
            ball = delta_ball(spec, y, rho, tol=1e-9 * (b - a))
            zs = [z for z in _linspace(ball.lo, ball.hi, inner)
                  if abs(spec.delta(y, z)) < rho]
            zs.append(y)
            for i in list(pending):
                x, bound = bounds[i]
                m = max(abs(spec.delta(x, z)) for z in zs)
                margins[i].append(m - bound)
                if m <= bound + tol:
                    del pending[i]
        for i in pending:
            x, bound = bounds[i]
            seq = margins[i]
            if len(seq) >= 2 and seq[-1] > 0.6 * seq[-2] and seq[-2] > tol:
                if len(witnesses) < _WITNESS_CAP:
                    witnesses.append({"x": x, "y": y, "bound": bound,
                                      "excess": seq[-1]})
            else:
                inconclusive += 1
    if witnesses:
        verdict = "fail"
    elif inconclusive:
        verdict = "inconclusive"
    else:
        verdict = "pass"
    stats = {"pairs": len(points) ** 2, "inconclusive_pairs": inconclusive}
    return AxiomReport("H2-usc", verdict, tuple(witnesses),
                       len(points) ** 2, tol, stats)


# --- H2' subadditivity after rescaling ---

def check_h2prime(spec: DisplacementSpec,
                  phi: Union[Expr, Callable[[float], float], None] = None,
                  samples: int = 16, tol: float = ALGEBRAIC_TOL) -> AxiomReport:
    """Subadditivity of psi = phi(|Delta|) over sampled triples.

    phi defaults to the identity.  Preconditions checked first: phi
    vanishes at 0 and is strictly increasing on the sampled value grid;
    violations make the check inconclusive rather than failed.  On
    finite graphs the triple check is exhaustive.
    """
    if phi is None:
        phi_fn: Callable[[float], float] = lambda r: r
    elif isinstance(phi, Expr):
        phi_fn = expr_mod.as_function(phi, "r")
    else:
        phi_fn = phi

    import numpy as np

    points = _grid_points(spec, samples)
    n = len(points)
    absdelta = np.empty((n, n))
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            absdelta[i, j] = abs(spec.delta(x, y))

    phi0 = float(phi_fn(0.0))
    if abs(phi0) > tol:
        return AxiomReport("H2'", "inconclusive", (), n ** 3, tol,
                           {"reason": f"phi(0) = {phi0!r} is not 0"})
    grid_vals = np.unique(np.concatenate(
        [absdelta.ravel(), _linspace(0.0, float(absdelta.max()) or 1.0, 33)]))
    phi_vals = [float(phi_fn(float(r))) for r in grid_vals]
    for r1, r2, p1, p2 in zip(grid_vals, grid_vals[1:], phi_vals, phi_vals[1:]):
        if r2 > r1 and p2 <= p1:
            return AxiomReport(
                "H2'", "inconclusive", (), n ** 3, tol,
                {"reason": "phi not strictly increasing between "
                           f"{float(r1)!r} and {float(r2)!r}"})

    psi = np.array([[float(phi_fn(float(v))) for v in row] for row in absdelta])
    # psi[i, k] <= psi[i, j] + psi[j, k] for all triples, vectorized
    lhs = psi[:, None, :]
    rhs = psi[:, :, None] + psi[None, :, :]
    excess = lhs - rhs
    bad = np.argwhere(excess > tol)
    witnesses = []
    for i, j, k in bad[:_WITNESS_CAP]:
        witnesses.append({
            "x": points[i], "y": points[j], "z": points[k],
            "psi_xz": float(psi[i, k]), "psi_xy": float(psi[i, j]),
            "psi_yz": float(psi[j, k]),
        })
    verdict = "fail" if len(bad) else "pass"
    stats = {"violations": int(len(bad)), "exhaustive": spec.kind == "graph"}
    return AxiomReport("H2'", verdict, tuple(witnesses), n ** 3, tol, stats)


# --- H3 monotonicity in the second argument ---

def check_h3(spec: DisplacementSpec, samples: int = 21,
             tol: float = ALGEBRAIC_TOL) -> AxiomReport:
    """Delta(x, .) nondecreasing, checked along a sample grid."""
    _require_interval(spec, "check_h3")
    points = _grid_points(spec, samples)
    witnesses = []
    for x in points:
        values = [spec.delta(x, y) for y in points]
        for (y1, v1), (y2, v2) in zip(zip(points, values),
                                      zip(points[1:], values[1:])):
            if v2 < v1 - tol and len(witnesses) < _WITNESS_CAP:
                witnesses.append({"x": x, "y": y1, "z": y2,
                                  "delta_xy": v1, "delta_xz": v2})
    verdict = "fail" if witnesses else "pass"
    return AxiomReport("H3", verdict, tuple(witnesses), len(points) ** 2, tol)


# --- H5 left-continuity at the base point ---

def check_h5(spec: DisplacementSpec, samples: int = 21,
             tol: float = LIMIT_TOL) -> AxiomReport:
    """|Delta(x, x - h)| -> 0 as h -> 0+, on a sample grid."""
    _require_interval(spec, "check_h5")
    a, b = spec.domain
    points = [x for x in _grid_points(spec, samples) if x > a]
    witnesses = []
    for x in points:
        h0 = min(x - a, (b - a) / 8.0)
        value = None
        h = h0
        for k in range(9):
            h = h0 * 10.0 ** (-k)
            value = abs(spec.delta(x, x - h))
            if value <= tol:
                break
        if value is not None and value > tol and len(witnesses) < _WITNESS_CAP:
            witnesses.append({"x": x, "h": h, "value": value})
    verdict = "fail" if witnesses else "pass"
    return AxiomReport("H5", verdict, tuple(witnesses), len(points), tol)


# --- positivity of the second-argument derivative ---

def check_d2_positive(spec: DisplacementSpec, grid: int = 64,
                      tol: float = ALGEBRAIC_TOL) -> AxiomReport:
    """Lattice minimum of d2 over the square domain; pass iff above tol.

    The report's stats carry the lattice minimum as r_hat, an empirical
    lower bound for the derivative; H3, H4 and H5 follow from a positive
    continuous d2.  The witnesses are lattice points with d2 <= tol.
    """
    _require_smooth(spec, "check_d2_positive")
    if grid < 2:
        raise DisplacementError(f"grid must be at least 2, got {grid!r}")
    a, b = spec.domain
    xs = _linspace(a, b, grid)
    r_hat = math.inf
    argmin = (a, a)
    witnesses = []
    for x in xs:
        for y in xs:
            v = spec.d2(x, y)
            if v < r_hat:
                r_hat = v
                argmin = (x, y)
            if v <= tol and len(witnesses) < _WITNESS_CAP:
                witnesses.append({"x": x, "y": y, "d2": v})
    verdict = "pass" if r_hat > tol else "fail"
    stats = {"r_hat": r_hat, "argmin_x": argmin[0], "argmin_y": argmin[1]}
    return AxiomReport("D2-positive", verdict, tuple(witnesses),
                       grid * grid, tol, stats)


# --- comparability factor and Radon-Nikodym density ---

def gamma_estimate(spec: DisplacementSpec, z: float, zbar: float,
                   grid: int = 256) -> GammaEstimate:
    """max(1, max over grid of d2(z, .) / d2(zbar, .)).

    This is the factor by which displacements from z can exceed those
    from zbar; it is 1 exactly when z == zbar and tends to 1 as the base
    points merge.
    """
    _require_smooth(spec, "gamma_estimate")
    if grid < 1:
        raise DisplacementError(f"grid must be at least 1, got {grid!r}")
    a, b = spec.domain
    z = _check_domain_point("z", z, a, b, _domain_slack(a, b))
    zbar = _check_domain_point("zbar", zbar, a, b, _domain_slack(a, b))
    value = 1.0
    for xi in _linspace(a, b, grid):
        num = spec.d2(z, xi)
        den = spec.d2(zbar, xi)
        if num <= 0.0 or den <= 0.0:
            raise DisplacementError(
                f"nonpositive d2 at xi = {xi!r}; comparability needs d2 > 0")
        value = max(value, num / den)
    return GammaEstimate(z=z, zbar=zbar, value=value, grid=grid)


def rn_density(spec: DisplacementSpec, z: float, zbar: float, t: float) -> float:
    """Density of the measure based at z against the one based at zbar.

    Equals d2(z, t) / d2(zbar, t); identically 1 when z == zbar, and its
    product with the swapped density is 1.
    """
    _require_smooth(spec, "rn_density")
    num = spec.d2(z, t)
    den = spec.d2(zbar, t)
    if den <= 0.0:
        raise DisplacementError(
            f"d2(zbar, t) = {den!r} is not positive at t = {t!r}")
    return num / den


# --- displacement balls ---

def delta_ball(spec: DisplacementSpec, x: float, r: float,
               tol: float = 1e-10) -> BallInterval:
    """The set of points within displacement less than r of x.

    Under monotonicity in the second argument this is an interval
    containing x; its endpoints are located by bisection to tolerance
    tol and their membership decided by direct evaluation.
    """
    _require_interval(spec, "delta_ball")
    if not r > 0.0:
        raise DisplacementError(f"ball radius must be positive, got {r!r}")
    a, b = spec.domain
    x = _check_domain_point("x", x, a, b, _domain_slack(a, b))
    value_tol = tol * (1.0 + r)

    def bisect(inside: float, outside: float, target: float) -> float:
        # keep points with delta strictly inside the ball on the inside
        # edge; stop when both the bracket and, where continuity allows,
        # the value gap at the inside edge are below tolerance
        for _ in range(200):
            width = abs(outside - inside)
            if width <= tol and abs(spec.delta(x, inside) - target) <= value_tol:
                break
            if width <= 8.0 * _EPS * max(1.0, abs(inside), abs(outside)):
                break
            mid = 0.5 * (outside + inside)
            if abs(spec.delta(x, mid)) < r:
                inside = mid
            else:
                outside = mid
        return inside

    lo = a if spec.delta(x, a) > -r else bisect(x, a, -r)
    hi = b if spec.delta(x, b) < r else bisect(x, b, r)

    return BallInterval(lo=lo, hi=hi,
                        lo_closed=abs(spec.delta(x, lo)) < r,
                        hi_closed=abs(spec.delta(x, hi)) < r)


# --- gauge extraction ---

def gauge_from_smooth(spec: DisplacementSpec, quad_tol: float = 1e-10) -> Gauge:
    """Build the gauge whose density at t is d2(t, t).

    For a smooth displacement with positive continuous d2 this gauge
    generates the same null sets and small displacements as the space
    itself.  An expression d2 becomes the expression in t obtained by
    setting x = y = t: it is the density's source and, compiled, the
    density itself, which returns the bits spec.d2(t, t) returns on the
    domain.  A callable or finite-difference d2 is called as
    spec.d2(t, t), and the gauge then has no source.
    """
    _require_smooth(spec, "gauge_from_smooth")
    if spec.d2_expr is None:
        return Gauge(spec.domain, lambda t: spec.d2(t, t), quad_tol=quad_tol)
    t_var = expr_mod.parse("t", {"t"})
    diagonal = expr_mod.substitute(spec.d2_expr, {"x": t_var, "y": t_var})
    return Gauge(spec.domain, expr_mod.as_function(diagonal, "t"),
                 quad_tol=quad_tol, density_source=diagonal.to_source())


# --- serialization ---

def spec_to_dict(spec: DisplacementSpec) -> dict:
    if spec.kind == "smooth":
        if spec.delta_source is None:
            raise DisplacementError(
                "smooth displacement has no expression form; cannot serialize")
        return {
            "domain": [spec.domain[0], spec.domain[1]],
            "kind": "smooth",
            "delta": spec.delta_source,
            "d2": spec.d2_source,
        }
    if spec.kind == "stieltjes":
        return {
            "domain": [spec.domain[0], spec.domain[1]],
            "kind": "stieltjes",
            "gauge": spec.gauge.to_dict(),
        }
    if spec.kind == "graph":
        return {"kind": "graph", "weights": [list(row) for row in spec.weights]}
    if spec.kind == "angular":
        return {"kind": "angular"}
    raise DisplacementError(f"unknown variant {spec.kind!r}")


def spec_from_dict(data: dict) -> DisplacementSpec:
    if not isinstance(data, dict):
        raise DisplacementError("a displacement spec must be a JSON object")
    kind = data.get("kind")
    if kind == "smooth":
        try:
            domain = (float(data["domain"][0]), float(data["domain"][1]))
            delta_src = data["delta"]
        except (KeyError, TypeError, IndexError, ValueError,
                OverflowError) as exc:
            raise DisplacementError(f"malformed smooth spec: {exc}") from exc
        delta = expr_mod.parse(delta_src, {"x", "y"})
        d2_src = data.get("d2")
        d2 = expr_mod.parse(d2_src, {"x", "y"}) if d2_src else None
        return Smooth(domain, delta, d2)
    if kind == "stieltjes":
        if "gauge" not in data:
            raise DisplacementError("stieltjes spec needs a gauge")
        return Stieltjes(Gauge.from_dict(data["gauge"]))
    if kind == "graph":
        if "weights" not in data:
            raise DisplacementError("graph spec needs weights")
        return FiniteGraph(data["weights"])
    if kind == "angular":
        return Angular()
    raise DisplacementError(f"unknown displacement kind {kind!r}")
