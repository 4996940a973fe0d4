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

The battery runs Delta or d2 in loops that expr._kernel splices a Smooth
space's compiled expression into (see expr): _BISECT, one edge of
delta_ball, and _MAX, the largest |Delta(x, .)| over a list of points,
are owned here; the H2-usc candidate filter, the rows of H3 and the
lattice of D2-positive run in expr's map over rows.  Any other Delta or
d2 (a callable, finite differences, a gauge) is called there as
spec.delta or spec.d2.  Every point they pass lies in [a, b], so only
the call, float() and domain test of spec.delta are left out.
Smooth.delta and Smooth.d2 refuse a NaN value with DisplacementError.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Optional, Sequence, Union

from . import expr as expr_mod
from .expr import _MAP, Expr, _kernel
from .gauge import (_EPS, _QUAD_TOL, Gauge, SNAP_RADIUS, _check_count,
                    _check_domain, _check_tolerance, _linspace, _snap)
from .serialize import Fresh, Record

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

# The battery's loops, Delta or d2 spliced in by expr._kernel wherever RHS
# stands, with p0 the base point x and p1 the second argument (see
# _inline).  _BISECT is one edge of delta_ball: it moves inside towards
# outside while |Delta(x, mid)| < r, and stops when the bracket is within
# tol and, where continuity allows, the value at the inside edge is
# within value_tol of target, or when the bracket is rounding (stop is
# 8 * eps).  It returns the edge.
_BISECT = """\
def _loop(p0, inside, outside, target, r, tol, value_tol, stop):
    for _ in range(200):
        width = abs(outside - inside)
        if width <= tol:
            p1 = inside
            if abs(RHS - target) <= value_tol:
                break
        if width <= stop * max(1.0, abs(inside), abs(outside)):
            break
        p1 = 0.5 * (outside + inside)
        if abs(RHS) < r:
            inside = p1
        else:
            outside = p1
    return inside
"""
# max(abs(value) for each p1 of points), with max's rule: the first
# largest value wins
_MAX = """\
def _loop(p0, points):
    top = None
    for p1 in points:
        value = abs(RHS)
        if top is None or value > top:
            top = value
    return top
"""


class DisplacementError(ValueError):
    """Invalid displacement data, unsupported variant, or bad query."""


def _domain_slack(a: float, b: float) -> float:
    return SNAP_RADIUS * (1.0 + abs(a) + abs(b))


def _expr_and_function(value, *names: str) -> tuple[Optional[Expr], Callable]:
    """(value, value compiled in names) for an Expr, else (None, value)."""
    if isinstance(value, Expr):
        return value, expr_mod.as_function(value, *names)
    return None, value


class Smooth:
    """Displacement on [a, b] given by a formula or callable.

    Args:
        domain: pair (a, b), a < b.
        delta: Expr in the variables x, y, or a callable (x, y) -> float.
        d2: optional partial derivative of delta in its second argument,
            again an Expr in x, y or a callable; when absent it is
            approximated by extrapolated central differences.

    delta and d2 refuse a NaN value with DisplacementError.
    """

    kind = "smooth"

    def __init__(self, domain: tuple[float, float],
                 delta: Union[Expr, Callable[[float, float], float]],
                 d2: Union[Expr, Callable[[float, float], float], None] = None):
        a, b = self._domain = _check_domain(domain, DisplacementError)
        self._slack = _domain_slack(a, b)
        self._delta_expr, self._delta_fn = _expr_and_function(delta, "x", "y")
        self._d2_expr, self._d2_fn = _expr_and_function(d2, "x", "y")

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

    def _point(self, x: float, y: float) -> tuple[float, float]:
        # a point inside [a, b] is its own clamp; only the rest (NaN
        # included) goes through the snap-or-raise check
        a, b = self._domain
        x = float(x)
        if not a <= x <= b:
            x = _snap(x, a, b, "x", DisplacementError, self._slack)
        y = float(y)
        if not a <= y <= b:
            y = _snap(y, a, b, "y", DisplacementError, self._slack)
        return x, y

    def delta(self, x: float, y: float) -> float:
        x, y = self._point(x, y)
        value = float(self._delta_fn(x, y))
        if value != value:
            raise DisplacementError(
                f"|Delta({x!r}, {y!r})| = {value!r} is not finite")
        return value

    def d2(self, x: float, y: float) -> float:
        """Partial derivative of delta in the second argument at (x, y)."""
        x, y = self._point(x, y)
        if self._d2_fn is not None:
            value = float(self._d2_fn(x, y))
        else:
            value = self._fd_d2(x, y)
        if value != value:
            raise DisplacementError(
                f"d2({x!r}, {y!r}) = {value!r} is not finite")
        return value

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
        if not all(math.isfinite(w) for row in rows for w in row):
            raise DisplacementError(
                "malformed weight matrix: every weight must be finite")
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

# the named example spaces, as the spec data spec_from_dict reads
_BUILTINS = {
    "exponential": {"kind": "smooth", "domain": [0.0, 1.0],
                    "delta": "exp(y^2 - x^2) - exp(x - y)",
                    "d2": "2*y*exp(y^2 - x^2) + exp(x - y)"},
    "roundabout": {"kind": "angular"},
    "santiago_graph": {"kind": "graph", "weights": [[0.0, 9.0, 4.0, 10.0],
                                                    [10.0, 0.0, 14.0, 8.0],
                                                    [7.0, 9.0, 0.0, 5.0],
                                                    [11.0, 6.0, 7.0, 0.0]]},
    "identity_gauge": {"kind": "stieltjes",
                       "gauge": {"domain": [0.0, 1.0], "density": "1"}},
}
BUILTIN_NAMES = tuple(_BUILTINS)


def make_builtin(name: str) -> DisplacementSpec:
    """Construct one of the named example spaces.

    'exponential' is a smooth non-symmetric displacement on [0, 1] with
    an analytic second-argument derivative bounded below by 1/e;
    'roundabout' is the angular space; 'santiago_graph' is a four-vertex
    one-way travel-cost matrix; 'identity_gauge' is the Stieltjes space
    of g(t) = t on [0, 1].
    """
    if name not in _BUILTINS:
        raise DisplacementError(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    return spec_from_dict(_BUILTINS[name])


# --- reports ---

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
    stats: dict = Fresh(dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


class GammaEstimate(Record):
    """Grid estimate of the comparability factor between two base points."""

    z: float
    zbar: float
    value: float
    grid: int


class BallInterval(Record):
    """A displacement ball on an interval: endpoints plus membership flags."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool


_WITNESS_CAP = 10


def _report(hypothesis: str, witnesses: Sequence[dict], sample_count: int,
            tol: float, stats: Optional[dict] = None,
            undecided: bool = False) -> AxiomReport:
    """A check's report, by the one verdict rule: 'fail' with a witness,
    else 'inconclusive' if undecided (samples pending), else 'pass'."""
    verdict = "fail" if witnesses else "inconclusive" if undecided else "pass"
    return AxiomReport(hypothesis, verdict, tuple(witnesses), sample_count,
                       tol, {} if stats is None else stats)


def _require_interval(spec: DisplacementSpec, operation: str) -> None:
    if spec.kind not in ("smooth", "stieltjes"):
        raise DisplacementError(
            f"{operation} requires an interval variant, got kind {spec.kind!r}")


def _require_smooth(spec: DisplacementSpec, operation: str) -> None:
    if spec.kind != "smooth":
        raise DisplacementError(
            f"{operation} requires a smooth variant, got {spec.kind!r}")


def _inline(spec: DisplacementSpec, loop: str, d2: bool = False) -> Callable:
    """loop with spec's Delta, or its d2, at RHS.

    A Smooth space's expression is spliced in as its compiled body; any
    other Delta or d2 is called there as spec.delta or spec.d2.  Each
    point passed must lie in the domain.
    """
    if spec.kind == "smooth" and (spec.d2_expr if d2
                                  else spec.delta_expr) is not None:
        return _kernel(spec._d2_fn if d2 else spec._delta_fn, loop, 2)
    return _kernel(spec.d2 if d2 else spec.delta, loop, 2)


def _grid_points(spec: DisplacementSpec, samples: int) -> list[float]:
    # fewer than two samples would let a check pass without comparing
    _check_count(samples, 2, "samples", DisplacementError)
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
    return _report("H1", witnesses, len(points), tol)


# --- H2 upper semicontinuity ---

def check_h2_usc(spec: DisplacementSpec, samples: int = 11,
                 shrink_levels: int = 24, tol: float = LIMIT_TOL) -> AxiomReport:
    """Upper semicontinuity of |Delta(x, .)| in the displacement topology.

    For each sampled pair (x, y) the function |Delta(x, .)| is maximized
    over displacement balls around y of geometrically shrinking radius.
    The pair passes as soon as the sampled maximum drops to
    |Delta(x, y)| + tol at some level.  If the excess persists without
    shrinking the pair is a failure witness; if it is still collapsing
    when the levels run out the check is inconclusive for that pair.

    Smallest ball first, then levels in order for what is left: no level
    is reported and the deepest is one of them, so the pairs that pass
    in the smallest ball are done, and only the rest run the levels from
    the largest ball down, with the margins that decide their verdict.
    The first try is speculative: where its radius underflows to 0, or
    Delta raises in it (it samples points that the levels may never
    reach), every pair of that y runs the levels, which pass or raise
    as they would without it.  A Delta that raises only at points of
    larger balls than a y's pairs run is not sampled there, and passes.

    Every ball's edges are bisected from the domain's ends.
    """
    _require_interval(spec, "check_h2_usc")
    # with no level every pair stays pending and the check says nothing
    _check_count(shrink_levels, 1, "shrink_levels", DisplacementError)
    a, b = spec.domain
    points = _grid_points(spec, samples)
    row, top = _inline(spec, _MAP), _inline(spec, _MAX)
    bisect = _inline(spec, _BISECT)
    inner = 9

    def ball_points(y, at_a, at_b, rho):
        """The points of the ball of radius rho around y that a level
        samples, y last."""
        # delta_ball's ends, from Delta(y, a) and Delta(y, b)
        ball_tol = _check_ball(rho, 1e-9 * (b - a))
        lo = _ball_edge(bisect, y, a, at_a, -1.0, rho, ball_tol)
        hi = _ball_edge(bisect, y, b, at_b, 1.0, rho, ball_tol)
        ts = _linspace(lo, hi, inner)
        zs = [z for z, v in zip(ts, row(repeat(y), ts)) if abs(v) < rho]
        zs.append(y)
        return zs

    witnesses = []
    inconclusive = 0
    for y in points:
        at_a, at_b = spec.delta(y, a), spec.delta(y, b)
        rho0 = max(abs(at_a), abs(at_b))
        if rho0 == 0.0:
            rho0 = 1.0
        bounds = [(x, abs(spec.delta(x, y))) for x in points]
        pending = {i: None for i in range(len(points))}
        try:
            zs = ball_points(y, at_a, at_b, rho0 * 2.0 ** (-shrink_levels))
            passed = [i for i, (x, bound) in enumerate(bounds)
                      if top(x, zs) <= bound + tol]
        # a radius that underflows to 0, or whatever Delta raises here: the
        # levels raise it again if they reach its point, and pass if not
        except Exception:  # noqa: BLE001
            passed = []
        for i in passed:
            del pending[i]
        margins: dict[int, list[float]] = {i: [] for i in pending}
        for k in range(1, shrink_levels + 1):
            if not pending:
                break
            zs = ball_points(y, at_a, at_b, rho0 * 2.0 ** (-k))
            for i in list(pending):
                x, bound = bounds[i]
                m = top(x, zs)
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
    stats = {"pairs": len(points) ** 2, "inconclusive_pairs": inconclusive}
    return _report("H2-usc", witnesses, len(points) ** 2, tol, stats,
                   inconclusive > 0)


# --- H2' subadditivity after rescaling ---

def check_h2prime(spec: DisplacementSpec,
                  phi: Union[Expr, Callable[[float], float], None] = None,
                  samples: int = 16, tol: float = ALGEBRAIC_TOL) -> AxiomReport:
    """Subadditivity of psi = phi(|Delta|) over sampled triples.

    phi defaults to the identity.  Preconditions checked first: phi
    vanishes at 0 and is strictly increasing on the sampled value grid;
    violations make the check inconclusive rather than failed.  Every
    sampled |Delta| must be finite; a NaN or infinite one raises
    DisplacementError naming the pair.  On finite graphs the triple
    check is exhaustive.
    """
    _, phi_fn = _expr_and_function(
        (lambda r: r) if phi is None else phi, "r")

    points = _grid_points(spec, samples)
    n = len(points)
    absdelta = [[abs(spec.delta(x, y)) for y in points] for x in points]
    for x, row in zip(points, absdelta):
        for y, value in zip(points, row):
            if not math.isfinite(value):
                raise DisplacementError(
                    f"|Delta({x!r}, {y!r})| = {value!r} is not finite")

    phi0 = float(phi_fn(0.0))
    if abs(phi0) > tol:
        return _report("H2'", (), n ** 3, tol,
                       {"reason": f"phi(0) = {phi0!r} is not 0"}, True)
    values = [v for row in absdelta for v in row]
    grid_vals = sorted(set(values + _linspace(0.0, max(values) or 1.0, 33)))
    phi_vals = [float(phi_fn(r)) for r in grid_vals]
    for r1, r2, p1, p2 in zip(grid_vals, grid_vals[1:], phi_vals, phi_vals[1:]):
        if r2 > r1 and p2 <= p1:
            return _report("H2'", (), n ** 3, tol,
                           {"reason": "phi not strictly increasing between "
                                      f"{r1!r} and {r2!r}"}, True)

    psi = [[float(phi_fn(v)) for v in row] for row in absdelta]
    # psi[i][k] <= psi[i][j] + psi[j][k] for every triple, in (i, j, k) order
    violations = 0
    witnesses = []
    for i, psi_x in enumerate(psi):
        for j, psi_xy in enumerate(psi_x):
            for k, psi_yz in enumerate(psi[j]):
                if psi_x[k] - (psi_xy + psi_yz) > tol:
                    violations += 1
                    if len(witnesses) < _WITNESS_CAP:
                        witnesses.append({
                            "x": points[i], "y": points[j], "z": points[k],
                            "psi_xz": psi_x[k], "psi_xy": psi_xy,
                            "psi_yz": psi_yz,
                        })
    stats = {"violations": violations, "exhaustive": spec.kind == "graph"}
    return _report("H2'", witnesses, n ** 3, tol, stats)


# --- H3 monotonicity in the second argument ---

def check_h3(spec: DisplacementSpec, samples: int = 21,
             tol: float = ALGEBRAIC_TOL) -> AxiomReport:
    """Delta(x, .) nondecreasing, checked along a sample grid."""
    _require_interval(spec, "check_h3")
    points = _grid_points(spec, samples)
    row = _inline(spec, _MAP)
    witnesses = []
    for x in points:
        values = row(repeat(x), points)
        for (y1, v1), (y2, v2) in zip(zip(points, values),
                                      zip(points[1:], values[1:])):
            if v2 < v1 - tol and len(witnesses) < _WITNESS_CAP:
                witnesses.append({"x": x, "y": y1, "z": y2,
                                  "delta_xy": v1, "delta_xz": v2})
    return _report("H3", witnesses, len(points) ** 2, tol)


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
        for k in range(9):
            h = h0 * 10.0 ** (-k)
            value = abs(spec.delta(x, x - h))
            if value <= tol:
                break
        if value > tol and len(witnesses) < _WITNESS_CAP:
            witnesses.append({"x": x, "h": h, "value": value})
    return _report("H5", witnesses, len(points), tol)


# --- positivity of the second-argument derivative ---

def check_d2_positive(spec: DisplacementSpec, grid: int = 64,
                      tol: float = ALGEBRAIC_TOL) -> AxiomReport:
    """Lattice minimum of d2 over the square domain; pass iff above tol.

    The report's stats carry the lattice minimum as r_hat, an empirical
    lower bound for the derivative; H3, H4 and H5 follow from a positive
    continuous d2.  The witnesses are lattice points with d2 <= tol.
    """
    _require_smooth(spec, "check_d2_positive")
    _check_count(grid, 2, "grid", DisplacementError)
    a, b = spec.domain
    xs = _linspace(a, b, grid)
    row = _inline(spec, _MAP, d2=True)
    r_hat = math.inf
    argmin = (a, a)
    witnesses = []
    for x in xs:
        for y, v in zip(xs, row(repeat(x), xs)):
            if v < r_hat:
                r_hat = v
                argmin = (x, y)
            if v <= tol and len(witnesses) < _WITNESS_CAP:
                witnesses.append({"x": x, "y": y, "d2": v})
    stats = {"r_hat": r_hat, "argmin_x": argmin[0], "argmin_y": argmin[1]}
    return _report("D2-positive", witnesses, grid * grid, tol, stats)


# --- comparability factor and Radon-Nikodym density ---

def gamma_estimate(spec: DisplacementSpec, z: float, zbar: float,
                   grid: int = 256) -> GammaEstimate:
    """max(1, max over grid of d2(z, .) / d2(zbar, .)).

    This is the factor by which displacements from z can exceed those
    from zbar; it is 1 exactly when z == zbar and tends to 1 as the base
    points merge.
    """
    _require_smooth(spec, "gamma_estimate")
    _check_count(grid, 1, "grid", DisplacementError)
    a, b = spec.domain
    z = _snap(z, a, b, "z", DisplacementError, _domain_slack(a, b))
    zbar = _snap(zbar, a, b, "zbar", DisplacementError, _domain_slack(a, b))
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

def _check_ball(r: float, tol: float) -> float:
    """tol as a float, for a ball of radius r > 0 and a finite,
    non-negative tol; otherwise raise DisplacementError."""
    if not r > 0.0:
        raise DisplacementError(f"ball radius must be positive, got {r!r}")
    return _check_tolerance(tol, "tol", DisplacementError)


def _ball_edge(bisect: Callable, x: float, end: float, at_end: float,
               sign: float, r: float, tol: float) -> float:
    """One end of the ball of radius r around x: towards the domain's end
    (sign -1.0 for a, 1.0 for b), where Delta(x, end) is at_end.

    The edge is end itself when at_end lies inside the ball on that side;
    otherwise the edge bisected by bisect, spec's _BISECT, from x towards
    end, which keeps points with Delta strictly inside the ball on the
    inside edge.  r and tol are checked (_check_ball).
    """
    if sign * at_end < r:
        return end
    return bisect(x, x, end, sign * r, r, tol, tol * (1.0 + r), 8.0 * _EPS)


def delta_ball(spec: DisplacementSpec, x: float, r: float,
               tol: float = 1e-10) -> BallInterval:
    """The set of points within displacement less than r of x.

    Under monotonicity in the second argument this is an interval
    containing x; its endpoints are located by bisection to tolerance
    tol (finite and non-negative) and their membership decided by
    direct evaluation.  The bisections run in _BISECT, with a Smooth
    space's Delta inline; the end and membership tests call spec.delta.
    """
    _require_interval(spec, "delta_ball")
    tol = _check_ball(r, tol)
    a, b = spec.domain
    x = _snap(x, a, b, "x", DisplacementError, _domain_slack(a, b))
    bisect = _inline(spec, _BISECT)
    lo = _ball_edge(bisect, x, a, spec.delta(x, a), -1.0, r, tol)
    hi = _ball_edge(bisect, x, b, spec.delta(x, b), 1.0, r, tol)
    return BallInterval(lo=lo, hi=hi,
                        lo_closed=abs(spec.delta(x, lo)) < r,
                        hi_closed=abs(spec.delta(x, hi)) < r)


# --- gauge extraction ---

def gauge_from_smooth(spec: DisplacementSpec,
                      quad_tol: float = _QUAD_TOL) -> Gauge:
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
        return {"domain": list(spec.domain), "kind": "smooth",
                "delta": spec.delta_source, "d2": spec.d2_source}
    if spec.kind == "stieltjes":
        return {"domain": list(spec.domain), "kind": "stieltjes",
                "gauge": spec.gauge.to_dict()}
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
