"""Left-continuous monotone gauges and the interval measures they induce.

A gauge g on [a, b] is built from a nonnegative density, a finite sorted
list of positive jumps, and optional declared constancy (flat) intervals.
By convention g(a) = 0 and g(t) is the measure of [a, t), which makes g
left-continuous and nondecreasing; the jump at tau contributes to g(t)
only for t > tau.

CumulativeQuadrature owns that rule: it holds the atoms next to the
density table and snaps a query within SNAP_RADIUS of the domain onto
the end point before looking up either.  A Gauge is one, the running
integral of its density with its jumps as atoms, and so are the running
integrals in calculus.

Evaluation goes through an insert-only cumulative quadrature cache.  The
naive alternative, re-running an adaptive quadrature from a to t for
every query, produces values that are individually accurate but not
jointly monotone: two nearby queries can come back in the wrong order by
an ulp or two, which is enough to break interval bisection and the sign
of small increments g(y) - g(x).  The cache instead keeps a sorted
breakpoint table seeded with the domain endpoints, jump positions and
flat endpoints.  A new query point t is integrated only over the gap
from its nearest cached neighbor below, and the resulting cumulative
value is clamped into the interval spanned by the neighbors, so the
stored table is monotone by construction and differences of cached
values telescope exactly.  The clamp only absorbs rounding: a gap
larger than the quadrature tolerance means the density is negative
somewhere between the 17 construction probes, and raises GaugeError
instead of silently dropping mass.
"""

from __future__ import annotations

import bisect
import heapq
import math
import sys
import threading
from dataclasses import dataclass
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
_EPS = sys.float_info.epsilon
# dqk21 floors abserr at 50 eps * resabs only above this
_ERR_FLOOR = sys.float_info.min / (50.0 * _EPS)


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


def _adaptive_quad(f: Callable[[float], float], a: float, b: float,
                   epsabs: float, epsrel: float = 1e-12,
                   limit: int = 200) -> float:
    """Adaptive Gauss-Kronrod integral of f over [a, b].

    The first panel is accepted exactly when QUADPACK dqagse accepts it,
    so smooth integrands reproduce scipy.integrate.quad bit for bit.
    Otherwise the interval with the largest error estimate is bisected
    (QAG, without Wynn extrapolation) until the summed error meets the
    tolerance or limit intervals exist.  A non-finite panel is returned
    at once for the caller to reject.
    """
    result, err, resabs, resasc = _qk21(f, a, b)
    if not math.isfinite(result):
        return result
    errbnd = max(epsabs, epsrel * abs(result))
    if (err == 0.0 or (err <= errbnd and err != resasc)
            or errbnd < err <= (100.0 * _EPS) * resabs):
        return result
    heap = [(-err, a, b, result)]
    errsum, area = err, result
    while len(heap) < limit:
        neg_err, lo, hi, r = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            heapq.heappush(heap, (neg_err, lo, hi, r))
            break
        r1, e1, _, _ = _qk21(f, lo, mid)
        r2, e2, _, _ = _qk21(f, mid, hi)
        if not (math.isfinite(r1) and math.isfinite(r2)):
            return r1 + r2
        heapq.heappush(heap, (-e1, lo, mid, r1))
        heapq.heappush(heap, (-e2, mid, hi, r2))
        errsum += e1 + e2 + neg_err
        area += r1 + r2 - r
        if errsum <= max(epsabs, epsrel * abs(area)):
            break
    return math.fsum(item[3] for item in heap)


class CumulativeQuadrature:
    """Half-open running integral F(t) = integral of fn over [lo, t) plus atoms.

    atoms holds (tau, mass) pairs inside [lo, hi], strictly increasing in
    tau; the atom at tau counts in F(t) only for t > tau, and right_limit
    adds the atom at t itself.  Each query is first snapped into [lo, hi]:
    a point within SNAP_RADIUS outside is the end point, one farther out
    raises GaugeError.

    The density part is memoized in a sorted breakpoint table, seeded at
    the breakpoints and atoms; a query at a new t integrates fn only
    across the gap from the nearest cached point below and clamps the
    result between the neighboring cached values.  With nonnegative=True
    the table must stay nondecreasing: a panel that integrates below
    -tol, or a new value above its right neighbor by more than tol, means
    the integrand is negative somewhere and raises GaugeError; smaller
    violations are rounding and are clamped away.  Thread-safe; behaves
    as if the cache were absent.
    """

    def __init__(self, fn: Callable[[float], float], lo: float, hi: float,
                 tol: float = 1e-10, breakpoints: Sequence[float] = (),
                 nonnegative: bool = False,
                 atoms: Sequence[tuple[float, float]] = ()):
        self.fn = fn
        self.lo = float(lo)
        self.hi = float(hi)
        self.tol = float(tol)
        self.nonnegative = nonnegative
        self.atoms = tuple((float(tau), float(mass)) for tau, mass in atoms)
        self._taus = [tau for tau, _ in self.atoms]
        self._prefix = [0.0]
        for _, mass in self.atoms:
            self._prefix.append(self._prefix[-1] + mass)
        self._ts = [self.lo]
        self._vals = [0.0]
        self._lock = threading.RLock()
        for t in sorted(set(float(p) for p in breakpoints) | set(self._taus)):
            if self.lo < t <= self.hi:
                self.value(t)

    def _snap(self, t: float) -> float:
        t = float(t)
        if t < self.lo - SNAP_RADIUS or t > self.hi + SNAP_RADIUS:
            raise GaugeError(f"point {t!r} outside [{self.lo!r}, {self.hi!r}]")
        return min(max(t, self.lo), self.hi)

    def _panel(self, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        value = _adaptive_quad(self.fn, lo, hi, self.tol)
        if not math.isfinite(value):
            raise GaugeError(
                f"non-finite integral over [{lo!r}, {hi!r}]")
        if self.nonnegative and value < 0.0:
            if value < -self.tol:
                raise GaugeError(
                    f"density integrates to {value!r} over [{lo!r}, {hi!r}]; "
                    "it must be nonnegative")
            value = 0.0
        return value

    def value(self, t: float) -> float:
        """F(t): the density part over [lo, t) plus the atoms below t."""
        t = float(t)
        if not self.lo <= t <= self.hi:
            t = self._snap(t)
        atoms_below = self._prefix[bisect.bisect_left(self._taus, t)]
        with self._lock:
            i = bisect.bisect_left(self._ts, t)
            if i < len(self._ts) and self._ts[i] == t:
                return self._vals[i] + atoms_below
            left_t, left_v = self._ts[i - 1], self._vals[i - 1]
            v = left_v + self._panel(left_t, t)
            if self.nonnegative:
                if v < left_v:
                    v = left_v
                if i < len(self._ts) and v > self._vals[i]:
                    if v > self._vals[i] + self.tol:
                        raise GaugeError(
                            f"running integral at {t!r} exceeds the value at "
                            f"{self._ts[i]!r} by {v - self._vals[i]!r}; the "
                            "density must be nonnegative")
                    v = self._vals[i]
            self._ts.insert(i, t)
            self._vals.insert(i, v)
            return v + atoms_below

    def jump_at(self, t: float) -> float:
        """Mass of the atom at t, or 0.0."""
        t = self._snap(t)
        i = bisect.bisect_left(self._taus, t)
        if i < len(self._taus) and self._taus[i] == t:
            return self.atoms[i][1]
        return 0.0

    def right_limit(self, t: float) -> float:
        """F(t+), i.e. F(t) plus the atom at t."""
        return self.value(t) + self.jump_at(t)

    def jumps_on(self, ts: np.ndarray) -> np.ndarray:
        """jump_at of every point of ts, an array inside [lo, hi]."""
        import numpy as np

        taus = np.array(self._taus + [math.inf])
        idx = np.searchsorted(taus, ts)
        masses = np.array([mass for _, mass in self.atoms] + [0.0])
        return np.where(taus[idx] == ts, masses[idx], 0.0)


@dataclass(frozen=True)
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
        quad_tol: absolute tolerance per quadrature panel.
        density_source: optional expression text in the variable t that
            reproduces the density; required only for JSON serialization.

    Instances are immutable apart from the internal quadrature cache and
    are callable: g(t) evaluates the gauge.
    """

    def __init__(self, domain: tuple[float, float],
                 density: Callable[[float], float],
                 jumps: Sequence[tuple[float, float]] = (),
                 flats: Sequence[tuple[float, float]] = (),
                 quad_tol: float = 1e-10,
                 density_source: Optional[str] = None):
        a, b = float(domain[0]), float(domain[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise GaugeError(f"invalid domain [{a!r}, {b!r}]")
        self._density_source = density_source

        pairs = []
        for tau, size in jumps:
            tau, size = float(tau), float(size)
            if not (a <= tau <= b):
                raise GaugeError(f"jump position {tau!r} outside [{a!r}, {b!r}]")
            if size <= 0.0:
                raise GaugeError(f"jump size {size!r} must be positive")
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
            if float(density(t)) < -1e-9:
                raise GaugeError(f"density is negative at t = {t!r}")

        super().__init__(density, a, b, tol=quad_tol, nonnegative=True,
                         breakpoints=[p for iv in flat_list for p in iv],
                         atoms=pairs)
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
        if kind == "[)":
            return self(d) - self(c)
        if kind == "()":
            return self(d) - self(c) - self.jump_at(c)
        if kind == "[]":
            return self(d) + self.jump_at(d) - self(c)
        return self(d) + self.jump_at(d) - self(c) - self.jump_at(c)

    # --- distinguished sets ---

    def distinguished_sets(self, samples: int = _FLAT_SAMPLES) -> DistinguishedSets:
        """Jump set, constancy intervals and constancy endpoints.

        Declared flats are trusted verbatim.  Additional constancy
        intervals are detected by sampling the density on a uniform grid
        and collecting maximal runs that stay below a relative threshold;
        detection supplements declared flats, never overrides them.  The
        default-resolution result is cached.
        """
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
        ts = _linspace(a, b, samples)
        dens = [abs(float(self.density(t))) for t in ts]
        threshold = SNAP_RADIUS * (1.0 + max(dens))
        flat_mask = [d <= threshold for d in dens]

        detected: list[tuple[float, float]] = []
        i = 0
        while i < samples:
            if not flat_mask[i]:
                i += 1
                continue
            j = i
            while j + 1 < samples and flat_mask[j + 1]:
                j += 1
            if j > i:
                lo, hi = ts[i], ts[j]
                # a jump strictly inside splits the run
                cuts = [tau for tau, _ in self.atoms if lo < tau < hi]
                pieces = zip([lo] + cuts, cuts + [hi])
                for plo, phi in pieces:
                    if phi - plo > 2.0 * (b - a) / max(samples - 1, 1):
                        detected.append((plo, phi))
            i = j + 1

        merged = self._merge_intervals(list(self._flats) + detected)
        endpoints = sorted({p for iv in merged for p in iv})
        n_set = tuple(p for p in endpoints if self.jump_at(p) == 0.0)
        return DistinguishedSets(d_set=tuple(self._taus),
                                 c_set=tuple(merged),
                                 n_set=n_set)

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
        return cls(domain, lambda t: 1.0, density_source="1")

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
    def from_dict(cls, data: dict, quad_tol: float = 1e-10) -> "Gauge":
        try:
            domain = (float(data["domain"][0]), float(data["domain"][1]))
            source = data["density"]
            jumps = tuple((float(t), float(s)) for t, s in data.get("jumps", ()))
            flats = tuple((float(lo), float(hi))
                          for lo, hi in data.get("flats", ()))
        except (KeyError, TypeError, IndexError, ValueError,
                OverflowError) as exc:
            raise GaugeError(f"malformed gauge data: {exc}") from exc
        if not isinstance(source, str):
            raise GaugeError("gauge density must be an expression string")
        density_expr = expr_mod.parse(source, {"t"})
        density = expr_mod.as_function(density_expr, "t")
        return cls(domain, density, jumps=jumps, flats=flats,
                   quad_tol=quad_tol, density_source=source)
