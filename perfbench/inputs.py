"""Seeded inputs and closed-form references for the benchmark workloads.

Everything the package receives is generated here from the workload
seed: expression strings and spec/gauge JSON documents.  The reference
values the harness checks against are closed forms computed with the
standard library only, never snapshots of earlier output.

All gauges live on [0, 1].  Three density families are used:

* linear:  "k + c*t", cumulative W(t) = k t + c t^2 / 2;
* flat:    "k*max(0, abs(t - m) - w)", which vanishes on the declared
           flat (m - w, m + w);
* unit:    "1", the work gauge of the surface problem.

Each gauge adds atoms (tau, s); G(t) = W(t) + sum of s over tau < t.
"""

from __future__ import annotations

import math
import random

DOMAIN = (0.0, 1.0)
MEASURE_KINDS = ("[)", "()", "[]", "(]", "{}")


def rng_for(seed: int, *labels) -> random.Random:
    """Independent stream per (seed, label...) so adding items never shifts others."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def num(x: float) -> str:
    """Decimal text the expression grammar accepts (no exponent notation)."""
    return f"{x:.6f}"


def r6(x: float) -> float:
    return float(num(x))


# --- the smooth spec family exp(a*(y^2-x^2)) - exp(b*(x-y)) ---

class SmoothFamily:
    """delta(x, y) = exp(a(y^2 - x^2)) - exp(b(x - y)); g(t) = a t^2 + b t."""

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b

    def spec_dict(self) -> dict:
        a, b = num(self.a), num(self.b)
        return {
            "kind": "smooth",
            "domain": list(DOMAIN),
            "delta": f"exp({a}*(y^2 - x^2)) - exp({b}*(x - y))",
            "d2": f"2*{a}*y*exp({a}*(y^2 - x^2)) + {b}*exp({b}*(x - y))",
        }

    def delta(self, x: float, y: float) -> float:
        return math.exp(self.a * (y * y - x * x)) - math.exp(self.b * (x - y))

    def d2(self, x: float, y: float) -> float:
        return (2.0 * self.a * y * math.exp(self.a * (y * y - x * x))
                + self.b * math.exp(self.b * (x - y)))

    def gauge(self, t: float) -> float:
        return self.a * t * t + self.b * t


def smooth_family(rng: random.Random) -> SmoothFamily:
    return SmoothFamily(r6(rng.uniform(0.5, 1.5)), r6(rng.uniform(0.5, 1.5)))


# --- gauges with atoms ---

class GaugeRef:
    """A generated gauge: its JSON document and closed-form values."""

    def __init__(self, kind: str, params: dict, jumps: list, flats: list):
        self.kind = kind
        self.p = params
        self.jumps = jumps
        self.flats = flats

    def density_source(self) -> str:
        p = self.p
        if self.kind == "linear":
            return f"{num(p['k'])} + {num(p['c'])}*t"
        if self.kind == "flat":
            return f"{num(p['k'])}*max(0, abs(t - {num(p['m'])}) - {num(p['w'])})"
        return "1"

    def to_dict(self) -> dict:
        return {"domain": list(DOMAIN), "density": self.density_source(),
                "jumps": [list(j) for j in self.jumps],
                "flats": [list(f) for f in self.flats]}

    def density(self, t: float) -> float:
        p = self.p
        if self.kind == "linear":
            return p["k"] + p["c"] * t
        if self.kind == "flat":
            return p["k"] * max(0.0, abs(t - p["m"]) - p["w"])
        return 1.0

    def continuous(self, t: float) -> float:
        """W(t): integral of the density over [0, t)."""
        p = self.p
        if self.kind == "linear":
            return p["k"] * t + 0.5 * p["c"] * t * t
        if self.kind == "flat":
            lo, hi = p["m"] - p["w"], p["m"] + p["w"]
            if t <= lo:
                area = 0.5 * (lo * lo - (lo - t) ** 2)
            elif t <= hi:
                area = 0.5 * lo * lo
            else:
                area = 0.5 * lo * lo + 0.5 * (t - hi) ** 2
            return p["k"] * area
        return t

    def atom(self, t: float) -> float:
        return sum(s for tau, s in self.jumps if tau == t)

    def __call__(self, t: float) -> float:
        """G(t) = W(t) + atoms strictly left of t."""
        return self.continuous(t) + sum(s for tau, s in self.jumps if tau < t)

    def measure(self, c: float, d: float, kind: str) -> float:
        if kind == "{}":
            return self.atom(c)
        value = self(d) - self(c)
        if kind in ("[]", "(]"):
            value += self.atom(d)
        if kind in ("()", "(]"):
            value -= self.atom(c)
        return value

    def in_flat(self, t: float) -> bool:
        return any(lo <= t <= hi for lo, hi in self.flats)


def _atoms(rng: random.Random, count: int, size_range: tuple[float, float],
           avoid: list, spacing: float = 0.05) -> list:
    """count atoms in [0.08, 0.92], spaced apart and clear of the avoid intervals."""
    if count * spacing > 0.7:
        raise ValueError(f"{count} atoms do not fit at spacing {spacing}")
    taus: list[float] = []
    while len(taus) < count:
        cand = r6(rng.uniform(0.08, 0.92))
        if any(lo - spacing <= cand <= hi + spacing for lo, hi in avoid):
            continue
        if all(abs(cand - p) >= spacing for p in taus):
            taus.append(cand)
    taus.sort()
    return [(t, r6(rng.uniform(*size_range))) for t in taus]


def linear_gauge(rng: random.Random, n_atoms: int,
                 size_range=(0.1, 1.1), spacing: float = 0.05) -> GaugeRef:
    params = {"k": r6(rng.uniform(0.5, 1.5)), "c": r6(rng.uniform(0.0, 1.0))}
    return GaugeRef("linear", params,
                    _atoms(rng, n_atoms, size_range, [], spacing=spacing), [])


def flat_gauge(rng: random.Random, n_atoms: int) -> GaugeRef:
    m, w = r6(rng.uniform(0.4, 0.6)), r6(rng.uniform(0.05, 0.12))
    params = {"k": r6(rng.uniform(1.0, 3.0)), "m": m, "w": w}
    # the declared flat is exactly where the density expression vanishes
    flat = (m - w, m + w)
    return GaugeRef("flat", params, _atoms(rng, n_atoms, (0.1, 1.1), [flat]),
                    [flat])


def unit_gauge(rng: random.Random, n_atoms: int, size_range=(0.05, 0.5),
               spacing: float = 0.05) -> GaugeRef:
    return GaugeRef("unit", {}, _atoms(rng, n_atoms, size_range, [],
                                       spacing=spacing), [])


# --- closed forms for the solvers ---

def g_exponential(g: GaugeRef, q0: float, q1: float, u0: float, t: float) -> float:
    """Solution of du = (q0 + q1 t) u dg on a linear-density gauge.

    u(t) = u0 exp(integral of p dg_c over [0, t)) * prod over tau < t of
    (1 + p(tau) s): the g-exponential of the linear Stieltjes equation.
    """
    k, c = g.p["k"], g.p["c"]
    exponent = q0 * k * t + 0.5 * (q0 * c + q1 * k) * t * t + q1 * c * t ** 3 / 3.0
    value = u0 * math.exp(exponent)
    for tau, s in g.jumps:
        if tau < t:
            value *= 1.0 + (q0 + q1 * tau) * s
    return value


def surface_exact(g: GaugeRef, terminal: float, x: float) -> float:
    """u(x) = C + integral over [x, 1) of H dW with H(t) = t, unit density."""
    return terminal + 0.5 * (1.0 - x * x) + sum(tau * s for tau, s in g.jumps
                                                  if x <= tau < 1.0)
