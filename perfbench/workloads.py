"""The three benchmark workloads: inputs, operations and their checks.

A workload is built from a seed and a scratch directory.  Construction
is the set-up: it generates every input, writes the JSON files the
package reads, and (for the in-process workloads) imports the package.
``ops()`` then returns one round: a fixed list of operations that the
runner repeats in a closed loop with a single client.

Each operation is an ``Op``: ``run()`` makes the package calls and is
the only part that is timed; ``check(result)`` validates the result
against closed forms or documented behaviour and raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import inputs as gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(value: float, ref: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(value - ref) <= max(abs_tol, rel * abs(ref))


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def import_package() -> None:
    """Import the package from the checkout's src/ directory."""
    if not (SRC / "displace" / "__init__.py").is_file():
        raise FileNotFoundError(f"package source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import displace  # noqa: F401  (imports every submodule)


# ---------------------------------------------------------------------------
# pipeline: the paper's chain, in process
# ---------------------------------------------------------------------------

# ∫ t d(t^2 + t) over [0, 1) = 7/6
TT_GAUGE = {"domain": [0.0, 1.0], "density": "2*t + 1", "jumps": [],
            "flats": []}

PIPELINE_SIZES = {
    "rounds": 12, "items_per_round": 8, "h1_samples": 41, "h2usc_samples": 5,
    "h2prime_samples": 12, "h3_samples": 21, "h5_samples": 21, "d2_grid": 32,
    "gamma_grid": 64, "gauge_points": 8, "derivative_points": 10,
    "ftc_grid": 21, "ftc2_grid": 21, "measure_queries": 100,
}


class PipelineItem:
    def __init__(self, seed: int, index: int, workdir: Path, sizes: dict):
        rng = gen.rng_for(seed, "pipeline", index)
        self.fam = gen.smooth_family(rng)
        self.flat = gen.flat_gauge(rng, index % 4)
        self.lin = gen.linear_gauge(rng, (index + 2) % 4)
        c1, c2 = gen.r6(rng.uniform(0.5, 2.0)), gen.r6(rng.uniform(-1.0, 1.0))
        self.c1, self.c2 = c1, c2
        self.f_src = f"{gen.num(c1)}*sin(t) + {gen.num(c2)}*t^2"
        self.gauge_ts = [rng.random() for _ in range(sizes["gauge_points"])]
        self.ball = (rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.5))
        self.gamma = (rng.random(), rng.random())
        self.upper = rng.uniform(0.3, 1.0)
        n = sizes["derivative_points"]
        grid = [0.05 + 0.9 * i / (n - 1) for i in range(n)]
        lo, hi = self.flat.flats[0]
        # quotients right at a flat edge divide by a vanishing density
        self.deriv_xs = [x for x in grid
                         if not (lo - 0.03 <= x <= lo or hi <= x <= hi + 0.03)]
        self.deriv_xs += [tau for tau, _ in self.flat.jumps]
        self.queries = []
        taus = [tau for tau, _ in self.lin.jumps]
        for q in range(sizes["measure_queries"]):
            c, d = sorted((rng.random(), rng.random()))
            if taus and q % 5 == 0:
                c = rng.choice(taus)
                d = max(c, d)
            self.queries.append((c, d, rng.choice(gen.MEASURE_KINDS)))
        stem = workdir / f"item{index}"
        self.spec_path = write_json(stem.with_suffix(".spec.json"),
                                    self.fam.spec_dict())
        self.flat_path = write_json(stem.with_suffix(".flat.json"),
                                    self.flat.to_dict())
        self.lin_path = write_json(stem.with_suffix(".linear.json"),
                                   self.lin.to_dict())


class Pipeline:
    name = "pipeline"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        import_package()
        self.sizes = dict(PIPELINE_SIZES)
        if tiny:
            self.sizes.update(rounds=1, items_per_round=2)
        self.tt_path = write_json(workdir / "tt.json", TT_GAUGE)
        count = self.sizes["rounds"] * self.sizes["items_per_round"]
        self.items = [PipelineItem(seed, i, workdir, self.sizes)
                      for i in range(count)]

    def ops(self, round_index: int = 0) -> list[Op]:
        per = self.sizes["items_per_round"]
        first = round_index % self.sizes["rounds"] * per
        return [Op(f"item{i % per}", lambda it=it: self._run(it),
                   lambda res, it=it: self._check(it, res))
                for i, it in enumerate(self.items[first:first + per], first)]

    def _run(self, it: PipelineItem) -> dict:
        from displace import calculus, displacement, expr
        from displace.gauge import Gauge
        s = self.sizes
        load = lambda p: json.loads(p.read_text(encoding="utf-8"))
        spec = displacement.spec_from_dict(load(it.spec_path))
        out: dict = {"checks": [
            displacement.check_h1(spec, samples=s["h1_samples"]),
            displacement.check_h2_usc(spec, samples=s["h2usc_samples"]),
            displacement.check_h2prime(spec, samples=s["h2prime_samples"]),
            displacement.check_h3(spec, samples=s["h3_samples"]),
            displacement.check_h5(spec, samples=s["h5_samples"]),
            displacement.check_d2_positive(spec, grid=s["d2_grid"]),
        ]}
        out["ball"] = displacement.delta_ball(spec, *it.ball)
        out["gamma"] = displacement.gamma_estimate(spec, *it.gamma,
                                                   grid=s["gamma_grid"])
        g = displacement.gauge_from_smooth(spec)
        out["gauge"] = [g(t) for t in it.gauge_ts]

        flat = Gauge.from_dict(load(it.flat_path))
        lin = Gauge.from_dict(load(it.lin_path))
        tt = Gauge.from_dict(load(self.tt_path))
        f = expr.as_function(expr.parse(it.f_src, {"t"}), "t")
        ident = expr.as_function(expr.parse("t", {"t"}), "t")
        out["derivs"] = [calculus.delta_derivative(f, flat, x)
                         for x in it.deriv_xs]
        out["seven_sixths"] = calculus.stieltjes_integral(ident, tt, 1.0)
        out["integral"] = calculus.stieltjes_integral(ident, lin, it.upper)
        out["ftc"] = calculus.ftc_forward_check(f, flat, grid=s["ftc_grid"])
        out["ftc2"] = calculus.ftc2_check(lin, lin, grid=s["ftc2_grid"])

        fresh = Gauge.from_dict(load(it.lin_path))
        out["fresh"] = [fresh.measure(c, d, k) for c, d, k in it.queries]
        out["repeat"] = [fresh.measure(c, d, k) for c, d, k in it.queries]
        return out

    def _check(self, it: PipelineItem, out: dict) -> None:
        fam = it.fam
        h1, h2usc, h2p, h3, h5, d2 = out["checks"]
        for rep in (h1, h3, h5, d2):
            expect(rep.verdict == "pass", f"{rep.hypothesis} {rep.verdict}")
        expect(h2usc.verdict in ("pass", "inconclusive"),
               f"H2-usc {h2usc.verdict} on a positive-d2 space")
        for w in h2p.witnesses:
            lhs = abs(fam.delta(w["x"], w["z"]))
            rhs = abs(fam.delta(w["x"], w["y"])) + abs(fam.delta(w["y"], w["z"]))
            expect(lhs > rhs, f"H2' witness {w} is not a violation")
        expect((h2p.verdict == "fail") == bool(h2p.stats["violations"]),
               "H2' verdict disagrees with its violation count")
        xs = [i / (self.sizes["d2_grid"] - 1) for i in range(self.sizes["d2_grid"])]
        r_hat = min(fam.d2(x, y) for x in xs for y in xs)
        expect(close(d2.stats["r_hat"], r_hat, 1e-12), "D2 r_hat mismatch")

        x, r = it.ball
        ball = out["ball"]
        expect(ball.lo <= x <= ball.hi, "ball misses its centre")
        for end, bound in ((ball.lo, 0.0), (ball.hi, 1.0)):
            expect(end == bound or abs(abs(fam.delta(x, end)) - r) <= 1e-8,
                   f"ball endpoint {end} not on the radius")

        z, zbar = it.gamma
        n = self.sizes["gamma_grid"]
        ref = max([1.0] + [fam.d2(z, i / (n - 1)) / fam.d2(zbar, i / (n - 1))
                           for i in range(n)])
        expect(close(out["gamma"].value, ref, 1e-12), "gamma_estimate mismatch")

        for t, v in zip(it.gauge_ts, out["gauge"]):
            expect(abs(v - fam.gauge(t)) <= 1e-6, f"g({t}) = {v}")

        for x, d in zip(it.deriv_xs, out["derivs"]):
            if it.flat.atom(x):
                expect(d.point_class == "jump" and abs(d.value) <= 1e-6,
                       f"jump derivative at {x}: {d}")
            elif it.flat.in_flat(x):
                expect(d.point_class == "excluded", f"{x} not excluded")
            else:
                ref = (it.c1 * math.cos(x) + 2.0 * it.c2 * x) / it.flat.density(x)
                expect(d.point_class == "continuity"
                       and close(d.value, ref, 1e-6, 1e-6),
                       f"derivative at {x}: {d.value} vs {ref}")

        expect(abs(out["seven_sixths"] - 7.0 / 6.0) <= 1e-9,
               f"∫t d(t²+t) = {out['seven_sixths']}")
        u, lin = it.upper, it.lin
        ref = (0.5 * lin.p["k"] * u * u + lin.p["c"] * u ** 3 / 3.0
               + sum(tau * s for tau, s in lin.jumps if tau < u))
        expect(abs(out["integral"] - ref) <= 1e-9, "∫t dG mismatch")
        expect(out["ftc"].max_error <= 1e-4 and not out["ftc"].violations,
               f"ftc error {out['ftc'].max_error}")
        expect(out["ftc2"].max_error <= 1e-6 and not out["ftc2"].violations,
               f"ftc2 error {out['ftc2'].max_error}")

        for (c, d, k), v in zip(it.queries, out["fresh"]):
            expect(abs(v - lin.measure(c, d, k)) <= 1e-9,
                   f"measure{k}({c}, {d}) = {v}")
        expect(out["repeat"] == out["fresh"], "repeated measures differ")


# ---------------------------------------------------------------------------
# solver-sweep: measure-driven solvers, in process
# ---------------------------------------------------------------------------

# steps are chosen so every op of a round costs about the same, which keeps
# the median op from jumping between clusters of cheap and dear ops
SOLVER_SIZES = {
    "rounds": 24, "picard_sweeps": 3, "value_queries": 2000,
    "atoms": {"euler": 0, "euler_value": 200, "picard": 20, "nonlinear": 20,
              "surface": 100},
    "steps": {"euler": 3e-5, "euler_value": 5e-5, "picard": 2e-4,
              "nonlinear": 3e-4, "surface": 2e-5},
}
# Both methods are first order in the step: nodes stay within this
# multiple of the step, relative to the g-exponential, and residuals
# within this multiple of the step times the solution's largest |u|
IVP_REL_TOL = 5.0
RESIDUAL_TOL = 10.0


def residual_bound(step: float, u_max: float) -> float:
    return RESIDUAL_TOL * step * max(1.0, u_max)


class SolverSweep:
    """Rounds of solves; each round draws its own gauges and coefficients."""

    name = "solver-sweep"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        import_package()
        self.sizes = dict(SOLVER_SIZES)
        if tiny:
            self.sizes.update(rounds=1, value_queries=200,
                              steps=dict.fromkeys(SOLVER_SIZES["steps"], 1e-3))
        self.rounds = [SolverRound(seed, r, workdir, self.sizes)
                       for r in range(self.sizes["rounds"])]

    def ops(self, round_index: int = 0) -> list[Op]:
        return self.rounds[round_index % len(self.rounds)].ops()


class SolverRound:
    def __init__(self, seed: int, index: int, workdir: Path, sizes: dict):
        self.sizes = sizes
        rng = gen.rng_for(seed, "solver", index)
        n = sizes["atoms"]
        self.g0 = gen.linear_gauge(rng, n["euler"])
        self.g200 = gen.linear_gauge(rng, n["euler_value"], (0.001, 0.01), 0.002)
        self.g20 = gen.linear_gauge(rng, n["picard"], (0.01, 0.1), 0.02)
        self.g20b = gen.linear_gauge(rng, n["nonlinear"], (0.01, 0.1), 0.02)
        self.w100 = gen.unit_gauge(rng, n["surface"], (0.005, 0.05), 0.005)
        self.q = (gen.r6(rng.uniform(0.2, 1.0)), gen.r6(rng.uniform(0.0, 0.5)))
        self.u0 = gen.r6(rng.uniform(0.5, 2.0))
        self.nl = tuple(gen.r6(rng.uniform(lo, hi))
                        for lo, hi in ((0.2, 0.8), (0.1, 0.4), (0.1, 0.6)))
        self.terminal = gen.r6(rng.uniform(-1.0, 1.0))
        self.value_ts = [rng.random() for _ in range(sizes["value_queries"])]
        self.paths = {name: write_json(workdir / f"r{index}-{name}.json",
                                       g.to_dict())
                      for name, g in (("g0", self.g0), ("g200", self.g200),
                                      ("g20", self.g20), ("g20b", self.g20b),
                                      ("w100", self.w100))}

    def _gauge(self, name):
        from displace.gauge import Gauge
        return Gauge.from_dict(json.loads(self.paths[name].read_text("utf-8")))

    def _fn(self, source, *names):
        from displace import expr
        return expr.as_function(expr.parse(source, set(names)), *names)

    def linear_rhs(self) -> str:
        return f"({gen.num(self.q[0])} + {gen.num(self.q[1])}*t)*u"

    def ops(self) -> list[Op]:
        return [
            Op("euler-0", lambda: self._linear("g0", "euler"),
               lambda r: self._check_linear(self.g0, r)),
            Op("euler-200+value", lambda: self._linear("g200", "euler_value",
                                                       values=True),
               lambda r: self._check_linear(self.g200, r)),
            Op("picard-20+verify", lambda: self._linear("g20", "picard", pair=True),
               lambda r: self._check_linear(self.g20, r)),
            Op("nonlinear-20+verify", self._nonlinear, self._check_residuals),
            Op("surface-100", self._surface, self._check_surface),
        ]

    def _pair(self, problem, step: float) -> dict:
        """g-euler and g-euler+picard on one problem, each verified."""
        from displace import solver
        euler = solver.solve_ivp(problem, step)
        picard = solver.solve_ivp(problem, step,
                                  picard_sweeps=self.sizes["picard_sweeps"])
        return {"step": step, "sols": [euler, picard],
                "residuals": [solver.verify_solution(problem, euler),
                              solver.verify_solution(problem, picard)]}

    def _linear(self, name, kind, pair=False, values=False):
        from displace import solver
        step = self.sizes["steps"][kind]
        problem = solver.IvpProblem(gauge=self._gauge(name),
                                    rhs=self._fn(self.linear_rhs(), "t", "u"),
                                    u0=self.u0)
        if pair:
            return self._pair(problem, step)
        sol = solver.solve_ivp(problem, step)
        out = {"step": step, "sols": [sol]}
        if values:
            out["values"] = [sol.value(t) for t in self.value_ts]
        return out

    def _check_linear(self, g: gen.GaugeRef, out: dict) -> None:
        step = out["step"]
        q0, q1 = self.q
        sizes = dict(g.jumps)
        for sol in out["sols"]:
            n = len(sol.ts)
            for k in list(range(0, n, max(1, n // 200))) + [n - 1]:
                t = float(sol.ts[k])
                ref = gen.g_exponential(g, q0, q1, self.u0, t)
                expect(close(float(sol.us[k]), ref, IVP_REL_TOL * step),
                       f"{sol.method} u({t}) = {float(sol.us[k])} vs "
                       f"g-exponential {ref}")
            expect(len(sol.jumps) == len(sizes), "jump records do not match atoms")
            for rec in sol.jumps:
                factor = 1.0 + (q0 + q1 * rec.tau) * sizes[rec.tau]
                expect(close(rec.u_after, rec.u_before * factor, 1e-12),
                       f"atom update at {rec.tau}")
        if "residuals" in out:
            self._check_residuals(out)
        for t, v in zip(self.value_ts, out.get("values", ())):
            ref = gen.g_exponential(g, q0, q1, self.u0, t)
            expect(close(v, ref, IVP_REL_TOL * step), f"value({t}) = {v} vs {ref}")

    def _nonlinear(self):
        from displace import solver
        c0, c1, c2 = self.nl
        rhs = self._fn(f"{gen.num(c0)}*u - {gen.num(c1)}*u^2 + "
                       f"{gen.num(c2)}*sin(3*t)", "t", "u")
        return self._pair(solver.IvpProblem(gauge=self._gauge("g20b"), rhs=rhs,
                                            u0=self.u0),
                          self.sizes["steps"]["nonlinear"])

    def _check_residuals(self, out: dict) -> None:
        step = out["step"]
        for sol, res in zip(out["sols"], out["residuals"]):
            bound = residual_bound(step, float(abs(sol.us).max()))
            expect(0.0 <= res.max_residual <= bound,
                   f"{sol.method} residual {res.max_residual} above {bound}")

    def _surface(self):
        from displace import solver
        problem = solver.SurfaceProblem(work_gauge=self._gauge("w100"),
                                        source=self._fn("1", "t"),
                                        terminal_value=self.terminal)
        return solver.solve_surface(problem, self.sizes["steps"]["surface"])

    def _check_surface(self, sol) -> None:
        check_surface_rows(self.w100, self.terminal,
                           list(zip(sol.ts.tolist(), sol.us.tolist())),
                           [(r.tau, r.u_before, r.u_after) for r in sol.jumps])


def check_surface_rows(g: gen.GaugeRef, terminal: float, nodes, jumps) -> None:
    """Surface solution against C + (1 - x^2)/2 + atoms at or right of x."""
    taus = [tau for tau, _ in g.jumps]
    suffix = 0.0
    # walk right to left so the atom sum is a running total
    j = len(taus)
    for t, u in reversed(nodes):
        while j and taus[j - 1] >= t:
            j -= 1
            suffix += taus[j] * g.jumps[j][1]
        ref = terminal + 0.5 * (1.0 - t * t) + suffix
        expect(abs(u - ref) <= 1e-9, f"surface u({t}) = {u} vs {ref}")
    expect(nodes[-1][1] == terminal, "terminal value is not hit exactly")
    sizes = dict(g.jumps)
    expect(len(jumps) == len(sizes), "surface jump records do not match atoms")
    for tau, before, after in jumps:
        expect(abs((before - after) - tau * sizes[tau]) <= 1e-12,
               f"atom identity at {tau}")


# ---------------------------------------------------------------------------
# cli-session: fresh `python -m displace.cli` processes
# ---------------------------------------------------------------------------

CLI_SIZES = {"ivp_step": 1e-4, "picard_sweeps": 3, "surface_step": 1e-5,
             "surface_atoms": 3, "ivp_atoms": 3}


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("DISPLACE_LOG", None)
    return env


def run_cli(argv: list[str], cwd: Path) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "displace.cli", *argv],
                          cwd=cwd, env=cli_env(), capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class CliSession:
    """One round: every CLI command once, plus a repeated call."""

    name = "cli-session"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.workdir = workdir
        self.sizes = dict(CLI_SIZES)
        if tiny:
            self.sizes.update(ivp_step=1e-3, surface_step=1e-3)
        rng = gen.rng_for(seed, "cli")
        self.fam = gen.smooth_family(rng)
        self.lin = gen.linear_gauge(rng, self.sizes["ivp_atoms"])
        self.work = gen.unit_gauge(rng, self.sizes["surface_atoms"])
        self.poly = (gen.r6(rng.uniform(0.5, 2.0)), gen.r6(rng.uniform(-1.0, 1.0)))
        self.x = (gen.r6(rng.uniform(0.1, 0.9)), gen.r6(rng.uniform(0.1, 0.9)))
        self.ball = (gen.r6(rng.uniform(0.2, 0.8)), gen.r6(rng.uniform(0.05, 0.5)))
        self.scale = gen.r6(rng.uniform(0.5, 2.0))
        self.q = (gen.r6(rng.uniform(0.2, 1.0)), gen.r6(rng.uniform(0.0, 0.5)))
        self.terminal = gen.r6(rng.uniform(-1.0, 1.0))
        self.spec = write_json(workdir / "spec.json", self.fam.spec_dict())
        self.lin_path = write_json(workdir / "linear.json", self.lin.to_dict())
        self.work_path = write_json(workdir / "work.json", self.work.to_dict())
        self.tt_path = write_json(workdir / "tt.json", TT_GAUGE)
        self.smooth_gauge = write_json(workdir / "smooth-gauge.json", {
            "domain": [0.0, 1.0], "jumps": [], "flats": [],
            "density": f"2*{gen.num(self.fam.a)}*t + {gen.num(self.fam.b)}"})
        self.written = workdir / "extracted.json"
        # untimed warm-up: byte-compiles the package so no op pays for it
        run_cli(["--help"], workdir)

    def commands(self) -> list[tuple[str, list[str], Callable]]:
        """(name, argv, check(code, stdout)) for one round, in call order."""
        fam, lin = self.fam, self.lin
        c1, c2 = self.poly
        poly = f"{gen.num(c1)}*t^3 + {gen.num(c2)}*t"
        dpoly = lambda x: 3.0 * c1 * x * x + c2
        xi, xl = self.x
        bx, br = self.ball
        q0, q1 = self.q
        s = self.sizes
        gauge_src = (f"{gen.num(self.scale)}*({gen.num(fam.a)}*t^2 + "
                     f"{gen.num(fam.b)}*t)")
        rhs = f"({gen.num(q0)} + {gen.num(q1)}*t)*u"
        derive = ["derive", "--f", poly, "--gauge", "identity", "--x", gen.num(xi)]
        first: dict = {}

        def check_derive(code, out):
            expect(code == 0, f"exit {code}")
            first.setdefault("derive", out)
            expect(close(json.loads(out)["value"], dpoly(xi), 1e-6, 1e-6),
                   "derive against the identity gauge")

        def check_repeat(code, out):
            expect(code == 0 and out == first.get("derive"),
                   "repeated call is not byte-identical")

        def check_derive_lin(code, out):
            expect(code == 0, f"exit {code}")
            ref = dpoly(xl) / lin.density(xl)
            expect(close(json.loads(out)["value"], ref, 1e-6, 1e-6),
                   "derive against a linear gauge")

        def check_integrate(code, out):
            expect(code == 0 and abs(json.loads(out)["value"] - 7 / 6) <= 1e-9,
                   f"∫t d(t²+t): {out.strip()}")

        def check_path(code, out):
            # d2(t, t) = 2 a t + b, so ∫ t d2(t, t) dt = 2a/3 + b/2
            ref = 2.0 * fam.a / 3.0 + fam.b / 2.0
            expect(code == 0 and abs(json.loads(out)["value"] - ref) <= 1e-8,
                   f"path integral: {out.strip()}")

        def check_gauge_write(code, out):
            expect(code == 0 and out == "", f"exit {code}")
            data = json.loads(self.written.read_text(encoding="utf-8"))
            expect(data["domain"] == [0, 1] and isinstance(data["density"], str)
                   and data["jumps"] == [], "written gauge JSON")

        def check_gauge_read(code, out):
            expect(code == 0, f"exit {code}")
            rows = [line.split(",") for line in out.strip().split("\n")[1:]]
            expect(len(rows) == 101, "gauge table size")
            for t, v in rows:
                expect(abs(float(v) - fam.gauge(float(t))) <= 1e-6,
                       f"reloaded gauge g({t}) = {v}")

        def check_ball(code, out):
            expect(code == 0, f"exit {code}")
            b = json.loads(out)
            expect(b["lo"] <= bx <= b["hi"], "ball misses its centre")
            for end, bound in ((b["lo"], 0.0), (b["hi"], 1.0)):
                expect(end == bound or abs(abs(fam.delta(bx, end)) - br) <= 1e-8,
                       f"ball endpoint {end}")

        def check_exponential(code, out):
            # documented: every check passes except H2' with identity phi
            reports = [json.loads(line) for line in out.strip().split("\n")]
            verdicts = {r["hypothesis"]: r["verdict"] for r in reports}
            expect(code == 2 and verdicts == {
                "H1": "pass", "H2-usc": "pass", "H2'": "fail", "H3": "pass",
                "H5": "pass", "D2-positive": "pass"}, f"verdicts {verdicts}")
            d = lambda x, y: math.exp(y * y - x * x) - math.exp(x - y)
            for w in reports[2]["witnesses"]:
                expect(abs(d(w["x"], w["z"])) > abs(d(w["x"], w["y"]))
                       + abs(d(w["y"], w["z"])), f"H2' witness {w}")
            expect(reports[5]["stats"]["r_hat"] > 0.0, "d2 lower bound")

        def check_santiago(code, out):
            # documented: the stored matrix has exactly one violating triple
            h1, h2 = (json.loads(line) for line in out.strip().split("\n"))
            expect(code == 2 and h1["verdict"] == "pass"
                   and h2["verdict"] == "fail" and h2["stats"]["violations"] == 1,
                   "santiago_graph verdicts")
            w = h2["witnesses"][0]
            expect((w["x"], w["y"], w["z"], w["psi_xz"], w["psi_xy"], w["psi_yz"])
                   == (0, 2, 3, 10, 4, 5), f"santiago witness {w}")

        def check_ftc(tol):
            def check(code, out):
                rep = json.loads(out)
                expect(code == 0 and rep["max_error"] <= tol
                       and not rep["violations"], f"ftc report {out[:200]}")
            return check

        def check_ivp(code, out):
            expect(code == 0, f"exit {code}")
            rows = [tuple(map(float, line.split(",")))
                    for line in out.strip().split("\n")[1:]]
            seen = set()
            for t, u in rows:
                if t in seen:      # second row of a jump node: u(tau+)
                    continue
                seen.add(t)
                ref = gen.g_exponential(lin, q0, q1, 1.0, t)
                expect(close(u, ref, IVP_REL_TOL * s["ivp_step"]),
                       f"solve-ivp u({t}) = {u} vs {ref}")

        def check_surface(code, out):
            expect(code == 0, f"exit {code}")
            lines = out.strip().split("\n")[1:]
            nodes, jumps, prev = [], [], None
            for line in lines:
                t, u = map(float, line.split(","))
                if prev is not None and prev[0] == t:
                    jumps.append((t, prev[1], u))
                else:
                    nodes.append((t, u))
                prev = (t, u)
            check_surface_rows(self.work, self.terminal, nodes, jumps)

        return [
            ("derive-identity", derive, check_derive),
            ("derive-linear", ["derive", "--f", poly, "--gauge", str(self.lin_path),
                               "--x", gen.num(xl)], check_derive_lin),
            ("integrate", ["integrate", "--f", "t", "--gauge", str(self.tt_path)],
             check_integrate),
            ("path-integrate", ["path-integrate", "--f", "t", "--alpha", "t",
                                "--spec", str(self.spec)], check_path),
            ("gauge-write", ["gauge", "--spec", str(self.spec), "--out",
                             str(self.written)], check_gauge_write),
            ("gauge-reload", ["gauge", "--gauge", str(self.written), "--format",
                              "csv"], check_gauge_read),
            ("ball", ["ball", "--spec", str(self.spec), "--x", gen.num(bx),
                      "--r", gen.num(br)], check_ball),
            ("check-exponential", ["check", "--builtin", "exponential"],
             check_exponential),
            ("check-santiago", ["check", "--builtin", "santiago_graph"],
             check_santiago),
            ("ftc-exponential", ["ftc", "--f", "t", "--gauge", "extract:exponential"],
             check_ftc(1e-4)),
            ("ftc2", ["ftc2", "--f", gauge_src, "--gauge", str(self.smooth_gauge)],
             check_ftc(1e-6)),
            ("solve-ivp", ["solve-ivp", "--rhs", rhs, "--gauge", str(self.lin_path),
                           "--u0", "1", "--step", repr(s["ivp_step"]),
                           "--picard", str(s["picard_sweeps"]),
                           "--verify-tol", repr(residual_bound(
                               s["ivp_step"], gen.g_exponential(lin, q0, q1, 1.0, 1.0)))],
             check_ivp),
            ("solve-surface", ["solve-surface", "--h", "1", "--gauge",
                               str(self.work_path), "--terminal",
                               repr(self.terminal), "--step",
                               repr(s["surface_step"])], check_surface),
            ("derive-repeat", list(derive), check_repeat),
        ]

    def ops(self, round_index: int = 0) -> list[Op]:
        ops = []
        for name, argv, check in self.commands():
            ops.append(Op(name, lambda argv=argv: run_cli(argv, self.workdir),
                          lambda res, check=check: check(res[0], res[1])))
        return ops
