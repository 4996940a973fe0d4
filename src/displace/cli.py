"""Command-line interface.

Exit codes follow one convention everywhere: 0 success, 1 bad input or
computation error, 2 a check failed or a verification report exceeded
its tolerance, 3 checks were inconclusive but none failed.  Commands
return 0, 2 or 3 and raise on bad input; _Cli.main alone turns that into
the exit status and the single "error: ..." line.  Reports are emitted
as deterministic JSON (17 significant digits, fixed key order),
solutions as CSV or JSON.  Set DISPLACE_LOG=debug|info|warning to log
progress to stderr.
"""

from __future__ import annotations

import inspect
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional

import click

from . import calculus, displacement, solver
from .displacement import (BUILTIN_NAMES, DisplacementError, gauge_from_smooth,
                           make_builtin, spec_from_dict)
from .expr import ExprError, as_function, parse
from .gauge import Gauge, GaugeError, _linspace
from .serialize import csv_lines, dumps

log = logging.getLogger("displace")

_ERRORS = (ExprError, GaugeError, DisplacementError, calculus.CalculusError,
           solver.SolverError, OSError, ValueError, KeyError,
           json.JSONDecodeError)


def _load_spec(spec_path: Optional[str], builtin: Optional[str]):
    if (spec_path is None) == (builtin is None):
        raise DisplacementError("provide exactly one of --spec or --builtin")
    if builtin is not None:
        log.info("using builtin spec %s", builtin)
        return make_builtin(builtin)
    log.info("loading spec from %s", spec_path)
    with open(spec_path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def _load_gauge(ref: str) -> Gauge:
    if ref == "identity":
        return Gauge.identity()
    if ref.startswith("extract:"):
        name = ref.split(":", 1)[1]
        log.info("extracting gauge from builtin %s", name)
        return gauge_from_smooth(make_builtin(name))
    log.info("loading gauge from %s", ref)
    with open(ref, "r", encoding="utf-8") as fh:
        return Gauge.from_dict(json.load(fh))


def _deliver(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


class _Cli(click.Group):
    """Group whose main is the only exit path of every command.

    Click's default usage-error code is 2, which this interface reserves
    for failed checks, so parsing problems are remapped onto the bad
    input code.
    """

    def main(self, *args, **kwargs):  # noqa: D102 (click's signature)
        kwargs["standalone_mode"] = False
        try:
            sys.exit(super().main(*args, **kwargs))
        except _ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
        except click.exceptions.Abort:
            click.echo("aborted", err=True)
        except click.ClickException as exc:
            exc.show()
        sys.exit(1)


@click.group(cls=_Cli)
def main() -> None:
    """Displacement calculus: axiom checks, gauges, derivatives, solvers."""
    # no command does BLAS work, so the commands that load numpy ask
    # OpenBLAS for no worker threads: starting them and their busy-wait
    # beside the main thread cost those commands 30-60 ms on two vCPUs
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    level = os.environ.get("DISPLACE_LOG", "").upper()
    if level in ("DEBUG", "INFO", "WARNING", "ERROR"):
        logging.basicConfig(stream=sys.stderr, level=getattr(logging, level),
                            format="%(name)s %(levelname)s %(message)s")


# check name -> (function, the command-line options it takes besides
# --tol); an option left unset is not passed, so the check's own default
# applies
_CHECKS = {
    "h1": (displacement.check_h1, ("samples",)),
    "h2usc": (displacement.check_h2_usc, ("samples", "shrink_levels")),
    "h2prime": (displacement.check_h2prime, ("samples", "phi")),
    "h3": (displacement.check_h3, ("samples",)),
    "h5": (displacement.check_h5, ("samples",)),
    "d2": (displacement.check_d2_positive, ("grid",)),
}


def _shown_default(fn, name: str) -> str:
    """fn's default for name, as click's show_default renders it."""
    return f"[default: {inspect.signature(fn).parameters[name].default}]"


_DEFAULT_CHECKS = {
    "smooth": ("h1", "h2usc", "h2prime", "h3", "h5", "d2"),
    "stieltjes": ("h1", "h2usc", "h2prime", "h3", "h5"),
    "graph": ("h1", "h2prime"),
    "angular": ("h1", "h2prime"),
}


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True),
              help="JSON displacement spec.")
@click.option("--builtin", type=click.Choice(BUILTIN_NAMES),
              help="Named example space.")
@click.option("--which", default=None,
              help="Comma-separated subset of h1,h2usc,h2prime,h3,h5,d2.")
@click.option("--samples", default=None, type=int,
              help="Sample grid size for the hypothesis checks.")
@click.option("--grid", default=None, type=int,
              help="Lattice size per axis for the d2 check.  " + _shown_default(
                  displacement.check_d2_positive, "grid"))
@click.option("--tol", default=None, type=float,
              help="Override the check tolerance.")
@click.option("--phi", default=None,
              help="Rescaling function of r for h2prime (default identity).")
@click.option("--shrink-levels", default=None, type=int,
              help="Shrink levels for the h2usc check.  " + _shown_default(
                  displacement.check_h2_usc, "shrink_levels"))
@click.option("--seed", default=0, type=int, show_default=True,
              help="Reserved; no check is randomised, so it has no effect.")
@click.option("--out", default=None, type=click.Path(),
              help="Write reports to a file instead of stdout.")
def check(spec_path, builtin, which, samples, grid, tol, phi, shrink_levels,
          seed, out):
    """Run hypothesis checks; one JSON report per line.

    Exits 0 when every check passes, 2 when any fails, 3 when none fail
    but at least one is inconclusive.
    """
    spec = _load_spec(spec_path, builtin)
    if which:
        names = [w.strip() for w in which.split(",") if w.strip()]
        for name in names:
            if name not in _CHECKS:
                raise DisplacementError(
                    f"unknown check {name!r}; choose from "
                    + ",".join(_CHECKS))
    else:
        names = list(_DEFAULT_CHECKS[spec.kind])
    given = {"phi": parse(phi, {"r"}) if phi else None, "samples": samples,
             "shrink_levels": shrink_levels, "grid": grid, "tol": tol}

    reports = []
    for name in names:
        log.info("running %s", name)
        fn, options = _CHECKS[name]
        kwargs = {key: given[key] for key in options + ("tol",)
                  if given[key] is not None}
        reports.append(fn(spec, **kwargs))
    text = "\n".join(dumps(r.to_dict()) for r in reports)
    _deliver(text, out)
    verdicts = [r.verdict for r in reports]
    if "fail" in verdicts:
        return 2
    if "inconclusive" in verdicts:
        return 3
    return 0


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True),
              help="JSON smooth spec to extract a gauge from.")
@click.option("--builtin", type=click.Choice(BUILTIN_NAMES),
              help="Builtin smooth spec to extract a gauge from.")
@click.option("--gauge", "gauge_ref", default=None,
              help="Load an existing gauge: path, extract:NAME, or identity.")
@click.option("--grid", default=101, type=int, show_default=True,
              help="Number of points in the sampled (t, g) table.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", default=None, type=click.Path(),
              help="Write the gauge JSON here.")
@click.option("--table", default=None, type=click.Path(),
              help="Write the sampled (t, g) CSV here.")
def gauge(spec_path, builtin, gauge_ref, grid, fmt, out, table):
    """Extract or load a gauge; emit its JSON and a sampled value table."""
    if gauge_ref is not None:
        g = _load_gauge(gauge_ref)
    else:
        spec = _load_spec(spec_path, builtin)
        g = gauge_from_smooth(spec)
    try:
        payload = g.to_dict()
    except GaugeError:
        payload = {
            "domain": [g.domain[0], g.domain[1]],
            "density": None,
            "jumps": [[t, s] for t, s in g.jumps],
            "flats": [[lo, hi] for lo, hi in g.flats],
        }
    a, b = g.domain
    rows = [(t, g(t)) for t in _linspace(a, b, grid)]
    table_text = csv_lines(("t", "g"), rows)
    if out:
        _deliver(dumps(payload), out)
    if table:
        _deliver(table_text, table)
    if not out and not table:
        _deliver(table_text if fmt == "csv" else dumps(payload), None)
    return 0


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True))
@click.option("--builtin", type=click.Choice(BUILTIN_NAMES))
@click.option("--x", required=True, type=float, help="Ball center.")
@click.option("--r", required=True, type=float, help="Ball radius.")
@click.option("--tol", default=1e-10, type=float, show_default=True,
              help="Bisection tolerance for the endpoints.")
@click.option("--out", default=None, type=click.Path())
def ball(spec_path, builtin, x, r, tol, out):
    """Displacement ball around x of radius r, as an interval."""
    spec = _load_spec(spec_path, builtin)
    result = displacement.delta_ball(spec, x, r, tol=tol)
    _deliver(dumps(result.to_dict()), out)
    return 0


@main.command()
@click.option("--f", "f_src", required=True, help="Function of t.")
@click.option("--gauge", "gauge_ref", required=True,
              help="Gauge: path, extract:NAME, or identity.")
@click.option("--x", required=True, type=float)
@click.option("--shrink-levels", default=calculus.DEFAULT_SHRINK_LEVELS,
              type=int, show_default=True)
@click.option("--out", default=None, type=click.Path())
def derive(f_src, gauge_ref, x, shrink_levels, out):
    """Derivative of f against the gauge at x."""
    g = _load_gauge(gauge_ref)
    f = as_function(parse(f_src, {"t"}), "t")
    result = calculus.delta_derivative(f, g, x, shrink_levels=shrink_levels)
    _deliver(dumps(result.to_dict()), out)
    return 0


@main.command()
@click.option("--f", "f_src", required=True, help="Integrand, function of t.")
@click.option("--gauge", "gauge_ref", required=True)
@click.option("--upper", default=None, type=float,
              help="Upper limit (default: right end of the domain); the "
                   "atom there is excluded.")
@click.option("--out", default=None, type=click.Path())
def integrate(f_src, gauge_ref, upper, out):
    """Half-open Stieltjes integral of f from the left end to upper."""
    g = _load_gauge(gauge_ref)
    f = as_function(parse(f_src, {"t"}), "t")
    u = g.domain[1] if upper is None else upper
    value = calculus.stieltjes_integral(f, g, u)
    _deliver(dumps({"upper": float(u), "value": value}), out)
    return 0


@main.command("path-integrate")
@click.option("--f", "f_src", required=True, help="Integrand, function of t.")
@click.option("--alpha", "alpha_src", required=True,
              help="Base-point path, function of t.")
@click.option("--spec", "spec_path", type=click.Path(exists=True))
@click.option("--builtin", type=click.Choice(BUILTIN_NAMES))
@click.option("--upper", default=None, type=float)
@click.option("--quad-tol", default=1e-10, type=float, show_default=True)
@click.option("--out", default=None, type=click.Path())
def path_integrate(f_src, alpha_src, spec_path, builtin, upper, quad_tol, out):
    """Integral of f against the moving-base-point measure of a smooth space."""
    spec = _load_spec(spec_path, builtin)
    f = as_function(parse(f_src, {"t"}), "t")
    alpha = as_function(parse(alpha_src, {"t"}), "t")
    path = calculus.MeasurePath(alpha=alpha, description=alpha_src)
    u = spec.domain[1] if upper is None else upper
    value = calculus.path_integral(f, path, spec, u, quad_tol=quad_tol)
    _deliver(dumps({"upper": float(u), "value": value}), out)
    return 0


@main.command()
@click.option("--f", "f_src", required=True, help="Integrand, function of t.")
@click.option("--gauge", "gauge_ref", required=True)
@click.option("--grid", default=101, type=int, show_default=True)
@click.option("--shrink-levels", default=calculus.DEFAULT_SHRINK_LEVELS,
              type=int, show_default=True)
@click.option("--tol", default=1e-4, type=float, show_default=True,
              help="Maximum allowed derivative-vs-integrand error.")
@click.option("--out", default=None, type=click.Path())
def ftc(f_src, gauge_ref, grid, shrink_levels, tol, out):
    """Differentiate the running integral of f and compare against f.

    Exits 2 when the maximum error exceeds --tol or any grid point fails
    to have a derivative.
    """
    g = _load_gauge(gauge_ref)
    f = as_function(parse(f_src, {"t"}), "t")
    report = calculus.ftc_forward_check(f, g, grid=grid,
                                        shrink_levels=shrink_levels)
    _deliver(dumps(report.to_dict()), out)
    return 2 if (report.max_error > tol or report.violations) else 0


@main.command()
@click.option("--f", "f_src", required=True,
              help="Function of t to differentiate and rebuild.")
@click.option("--gauge", "gauge_ref", required=True)
@click.option("--grid", default=101, type=int, show_default=True)
@click.option("--shrink-levels", default=calculus.DEFAULT_SHRINK_LEVELS,
              type=int, show_default=True)
@click.option("--tol", default=1e-6, type=float, show_default=True,
              help="Maximum allowed reconstruction deviation.")
@click.option("--out", default=None, type=click.Path())
def ftc2(f_src, gauge_ref, grid, shrink_levels, tol, out):
    """Differentiate f against the gauge and rebuild it from the derivative.

    Exits 2 when the reconstruction deviates beyond --tol or the
    derivative fails to exist somewhere.
    """
    g = _load_gauge(gauge_ref)
    f = as_function(parse(f_src, {"t"}), "t")
    report = calculus.ftc2_check(f, g, grid=grid,
                                 shrink_levels=shrink_levels)
    _deliver(dumps(report.to_dict()), out)
    return 2 if (report.max_error > tol or report.violations) else 0


@main.command("solve-ivp")
@click.option("--rhs", "rhs_src", required=True, help="Function of t and u.")
@click.option("--gauge", "gauge_ref", required=True)
@click.option("--u0", required=True, type=float)
@click.option("--step", required=True, type=float)
@click.option("--picard", default=0, type=int, show_default=True,
              help="Picard refinement sweeps after the Euler pass.")
@click.option("--verify-tol", default=None, type=float,
              help="Verify the integral-equation residual; exit 2 above this.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="csv", show_default=True)
@click.option("--out", default=None, type=click.Path())
def solve_ivp_cmd(rhs_src, gauge_ref, u0, step, picard, verify_tol, fmt, out):
    """Integrate du = rhs dmu from the left end of the gauge domain."""
    g = _load_gauge(gauge_ref)
    rhs = as_function(parse(rhs_src, {"t", "u"}), "t", "u")
    problem = solver.IvpProblem(gauge=g, rhs=rhs, u0=u0)
    sol = solver.solve_ivp(problem, step, picard_sweeps=picard)
    residual = None
    if verify_tol is not None:
        residual = solver.verify_solution(problem, sol)
    if fmt == "csv":
        _deliver(sol.to_csv(), out)
        if residual is not None:
            click.echo(f"max_residual {residual.max_residual}", err=True)
    else:
        payload = sol.to_dict()
        if residual is not None:
            payload["residual"] = residual.to_dict()
        _deliver(dumps(payload), out)
    if residual is not None and residual.max_residual > verify_tol:
        return 2
    return 0


@main.command("solve-surface")
@click.option("--h", "h_src", required=True, help="Source term, function of t.")
@click.option("--gauge", "gauge_ref", required=True, help="Work gauge.")
@click.option("--terminal", "--C", "terminal", default=0.0, type=float,
              show_default=True, help="Terminal value at the right end.")
@click.option("--step", required=True, type=float)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="csv", show_default=True)
@click.option("--out", default=None, type=click.Path())
def solve_surface_cmd(h_src, gauge_ref, terminal, step, fmt, out):
    """Solve the terminal-value decay problem against a work gauge."""
    g = _load_gauge(gauge_ref)
    h = as_function(parse(h_src, {"t"}), "t")
    problem = solver.SurfaceProblem(work_gauge=g, source=h,
                                    terminal_value=terminal)
    sol = solver.solve_surface(problem, step)
    _deliver(sol.to_csv() if fmt == "csv" else dumps(sol.to_dict()), out)
    return 0


if __name__ == "__main__":
    main()
