"""Command-line interface.

Exit codes follow one convention everywhere: 0 success, 1 bad input or
computation error, 2 a check failed or a verification report exceeded
its tolerance, 3 checks were inconclusive but none failed.  Commands
return 0, 2 or 3 and raise on bad input; main alone turns that into
the exit status and the single "error: ..." line, for a bad command
line as for bad data.  Reports are emitted as deterministic JSON (17
significant digits, fixed key order), solutions as CSV or JSON.  Set
DISPLACE_LOG=debug|info|warning to log progress to stderr.

The command line is parsed by a small table-driven parser on the
standard library alone, which parses as click did: each command's
options are one table of _Option rows, an option takes the next token
verbatim ("--f -t" is f = "-t") or the text after "=", the last
occurrence wins, names match only in full, and --help anywhere prints
the command's help.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path
from typing import Callable, Optional

# the submodules, whose code runs at the first use of an attribute (see
# the package's docstring): nothing below reads one before a command, its
# help or an error needs it
from . import calculus, displacement, expr, serialize, solver
from . import gauge as gauge_mod


def _log(message: str, *args) -> None:
    """Log at info level to the "displace" logger.

    logging is imported only by main, when DISPLACE_LOG asks for it, or
    by a host program; while no one has imported it, no handler exists
    that could emit the record, so there is nothing to do.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("displace").info(message, *args)


def _errors() -> tuple:
    """The exceptions main reports as one error line.

    GaugeError, DisplacementError and json.JSONDecodeError are
    ValueErrors, and so is every refusal of the command line.
    """
    return (expr.ExprError, calculus.CalculusError, solver.SolverError,
            OSError, ValueError, KeyError)


def _echo(text: str, err: bool = False) -> None:
    """Write text to the sys.stdout (or sys.stderr) of this moment, flushed."""
    stream = sys.stderr if err else sys.stdout
    stream.write(text)
    stream.flush()


def _tolerance(value: float, name: str) -> None:
    """Option check: a tolerance is finite and non-negative."""
    gauge_mod._check_tolerance(value, name, ValueError)


def _default(fn: Callable, name: str):
    """fn's default for its parameter name, read from the function, or
    from the one it wraps if it names one in __wrapped__, as
    functools.wraps does."""
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    code = fn.__code__
    names = code.co_varnames[:code.co_argcount]
    return fn.__defaults__[names.index(name) - len(names)]


# metavar and, for a conversion that can fail, the word its error uses
_KINDS = {str: ("TEXT", None), float: ("FLOAT", "float"),
          int: ("INTEGER", "integer")}


class _Late:
    """An _Option field that may be given as a function of no arguments,
    which runs each time the field is read.

    A default or choices that a submodule owns is given so: the module
    runs only when the parser, the help or a caller reads the field.
    """

    def __set_name__(self, owner: type, name: str):
        self.key = "_" + name

    def __get__(self, opt, owner: type = None):
        if opt is None:
            return self
        value = getattr(opt, self.key)
        return value() if callable(value) else value

    def __set__(self, opt, value) -> None:
        setattr(opt, self.key, value)


class _Option:
    """One row of a command's option table: --name VALUE.

    kind converts the text (str, float or int: float() and int() are
    click's own conversions); choices limits it to a list; path marks a
    file name, which must exist when path is "exists"; check, given the
    converted value and the option's name, raises ValueError to refuse
    it.  An option not given takes default, or is refused if required.
    show_default True puts the default into the help, another value that
    value.  default, choices and show_default may each be given as a
    function, which runs when the field is read (_Late).
    """

    default, choices, show_default = _Late(), _Late(), _Late()

    def __init__(self, *names: str, dest: Optional[str] = None,
                 kind: type = str, choices: Optional[tuple] = None,
                 path: object = False, default=None, required: bool = False,
                 help: str = "", show_default: object = False,
                 check: Optional[Callable] = None):
        self.names = names
        self.dest = dest or names[0][2:].replace("-", "_")
        self.kind = kind
        self.choices = choices
        self.path = path
        self.default = default
        self.required = required
        self.help = help
        self.show_default = show_default
        self.check = check

    def convert(self, text: str):
        """text as this option's value; a ValueError names the option."""
        name = self.names[0]
        choices = self.choices
        if choices is not None and text not in choices:
            raise ValueError(
                f"invalid value for {name}: {text!r} is not one of "
                + ", ".join(map(repr, choices)))
        if self.path == "exists" and not os.path.exists(text):
            raise ValueError(
                f"invalid value for {name}: path {text!r} does not exist")
        try:
            value = self.kind(text)
        except ValueError:
            raise ValueError(f"invalid value for {name}: {text!r} is not a "
                             f"valid {_KINDS[self.kind][1]}") from None
        if self.check is not None:
            self.check(value, name)
        return value

    def help_row(self) -> tuple[str, str]:
        """The option's two help columns, as click laid them out."""
        choices = self.choices
        if choices is not None:
            metavar = "[" + "|".join(choices) + "]"
        else:
            metavar = "PATH" if self.path else _KINDS[self.kind][0]
        notes = []
        shown = self.show_default
        if shown is True:
            shown = self.default
        if shown is not False:
            notes.append(f"default: {shown}")
        if self.required:
            notes.append("required")
        text = self.help
        if notes:
            text = f"{text}  [{'; '.join(notes)}]".lstrip()
        return f"{', '.join(self.names)} {metavar}", text


# every tolerance option goes through the one rule above
_tol_option = functools.partial(_Option, kind=float, check=_tolerance)

# command name -> (function, its option table), in definition order
_COMMANDS: dict[str, tuple[Callable, tuple[_Option, ...]]] = {}


def _command(name: str, *options: _Option) -> Callable:
    """Register the decorated function as command name with options."""
    def register(fn: Callable) -> Callable:
        _COMMANDS[name] = (fn, options)
        return fn
    return register


def _parse(options: tuple[_Option, ...], argv: list[str]) -> Optional[dict]:
    """A command's keyword arguments from its tokens, or None for --help.

    Options are converted in the order of their first occurrence, then
    the others take their defaults in table order; an argument that is
    no option's value is refused last.  After "--" every token is such
    an argument.
    """
    by_name = {name: opt for opt in options for name in opt.names}
    given: dict[_Option, str] = {}
    extra: list[str] = []
    wants_help = False
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            extra.extend(tokens)
        elif token == "--help":
            wants_help = True
        elif token.startswith("-") and token != "-":
            name, equals, text = token.partition("=")
            opt = by_name.get(name)
            if opt is None:
                raise ValueError(f"no such option {name}")
            if not equals:
                text = next(tokens, None)
                if text is None:
                    raise ValueError(f"option {name} requires a value")
            given[opt] = text
        else:
            extra.append(token)
    if wants_help:
        return None
    kwargs = {opt.dest: opt.convert(text) for opt, text in given.items()}
    for opt in options:
        if opt.dest not in kwargs:
            if opt.required:
                raise ValueError(f"missing option {opt.names[0]}")
            kwargs[opt.dest] = opt.default
    if extra:
        raise ValueError(f"unexpected argument {extra[0]!r}")
    return kwargs


_SUMMARY = "Displacement calculus: axiom checks, gauges, derivatives, solvers."
_HELP_ROW = ("--help", "Show this message and exit.")


def _help(usage: str, doc: str, sections: list) -> str:
    """Help text in click's layout: usage, doc, then (title, rows) lists."""
    import textwrap
    first, _, rest = doc.strip().partition("\n")
    out = [f"Usage: {usage}", ""]
    for paragraph in [first] + textwrap.dedent(rest).strip().split("\n\n"):
        if paragraph:
            out += [textwrap.fill(" ".join(paragraph.split()), 78,
                                  initial_indent="  ", subsequent_indent="  "),
                    ""]
    for title, rows in sections:
        width = min(max(len(left) for left, _ in rows), 30) + 2
        out.append(title)
        for left, text in rows:
            lines = textwrap.wrap(text, 76 - width) or [""]
            if len(left) > width - 2:
                out.append("  " + left)
            else:
                first = lines.pop(0)
                out.append(("  " + left.ljust(width) + first).rstrip())
            out += [" " * (width + 2) + line for line in lines]
        out.append("")
    return "\n".join(out[:-1]) + "\n"


def _setup() -> None:
    """Process settings every command runs under."""
    # no command does BLAS work, so the commands that load numpy ask
    # OpenBLAS for no worker threads: starting them and their busy-wait
    # beside the main thread cost those commands 30-60 ms on two vCPUs
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    level = os.environ.get("DISPLACE_LOG", "").upper()
    if level in ("DEBUG", "INFO", "WARNING", "ERROR"):
        import logging
        logging.basicConfig(stream=sys.stderr, level=getattr(logging, level),
                            format="%(name)s %(levelname)s %(message)s")


def _run(prog: str, argv: list[str]) -> int:
    """The exit code of one command line; a bad one raises ValueError."""
    lead = 0
    while lead < len(argv) and argv[lead].startswith("-"):
        if argv[lead] != "--help":
            raise ValueError(f"no such option {argv[lead]}")
        lead += 1
    if lead or not argv:
        # --help lists the commands; no command at all is a usage error
        rows = [(name, fn.__doc__.strip().partition("\n")[0])
                for name, (fn, _) in sorted(_COMMANDS.items())]
        _echo(_help(f"{prog} [OPTIONS] COMMAND [ARGS]...", _SUMMARY,
                    [("Options:", [_HELP_ROW]), ("Commands:", rows)]),
              err=not lead)
        return 0 if lead else 1
    name = argv[0]
    if name not in _COMMANDS:
        raise ValueError(f"no such command {name!r}")
    fn, options = _COMMANDS[name]
    _setup()
    kwargs = _parse(options, argv[1:])
    if kwargs is None:
        rows = [opt.help_row() for opt in options] + [_HELP_ROW]
        _echo(_help(f"{prog} {name} [OPTIONS]", fn.__doc__,
                    [("Options:", rows)]))
        return 0
    return fn(**kwargs)


def main(args: Optional[list[str]] = None, prog_name: str = "displace",
         standalone_mode: bool = True) -> None:
    """Run one command line, sys.argv[1:] when args is None, and exit.

    Every call ends in SystemExit with the exit code.  The signature is
    click's Command.main, which click.testing.CliRunner calls as
    main.main; standalone_mode is accepted for it and changes nothing.
    """
    try:
        code = _run(prog_name, sys.argv[1:] if args is None else list(args))
    except BrokenPipeError:
        # the reader is gone (displace ... | head): exit 1 quietly, and
        # point stdout at devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    except _errors() as exc:
        _echo(f"error: {exc}\n", err=True)
        code = 1
    except (EOFError, KeyboardInterrupt):
        # the blank line ends the terminal's ^C
        _echo("\naborted\n", err=True)
        code = 1
    sys.exit(code)


# click's calling convention, for CliRunner and in-process replays
main.main = main
main.name = "displace"


def _load_spec(spec_path: Optional[str], builtin: Optional[str]):
    if (spec_path is None) == (builtin is None):
        raise displacement.DisplacementError(
            "provide exactly one of --spec or --builtin")
    if builtin is not None:
        _log("using builtin spec %s", builtin)
        return displacement.make_builtin(builtin)
    _log("loading spec from %s", spec_path)
    return displacement.spec_from_dict(_read_json(spec_path))


def _load_gauge(ref: str) -> gauge_mod.Gauge:
    if ref == "identity":
        _log("using the identity gauge")
        return gauge_mod.Gauge.identity()
    if ref.startswith("extract:"):
        name = ref.split(":", 1)[1]
        _log("extracting gauge from builtin %s", name)
        return displacement.gauge_from_smooth(displacement.make_builtin(name))
    _log("loading gauge from %s", ref)
    return gauge_mod.Gauge.from_dict(_read_json(ref))


def _read_json(path: str):
    """The JSON document in the file path.

    json is imported here, not with the module, since --help needs none.
    """
    import json
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _deliver(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        _echo(text)


@functools.cache
def _checks() -> dict:
    """check name -> (function, the command-line options it takes besides
    --tol); an option left unset is not passed, so the check's own default
    applies.

    The table is built at the first check command and kept, as one built
    at import would be: a later rebinding of displacement's names, such
    as perfbench's tracer makes, does not reach it.
    """
    return {
        "h1": (displacement.check_h1, ("samples",)),
        "h2usc": (displacement.check_h2_usc, ("samples", "shrink_levels")),
        "h2prime": (displacement.check_h2prime, ("samples", "phi")),
        "h3": (displacement.check_h3, ("samples",)),
        "h5": (displacement.check_h5, ("samples",)),
        "d2": (displacement.check_d2_positive, ("grid",)),
    }


def _builtin_names() -> tuple:
    """The choices of --builtin."""
    return displacement.BUILTIN_NAMES


_DEFAULT_CHECKS = {
    "smooth": ("h1", "h2usc", "h2prime", "h3", "h5", "d2"),
    "stieltjes": ("h1", "h2usc", "h2prime", "h3", "h5"),
    "graph": ("h1", "h2prime"),
    "angular": ("h1", "h2prime"),
}


@_command(
    "check",
    _Option("--spec", dest="spec_path", path="exists",
            help="JSON displacement spec."),
    _Option("--builtin", choices=_builtin_names,
            help="Named example space."),
    _Option("--which",
            help="Comma-separated subset of h1,h2usc,h2prime,h3,h5,d2."),
    _Option("--samples", kind=int,
            help="Sample grid size for the hypothesis checks."),
    _Option("--grid", kind=int,
            help="Lattice size per axis for the d2 check.",
            show_default=lambda: _default(displacement.check_d2_positive,
                                          "grid")),
    _tol_option("--tol", help="Override the check tolerance."),
    _Option("--phi",
            help="Rescaling function of r for h2prime (default identity)."),
    _Option("--shrink-levels", kind=int,
            help="Shrink levels for the h2usc check.",
            show_default=lambda: _default(displacement.check_h2_usc,
                                          "shrink_levels")),
    _Option("--seed", kind=int, default=0, show_default=True,
            help="Reserved; no check is randomised, so it has no effect."),
    _Option("--out", path=True,
            help="Write reports to a file instead of stdout."),
)
def check(spec_path, builtin, which, samples, grid, tol, phi, shrink_levels,
          seed, out):
    """Run hypothesis checks; one JSON report per line.

    Exits 0 when every check passes, 2 when any fails, 3 when none fail
    but at least one is inconclusive.
    """
    spec = _load_spec(spec_path, builtin)
    checks = _checks()
    if which:
        names = [w.strip() for w in which.split(",") if w.strip()]
        for name in names:
            if name not in checks:
                raise displacement.DisplacementError(
                    f"unknown check {name!r}; choose from "
                    + ",".join(checks))
    else:
        names = list(_DEFAULT_CHECKS[spec.kind])
    given = {"phi": expr.parse(phi, {"r"}) if phi else None,
             "samples": samples, "shrink_levels": shrink_levels,
             "grid": grid, "tol": tol}

    reports = []
    for name in names:
        _log("running %s", name)
        fn, options = checks[name]
        kwargs = {key: given[key] for key in options + ("tol",)
                  if given[key] is not None}
        reports.append(fn(spec, **kwargs))
    text = "\n".join(serialize.dumps(r.to_dict()) for r in reports)
    _deliver(text, out)
    verdicts = [r.verdict for r in reports]
    return 2 if "fail" in verdicts else 3 if "inconclusive" in verdicts else 0


@_command(
    "gauge",
    _Option("--spec", dest="spec_path", path="exists",
            help="JSON smooth spec to extract a gauge from."),
    _Option("--builtin", choices=_builtin_names,
            help="Builtin smooth spec to extract a gauge from."),
    _Option("--gauge", dest="gauge_ref",
            help="Load an existing gauge: path, extract:NAME, or identity."),
    _Option("--grid", kind=int, default=101, show_default=True,
            help="Number of points in the sampled (t, g) table."),
    _Option("--format", dest="fmt", choices=("json", "csv"), default="json",
            show_default=True),
    _Option("--out", path=True, help="Write the gauge JSON here."),
    _Option("--table", path=True, help="Write the sampled (t, g) CSV here."),
)
def gauge(spec_path, builtin, gauge_ref, grid, fmt, out, table):
    """Extract or load a gauge; emit its JSON and a sampled value table."""
    # one row holds only g(a) = 0
    gauge_mod._check_count(grid, 2, "grid", ValueError)
    g = (_load_gauge(gauge_ref) if gauge_ref is not None
         else displacement.gauge_from_smooth(_load_spec(spec_path, builtin)))
    try:
        payload = g.to_dict()
    except gauge_mod.GaugeError:
        # to_dict's layout, without a density source
        payload = {"domain": g.domain, "density": None, "jumps": g.jumps,
                   "flats": g.flats}
    a, b = g.domain
    rows = [(t, g(t)) for t in gauge_mod._linspace(a, b, grid)]
    table_text = serialize.csv_lines(("t", "g"), rows)
    if out:
        _deliver(serialize.dumps(payload), out)
    if table:
        _deliver(table_text, table)
    if not out and not table:
        _deliver(table_text if fmt == "csv" else serialize.dumps(payload),
                 None)
    return 0


@_command(
    "ball",
    _Option("--spec", dest="spec_path", path="exists"),
    _Option("--builtin", choices=_builtin_names),
    _Option("--x", kind=float, required=True, help="Ball center."),
    _Option("--r", kind=float, required=True, help="Ball radius."),
    _tol_option("--tol", show_default=True,
                default=lambda: _default(displacement.delta_ball, "tol"),
                help="Bisection tolerance for the endpoints."),
    _Option("--out", path=True),
)
def ball(spec_path, builtin, x, r, tol, out):
    """Displacement ball around x of radius r, as an interval."""
    spec = _load_spec(spec_path, builtin)
    result = displacement.delta_ball(spec, x, r, tol=tol)
    _deliver(serialize.dumps(result.to_dict()), out)
    return 0


@_command(
    "derive",
    _Option("--f", dest="f_src", required=True, help="Function of t."),
    _Option("--gauge", dest="gauge_ref", required=True,
            help="Gauge: path, extract:NAME, or identity."),
    _Option("--x", kind=float, required=True),
    _Option("--shrink-levels", kind=int, show_default=True,
            default=lambda: calculus.DEFAULT_SHRINK_LEVELS),
    _Option("--out", path=True),
)
def derive(f_src, gauge_ref, x, shrink_levels, out):
    """Derivative of f against the gauge at x."""
    g = _load_gauge(gauge_ref)
    f = expr.as_function(expr.parse(f_src, {"t"}), "t")
    result = calculus.delta_derivative(f, g, x, shrink_levels=shrink_levels)
    _deliver(serialize.dumps(result.to_dict()), out)
    return 0


@_command(
    "integrate",
    _Option("--f", dest="f_src", required=True,
            help="Integrand, function of t."),
    _Option("--gauge", dest="gauge_ref", required=True),
    _Option("--upper", kind=float,
            help="Upper limit (default: right end of the domain); the atom "
                 "there is excluded."),
    _Option("--out", path=True),
)
def integrate(f_src, gauge_ref, upper, out):
    """Half-open Stieltjes integral of f from the left end to upper."""
    g = _load_gauge(gauge_ref)
    f = expr.as_function(expr.parse(f_src, {"t"}), "t")
    u = g.domain[1] if upper is None else upper
    value = calculus.stieltjes_integral(f, g, u)
    _deliver(serialize.dumps({"upper": float(u), "value": value}), out)
    return 0


@_command(
    "path-integrate",
    _Option("--f", dest="f_src", required=True,
            help="Integrand, function of t."),
    _Option("--alpha", dest="alpha_src", required=True,
            help="Base-point path, function of t."),
    _Option("--spec", dest="spec_path", path="exists"),
    _Option("--builtin", choices=_builtin_names),
    _Option("--upper", kind=float),
    _tol_option("--quad-tol", show_default=True, default=lambda:
                _default(calculus.path_integral, "quad_tol")),
    _Option("--out", path=True),
)
def path_integrate(f_src, alpha_src, spec_path, builtin, upper, quad_tol, out):
    """Integral of f against the moving-base-point measure of a smooth space."""
    spec = _load_spec(spec_path, builtin)
    f = expr.as_function(expr.parse(f_src, {"t"}), "t")
    alpha = expr.as_function(expr.parse(alpha_src, {"t"}), "t")
    path = calculus.MeasurePath(alpha=alpha, description=alpha_src)
    u = spec.domain[1] if upper is None else upper
    value = calculus.path_integral(f, path, spec, u, quad_tol=quad_tol)
    _deliver(serialize.dumps({"upper": float(u), "value": value}), out)
    return 0


def _ftc_options(harness: str, f_help: str, tol: float,
                 tol_help: str) -> tuple[_Option, ...]:
    """The options of the command that runs the calculus function named
    harness, with its grid default."""
    return (_Option("--f", dest="f_src", required=True, help=f_help),
            _Option("--gauge", dest="gauge_ref", required=True),
            _Option("--grid", kind=int, show_default=True, default=lambda:
                    _default(getattr(calculus, harness), "grid")),
            _Option("--shrink-levels", kind=int, show_default=True,
                    default=lambda: calculus.DEFAULT_SHRINK_LEVELS),
            _tol_option("--tol", default=tol, help=tol_help,
                        show_default=True),
            _Option("--out", path=True))


def _ftc(harness: Callable, f_src, gauge_ref, grid, shrink_levels, tol,
         out) -> int:
    """Run an FTC harness on f and the gauge and deliver its report: exit
    2 when its max_error exceeds tol or it has violations, else 0."""
    g = _load_gauge(gauge_ref)
    f = expr.as_function(expr.parse(f_src, {"t"}), "t")
    report = harness(f, g, grid=grid, shrink_levels=shrink_levels)
    _deliver(serialize.dumps(report.to_dict()), out)
    return 2 if (report.max_error > tol or report.violations) else 0


@_command("ftc", *_ftc_options(
    "ftc_forward_check", "Integrand, function of t.", 1e-4,
    "Maximum allowed derivative-vs-integrand error."))
def ftc(f_src, gauge_ref, grid, shrink_levels, tol, out):
    """Differentiate the running integral of f and compare against f.

    Exits 2 when the maximum error exceeds --tol or any grid point fails
    to have a derivative.
    """
    return _ftc(calculus.ftc_forward_check, f_src, gauge_ref, grid,
                shrink_levels, tol, out)


@_command("ftc2", *_ftc_options(
    "ftc2_check", "Function of t to differentiate and rebuild.", 1e-6,
    "Maximum allowed reconstruction deviation."))
def ftc2(f_src, gauge_ref, grid, shrink_levels, tol, out):
    """Differentiate f against the gauge and rebuild it from the derivative.

    Exits 2 when the reconstruction deviates beyond --tol or the
    derivative fails to exist somewhere.
    """
    return _ftc(calculus.ftc2_check, f_src, gauge_ref, grid, shrink_levels,
                tol, out)


@_command(
    "solve-ivp",
    _Option("--rhs", dest="rhs_src", required=True,
            help="Function of t and u."),
    _Option("--gauge", dest="gauge_ref", required=True),
    _Option("--u0", kind=float, required=True),
    _Option("--step", kind=float, required=True),
    _Option("--picard", kind=int, show_default=True,
            default=lambda: _default(solver.solve_ivp, "picard_sweeps"),
            help="Picard refinement sweeps after the Euler pass."),
    _tol_option("--verify-tol",
                help="Verify the integral-equation residual; exit 2 above "
                     "this."),
    _Option("--format", dest="fmt", choices=("json", "csv"), default="csv",
            show_default=True),
    _Option("--out", path=True),
)
def solve_ivp_cmd(rhs_src, gauge_ref, u0, step, picard, verify_tol, fmt, out):
    """Integrate du = rhs dmu from the left end of the gauge domain."""
    g = _load_gauge(gauge_ref)
    rhs = expr.as_function(expr.parse(rhs_src, {"t", "u"}), "t", "u")
    problem = solver.IvpProblem(gauge=g, rhs=rhs, u0=u0)
    sol = solver.solve_ivp(problem, step, picard_sweeps=picard)
    residual = None
    if verify_tol is not None:
        residual = solver.verify_solution(problem, sol)
    if fmt == "csv":
        _deliver(sol.to_csv(), out)
        if residual is not None:
            _echo(f"max_residual {residual.max_residual}\n", err=True)
    else:
        payload = sol.to_dict()
        if residual is not None:
            payload["residual"] = residual.to_dict()
        _deliver(serialize.dumps(payload), out)
    if residual is not None and residual.max_residual > verify_tol:
        return 2
    return 0


@_command(
    "solve-surface",
    _Option("--h", dest="h_src", required=True,
            help="Source term, function of t."),
    _Option("--gauge", dest="gauge_ref", required=True, help="Work gauge."),
    _Option("--terminal", "--C", kind=float, default=0.0, show_default=True,
            help="Terminal value at the right end."),
    _Option("--step", kind=float, required=True),
    _Option("--format", dest="fmt", choices=("json", "csv"), default="csv",
            show_default=True),
    _Option("--out", path=True),
)
def solve_surface_cmd(h_src, gauge_ref, terminal, step, fmt, out):
    """Solve the terminal-value decay problem against a work gauge."""
    g = _load_gauge(gauge_ref)
    h = expr.as_function(expr.parse(h_src, {"t"}), "t")
    problem = solver.SurfaceProblem(work_gauge=g, source=h,
                                    terminal_value=terminal)
    sol = solver.solve_surface(problem, step)
    _deliver(sol.to_csv() if fmt == "csv" else serialize.dumps(sol.to_dict()),
             out)
    return 0


if __name__ == "__main__":
    main()
