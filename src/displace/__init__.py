"""Calculus over displacement structures on a compact interval.

The package builds Stieltjes gauges from displacement data, classifies
points into jump, flat, and continuity regions, differentiates and
integrates against the resulting measures, and solves initial-value and
terminal-value problems driven by them.  A small expression language
powers the CLI and the JSON serialization of specs and gauges.

Importing the package runs none of its submodules.  Each one is
registered in sys.modules (as displace.expr, displace.gauge, ...) through
importlib.util.LazyLoader, and its code runs at the first use of one of
its attributes, so a CLI call compiles only the modules its command
needs.  The public names are served from their submodules on first
access (PEP 562), under one lock, so that threads touching them at once
all wait for the module that defines them to finish running.
"""

import importlib.util
import sys
import threading

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "expr": ("Expr", "ExprError", "ParseError", "EvalError", "DomainError",
             "parse", "evaluate", "substitute", "as_function"),
    "gauge": ("Gauge", "GaugeError", "DistinguishedSets"),
    "displacement": (
        "ALGEBRAIC_TOL", "LIMIT_TOL",
        "Smooth", "Stieltjes", "FiniteGraph", "Angular",
        "DisplacementError", "make_builtin", "BUILTIN_NAMES",
        "AxiomReport", "GammaEstimate", "BallInterval",
        "check_h1", "check_h2_usc", "check_h2prime", "check_h3", "check_h5",
        "check_d2_positive",
        "gamma_estimate", "rn_density", "delta_ball", "gauge_from_smooth",
        "spec_to_dict", "spec_from_dict"),
    "calculus": (
        "CalculusError", "DerivativeError", "DerivativeResult",
        "delta_derivative", "pair_derivative",
        "CumulativeStieltjesIntegral", "stieltjes_integral",
        "MeasurePath", "path_integral",
        "FtcReport", "ftc_forward_check", "ftc2_check"),
    "solver": ("SolverError", "IvpProblem", "SurfaceProblem", "IvpSolution",
               "JumpRecord", "ResidualReport",
               "solve_ivp", "solve_surface", "verify_solution"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_OWNER, "__version__"]

_FIRST_USE = threading.RLock()


def _register(name: str):
    """The submodule name, registered in sys.modules without running it."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    loader.exec_module(module)
    return module


# every submodule but cli, whose code runs when it is imported: runpy
# warns when the module that python -m runs is already in sys.modules
serialize = _register("serialize")
expr = _register("expr")
gauge = _register("gauge")
displacement = _register("displacement")
calculus = _register("calculus")
solver = _register("solver")


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # LazyLoader's module marks itself loaded before its code has run
    # (Python 3.10 and 3.11), so one thread at a time may run it
    with _FIRST_USE:
        return getattr(globals()[module], name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
