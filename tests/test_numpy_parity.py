"""numpy code and the scalar code beside it give one result, bit for bit.

`ftc2_check` interpolates with `calculus._interp` where it used
`np.interp`, and `check_h2prime` walks its triples in plain loops where
it built a numpy triple tensor.  Both are compared here with the numpy
code they replaced: values by `float.hex`, reports by their serialized
bytes.  The other way round, `expr.on_arrays` evaluates expressions over
numpy columns; it is compared with the compiled per-row calls it stands
in for.  The solver's Euler pass and mesh map run each expression's body
inline (`expr._kernel`); they are compared with the loops of one call
per node they replaced, and `Gauge.jumps_on` with its old lookup.  So do
the check battery's bisections, rows and maxima, compared with the
checks that called `spec.delta` and `spec.d2` per point, and a gauge's
cache after each; `check_h2_usc`, which tries each y's smallest ball
first, with bisections from the domain's ends in the same order, edge by
edge, and its reports with those of the levels alone;
and `calculus._richardson`'s two rows with the whole tableau it built.
"""

import math
from itertools import starmap
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from displace.calculus import _interp, _richardson  # noqa: E402
import displace.displacement as displacement_mod  # noqa: E402
from displace.displacement import (  # noqa: E402
    ALGEBRAIC_TOL, BUILTIN_NAMES, LIMIT_TOL, AxiomReport, BallInterval,
    DisplacementError, FiniteGraph, Smooth, Stieltjes, _WITNESS_CAP,
    _domain_slack, _grid_points, _require_interval, _require_smooth,
    check_d2_positive, check_h2_usc, check_h2prime, check_h3, delta_ball,
    make_builtin)
import displace.expr as expr_mod  # noqa: E402
from displace.expr import (_ARITY, _CONSTANTS, Binary, Call, Const,  # noqa: E402
                           Expr, Num, Unary, Var, _unparse, as_function,
                           on_arrays, parse)
from displace.gauge import (_EPS, Gauge, _check_count,  # noqa: E402
                            _check_tolerance, _linspace, _snap)
from displace.serialize import dumps  # noqa: E402
from displace.solver import (IvpProblem, JumpRecord,  # noqa: E402
                             SolverError, _build_mesh, _mesh_data,
                             solve_ivp)

# ---------------------------------------------------------------------------
# _interp against np.interp
# ---------------------------------------------------------------------------

# huge values make infinite slopes and differences, tiny ones subnormal steps
specials = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e308, -1e308,
                            1.7976931348623157e308, 5e-324, -5e-324])
finite = st.one_of(specials, st.floats(allow_nan=False, allow_infinity=False))
# an infinite value makes inf - inf, which numpy retries from the right knot
values = st.one_of(finite, st.sampled_from([math.inf, -math.inf]))


@st.composite
def knots_and_queries(draw):
    xs = sorted(set(draw(st.lists(finite, min_size=2, max_size=8))))
    if len(xs) < 2:
        xs = [xs[0], math.nextafter(xs[0], math.inf)]
    ys = draw(st.lists(values, min_size=len(xs), max_size=len(xs)))
    for j in draw(st.lists(st.integers(0, len(xs) - 2), max_size=3)):
        ys[j + 1] = ys[j]                  # equal neighbouring values
    between = [xs[j] + u * (xs[j + 1] - xs[j]) if math.isfinite(
                   xs[j + 1] - xs[j]) else (1.0 - u) * xs[j] + u * xs[j + 1]
               for j in range(len(xs) - 1) for u in (0.25, 0.5, 0.9)]
    near = [math.nextafter(x, to) for x in xs for to in (-math.inf, math.inf)]
    outside = [-math.inf, math.inf, xs[0] - 1.0, xs[-1] + 1.0]
    queries = xs + between + near + outside
    queries += draw(st.lists(finite, max_size=10))
    return xs, ys, queries


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=knots_and_queries())
@example(case=([0.0, 1.0], [1e308, -1e308], [0.25, 0.5, 1.0, 2.0]))
@example(case=([-1e308, 1e308], [-1e308, 1e308], [0.0, 1.0, -1.0]))
@example(case=([0.0, 1.0, 2.0], [3.0, 3.0, -1e308], [0.5, 1.5, -0.0]))
@example(case=([0.0, 1.0, 2.0], [math.inf, 1.0, -math.inf], [0.5, 1.5]))
@example(case=([0.0, 1.0], [math.inf, math.inf], [0.5]))
def test_interp_matches_numpy_bit_for_bit(case):
    xs, ys, queries = case
    kx, kv = np.asarray(xs), np.asarray(ys)
    with np.errstate(all="ignore"):        # inf - inf and inf * 0 make NaN
        expected = [float(np.interp(x, kx, kv)).hex() for x in queries]
    assert [_interp(x, xs, ys).hex() for x in queries] == expected


# ---------------------------------------------------------------------------
# check_h2prime against the triple tensor it replaced
# ---------------------------------------------------------------------------

def tensor_h2prime(spec, phi=None, samples=16, tol=ALGEBRAIC_TOL):
    """check_h2prime as it was computed with numpy arrays."""
    phi_fn = (lambda r: r) if phi is None else as_function(phi, "r")
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


PHIS = [None] + [parse(source, {"r"})
                 for source in ("sqrt(r)", "r^2", "r + 1", "min(r, 0.5)")]


def outcome(check, spec, phi, **kwargs):
    """The serialized report, or the type and text of the error raised."""
    try:
        with np.errstate(all="ignore"):
            return dumps(check(spec, phi=phi, **kwargs).to_dict())
    except Exception as exc:  # noqa: BLE001  (both must fail alike)
        return f"{type(exc).__name__}: {exc}"


def assert_same_outcomes(spec, **kwargs):
    for phi in PHIS:
        expected = outcome(tensor_h2prime, spec, phi, **kwargs)
        assert outcome(check_h2prime, spec, phi, **kwargs) == expected, \
            phi and phi.source


@pytest.mark.parametrize("samples", [12, 16, 33])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_h2prime_reproduces_the_tensor_on_builtins(name, samples):
    assert_same_outcomes(make_builtin(name), samples=samples)


weights = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 4.0, 0.5, -3.0, 1e-300, 1e300,
                     1.7976931348623157e308]),
    st.floats(0.0, 20.0),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 7))
    return FiniteGraph([draw(st.lists(weights, min_size=n, max_size=n))
                        for _ in range(n)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=graphs())
def test_h2prime_reproduces_the_tensor_on_random_graphs(spec):
    assert_same_outcomes(spec)


# ---------------------------------------------------------------------------
# expr.on_arrays against the compiled calls per row
# ---------------------------------------------------------------------------

COLUMNS = ("x", "y")
# signed zeros and subnormals, divisors of zero, products that overflow,
# infinities whose difference is NaN, and NaN, which min and max may drop
cells = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-310, 1e308, -1e308,
                     math.inf, -math.inf, math.nan]),
    st.floats())
tree_leaves = st.one_of(
    st.builds(Var, st.sampled_from(COLUMNS)),
    st.builds(Num, st.sampled_from([0.0, 1.0, 0.5, 2.0, 1e308, 5e-324])),
    st.builds(Const, st.sampled_from(sorted(_CONSTANTS))),
)
PER_ROW_ONLY = ("exp", "ln", "sin", "cos")


def _branches(ops, funcs):
    def extend(children):
        return st.one_of(
            st.builds(Unary, st.just("-"), children),
            st.builds(Binary, st.sampled_from(ops), children, children),
            st.builds(lambda f, a: Call(f, (a,)),
                      st.sampled_from([f for f in funcs if _ARITY[f] == 1]),
                      children),
            st.builds(lambda f, a, b: Call(f, (a, b)),
                      st.sampled_from(["min", "max"]), children, children))
    return extend


exact_trees = st.recursive(tree_leaves, _branches("+-*/", ("sqrt", "abs")),
                           max_leaves=12)
any_trees = st.recursive(tree_leaves, _branches("+-*/^", tuple(_ARITY)),
                         max_leaves=12)


def _nodes(node):
    yield node
    for child in {Unary: lambda n: (n.operand,),
                  Binary: lambda n: (n.left, n.right),
                  Call: lambda n: n.args}.get(type(node), lambda n: ())(node):
        yield from _nodes(child)


def _per_row(fn, columns):
    """float.hex of each row's call, or the error of the first that raises."""
    return result_or_error(lambda: [float(fn(*row)) for row in zip(*columns)])


def _on_arrays(fn, arrays):
    """(float.hex of each value on_arrays returns or its error, whether
    it went row by row through _kernel)."""
    with mock.patch.object(expr_mod, "_kernel", wraps=expr_mod._kernel) as spy:
        got = result_or_error(lambda: on_arrays(fn, *arrays))
    return got, spy.called


@st.composite
def array_cases(draw):
    ast = draw(st.one_of(exact_trees, any_trees))
    nodes = list(_nodes(ast))
    expr = Expr(ast=ast, source=_unparse(ast, 0), variables=frozenset(COLUMNS),
                free=frozenset(n.name for n in nodes if isinstance(n, Var)))
    names = draw(st.sampled_from([("x", "y"), ("y", "x"), ("x",), ("x", "x")]))
    rows = draw(st.integers(1, 6))
    columns = [draw(st.lists(cells, min_size=rows, max_size=rows))
               for _ in names]
    return expr, names, columns


def _case(source, names, *columns):
    return (parse(source, COLUMNS), names, list(columns))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=array_cases())
@example(case=_case("x - y", ("x", "y"), [1.0, math.inf], [2.0, math.inf]))
@example(case=_case("y / x", ("x", "y"), [1.0, -0.0], [2.0, 3.0]))
@example(case=_case("sqrt(x)", ("x",), [4.0, -0.0, -1e-310]))
@example(case=_case("min(x, y) + max(y, x)", ("x", "y"), [1.0, math.nan],
                    [math.nan, -0.0]))
@example(case=_case("x*y", ("x",), [1.0]))
@example(case=_case("x*1", ("x", "x"), [1.0], [2.0]))
def test_on_arrays_matches_the_calls_per_row_bit_for_bit(case):
    expr, names, columns = case
    fn = as_function(expr, *names)
    arrays = [np.array(column) for column in columns]
    got, per_row = _on_arrays(fn, arrays)
    expected = _per_row(fn, columns)
    per_row_only = len(set(names)) < len(names) or any(
        (isinstance(n, Binary) and n.op == "^")
        or (isinstance(n, Call) and n.func in PER_ROW_ONLY)
        for n in _nodes(expr.ast))
    if not isinstance(expected, list) or per_row_only:
        assert per_row
    assert got == expected
    if isinstance(got, list):
        out = on_arrays(fn, *arrays)
        assert out.dtype == np.float64 and out.shape == (len(columns[0]),)


@pytest.mark.parametrize("source, names, columns", [
    ("(0.5 + 0.25*t)*u", ("t", "u"), ([0.0, 0.5, 1.0], [1.0, -2.0, 3.0])),
    ("1.3*max(0, abs(t - 0.5) - 0.1)", ("t",), ([0.0, 0.45, 1.0],)),
    ("1", ("t",), ([0.0, 1.0],)),
    ("t", ("t",), ([-0.0, 5e-324],)),
])
def test_exact_expressions_take_the_array_path(source, names, columns):
    fn = as_function(parse(source, set(names)), *names)
    arrays = [np.array(column) for column in columns]
    assert _on_arrays(fn, arrays) == (_per_row(fn, columns), False)
    assert all(on_arrays(fn, *arrays) is not a for a in arrays)


@pytest.mark.parametrize("fn", [
    as_function(parse("x + y", COLUMNS), "x", "y"),      # over whole columns
    as_function(parse("sin(x) + y", COLUMNS), "x", "y"),  # row by row
    lambda x, y: x + y,
])
def test_columns_of_unequal_lengths_are_refused_before_any_row(fn):
    with mock.patch.object(expr_mod, "_kernel", wraps=expr_mod._kernel) as spy, \
            mock.patch.object(expr_mod, "_over_arrays") as walk:
        with pytest.raises(ValueError,
                           match=r"^columns of unequal lengths \[3, 2\]$"):
            on_arrays(fn, np.zeros(3), np.ones(2))
        # no column at all has no length to give the result
        for no_columns in (fn, lambda: 1.0, as_function(parse("1", set()))):
            with pytest.raises(ValueError, match=r"^no columns$"):
                on_arrays(no_columns)
    assert not spy.called and not walk.called


def test_other_callables_leave_the_calls_per_row():
    calls = []
    got = on_arrays(lambda t: calls.append(t) or 2 * t, np.array([0.0, 1.0]))
    assert calls == [0.0, 1.0]
    assert got.dtype == np.float64 and got.tolist() == [0.0, 2.0]


# ---------------------------------------------------------------------------
# the solver's spliced loops against the per-node loops they replaced
# ---------------------------------------------------------------------------

def old_jumps_on(gauge, ts):
    """Gauge.jumps_on as it looked up every point among the atoms."""
    taus = np.array([tau for tau, _ in gauge.jumps] + [math.inf])
    idx = np.searchsorted(taus, ts)
    masses = np.array([mass for _, mass in gauge.jumps] + [0.0])
    return np.where(taus[idx] == ts, masses[idx], 0.0)


def old_euler(problem, step):
    """solve_ivp's Euler pass as one rhs call per node: ts, us, jumps."""
    g, rhs = problem.gauge, problem.rhs
    u = float(problem.u0)
    if not math.isfinite(u):
        raise SolverError(f"initial value must be finite, got {u!r}")
    mesh = _build_mesh(g, *g.domain, step)
    dens, _, dt, _ = _mesh_data(g, mesh)
    atoms = old_jumps_on(g, mesh[:-1])
    conts = (0.5 * (dens[:-1] + dens[1:]) * dt).tolist()
    path, jumps = [], []
    for t, atom, cont in zip(mesh.tolist(), atoms.tolist(), conts):
        path.append(u)
        if atom > 0.0:
            u_after = u + rhs(t, u) * atom
            jumps.append(JumpRecord(tau=t, u_before=u, u_after=u_after))
            u = u_after
        u = u + rhs(t, u) * cont
        if not math.isfinite(u):
            raise SolverError("state is no longer finite",
                              t_last=t, u_last=float(path[-1]))
    path.append(u)
    return mesh, np.array(path, dtype=float), tuple(jumps)


def old_map(fn, *columns):
    """on_arrays's row-by-row pass as one call per row through starmap."""
    rows = zip(*(column.tolist() for column in columns))
    return np.array(list(map(float, starmap(fn, rows))))


def _hexed(value):
    return value.hex() if isinstance(value, float) else value


def result_or_error(run):
    """float.hex of every value run returns, or what it raised."""
    try:
        return [value.hex() for value in run()]
    except Exception as exc:  # noqa: BLE001  (both must fail alike)
        return (type(exc).__name__, str(exc),
                _hexed(getattr(exc, "t_last", None)),
                _hexed(getattr(exc, "u_last", None)))


def _values(ts, us, jumps):
    """Every node and every jump record as one list of floats."""
    return [*ts.tolist(), *us.tolist(),
            *(x for rec in jumps for x in (rec.tau, rec.u_before, rec.u_after))]


# atoms at a, inside and at b; one density over whole meshes, one per node
SOLVER_GAUGES = [
    Gauge.from_dict({"domain": [0, 1], "density": "1 + t",
                     "jumps": [[0, 0.5], [0.3, 0.25], [1, 2]]}),
    Gauge((0.0, 1.0), lambda t: 0.5, jumps=((0.0, 1.5), (0.6, 0.125))),
    Gauge.from_dict({"domain": [0, 1], "density": "1", "jumps": [[1, 0.5]]}),
]
RHS_NAMES = [("x", "y"), ("y", "x"), ("x",), ("x", "x"), ("x", "y", "z"), ()]


@st.composite
def solver_cases(draw):
    ast = draw(any_trees)
    expr = Expr(ast=ast, source=_unparse(ast, 0),
                variables=frozenset(COLUMNS + ("z",)),
                free=frozenset(n.name for n in _nodes(ast)
                               if isinstance(n, Var)))
    fn = as_function(expr, *draw(st.sampled_from(RHS_NAMES)))
    rhs = (lambda t, u: fn(t, u)) if draw(st.booleans()) else fn
    # u0 from 1.5 to 5 makes u^3 overflow at a node inside the domain
    u0 = draw(st.one_of(cells, st.sampled_from([1.5, 2.0, 5.0, 1e50])))
    return (IvpProblem(gauge=draw(st.sampled_from(SOLVER_GAUGES)), rhs=rhs,
                       u0=u0),
            draw(st.sampled_from([0.3, 0.1, 0.04])))


def _ivp_case(source, names, u0, step=0.1, gauge=0, wrap=False):
    fn = as_function(parse(source, COLUMNS + ("z",)), *names)
    return (IvpProblem(gauge=SOLVER_GAUGES[gauge], u0=u0,
                       rhs=(lambda t, u: fn(t, u)) if wrap else fn), step)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=solver_cases())
@example(case=_ivp_case("(0.5 + 0.25*x)*y", ("x", "y"), 1.0))
@example(case=_ivp_case("y*y*y", ("x", "y"), 1e100))       # overflows
@example(case=_ivp_case("y*y*y", ("x", "y"), 2.0, gauge=2))   # at t = 0.8
@example(case=_ivp_case("y*y*y", ("x", "y"), 5.0))            # at an atom
@example(case=_ivp_case("y*y*y", ("x", "y"), 1.5, gauge=1, wrap=True))
@example(case=_ivp_case("ln(0.5 - x)*y", ("x", "y"), 1.0))  # raises
@example(case=_ivp_case("exp(y)", ("x", "y"), 700.0, gauge=1))
@example(case=_ivp_case("y^0.5 - sin(x)", ("x", "y"), 2.0, wrap=True))
@example(case=_ivp_case("z + y", ("x", "y", "z"), 1.0))     # unbound z
@example(case=_ivp_case("x*2", ("x", "x"), 1.0))            # x is u
@example(case=_ivp_case("-min(y, 3) / max(x, 0)", ("x", "y"), 1.0, gauge=2))
@example(case=_ivp_case("y", ("x", "y"), math.inf))
# float() refuses None where numpy would read NaN
@example(case=(IvpProblem(gauge=SOLVER_GAUGES[2], u0=1.0,
                          rhs=lambda t, u: None if t > 0.5 else u), 0.1))
def test_spliced_loops_reproduce_the_calls_per_node(case):
    problem, step = case
    g, rhs = problem.gauge, problem.rhs

    def new():
        sol = solve_ivp(problem, step)
        return _values(sol.ts, sol.us, sol.jumps)

    assert result_or_error(new) == \
        result_or_error(lambda: _values(*old_euler(problem, step)))
    mesh = _build_mesh(g, *g.domain, step)
    us = np.resize(np.array([float(problem.u0), -0.0, 0.5, 1e308, math.nan]),
                   len(mesh))
    for columns in ((mesh, us), (us,)):
        assert result_or_error(lambda: on_arrays(rhs, *columns).tolist()) == \
            result_or_error(lambda: old_map(rhs, *columns).tolist())


@pytest.mark.parametrize("taus, ts", [
    ((), [0.0, 0.5, 1.0]),
    ((0.0,), [0.0, 0.25, 0.5]),
    ((1.0,), [0.0, 0.5]),                   # b, dropped with the last node
    ((0.3, 0.6), [0.0, math.nextafter(0.3, 1.0), 0.6, 0.9]),
    ((0.3,), [0.0, math.nextafter(0.3, 0.0), 0.5]),
    ((0.0, 0.3, 1.0), [-0.0, 0.3, 0.7, 1.0]),
])
def test_jumps_on_looks_up_the_atoms_in_the_mesh(taus, ts):
    g = Gauge((0.0, 1.0), lambda t: 1.0,
              jumps=tuple((tau, 0.125 * (k + 1)) for k, tau in enumerate(taus)))
    ts = np.array(ts)
    assert [v.hex() for v in g.jumps_on(ts).tolist()] == \
        [v.hex() for v in old_jumps_on(g, ts).tolist()]


# ---------------------------------------------------------------------------
# the check battery's spliced loops against the calls per point they replaced
# ---------------------------------------------------------------------------

def old_delta_ball(spec, x, r, tol=1e-10):
    """delta_ball with one spec.delta call per bisection step."""
    _require_interval(spec, "delta_ball")
    if not r > 0.0:
        raise DisplacementError(f"ball radius must be positive, got {r!r}")
    tol = _check_tolerance(tol, "tol", DisplacementError)
    a, b = spec.domain
    x = _snap(x, a, b, "x", DisplacementError, _domain_slack(a, b))
    value_tol = tol * (1.0 + r)

    def bisect(inside, outside, target):
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


def old_h2_usc(spec, samples=11, shrink_levels=24, tol=LIMIT_TOL, edges=None):
    """check_h2_usc with one spec.delta call per point, and old_delta_ball,
    which bisects every level's ball edges from a and b; edges, when
    given, collects (rho, edge) of each, lower edge first."""
    _require_interval(spec, "check_h2_usc")
    _check_count(shrink_levels, 1, "shrink_levels", DisplacementError)
    a, b = spec.domain
    points = _grid_points(spec, samples)
    witnesses = []
    inconclusive = 0
    for y in points:
        rho0 = max(abs(spec.delta(y, a)), abs(spec.delta(y, b)))
        if rho0 == 0.0:
            rho0 = 1.0
        bounds = [(x, abs(spec.delta(x, y))) for x in points]
        pending = {i: None for i in range(len(points))}
        margins = {i: [] for i in range(len(points))}
        for k in range(1, shrink_levels + 1):
            if not pending:
                break
            rho = rho0 * 2.0 ** (-k)
            ball = old_delta_ball(spec, y, rho, tol=1e-9 * (b - a))
            if edges is not None:
                edges += [(rho, ball.lo), (rho, ball.hi)]
            zs = [z for z in _linspace(ball.lo, ball.hi, 9)
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
    verdict = "fail" if witnesses else "inconclusive" if inconclusive else "pass"
    stats = {"pairs": len(points) ** 2, "inconclusive_pairs": inconclusive}
    return AxiomReport("H2-usc", verdict, tuple(witnesses),
                       len(points) ** 2, tol, stats)


def first_try_h2_usc(spec, samples=11, shrink_levels=24, tol=LIMIT_TOL,
                     edges=None, level_edges=None, smallest=None):
    """old_h2_usc in check_h2_usc's order of queries: for each y the
    smallest ball first, by old_delta_ball, whose passing pairs are done,
    and old_h2_usc's levels for the rest; a ball radius of 0 or a raise
    in the smallest ball sends every pair of its y to the levels.

    edges collects (rho, edge) of every ball, lower edge first, in the
    order formed; level_edges those of the levels alone; smallest the
    (y, rho, lo, hi) of each smallest ball formed."""
    _require_interval(spec, "check_h2_usc")
    _check_count(shrink_levels, 1, "shrink_levels", DisplacementError)
    a, b = spec.domain
    points = _grid_points(spec, samples)

    def ball_points(y, rho, *collect):
        ball = old_delta_ball(spec, y, rho, tol=1e-9 * (b - a))
        for seen in collect:
            if seen is not None:
                seen += [(rho, ball.lo), (rho, ball.hi)]
        zs = [z for z in _linspace(ball.lo, ball.hi, 9)
              if abs(spec.delta(y, z)) < rho]
        zs.append(y)
        return ball, zs

    witnesses = []
    inconclusive = 0
    for y in points:
        rho0 = max(abs(spec.delta(y, a)), abs(spec.delta(y, b)))
        if rho0 == 0.0:
            rho0 = 1.0
        bounds = [(x, abs(spec.delta(x, y))) for x in points]
        pending = {i: None for i in range(len(points))}
        rho = rho0 * 2.0 ** (-shrink_levels)
        try:
            ball, zs = ball_points(y, rho, edges)
            if smallest is not None:
                smallest.append((y, rho, ball.lo, ball.hi))
            passed = [i for i, (x, bound) in enumerate(bounds)
                      if max(abs(spec.delta(x, z)) for z in zs)
                      <= bound + tol]
        except Exception:  # noqa: BLE001  (the levels raise it again)
            passed = []
        for i in passed:
            del pending[i]
        margins = {i: [] for i in pending}
        for k in range(1, shrink_levels + 1):
            if not pending:
                break
            rho = rho0 * 2.0 ** (-k)
            _, zs = ball_points(y, rho, edges, level_edges)
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
    verdict = "fail" if witnesses else "inconclusive" if inconclusive else "pass"
    stats = {"pairs": len(points) ** 2, "inconclusive_pairs": inconclusive}
    return AxiomReport("H2-usc", verdict, tuple(witnesses),
                       len(points) ** 2, tol, stats)


def old_h3(spec, samples=21, tol=ALGEBRAIC_TOL):
    """check_h3 with one spec.delta call per point."""
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


def old_d2_positive(spec, grid=64, tol=ALGEBRAIC_TOL):
    """check_d2_positive with one spec.d2 call per lattice point."""
    _require_smooth(spec, "check_d2_positive")
    _check_count(grid, 2, "grid", DisplacementError)
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


def _report_or_error(run):
    """The serialized result of run, or the type and text of its error."""
    try:
        return dumps(run().to_dict())
    except Exception as exc:  # noqa: BLE001  (both must fail alike)
        return f"{type(exc).__name__}: {exc}"


def _tree_expr(ast):
    return Expr(ast=ast, source=_unparse(ast, 0),
                variables=frozenset(COLUMNS + ("z",)),
                free=frozenset(n.name for n in _nodes(ast) if isinstance(n, Var)))


BATTERY_GAUGES = [
    {"domain": [0, 1], "density": "1 + t", "jumps": [[0.25, 0.5], [0.75, 0.125]]},
    {"domain": [-1, 2], "density": "0.5", "jumps": [[0, 1], [2, 0.25]]},
]
# y - x with a random tree added, so that balls have edges to bisect
_SHIFT = parse("y - x", COLUMNS).ast


@st.composite
def battery_specs(draw):
    """(make, sizes): make() builds a fresh spec, equal on every call."""
    kind = draw(st.sampled_from(["expr", "callable", "stieltjes"]))
    if kind == "stieltjes":
        data = draw(st.sampled_from(BATTERY_GAUGES))
        return (lambda: Stieltjes(Gauge.from_dict(data))), kind
    tree = draw(any_trees)
    delta = _tree_expr(Binary("+", _SHIFT, tree) if draw(st.booleans()) else tree)
    d2 = draw(st.one_of(st.none(), any_trees.map(_tree_expr)))
    domain = draw(st.sampled_from([(0.0, 1.0), (-1.0, 2.0), (0.5, 0.75)]))
    if kind == "callable":
        delta_fn, d2_fn = as_function(delta, "x", "y"), d2 and as_function(
            d2, "x", "y")
        return (lambda: Smooth(domain, lambda x, y: delta_fn(x, y),
                               d2_fn and (lambda x, y: d2_fn(x, y)))), kind
    return (lambda: Smooth(domain, delta, d2)), kind


def _smooth_case(delta, d2=None, domain=(0.0, 1.0)):
    names = COLUMNS + ("z",)
    return (lambda: Smooth(domain, parse(delta, names),
                           d2 and parse(d2, names))), "expr"


def _gauge_state(spec):
    if spec.kind != "stieltjes":
        return None
    return ([t.hex() for t in spec.gauge._ts], [v.hex() for v in spec.gauge._vals])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=battery_specs(), samples=st.integers(2, 4), levels=st.integers(1, 5),
       x=st.floats(0.0, 1.0), r=st.sampled_from([0.05, 0.3, 1.0, 4.0]))
@example(case=_smooth_case("y - x + 0*sqrt(abs(y - 0.25) - 0.05)", "1"),
         samples=3, levels=4, x=0.5, r=0.3)         # raises at midpoint 0.25
@example(case=_smooth_case("exp(y^2 - x^2) - exp(x - y)",
                           "2*y*exp(y^2 - x^2) + exp(x - y)"),
         samples=4, levels=5, x=0.3, r=0.4)
@example(case=_smooth_case("y - x + z", None), samples=2, levels=1, x=0.0,
         r=1.0)                                       # unbound z
@example(case=_smooth_case("sin(6*y) - x", None), samples=4, levels=3, x=0.9,
         r=0.3)                                       # H3 fails
@example(case=(lambda: Stieltjes(Gauge.from_dict(BATTERY_GAUGES[0])),
               "stieltjes"), samples=3, levels=4, x=0.25, r=0.5)
def test_battery_loops_reproduce_the_calls_per_point(case, samples, levels,
                                                     x, r):
    make, kind = case
    old, new = make(), make()
    a, b = old.domain
    x = a + x * (b - a)
    # check_h2_usc's report is old_h2_usc's; its gauge state is that of
    # first_try_h2_usc, which queries in its order
    assert _report_or_error(lambda: check_h2_usc(make(), samples, levels)) == \
        _report_or_error(lambda: old_h2_usc(make(), samples, levels))
    runs = [
        (lambda s: first_try_h2_usc(s, samples, levels),
         lambda s: check_h2_usc(s, samples, levels)),
        (lambda s: old_h3(s, samples + 3), lambda s: check_h3(s, samples + 3)),
        (lambda s: old_delta_ball(s, x, r), lambda s: delta_ball(s, x, r)),
    ]
    if kind != "stieltjes":
        runs.append((lambda s: old_d2_positive(s, samples + 1),
                     lambda s: check_d2_positive(s, samples + 1)))
    for run_old, run_new in runs:
        assert _report_or_error(lambda: run_new(new)) == \
            _report_or_error(lambda: run_old(old))
        assert _gauge_state(new) == _gauge_state(old)



@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_h2_usc_reproduces_the_calls_per_point_on_builtins(name):
    # check_h2_usc reuses Delta(y, a) and Delta(y, b) for each level's ball
    old, ref, new = make_builtin(name), make_builtin(name), make_builtin(name)
    report = _report_or_error(lambda: check_h2_usc(new))
    assert report == _report_or_error(lambda: old_h2_usc(old))
    assert report == _report_or_error(lambda: first_try_h2_usc(ref))
    assert _gauge_state(new) == _gauge_state(ref)


# Delta is undefined where 1e-8 < |y - 0.5| < 3e-8: only the smallest ball
# around 0.5 samples there, and the levels pass every pair before it
_DEEP_SQRT = ("(y^3 + y) - (x^3 + x) + 0*sqrt((abs(y - 0.5) - 0.00000001)"
              "*(abs(y - 0.5) - 0.00000003))")


@pytest.mark.parametrize("make, samples, levels", [
    # the smallest radius underflows to 0; every pair passes by level 20
    (lambda: make_builtin("exponential"), 11, 1080),
    (lambda: make_builtin("exponential"), 11, 2000),
    (lambda: Smooth((0.0, 1.0), parse(_DEEP_SQRT, COLUMNS),
                    parse("1", COLUMNS)), 3, 24),
])
def test_h2_usc_passes_where_its_smallest_ball_cannot_be_formed(
        make, samples, levels):
    report = _report_or_error(lambda: check_h2_usc(make(), samples, levels))
    assert report == _report_or_error(lambda: old_h2_usc(make(), samples,
                                                         levels))
    assert '"verdict": "pass"' in report


def test_h2_usc_samples_no_larger_ball_than_its_pairs_run():
    # Delta is undefined near 0.3125, which the first level's ball around
    # 0 samples; every pair passes in the smallest balls, which do not
    def make():
        return Smooth((0.0, 1.0), parse(
            "y - x + 0*sqrt(abs(y - 0.3125) - 0.001)", COLUMNS),
            parse("1", COLUMNS))

    assert _report_or_error(lambda: old_h2_usc(make())).startswith(
        "DomainError: sqrt of a negative number")
    assert check_h2_usc(make()).verdict == "pass"

# ---------------------------------------------------------------------------
# H2-usc's ball edges, from the inlined bisection, against old_delta_ball's
# bisections from the domain's ends
# ---------------------------------------------------------------------------

def assert_h2_usc_replays_the_cold_edges(make, samples, levels):
    """Reports by their bytes and every ball's edges by float.hex, and
    delta_ball, which bisects from the ends, by its bytes.

    The first two edges are the smallest ball's, bisected from the ends;
    the levels' edges are old_h2_usc's, in level order, and a y whose
    pairs the smallest ball decides runs fewer levels than there."""
    cold_edges, calls, ref_edges, level_edges, smallest = [], [], [], [], []
    real = displacement_mod._ball_edge

    def spy(*args):
        edge = real(*args)
        calls.append((args[1], args[5], edge))
        return edge

    def hexed(pairs):
        return [(r.hex(), e.hex()) for r, e in pairs]

    cold = _report_or_error(lambda: old_h2_usc(make(), samples, levels,
                                               edges=cold_edges))
    assert _report_or_error(lambda: first_try_h2_usc(
        make(), samples, levels, edges=ref_edges, level_edges=level_edges,
        smallest=smallest)) == cold
    with mock.patch.object(displacement_mod, "_ball_edge", spy):
        assert _report_or_error(lambda: check_h2_usc(make(), samples,
                                                     levels)) == cold
    assert hexed((r, e) for _, r, e in calls) == hexed(ref_edges)
    for y, rho, lo, hi in smallest:
        assert hexed([(r, e) for x, r, e in calls if x == y][:2]) == \
            hexed([(rho, lo), (rho, hi)])
    assert len(level_edges) <= len(cold_edges)
    rest = iter(hexed(cold_edges))
    assert all(edge in rest for edge in hexed(level_edges))
    spec = make()
    if spec.kind in ("smooth", "stieltjes"):
        a, b = spec.domain
        for u, r in ((0.3, 0.05), (0.5, 0.4), (0.9, 3.0)):
            x = a + u * (b - a)
            assert _report_or_error(lambda: delta_ball(make(), x, r)) == \
                _report_or_error(lambda: old_delta_ball(make(), x, r))


@pytest.mark.parametrize("levels", [24, 40])
@pytest.mark.parametrize("samples", [3, 5, 11])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_h2_usc_levels_replay_the_cold_bisections_on_builtins(name, samples,
                                                              levels):
    assert_h2_usc_replays_the_cold_edges(lambda: make_builtin(name), samples,
                                         levels)


# the pipeline's family exp(a*(y^2 - x^2)) - exp(b*(x - y)), scaled by
# 1e-12 to 1e3, and a non-monotone Delta, whose balls are no intervals
_FAMILY = "{c}*(exp({a}*(y^2 - x^2)) - exp({b}*(x - y)))"
h2_usc_deltas = st.one_of(
    st.builds(lambda a, b, c: _FAMILY.format(a=a, b=b, c=c),
              st.sampled_from(["0.5", "1", "1.4"]),
              st.sampled_from(["0.5", "1", "1.5"]),
              st.sampled_from(["0.000000000001", "0.001", "1", "1000"])),
    st.sampled_from(["sin(7*(y - x))", "0.000000000001*sin(7*(y - x))",
                     "1000*sin(7*(y - x))"]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(delta=h2_usc_deltas, samples=st.sampled_from([3, 5, 11]),
       levels=st.sampled_from([24, 40]))
@example(delta="sin(7*(y - x))", samples=11, levels=40)
@example(delta="(y - x)^3", samples=5, levels=24)   # fails: pairs run levels
def test_h2_usc_levels_replay_the_cold_bisections(delta, samples, levels):
    assert_h2_usc_replays_the_cold_edges(
        lambda: Smooth((0.0, 1.0), parse(delta, COLUMNS)), samples, levels)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=battery_specs(), samples=st.sampled_from([3, 5]),
       levels=st.sampled_from([24, 40]))
def test_h2_usc_levels_replay_the_cold_bisections_on_random_specs(
        case, samples, levels):
    assert_h2_usc_replays_the_cold_edges(case[0], samples, levels)


def _ball_edge_calls(delta, samples):
    """check_h2_usc's verdict on delta over [0, 1], and how many ball
    edges it formed."""
    with mock.patch.object(displacement_mod, "_ball_edge",
                           wraps=displacement_mod._ball_edge) as spy:
        report = check_h2_usc(Smooth((0.0, 1.0), parse(delta, COLUMNS)),
                              samples)
    return report.verdict, spy.call_count


@pytest.mark.parametrize("samples", [5, 11])
@pytest.mark.parametrize("delta", [
    f"exp({a}*(y^2 - x^2)) - exp({b}*(x - y))" for a in ("0.5", "1", "1.5")
    for b in ("0.5", "1", "1.5")] + ["sin(7*(y - x))"])
def test_h2_usc_decides_the_pipeline_family_in_its_smallest_balls(delta,
                                                                   samples):
    # two edges per y, its smallest ball's, and no level: the levels see
    # none of the pipeline's traffic
    assert _ball_edge_calls(delta, samples) == ("pass", 2 * samples)


@pytest.mark.parametrize("samples, calls", [(5, 154), (11, 454)])
def test_h2_usc_runs_its_levels_for_the_pairs_that_fail(samples, calls):
    assert _ball_edge_calls("(y - x)^3", samples) == ("fail", calls)


# ---------------------------------------------------------------------------
# _richardson's two rows against the whole tableau
# ---------------------------------------------------------------------------

def old_richardson(values):
    """_richardson as it built the whole tableau."""
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.one_of(cells, st.floats(-4.0, 4.0)), min_size=1,
                       max_size=30))
@example(values=[1.0])
@example(values=[0.0, -0.0, math.nan, math.inf, -math.inf])
@example(values=[1.0 + 2.0 ** -k for k in range(30)])
def test_richardson_rows_reproduce_the_tableau(values):
    assert repr(_richardson(values)) == repr(old_richardson(values))
