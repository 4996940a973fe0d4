"""Differential test of the compiled evaluator against a tree-walking oracle.

The oracle below is the recursive evaluator that the compiled code
replaced, kept as a reference implementation with its own power and
trigonometric rules: a negative base takes only a finite integer
exponent, and sin and cos refuse an infinite argument.  Random trees over
every node kind and function, on random bindings (zero, negatives, huge
and non-finite values, unbound variables), must give the same float bit
for bit, or the same exception with the same message and fragment.
Rendering a tree the parser can produce and parsing the text again must
give the same tree.  A power with a non-negative integer literal exponent
runs without _pow's domain tests and must still match it bit for bit.
Code objects are compiled once per shape, for evaluators and for the
loop kernels of the solver and of the check battery alike, in one
bounded cache.  Every tree runs as one Python expression, its fast form,
and hands a row that raises or gives NaN to _walk, which makes the
domain checks and compiles nothing: on adversarial values the two must
agree with each other and with the oracle, in a function and in a loop
kernel alike, below and past the nesting bound of one statement.
"""

import dis
import math
from itertools import repeat
from typing import Mapping

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import displace.expr as expr_mod  # noqa: E402
from displace.expr import (_ARITY, _CONSTANTS, Binary, Call, Const,  # noqa: E402
                           DomainError, Expr, MissingBindingError, Node, Num,
                           Unary, Var, _MAP, _kernel, _unparse,
                           as_function, evaluate, parse)
from displace.displacement import _BISECT, _MAX, Smooth, _inline  # noqa: E402
from displace.solver import _EULER  # noqa: E402


def _power(base: float, exponent: float, node: Node) -> float:
    if base == 0.0 and exponent < 0.0:
        raise DomainError("zero raised to a negative power", _unparse(node, 0))
    if base < 0.0 and not (math.isfinite(exponent)
                           and exponent == math.floor(exponent)):
        raise DomainError("negative base with fractional exponent",
                          _unparse(node, 0))
    try:
        return math.pow(base, exponent)
    except OverflowError:
        odd = base < 0.0 and math.floor(exponent) % 2 == 1
        return -math.inf if odd else math.inf


def _eval(node: Node, bindings: Mapping[str, float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return _CONSTANTS[node.name]
    if isinstance(node, Var):
        if node.name not in bindings:
            raise MissingBindingError(node.name)
        return float(bindings[node.name])
    if isinstance(node, Unary):
        return -_eval(node.operand, bindings)
    if isinstance(node, Binary):
        left = _eval(node.left, bindings)
        right = _eval(node.right, bindings)
        if node.op == "+":
            value = left + right
        elif node.op == "-":
            value = left - right
        elif node.op == "*":
            value = left * right
        elif node.op == "/":
            if right == 0.0:
                raise DomainError("division by zero", _unparse(node, 0))
            value = left / right
        else:
            value = _power(left, right, node)
        if math.isnan(value):
            raise DomainError("indeterminate value", _unparse(node, 0))
        return value
    if isinstance(node, Call):
        args = [_eval(arg, bindings) for arg in node.args]
        fragment = lambda: _unparse(node, 0)
        func = node.func
        if func == "exp":
            try:
                return math.exp(args[0])
            except OverflowError:
                return math.inf
        if func == "ln":
            if args[0] <= 0.0:
                raise DomainError("ln of a non-positive number", fragment())
            return math.log(args[0])
        if func in ("sin", "cos"):
            if math.isinf(args[0]):
                raise DomainError(f"{func} of an infinite number", fragment())
            return math.sin(args[0]) if func == "sin" else math.cos(args[0])
        if func == "sqrt":
            if args[0] < 0.0:
                raise DomainError("sqrt of a negative number", fragment())
            return math.sqrt(args[0])
        if func == "abs":
            return abs(args[0])
        if func == "min":
            return min(args)
        return max(args)
    raise TypeError(f"not an expression node: {node!r}")


NAMES = ("x", "y", "z")

# small, special and huge magnitudes of both signs, plus arbitrary floats
special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-300,
                           -1e-300, 1e300, -1e300, 709.0, 710.0, math.inf,
                           -math.inf, math.nan])
values = st.one_of(special, st.floats(), st.integers(-5, 5).map(float))

leaves = st.one_of(
    st.builds(Num, st.one_of(special, st.floats(allow_nan=False))),
    st.builds(Var, st.sampled_from(NAMES)),
    st.builds(Const, st.sampled_from(sorted(_CONSTANTS))),
)


def _extend(children):
    unary_calls = [f for f, n in _ARITY.items() if n == 1]
    binary_calls = [f for f, n in _ARITY.items() if n == 2]
    return st.one_of(
        st.builds(Unary, st.just("-"), children),
        st.builds(Binary, st.sampled_from("+-*/^"), children, children),
        st.builds(lambda f, a: Call(f, (a,)), st.sampled_from(unary_calls),
                  children),
        st.builds(lambda f, a, b: Call(f, (a, b)),
                  st.sampled_from(binary_calls), children, children),
    )


trees = st.recursive(leaves, _extend, max_leaves=24)
bindings = st.dictionaries(st.sampled_from(NAMES), values, max_size=3)


def _expr(ast: Node) -> Expr:
    free = set()
    stack = [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            free.add(node.name)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Binary):
            stack.extend((node.left, node.right))
        elif isinstance(node, Call):
            stack.extend(node.args)
    return Expr(ast=ast, source=_unparse(ast, 0), variables=frozenset(NAMES),
                free=frozenset(free))


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:   # math's own ValueError must match too
        return ("raise", type(exc), str(exc), getattr(exc, "fragment", None),
                getattr(exc, "name", None))
    assert type(value) is float
    return ("value", value.hex())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ast=trees, binding=bindings)
def test_evaluate_matches_tree_walk(ast, binding):
    expr = _expr(ast)
    expected = _outcome(_eval, ast, binding)
    assert _outcome(evaluate, expr, binding) == expected
    assert _outcome(lambda: expr(**binding)) == expected
    # a second call runs the memoised function and must agree bit for bit
    assert _outcome(evaluate, expr, binding) == expected


# the parser makes numbers from digit strings, so its trees hold only
# finite numbers >= 0 (never -0.0); a minus sign is always a Unary node
parsed_numbers = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 3.0, 1e-300, 1e300, 709.0, 710.0,
                     5e-324]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(abs))
parsed_trees = st.recursive(
    st.one_of(st.builds(Num, parsed_numbers),
              st.builds(Var, st.sampled_from(NAMES)),
              st.builds(Const, st.sampled_from(sorted(_CONSTANTS)))),
    _extend, max_leaves=24)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ast=parsed_trees)
def test_parse_inverts_unparse(ast):
    assert parse(_unparse(ast, 0), NAMES).ast == ast


# integers of either parity, past the overflow of every base above 1, and
# past 2**53, where every float is an even integer
natural_exponents = st.one_of(
    st.integers(0, 400).map(float),
    st.sampled_from([-0.0, 1e300, 2.0 ** 53, 2.0 ** 53 + 2.0,
                     2.0 ** 52 + 1.0]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(base=values, exponent=natural_exponents)
def test_natural_power_matches_tree_walk(base, exponent):
    for ast in (Binary("^", Var("x"), Num(exponent)),
                Binary("^", Unary("-", Var("x")), Num(exponent))):
        expected = _outcome(_eval, ast, {"x": base})
        assert _outcome(evaluate, _expr(ast), {"x": base}) == expected


def test_natural_power_skips_pow(monkeypatch):
    def refuse(*args):
        raise AssertionError("_pow was called")

    monkeypatch.setitem(expr_mod._HELPERS, "_pow", refuse)
    assert as_function(parse("x^3 - x^0 + x^2", {"x"}), "x")(-2.0) == -5.0
    # a fractional, negative or non-literal exponent still goes through _pow
    for source in ("x^2.5", "x^-2", "x^x", "x^pi"):
        with pytest.raises(AssertionError, match="_pow was called"):
            as_function(parse(source, {"x"}), "x")(2.0)


def test_expressions_of_one_shape_share_a_compile_but_not_their_constants():
    # the constants live in each expression's own namespace
    first = as_function(parse("ln(x - 1) / 2", {"x"}), "x")
    second = as_function(parse("ln(x - 3) / 4", {"x"}), "x")
    assert first.__code__ is second.__code__
    assert first(3.0) == math.log(2.0) / 2.0
    assert second(5.0) == math.log(2.0) / 4.0
    with pytest.raises(DomainError) as info:
        first(1.0)
    assert info.value.fragment == "ln(x - 1.0)"
    with pytest.raises(DomainError) as info:
        second(3.0)
    assert info.value.fragment == "ln(x - 3.0)"


def test_code_cache_empties_itself_when_full(monkeypatch):
    cache = {}
    monkeypatch.setattr(expr_mod, "_CODE_CACHE", cache)
    monkeypatch.setattr(expr_mod, "_CODE_CACHE_MAX", 2)
    for source in ("x + 1", "x * 1", "x - 1"):
        as_function(parse(source, {"x"}), "x")
    # the third shape found two entries, emptied the cache and was added
    assert len(cache) == 1


def test_loop_kernels_of_one_shape_share_a_compile_but_not_their_constants():
    first = as_function(parse("(0.5 + 0.25*t)*u", {"t", "u"}), "t", "u")
    second = as_function(parse("(2 + 0.125*t)*u", {"t", "u"}), "t", "u")
    kernels = [_kernel(fn, _EULER, 2) for fn in (first, second)]
    assert kernels[0].__code__ is kernels[1].__code__
    assert _kernel(first, _EULER, 2) is kernels[0]    # memoised on the Expr
    # two panels of width 0.5, no atom: u = 1.25, 1.640625 and 2, 4.0625
    runs = [kernel(iter([(0.0, 0.5), (0.5, 0.5)]), [(2, 0.0)], 1.0)
            for kernel in kernels]
    assert runs == [([1.0, 1.25, 1.640625], None), ([1.0, 2.0, 4.0625], None)]


def test_battery_loops_of_one_shape_share_a_compile_but_not_their_constants():
    first, second = (Smooth((0.0, 1.0), parse(f"{c}*y - x", {"x", "y"}))
                     for c in (2, 3))
    plain = Smooth((0.0, 1.0), lambda x, y: 2.0 * y - x)
    points = [0.0, 0.25, 1.0]
    for loop in (_BISECT, _MAP, _MAX):
        kernels = [_inline(spec, loop) for spec in (first, second)]
        assert kernels[0].__code__ is kernels[1].__code__
        assert _inline(first, loop) is kernels[0]    # memoised on the Expr
    assert [_inline(spec, _MAP)(repeat(0.5), points)
            for spec in (first, second)] == \
        [[-0.5, 0.0, 1.5], [-0.5, 0.25, 2.5]]
    assert [_inline(spec, _MAX)(0.5, points) for spec in (first, second)] == \
        [1.5, 2.5]
    # a callable runs through the same loop, called once per point
    calls = []
    spy = Smooth((0.0, 1.0), lambda x, y: calls.append(y) or 2.0 * y - x)
    assert _inline(spy, _MAP)(repeat(0.5), points) == [-0.5, 0.0, 1.5]
    assert calls == points
    assert _inline(plain, _MAX).__code__ is _inline(spy, _MAX).__code__
    # bisecting 2y - 0.5 < 1 from 0.5 towards 1: the edge 0.75
    edge = [_inline(spec, _BISECT)(0.5, 0.5, 1.0, 1.0, 1.0, 1e-12, 2e-12,
                                   8.0 * 2.0 ** -52)
            for spec in (first, plain)]
    assert edge[0] == edge[1] and abs(edge[0] - 0.75) <= 1e-12


def test_loop_kernels_share_the_bounded_code_cache(monkeypatch):
    fns = [as_function(parse(source, {"t", "u"}), "t", "u")
           for source in ("t + u", "t * u", "t - u")]
    cache = {}
    monkeypatch.setattr(expr_mod, "_CODE_CACHE", cache)
    monkeypatch.setattr(expr_mod, "_CODE_CACHE_MAX", 2)
    for fn in fns:
        _kernel(fn, _EULER, 2)
    # the third shape found two entries, emptied the cache and was added
    assert len(cache) == 1


# the values where the fast form and the walk part ways: signed
# zeros and infinities, NaN, the extremes of the doubles, and arguments
# past the overflow of exp and of a square or cube
adversarial = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308,
                     5e-324, -5e-324, 1.0, -1.0, 2.0, 0.5, 710.0, -710.0,
                     1e160, -1e160]),
    st.floats())


def _takes_fast_form(fn) -> bool:
    # the compiled code catches every exception of the fast form and
    # raises none of its own: each check is _walk's
    return "Exception" in fn.__code__.co_names and not any(
        ins.opname == "RAISE_VARARGS" for ins in dis.get_instructions(fn))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ast=trees,
       names=st.lists(st.sampled_from(NAMES), max_size=4),
       given_values=st.lists(st.one_of(values, adversarial), max_size=5))
@example(ast=Binary("/", Var("x"), Binary("-", Var("x"), Num(1.0))),
         names=["x", "x"], given_values=[2.0, 1.0])
@example(ast=Binary("*", Call("ln", (Var("x"),)), Var("x")),
         names=["x", "x"], given_values=[0.0])
@example(ast=Binary("^", Unary("-", Var("x")), Num(3.0)),
         names=["x"], given_values=[1e308])
@example(ast=Binary("*", Call("exp", (Var("x"),)), Num(0.0)),
         names=["x"], given_values=[1000.0])
# a NaN operand that min, max or a power could turn into a number
@example(ast=Call("max", (Num(0.0), Binary("*", Var("x"), Var("y")))),
         names=["x", "y"], given_values=[math.inf, 0.0])
@example(ast=Binary("^", Binary("-", Var("x"), Var("x")), Num(0.0)),
         names=["x"], given_values=[math.inf])
@example(ast=Binary("^", Num(1.0), Binary("-", Var("x"), Var("x"))),
         names=["x"], given_values=[math.inf])
@example(ast=Call("min", (Binary("-", Var("x"), Var("x")), Num(1.0))),
         names=["x"], given_values=[math.inf])
def test_fast_form_and_walk_match_the_tree_walk_reference(ast, names, given_values):
    expr = _expr(ast)
    fn = as_function(expr, *names)
    assert _takes_fast_form(fn)
    expected = _outcome(_eval, ast, dict(zip(names, given_values)))
    assert _outcome(fn, *given_values) == expected
    # the walk alone, called with the values the fast form has
    args = [*given_values[:len(names)],
            *(fn.__globals__[f"_d{i}"]
              for i in range(len(given_values), len(names)))]
    assert _outcome(fn.__globals__["_R"], *args) == expected
    if not names:
        return
    # one row of _MAP, where the fast form reads its floats unconverted
    row = (given_values + [1.0] * len(names))[:len(names)]
    expected = _outcome(_eval, ast, dict(zip(names, row)))
    loop = _kernel(fn, _MAP, len(names))
    assert _takes_fast_form(loop)
    assert _outcome(lambda: loop(*([v] for v in row))[0]) == expected
    assert _outcome(loop.__globals__["_R"], *row) == expected


@pytest.mark.parametrize("source, t, message", [
    ("sin(exp(1000*t))", 0.9,
     "sin of an infinite number in 'sin(exp(1000.0 * t))'"),
    ("cos(t)", -math.inf, "cos of an infinite number in 'cos(t)'"),
    # an infinite or NaN exponent is no integer: math.floor of it raised
    ("(0-2)^exp(1000*t)", 0.9, "negative base with fractional exponent "
                               "in '(0.0 - 2.0)^exp(1000.0 * t)'"),
    ("(0-2)^(0-t)", math.inf, "negative base with fractional exponent "
                              "in '(0.0 - 2.0)^(0.0 - t)'"),
    ("(0-2)^t", math.nan,
     "negative base with fractional exponent in '(0.0 - 2.0)^t'"),
])
def test_math_errors_leave_an_expression_as_domain_errors(source, t, message):
    fn = as_function(parse(source, {"t"}), "t")
    loop = _kernel(fn, _MAP, 1)
    for run in (fn, lambda t: loop([t])[0]):
        with pytest.raises(DomainError) as info:
            run(t)
        assert str(info.value) == message


def test_a_failing_row_compiles_nothing(monkeypatch):
    cache = {}
    monkeypatch.setattr(expr_mod, "_CODE_CACHE", cache)
    fn = as_function(parse("ln(x) / (x - 2) + 0.25 * x", {"x"}), "x")
    assert [fn(x) for x in (1.0, 4.0, 0.5)] == [
        0.25, math.log(4.0) / 2.0 + 1.0, math.log(0.5) / -1.5 + 0.125]
    assert len(cache) == 1
    with pytest.raises(DomainError, match=r"^division by zero in 'ln\(x\)"):
        fn(2.0)
    with pytest.raises(DomainError, match="^ln of a non-positive number"):
        fn(0.0)
    assert len(cache) == 1
    # a loop kernel reads floats, so it is a shape of its own
    loop = _kernel(fn, _MAP, 1)
    assert loop([1.0, 4.0]) == [fn(1.0), fn(4.0)]
    assert len(cache) == 2
    with pytest.raises(DomainError, match="^division by zero"):
        loop([1.0, 2.0])
    assert len(cache) == 2


def _nested(node: Node, count: int, wrap) -> Node:
    for _ in range(count):
        node = wrap(node)
    return node


@pytest.mark.parametrize("extra", [-1, 0, 1, 2])
def test_trees_at_the_nesting_bound_of_the_fast_form(extra):
    depth = expr_mod._FAST_NESTING + extra
    numbers = [
        # depth + 1 numbers in a left-leaning sum nest depth levels deep
        _nested(Num(0.5), depth, lambda node: Binary("+", node, Num(0.5))),
        # as does a chain of depth minus signs over a number
        _nested(Num(2.0), depth, lambda node: Unary("-", node)),
        _nested(Num(2.0), depth, lambda node: Call("abs", (node,))),
    ]
    for ast in numbers:
        fn = as_function(_expr(ast), "x")
        assert _takes_fast_form(fn)
        assert _outcome(fn, 0.5) == _outcome(_eval, ast, {"x": 0.5})
    # a variable, which a function reads through float() and a loop kernel
    # as it is
    chain = _nested(Var("x"), depth - 2, lambda node: Unary("-", node))
    fn = as_function(_expr(chain), "x")
    assert _takes_fast_form(fn) and _takes_fast_form(_kernel(fn, _MAP, 1))
    assert _outcome(fn, 0.5) == _outcome(_eval, chain, {"x": 0.5})
    assert _kernel(fn, _MAP, 1)([0.5, -math.inf]) == [
        _eval(chain, {"x": 0.5}), _eval(chain, {"x": -math.inf})]
    # a parsed sum of depth - 1 variables
    fn = as_function(parse("+".join(["t"] * (depth - 1)), {"t"}), "t")
    assert _takes_fast_form(fn)
    assert fn(0.5) == 0.5 * (depth - 1)


@pytest.mark.parametrize("ast", [
    _nested(Var("x"), 899, lambda node: Binary("+", node, Var("x"))),
    _nested(Var("x"), 150, lambda node: Call("abs", (node,))),
], ids=["sum-of-900", "150-nested-abs"])
def test_trees_far_past_the_nesting_bound_take_the_fast_form(ast,
                                                               monkeypatch):
    fn = as_function(_expr(ast), "x")
    loop = _kernel(fn, _MAP, 1)
    assert _takes_fast_form(fn) and _takes_fast_form(loop)
    # a NaN row runs the walk
    expected = _outcome(_eval, ast, {"x": math.nan})
    assert _outcome(fn, math.nan) == expected
    assert _outcome(lambda: loop([math.nan])[0]) == expected
    rows = [0.5, -2.0, math.inf]
    expected = [_outcome(_eval, ast, {"x": x}) for x in rows]
    for ns in (fn.__globals__, loop.__globals__):
        monkeypatch.setitem(ns, "_R", None)    # a row that needs it fails
    assert [_outcome(fn, x) for x in rows] == expected
    assert [_outcome(lambda: loop([x])[0]) for x in rows] == expected
