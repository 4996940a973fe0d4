"""Differential test of the compiled evaluator against a tree-walking oracle.

The oracle below is the recursive evaluator that the compiled code
replaced, kept verbatim as a reference implementation.  Random trees over
every node kind and function, on random bindings (zero, negatives, huge
and non-finite values, unbound variables), must give the same float bit
for bit, or the same exception with the same message and fragment.
Rendering a tree the parser can produce and parsing the text again must
give the same tree.
"""

import math
from typing import Mapping

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from displace.expr import (_ARITY, _CONSTANTS, Binary, Call, Const,  # noqa: E402
                           DomainError, Expr, MissingBindingError, Node, Num,
                           Unary, Var, _pow, _unparse, as_function, evaluate,
                           parse)


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
            value = _pow(left, right, node)
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
        if func == "sin":
            return math.sin(args[0])
        if func == "cos":
            return math.cos(args[0])
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


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ast=trees,
       names=st.lists(st.sampled_from(NAMES), max_size=4),
       given_values=st.lists(values, max_size=5))
def test_as_function_matches_tree_walk(ast, names, given_values):
    expr = _expr(ast)
    expected = _outcome(_eval, ast, dict(zip(names, given_values)))
    assert _outcome(as_function(expr, *names), *given_values) == expected


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
