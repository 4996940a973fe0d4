"""Parsing and evaluation of scalar math expressions.

Expressions are the text form used for displacement formulas, gauge
densities, right-hand sides and test functions.  The grammar is small
and fixed:

    expr    := addsub
    addsub  := muldiv (('+' | '-') muldiv)*
    muldiv  := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

'+', '-', '*', '/' associate to the left, '^' to the right, and '^'
binds tighter than unary minus, which binds tighter than '*' and '/'.
NUMBER is a plain decimal literal (digits, optional fraction); there is
no scientific notation, which keeps the identifier 'e' unambiguous as
Euler's constant.  Known constants are 'pi' and 'e'; known functions
are exp, ln, sin, cos, sqrt, abs (unary) and min, max (binary).  Any
other identifier must be declared as a variable at parse time.

Evaluation is strict about domains: division by zero, ln of a
non-positive number, sqrt of a negative number, sin or cos of an
infinity, a negative base with an exponent that is no integer (an
infinite or NaN one included) and indeterminate bit patterns (NaN) all
raise DomainError naming the offending sub-expression.  A finite
expression evaluated twice on the same bindings returns bit-identical
results.

Each expression is compiled once, per order of its variables, into a
Python function; evaluate, Expr.__call__ and as_function all run it.
It computes the fast form: the whole tree as one Python expression, with
the same float operations in the same order and the same math functions
as a walk of the tree, and no checks.  A row on which it raises or gives
NaN runs again in _walk, a loop over the tree's nodes that makes each
domain check at the point where the walk makes it.  Values and errors,
with their text, are therefore the walk's.  min, max and the powers that
could turn a NaN operand into a number give NaN for one in the fast
form, so that the row runs again; a subtree nested too deeply for one
Python expression is computed in a statement before it.

Callers that run such a function many times (the solver's Euler
recurrence, the check battery's bisection and maximum, and _MAP, the
map over rows here) hand _kernel a loop source in which RHS stands for
fn(p0, p1, ...) and PARAMS for the list p0, p1, ...; wherever RHS
stands, the loop must bind those to Python floats.  _kernel splices
fn's statements in before each line with RHS, so a row costs no call,
or calls any other callable there: the values and errors are those of
one call per row, bit for bit.  Each (loop, shape) is compiled once, in
the bounded cache that the functions share.

_product(f, g) is float(f(t)) * float(g(t)) as one compiled function
of the tree f * g, for the running integrals of calculus; a row it
cannot settle makes the two calls.

on_arrays(fn, *columns) is fn at every row, as a float64 array: over
whole numpy columns in one walk of the tree where that is exact
(numbers, constants, variables, unary minus, + - * /, abs, sqrt, min
and max), otherwise in _MAP.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from itertools import count
from types import CodeType
from typing import TYPE_CHECKING, Callable, Mapping, Union

from .serialize import Record

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ExprError",
    "ParseError",
    "UnknownIdentifierError",
    "ArityError",
    "EvalError",
    "DomainError",
    "MissingBindingError",
    "Expr",
    "parse",
    "evaluate",
    "substitute",
]


class ExprError(Exception):
    """Base class for expression parsing and evaluation failures."""


class ParseError(ExprError):
    """Syntax error, reported with position and the expected token set."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class UnknownIdentifierError(ParseError):
    """Identifier that is not a constant, function, or declared variable."""

    def __init__(self, name: str, position: int):
        self.name = name
        super().__init__(f"unknown identifier '{name}'", position)


class ArityError(ParseError):
    """Function called with the wrong number of arguments."""

    def __init__(self, func: str, expected: int, got: int, position: int):
        self.func = func
        super().__init__(
            f"function '{func}' takes {expected} argument(s), got {got}", position
        )


class EvalError(ExprError):
    """Base class for evaluation failures."""


class DomainError(EvalError):
    """Mathematical domain violation, attributed to a sub-expression."""

    def __init__(self, message: str, fragment: str):
        self.fragment = fragment
        super().__init__(f"{message} in '{fragment}'")


class MissingBindingError(EvalError):
    """A free variable had no value in the bindings."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no binding for variable '{name}'")


# AST nodes.  All frozen, so Expr values are immutable and hashable.

class Num(Record):
    value: float


class Var(Record):
    name: str


class Const(Record):
    name: str


class Unary(Record):
    op: str
    operand: "Node"


class Binary(Record):
    op: str
    left: "Node"
    right: "Node"


class Call(Record):
    func: str
    args: tuple["Node", ...]


Node = Union[Num, Var, Const, Unary, Binary, Call]

_CONSTANTS = {"pi": math.pi, "e": math.e}
_ARITY = {"exp": 1, "ln": 1, "sin": 1, "cos": 1, "sqrt": 1, "abs": 1,
          "min": 2, "max": 2}


class Expr(Record):
    """A parsed expression: ast, original source, declared variables."""

    ast: Node
    source: str
    variables: frozenset[str]
    free: frozenset[str]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # compiled evaluators, one per variable order (see _compiled), and
        # loop kernels (see _kernel); not a field, so repr, == and hash
        # ignore it
        self.__dict__["_code"] = {}

    def __call__(self, **bindings: float) -> float:
        return evaluate(self, bindings)

    def __getstate__(self) -> dict:
        # compiled functions do not pickle; they are rebuilt on first use
        return {**self.__dict__, "_code": {}}

    def to_source(self) -> str:
        """Render the ast back to text; reparsing yields an equal ast."""
        return _unparse(self.ast, 0)


# --- tokenizer ---

# the kind of each one-character token
_PUNCTUATION = {**dict.fromkeys("+-*/^", "op"), "(": "lparen", ")": "rparen",
                ",": "comma"}


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and source[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdecimal() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("number", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        if ch in _PUNCTUATION:
            tokens.append((_PUNCTUATION[ch], ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character '{ch}'", i)
    tokens.append(("end", "", n))
    return tokens


# --- parser ---

class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], variables: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.free: set[str] = set()

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def unexpected(self, expected: tuple[str, ...]) -> ParseError:
        kind, text, pos = self.peek()
        return ParseError(
            f"unexpected {kind if kind != 'end' else 'end of input'}"
            + (f" '{text}'" if text else ""), pos, expected)

    def expect(self, kind: str, expected: tuple[str, ...]) -> tuple[str, str, int]:
        if self.peek()[0] != kind:
            raise self.unexpected(expected)
        return self.take()

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            node = Binary(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        if self.peek()[:2] == ("op", "-"):
            self.take()
            return Unary("-", self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            # exponent re-enters at unary so '2^-3' parses, right-associative
            return Binary("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Node:
        kind, text, pos = self.peek()
        if kind == "number":
            self.take()
            return Num(float(text))
        if kind == "lparen":
            self.take()
            node = self.parse_expr()
            self.expect("rparen", (")",))
            return node
        if kind == "ident":
            self.take()
            if self.peek()[0] == "lparen":
                if text not in _ARITY:
                    raise UnknownIdentifierError(text, pos)
                self.take()
                args = [self.parse_expr()]
                while self.peek()[0] == "comma":
                    self.take()
                    args.append(self.parse_expr())
                self.expect("rparen", (")", ","))
                if len(args) != _ARITY[text]:
                    raise ArityError(text, _ARITY[text], len(args), pos)
                return Call(text, tuple(args))
            if text in _CONSTANTS:
                return Const(text)
            if text in self.variables:
                self.free.add(text)
                return Var(text)
            raise UnknownIdentifierError(text, pos)
        raise self.unexpected(("number", "identifier", "(", "-"))


# the error of a tree too deep for the recursive parser or compiler
_TOO_DEEP = "expression nested too deeply"


def parse(source: str, variables=()) -> Expr:
    """Parse source text into an Expr.

    Args:
        source: expression text.
        variables: iterable of identifier names allowed as free variables.

    Raises:
        ParseError: on a source that is not a str, syntax errors (with
            position and expected tokens), unknown identifiers, or arity
            mismatches.
        ExprError: on nesting too deep for the recursive descent.
    """
    if not isinstance(source, str):
        raise ParseError(f"{type(source).__name__} value", 0,
                         ("expression text",))
    declared = frozenset(variables)
    parser = _Parser(_tokenize(source), declared)
    try:
        ast = parser.parse_expr()
    except RecursionError:
        raise ExprError(_TOO_DEEP) from None
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(
            f"trailing input '{tok[1]}'", tok[2], ("end of input",)
        )
    return Expr(ast=ast, source=source, variables=declared,
                free=frozenset(parser.free))


# --- evaluation ---

def _pow(base: float, exponent: float, node: Node) -> float:
    if base == 0.0 and exponent < 0.0:
        raise DomainError("zero raised to a negative power", _unparse(node, 0))
    # NaN % 1.0 and inf % 1.0 are NaN: neither exponent is an integer
    if base < 0.0 and exponent % 1.0 != 0.0:
        raise DomainError("negative base with fractional exponent", _unparse(node, 0))
    try:
        return math.pow(base, exponent)
    except OverflowError:
        sign = -1.0 if (base < 0.0 and math.floor(exponent) % 2 == 1) else 1.0
        return math.copysign(math.inf, sign)


class _Unbound:
    """Default value of a variable with no binding; float() of it raises."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __float__(self) -> float:
        raise MissingBindingError(self.name)


_HELPERS = {"_F": float, "_pow": _pow, "_mpow": math.pow, "_nan": math.nan}
_UNARY_FUNCS = {"exp": math.exp, "ln": math.log, "sin": math.sin,
                "cos": math.cos, "sqrt": math.sqrt, "abs": abs}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}
# generated source -> its code object.  The source depends only on the
# shape of the ast and the variable order, so every expression of one
# shape shares one compile; the cache is emptied when full, as re does
_CODE_CACHE: dict[str, CodeType] = {}
_CODE_CACHE_MAX = 512
# every _FAST_NESTING-th level of a tree starts a statement of its own in
# the fast form: a level opens at most three parentheses, and Python's
# parser stops at 200
_FAST_NESTING = 50


def _body(expr: Expr, names: tuple[str, ...], floats: bool = False
          ) -> tuple[list[str], str, dict]:
    """expr's fast form as statements over the parameters p0, p1, ...

    Returns (lines, result, ns): the statements, the name that holds the
    value after them, and the namespace they run in.  Parameter pI holds
    the value of names[I], read as it is where floats says that every
    parameter is a Python float and otherwise through float() in a
    statement before the expression, as is each subtree at a level that
    is a multiple of _FAST_NESTING.  Its default is ns['_dI'], an
    _Unbound, as is a free variable with no parameter.  Numbers,
    constants and nodes are passed through ns, so every expression of one
    shape gets the same lines.  A tree too deep to walk raises ExprError.

    A row that raises or ends in NaN runs again in ns['_R'], _walk over
    the nodes this pass lists.  Each operation of the fast form carries a
    NaN operand to its result, and raises where a check would (exp and
    the natural power raise OverflowError where the walk gives inf); min,
    max, and a power that math.pow could take from NaN to a number, test
    their operands.  So a row that ends in a number has the walk's value,
    and the walk decides every other row.
    """
    ns = dict(_HELPERS)
    lines: list[str] = []
    # the nodes in post-order, each with its number, or with its default
    # and parameters where it is a Var
    steps: list[tuple[Node, object]] = []
    loaded: dict[str, str] = {}
    unbound: dict[str, str] = {}
    fresh = count()

    def value(obj) -> str:
        key = f"_k{len(ns)}"
        ns[key] = obj
        return key

    def missing(name: str) -> str:
        if name not in unbound:
            unbound[name] = value(_Unbound(name))
        return unbound[name]

    for i, name in enumerate(names):
        ns[f"_d{i}"] = ns[missing(name)]

    def bind(text: str) -> tuple[str, str]:
        # (the text that assigns text's value to a new local, that local)
        out = f"v{next(fresh)}"
        return f"({out} := {text})", out

    def guard(op: Callable[..., str], *texts: str) -> str:
        # op of the values of texts, or NaN where one of them is NaN
        pairs = [bind(text) for text in texts]
        test = " and ".join(f"{first} == {out}" for first, out in pairs)
        return f"({op(*(out for _, out in pairs))} if {test} else _nan)"

    def emit(node: Node, depth: int) -> str:
        """node's text in the fast form; depth is its level, the root's 1."""
        if isinstance(node, Var):
            spots = [i for i, name in enumerate(names) if name == node.name]
            default = missing(node.name)
            steps.append((node, (ns[default], spots)))
            if node.name not in loaded:
                src = f"p{spots[0]}" if spots else default
                # the last value given for a repeated name wins, as in a dict
                for i in spots[1:]:
                    src = f"(p{i} if p{i} is not {default} else {src})"
                if floats and spots:
                    loaded[node.name] = src
                else:
                    loaded[node.name] = f"v{next(fresh)}"
                    lines.append(f"{loaded[node.name]} = _F({src})")
            return loaded[node.name]
        if isinstance(node, (Num, Const)):
            number = (node.value if isinstance(node, Num)
                      else _CONSTANTS[node.name])
            steps.append((node, number))
            return value(number)
        if isinstance(node, Unary):
            text = f"(-{emit(node.operand, depth + 1)})"
        elif isinstance(node, Binary):
            left = emit(node.left, depth + 1)
            right = emit(node.right, depth + 1)
            k = node.right.value if isinstance(node.right, Num) else math.nan
            if node.op != "^":
                text = f"({left} {node.op} {right})"
            elif k >= 1.0 and k % 1.0 == 0.0:
                # a natural power, which _pow's domain tests pass
                text = f"_mpow({left}, {right})"
            elif k == 0.0:
                # x^0 is 1 at a NaN x
                text = guard(lambda x: f"_mpow({x}, {right})", left)
            else:
                frag = value(node)
                text = guard(lambda x, y: f"_pow({x}, {y}, {frag})",
                             left, right)
        elif not isinstance(node, Call):
            raise TypeError(f"not an expression node: {node!r}")
        elif node.func in ("min", "max"):
            a, b = emit(node.args[0], depth + 1), emit(node.args[1], depth + 1)
            # what the builtins do with two arguments, but NaN for a NaN b
            cmp = "<" if node.func == "min" else ">"
            first, a = bind(a)
            text = guard(lambda y: f"({y} if {y} {cmp} {first} else {a})", b)
        else:
            arg = emit(node.args[0], depth + 1)
            text = f"{value(_UNARY_FUNCS[node.func])}({arg})"
        steps.append((node, None))
        if depth % _FAST_NESTING:
            return text
        out = f"v{next(fresh)}"
        lines.append(f"{out} = {text}")
        return out

    try:
        text = emit(expr.ast, 1)
    except RecursionError:
        raise ExprError(_TOO_DEEP) from None
    ns["_R"] = partial(_walk, steps, ns["_pow"])
    params = ", ".join(f"p{i}" for i in range(len(names)))
    return (["try:", *(f"    {line}" for line in lines), f"    vr = {text}",
             "except Exception: vr = _nan", f"if vr != vr: vr = _R({params})"],
            "vr", ns)


def _walk(steps: list[tuple[Node, object]], power: Callable, *args: object
          ) -> float:
    """The checked value of one row: ns['_R'] of _body.

    steps are the nodes in post-order as _body lists them and args the
    parameters p0, p1, ....  Each node takes its operands off a stack and
    puts its value on it, with each domain check where a walk of the tree
    makes it, so the value and the first error are the walk's.  power is
    the fast form's _pow.
    """
    stack: list[float] = []
    for node, data in steps:
        if isinstance(node, Var):
            default, spots = data
            value = default
            for i in spots:    # the last value given for a repeated name wins
                if args[i] is not default:
                    value = args[i]
            stack.append(float(value))
        elif isinstance(node, (Num, Const)):
            stack.append(data)
        elif isinstance(node, Unary):
            stack.append(-stack.pop())
        elif isinstance(node, Binary):
            right, left = stack.pop(), stack.pop()
            if node.op == "/" and right == 0.0:
                raise DomainError("division by zero", _unparse(node, 0))
            value = (power(left, right, node) if node.op == "^"
                     else _ARITH[node.op](left, right))
            if value != value:
                raise DomainError("indeterminate value", _unparse(node, 0))
            stack.append(value)
        elif node.func in ("min", "max"):
            b, a = stack.pop(), stack.pop()
            stack.append(b if (b < a if node.func == "min" else b > a) else a)
        else:
            x = stack.pop()
            if node.func == "ln" and x <= 0.0:
                raise DomainError("ln of a non-positive number",
                                  _unparse(node, 0))
            if node.func == "sqrt" and x < 0.0:
                raise DomainError("sqrt of a negative number",
                                  _unparse(node, 0))
            if node.func in ("sin", "cos") and math.isinf(x):
                raise DomainError(f"{node.func} of an infinite number",
                                  _unparse(node, 0))
            try:
                stack.append(_UNARY_FUNCS[node.func](x))
            except OverflowError:    # exp's, whose value is then inf
                stack.append(math.inf)
    return stack.pop()


def _splice(loop: str, lines: list[str], result: str, ns: dict) -> None:
    """Run the source loop in ns with lines spliced in at RHS.

    The lines go in before each line with RHS, at its indentation, and
    RHS becomes result.  Each source is compiled once while it stays in
    the cache.
    """
    source = []
    for line in loop.splitlines():
        head, rhs, tail = line.partition("RHS")
        if rhs:
            indent = head[:len(head) - len(head.lstrip())]
            source.extend(indent + body_line for body_line in lines)
            line = head + result + tail
        source.append(line)
    source = "\n".join(source)
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()
        code = _CODE_CACHE[source] = compile(source, "<displace.expr>",
                                             "exec")
    exec(code, ns)


def _compiled(expr: Expr, names: tuple[str, ...]) -> Callable[..., float]:
    """The evaluator of expr taking the values of names positionally.

    The function _fn returns _body's result; it is memoised on the Expr,
    and its code object, compiled once per shape, runs in the Expr's own
    namespace.  A variable without a value defaults to an _Unbound.
    """
    fn = expr._code.get(names)
    if fn is not None:
        return fn
    lines, result, ns = _body(expr, names)
    params = "".join(f"p{i}=_d{i}, " for i in range(len(names)))
    _splice(f"def _fn({params}{'/, ' if names else ''}*_):\n    return RHS",
            lines, result, ns)
    fn = expr._code[names] = ns["_fn"]
    # what on_arrays and _kernel need to evaluate the same expression
    fn._expr, fn._names = expr, names
    return fn


def _kernel(fn: Callable[..., float], loop: str, arity: int,
            convert: bool = False) -> Callable:
    """The function _loop defined by loop, with fn of arity arguments at
    RHS (see the module docstring), or float() of it when convert is true.

    A function from as_function whose names the loop all binds is spliced
    in as its _body, with no parameter read through float(); every check,
    default and repeated-name rule of _fn stays.  Any other callable is
    called at RHS.  The kernel of an expression is memoised on the Expr.
    """
    params = ", ".join(f"p{i}" for i in range(arity))
    expr, names = getattr(fn, "_expr", None), getattr(fn, "_names", None)
    spliced = isinstance(expr, Expr) and len(names) <= arity
    if spliced:
        key = (loop, arity, names)
        if key in expr._code:
            return expr._code[key]
        lines, result, ns = _body(expr, names, floats=True)
    else:
        call = f"_rhs({params})"
        lines, result, ns = [], f"_F({call})" if convert else call, {
            "_F": float, "_rhs": fn}
    _splice(loop.replace("PARAMS", params), lines, result, ns)
    if spliced:
        expr._code[key] = ns["_loop"]
    return ns["_loop"]


# fn at every row of the columns, in order, through _kernel
_MAP = """\
def _loop(*columns):
    out = []
    append = out.append
    for (PARAMS,) in zip(*columns):
        append(RHS)
    return out
"""


def evaluate(expr: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate an Expr on a variable binding.

    Raises:
        MissingBindingError: if a free variable has no value.
        DomainError: on mathematical domain violations; the message names
            the offending sub-expression.
    """
    names = tuple(expr.free)
    return _compiled(expr, names)(
        *[bindings[n] if n in bindings else _Unbound(n) for n in names])


# --- unparsing ---

# precedence levels used for minimal parenthesisation
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "u-": 3, "^": 4}


def _num_source(value: float) -> str:
    # grammar has no scientific notation, so spell the digits out
    text = repr(value)
    if "e" in text or "E" in text:
        from decimal import Decimal
        text = format(Decimal(text), "f")
    return text


def _unparse(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        return _num_source(node.value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Call):
        return node.func + "(" + ", ".join(_unparse(a, 0) for a in node.args) + ")"
    if isinstance(node, Unary):
        text = "-" + _unparse(node.operand, _PREC["u-"])
        return "(" + text + ")" if parent_prec > _PREC["u-"] else text
    if isinstance(node, Binary):
        prec = _PREC[node.op]
        if node.op == "^":
            left = _unparse(node.left, prec + 1)
            right = _unparse(node.right, prec)
            text = f"{left}^{right}"
        else:
            left = _unparse(node.left, prec)
            right = _unparse(node.right, prec + 1)
            text = f"{left} {node.op} {right}"
        return "(" + text + ")" if parent_prec > prec else text
    raise TypeError(f"not an expression node: {node!r}")


def substitute(expr: Expr, mapping: Mapping[str, Union[Expr, float]]) -> Expr:
    """Replace variables with sub-expressions or numeric constants.

    Returns a new Expr whose source is the rendered result, which parses
    back to the same tree; variables not mentioned in the mapping are
    kept.

    Raises:
        ExprError: for a number that is not finite, which has no source.
    """
    # name -> (replacement node, its free variables)
    replacements: dict[str, tuple[Node, frozenset[str]]] = {}
    for name, value in mapping.items():
        if isinstance(value, Expr):
            replacements[name] = (value.ast, value.free)
        else:
            v = float(value)
            if not math.isfinite(v):
                raise ExprError(f"{name} = {v!r} is not a finite number")
            # the grammar has no negative number, and -0.0 is -(0.0) too
            replacements[name] = (Unary("-", Num(-v))
                                  if math.copysign(1.0, v) < 0.0 else Num(v),
                                  frozenset())
    # the free variables of the result, collected as it is built
    free: set[str] = set()

    def walk(node: Node) -> Node:
        if isinstance(node, Var):
            new, names = replacements.get(node.name, (node, (node.name,)))
            free.update(names)
            return new
        if isinstance(node, Unary):
            return Unary(node.op, walk(node.operand))
        if isinstance(node, Binary):
            return Binary(node.op, walk(node.left), walk(node.right))
        if isinstance(node, Call):
            return Call(node.func, tuple(walk(a) for a in node.args))
        return node

    new_ast = walk(expr.ast)
    source = _unparse(new_ast, 0)
    variables = (expr.variables - set(replacements)) | free
    return Expr(ast=new_ast, source=source, variables=frozenset(variables),
                free=frozenset(free))


def as_function(expr: Expr, *names: str) -> Callable[..., float]:
    """Wrap an Expr as a positional-argument callable, e.g. f(t) or f(t, u).

    Values beyond len(names) are ignored; a name without a value raises
    MissingBindingError when evaluation reaches it.
    """
    return _compiled(expr, names)


def _product(f: Callable[[float], float], g: Callable[[float], float]
             ) -> Callable[[float], float]:
    """t -> float(f(t)) * float(g(t)), bit for bit and error for error.

    Where f and g both come from as_function with the same one variable,
    it is one compiled function: the fast form of the tree f * g, the
    float operations of the two calls and their product in the same
    order, with no call per row.  A row on which that raises or gives NaN
    makes the two calls instead, so its value or error, with its text, is
    theirs, a NaN product included.  Any other pair is the two calls.
    """
    def calls(t: float) -> float:
        return float(f(t)) * float(g(t))

    ef, eg = getattr(f, "_expr", None), getattr(g, "_expr", None)
    names = getattr(f, "_names", ())
    if not (isinstance(ef, Expr) and isinstance(eg, Expr)
            and len(names) == 1 and g._names == names):
        return calls
    tree = Expr(ast=Binary("*", ef.ast, eg.ast), source="",
                variables=ef.variables | eg.variables, free=ef.free | eg.free)
    lines, result, ns = _body(tree, names)
    ns["_R"] = calls
    _splice("def _fn(p0):\n    return RHS", lines, result, ns)
    return ns["_fn"]


# --- pieces of a piecewise-affine tree ---

class _NotAffine(Exception):
    """Raised by _pieces' walk at a node that is not piecewise affine."""


def _pieces(expr: Expr, var: str, lo: float, hi: float, limit: int
            ) -> Union[tuple[tuple[float, tuple[float, float]], ...], None]:
    """The affine pieces of expr as a function of var on [lo, hi], or
    None where the tree is not piecewise affine in var there.

    A piece (start, (c0, c1)) is the value c0 + c1 * var from start to
    the next piece's start (the last one to hi); the first starts at lo,
    and the starts after it are the kinks.  Numbers, constants, var,
    unary minus, + and -, * with a constant side and / by a nonzero
    constant are affine; abs(u) splits a piece at the root of u, and
    max(u, v) and min(u, v) at the root of u - v.  Any other node, a
    coefficient that is not finite, or a subtree with more than limit
    kinks gives None.  Neighbouring pieces with equal coefficients merge,
    so a kink inside a zero stretch is dropped.  It compiles nothing and
    evaluates no node; a kink is a root of the coefficients, so it can
    lie a rounding away from where the compiled form turns.
    """
    def tidy(pieces: list) -> list:
        out: list = []
        for start, (c0, c1) in pieces:
            if not (math.isfinite(c0) and math.isfinite(c1)):
                raise _NotAffine
            if not out or out[-1][1] != (c0, c1):
                out.append((start, (c0, c1)))
        if len(out) > limit + 1:
            raise _NotAffine
        return out

    def merge(f: list, g: list, op: Callable) -> list:
        # op of the coefficients of f and g on each piece of both
        out, i, j = [], 0, 0
        for x in sorted({x for x, _ in f} | {x for x, _ in g}):
            while i + 1 < len(f) and f[i + 1][0] <= x:
                i += 1
            while j + 1 < len(g) and g[j + 1][0] <= x:
                j += 1
            out.append((x, op(f[i][1], g[j][1])))
        return out

    def switch(u: list, v: list, pick: Callable) -> list:
        # pick(p, q, u > v) on each piece, split where u - v changes sign
        pieces = merge(u, v, lambda p, q: (p, q))
        out = []
        for k, (start, (p, q)) in enumerate(pieces):
            end = pieces[k + 1][0] if k + 1 < len(pieces) else hi
            d0, d1 = p[0] - q[0], p[1] - q[1]
            cuts = [start, end]
            if d1 != 0.0 and start < -d0 / d1 < end:
                cuts.insert(1, -d0 / d1)
            for x, y in zip(cuts, cuts[1:]):
                out.append((x, pick(p, q, d0 + d1 * (0.5 * (x + y)) > 0.0)))
        return tidy(out)

    def constant(f: list) -> Union[float, None]:
        return f[0][1][0] if len(f) == 1 and f[0][1][1] == 0.0 else None

    def walk(node: Node) -> list:
        if isinstance(node, (Num, Const)):
            return [(lo, (node.value if isinstance(node, Num)
                          else _CONSTANTS[node.name], 0.0))]
        if isinstance(node, Var):
            if node.name != var:
                raise _NotAffine
            return [(lo, (0.0, 1.0))]
        if isinstance(node, Unary):
            return [(x, (-c0, -c1)) for x, (c0, c1) in walk(node.operand)]
        if isinstance(node, Binary) and node.op in ("+", "-"):
            op = _ARITH[node.op]
            return tidy(merge(walk(node.left), walk(node.right),
                              lambda p, q: (op(p[0], q[0]), op(p[1], q[1]))))
        if isinstance(node, Binary) and node.op in ("*", "/"):
            f, g = walk(node.left), walk(node.right)
            if node.op == "*" and constant(g) is None:
                f, g = g, f
            k, op = constant(g), _ARITH[node.op]
            if k is None or (node.op == "/" and k == 0.0):
                raise _NotAffine
            return tidy([(x, (op(c0, k), op(c1, k))) for x, (c0, c1) in f])
        if isinstance(node, Call) and node.func == "abs":
            return switch(walk(node.args[0]), [(lo, (0.0, 0.0))],
                          lambda p, q, above: p if above else (-p[0], -p[1]))
        if isinstance(node, Call) and node.func in ("max", "min"):
            larger = node.func == "max"
            return switch(walk(node.args[0]), walk(node.args[1]),
                          lambda p, q, above: p if above == larger else q)
        raise _NotAffine

    try:
        return tuple(walk(expr.ast))
    except (_NotAffine, RecursionError):
        return None


# --- evaluation over whole columns ---

class _PerRow(Exception):
    """Raised by _over_arrays where only a call per row is exact."""


def _over_arrays(node: Node, columns: Mapping[str, "np.ndarray"], np):
    """node over float64 columns (or a float where it reads none of them).

    Each operation is the compiled code's own, elementwise: IEEE 754
    rounds + - * / and sqrt correctly, so numpy's and Python's agree bit
    for bit, and unary minus, abs, min and max only pick or re-sign
    values.  Where a compiled call would raise on some row, and for '^',
    exp, ln, sin and cos, which numpy computes differently from libm in
    the last ulp, _PerRow is raised instead.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return _CONSTANTS[node.name]
    if isinstance(node, Var):
        return columns[node.name]
    if isinstance(node, Unary):
        return -_over_arrays(node.operand, columns, np)
    if isinstance(node, Binary) and node.op in _ARITH:
        left = _over_arrays(node.left, columns, np)
        right = _over_arrays(node.right, columns, np)
        if node.op == "/" and np.any(right == 0.0):
            raise _PerRow
        out = _ARITH[node.op](left, right)
        if np.isnan(out).any():
            raise _PerRow
        return out
    if isinstance(node, Call) and node.func in ("sqrt", "abs", "min", "max"):
        args = [_over_arrays(arg, columns, np) for arg in node.args]
        if node.func == "sqrt":
            if np.any(args[0] < 0.0):
                raise _PerRow
            return np.sqrt(args[0])
        if node.func == "abs":
            return np.abs(args[0])
        # the compiled 'b if b < a else a', which keeps its tie and NaN rule
        a, b = args
        return np.where(b < a if node.func == "min" else b > a, b, a)
    raise _PerRow


def on_arrays(fn: Callable[..., float], *columns) -> "np.ndarray":
    """float(fn(...)) at each row of the columns, as a new float64 array.

    Element k is bit-identical to float(fn(columns[0][k], ...)), and an
    error is that of the first row whose call raises.  No columns, or
    columns of unequal lengths, raise ValueError before fn runs.  A
    function from as_function runs over the whole columns where
    _over_arrays is exact; any other callable, and an expression with an
    unbound or repeated variable or that _over_arrays refuses, runs row
    by row in _MAP.
    """
    import numpy as np

    columns = [np.asarray(column, dtype=float) for column in columns]
    lengths = [len(column) for column in columns]
    if len(set(lengths)) != 1:
        raise ValueError(f"columns of unequal lengths {lengths}"
                         if lengths else "no columns")
    expr = getattr(fn, "_expr", None)
    try:
        if not isinstance(expr, Expr):
            raise _PerRow
        names = fn._names
        bound = dict(zip(names, columns))
        if len(set(names)) < len(names) or not expr.free.issubset(bound):
            raise _PerRow
        with np.errstate(all="ignore"):
            out = _over_arrays(expr.ast, bound, np)
    except _PerRow:
        loop = _kernel(fn, _MAP, len(columns), convert=True)
        return np.array(loop(*(column.tolist() for column in columns)),
                        dtype=float)
    return np.array(np.broadcast_to(out, lengths[:1]), dtype=float)
