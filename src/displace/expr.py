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
non-positive number, sqrt of a negative number, fractional powers of
negative bases and indeterminate bit patterns (NaN) all raise
DomainError naming the offending sub-expression.  A finite expression
evaluated twice on the same bindings returns bit-identical results.

Each expression is compiled once, per order of its variables, into a
straight-line Python function that performs the same float operations
in the same order with the same math functions, and the same domain
checks at the same points, as a walk of the tree would (a power whose
exponent is a non-negative integer literal skips the two that cannot
fire); evaluate, Expr.__call__ and as_function all run that function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Mapping, Union

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

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Union[Num, Var, Const, Unary, Binary, Call]

_CONSTANTS = {"pi": math.pi, "e": math.e}
_ARITY = {"exp": 1, "ln": 1, "sin": 1, "cos": 1, "sqrt": 1, "abs": 1,
          "min": 2, "max": 2}


@dataclass(frozen=True)
class Expr:
    """A parsed expression: ast, original source, declared variables."""

    ast: Node
    source: str
    variables: frozenset[str]
    free: frozenset[str]
    # compiled evaluators, one per variable order (see _compiled)
    _code: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False, hash=False)

    def __call__(self, **bindings: float) -> float:
        return evaluate(self, bindings)

    def __getstate__(self) -> dict:
        # compiled functions do not pickle; they are rebuilt on first use
        return {**self.__dict__, "_code": {}}

    def to_source(self) -> str:
        """Render the ast back to text; reparsing yields an equal ast."""
        return _unparse(self.ast, 0)


# --- tokenizer ---

_OPS = "+-*/^"


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
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
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(("rparen", ch, i))
            i += 1
            continue
        if ch == ",":
            tokens.append(("comma", ch, i))
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

    def expect(self, kind: str, expected: tuple[str, ...]) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"unexpected {tok[0] if tok[0] != 'end' else 'end of input'}"
                + (f" '{tok[1]}'" if tok[1] else ""),
                tok[2],
                expected,
            )
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
        raise ParseError(
            f"unexpected {kind if kind != 'end' else 'end of input'}"
            + (f" '{text}'" if text else ""),
            pos,
            ("number", "identifier", "(", "-"),
        )


def parse(source: str, variables=()) -> Expr:
    """Parse source text into an Expr.

    Args:
        source: expression text.
        variables: iterable of identifier names allowed as free variables.

    Raises:
        ParseError: on syntax errors (with position and expected tokens),
            unknown identifiers, or arity mismatches.
    """
    declared = frozenset(variables)
    parser = _Parser(_tokenize(source), declared)
    ast = parser.parse_expr()
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
    if base < 0.0 and exponent != math.floor(exponent):
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


def _is_natural(node: Node) -> bool:
    """True for a number that is a finite non-negative integer."""
    return (isinstance(node, Num) and math.isfinite(node.value)
            and node.value >= 0.0 and node.value == math.floor(node.value))


_HELPERS = {"_F": float, "_D": DomainError, "_pow": _pow, "_inf": math.inf,
            "_OE": OverflowError, "_mpow": math.pow}
_UNARY_FUNCS = {"exp": math.exp, "ln": math.log, "sin": math.sin,
                "cos": math.cos, "sqrt": math.sqrt, "abs": abs}
# (domain test on the argument, message) of the checked unary functions
_CALL_CHECKS = {"ln": ("<= 0.0", "ln of a non-positive number"),
                "sqrt": ("< 0.0", "sqrt of a negative number")}


def _compiled(expr: Expr, names: tuple[str, ...]) -> Callable[..., float]:
    """The evaluator of expr taking the values of names positionally.

    The ast is translated once into straight-line Python source, one
    local per node in post-order (operands before their operation), with
    each domain check an inline 'if' at the point where it applies, and
    compiled; the function is memoised on the Expr.  Variables become
    the parameters p0, p1, ...; numbers, constants and nodes are passed
    through the exec namespace, so no user text enters the source.  A
    variable without a value defaults to an _Unbound, which raises
    MissingBindingError when the variable is first reached.
    """
    fn = expr._code.get(names)
    if fn is not None:
        return fn
    ns = {**_HELPERS, "_u": _unparse}
    lines: list[str] = []
    loaded: dict[str, str] = {}
    unbound: dict[str, str] = {}

    def value(obj) -> str:
        key = f"_k{len(ns)}"
        ns[key] = obj
        return key

    def missing(name: str) -> str:
        if name not in unbound:
            unbound[name] = value(_Unbound(name))
        return unbound[name]

    def local() -> str:
        # unique: each local's assignment is appended before the next call
        return f"v{len(lines)}"

    def emit(node: Node) -> str:
        if isinstance(node, Num):
            return value(node.value)
        if isinstance(node, Const):
            return value(_CONSTANTS[node.name])
        if isinstance(node, Var):
            if node.name not in loaded:
                spots = [i for i, name in enumerate(names) if name == node.name]
                src = f"p{spots[0]}" if spots else missing(node.name)
                # the last value given for a repeated name wins, as in a dict
                for i in spots[1:]:
                    src = f"(p{i} if p{i} is not {missing(node.name)} else {src})"
                loaded[node.name] = out = local()
                lines.append(f"{out} = _F({src})")
            return loaded[node.name]
        if isinstance(node, Unary):
            operand = emit(node.operand)
            out = local()
            lines.append(f"{out} = -{operand}")
            return out
        if isinstance(node, Binary):
            left, right = emit(node.left), emit(node.right)
            frag = value(node)
            out = local()
            if node.op == "/":
                lines.append(f"if {right} == 0.0: "
                             f"raise _D('division by zero', _u({frag}, 0))")
            if node.op == "^" and _is_natural(node.right):
                # _pow's domain tests cannot fire; its overflow branch
                # stays, with the parity of the exponent resolved now
                inf = (f"-_inf if {left} < 0.0 else _inf"
                       if math.floor(node.right.value) % 2 == 1 else "_inf")
                lines.extend([f"try: {out} = _mpow({left}, {right})",
                              f"except _OE: {out} = {inf}"])
            elif node.op == "^":
                lines.append(f"{out} = _pow({left}, {right}, {frag})")
            else:
                lines.append(f"{out} = {left} {node.op} {right}")
            lines.append(f"if {out} != {out}: "
                         f"raise _D('indeterminate value', _u({frag}, 0))")
            return out
        if isinstance(node, Call):
            args = [emit(arg) for arg in node.args]
            out = local()
            func = node.func
            if func in ("min", "max"):
                # exactly what the builtins do with two arguments
                cmp = "<" if func == "min" else ">"
                a, b = args
                lines.append(f"{out} = {b} if {b} {cmp} {a} else {a}")
                return out
            if func in _CALL_CHECKS:
                test, message = _CALL_CHECKS[func]
                lines.append(f"if {args[0]} {test}: raise _D({message!r}, "
                             f"_u({value(node)}, 0))")
            call = f"{out} = {value(_UNARY_FUNCS[func])}({args[0]})"
            if func == "exp":
                lines.extend([f"try: {call}", f"except _OE: {out} = _inf"])
            else:
                lines.append(call)
            return out
        raise TypeError(f"not an expression node: {node!r}")

    result = emit(expr.ast)
    params = "".join(f"p{i}={missing(name)}, " for i, name in enumerate(names))
    source = "\n".join([f"def _fn({params}{'/, ' if names else ''}*_):",
                        *("    " + line for line in lines),
                        f"    return {result}"])
    exec(compile(source, "<displace.expr>", "exec"), ns)
    fn = expr._code[names] = ns["_fn"]
    return fn


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
_ATOM_PREC = 5


def _num_source(value: float) -> str:
    # grammar has no scientific notation, so spell the digits out
    text = repr(value)
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    return text


def _prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return _PREC["u-"]
    return _ATOM_PREC


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

    Returns a new Expr whose source is the rendered result; variables not
    mentioned in the mapping are kept.
    """
    replacements: dict[str, Node] = {}
    for name, value in mapping.items():
        if isinstance(value, Expr):
            replacements[name] = value.ast
        else:
            v = float(value)
            replacements[name] = Unary("-", Num(-v)) if v < 0 else Num(v)

    def walk(node: Node) -> Node:
        if isinstance(node, Var) and node.name in replacements:
            return replacements[node.name]
        if isinstance(node, Unary):
            return Unary(node.op, walk(node.operand))
        if isinstance(node, Binary):
            return Binary(node.op, walk(node.left), walk(node.right))
        if isinstance(node, Call):
            return Call(node.func, tuple(walk(a) for a in node.args))
        return node

    new_ast = walk(expr.ast)
    # recompute free variables by walking the new tree
    free: set[str] = set()
    stack = [new_ast]
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
