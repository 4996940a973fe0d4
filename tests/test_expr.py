"""Tests for the expression parser and evaluator."""

import math

import pytest

from displace.expr import (ArityError, DomainError, ExprError,
                           MissingBindingError, ParseError,
                           UnknownIdentifierError, _pieces, _product,
                           as_function, evaluate, parse, substitute)
from displace.gauge import _QUAD_LIMIT


def test_parse_displacement_formula_free_vars():
    e = parse("exp(y^2 - x^2) - exp(x - y)", {"x", "y"})
    assert e.free == {"x", "y"}
    assert e.variables == {"x", "y"}


def test_displacement_formula_values():
    e = parse("exp(y^2 - x^2) - exp(x - y)", {"x", "y"})
    # the formula is monotone increasing in y, so swapping the arguments
    # flips which closed form comes out
    assert math.isclose(e(x=0.0, y=1.0), math.e - math.exp(-1.0),
                        rel_tol=0.0, abs_tol=1e-15)
    assert math.isclose(e(x=1.0, y=0.0), math.exp(-1.0) - math.e,
                        rel_tol=0.0, abs_tol=1e-15)
    assert abs(e(x=0.0, y=1.0) - 2.3504023872876028) <= 1e-15


def test_diagonal_is_exact_zero():
    e = parse("exp(y^2 - x^2) - exp(x - y)", {"x", "y"})
    for v in (0.0, 0.3, 0.5, 1.0):
        assert e(x=v, y=v) == 0.0


def test_constant_zero_expression():
    e = parse("0", {"x", "y"})
    assert e.free == frozenset()
    assert e() == 0.0


def test_simple_arithmetic():
    e = parse("2*t + 1", {"t"})
    assert e(t=1.0) == 3.0


def test_left_associativity_of_subtraction():
    e = parse("x - y - 1", {"x", "y"})
    assert e(x=0.0, y=0.0) == -1.0


def test_power_is_right_associative():
    assert parse("2^3^2")() == 512.0


def test_power_binds_tighter_than_unary_minus():
    assert parse("-2^2")() == -4.0
    assert parse("(-2)^2")() == 4.0


def test_exponent_accepts_unary_minus():
    assert parse("2^-3")() == 0.125


def test_named_constants():
    assert parse("pi")() == math.pi
    assert parse("e")() == math.e
    assert parse("cos(pi)")() == -1.0


def test_no_scientific_notation_literals():
    # 'e' is a constant, not an exponent marker, and there is no implicit
    # multiplication, so this is a syntax error rather than 0.002
    with pytest.raises(ParseError):
        parse("2e-3")


def test_min_max_are_binary():
    assert parse("min(3, 2)")() == 2.0
    assert parse("max(-1, -2)")() == -1.0
    with pytest.raises(ArityError):
        parse("min(1)")
    with pytest.raises(ArityError):
        parse("exp(1, 2)")


def test_unknown_identifier_reports_name():
    with pytest.raises(UnknownIdentifierError) as info:
        parse("q + 1", {"t"})
    assert info.value.name == "q"
    with pytest.raises(UnknownIdentifierError):
        parse("foo(1)")


def test_syntax_error_carries_position_and_expected():
    with pytest.raises(ParseError) as info:
        parse("2 + * 3")
    assert info.value.position == 4
    assert info.value.expected


@pytest.mark.parametrize("source", [5, 7.0, None, ["t"], {"t": 1}, b"t"])
def test_a_source_that_is_not_text_is_a_parse_error(source):
    with pytest.raises(ParseError, match=f"^{type(source).__name__} value at "
                       r"position 0 \(expected expression text\)$"):
        parse(source, {"t"})


def test_numbers_are_decimal_digits():
    # '²' is a digit to str.isdigit but no float literal
    with pytest.raises(ParseError, match="^unexpected character '²' at "
                       "position 0"):
        parse("²")
    assert parse("٣+1")() == 4.0


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("1 2")
    with pytest.raises(ParseError):
        parse("(1 + 2))")


def test_division_by_zero():
    with pytest.raises(DomainError):
        parse("1/t", {"t"})(t=0.0)


def test_ln_domain_error_names_fragment():
    e = parse("ln(t)", {"t"})
    with pytest.raises(DomainError) as info:
        e(t=0.0)
    assert "ln(t)" in str(info.value)
    assert info.value.fragment == "ln(t)"


def test_sqrt_and_power_domain_errors():
    with pytest.raises(DomainError):
        parse("sqrt(0 - 1)")()
    with pytest.raises(DomainError):
        parse("(0-2)^0.5")()
    with pytest.raises(DomainError):
        parse("0^-1")()


def test_nan_paths_raise_instead_of_leaking():
    # inf - inf would be a silent NaN; it must surface as a domain error
    with pytest.raises(DomainError):
        parse("exp(800) - exp(800)")()


def test_missing_binding():
    e = parse("x + y", {"x", "y"})
    with pytest.raises(MissingBindingError) as info:
        evaluate(e, {"x": 1.0})
    assert info.value.name == "y"


def test_evaluation_is_deterministic():
    e = parse("exp(y^2 - x^2) - exp(x - y)", {"x", "y"})
    first = e(x=0.123456, y=0.654321)
    for _ in range(10):
        assert e(x=0.123456, y=0.654321) == first


ROUND_TRIP_SOURCES = [
    "x + y * 2",
    "(x + y) * 2",
    "x - y - 1",
    "x - (y - 1)",
    "-x^2",
    "(-x)^2",
    "2^3^2",
    "(2^3)^2",
    "x / y / 2",
    "x / (y / 2)",
    "-(x + y) * x^2^3 - min(x, -y) / 3",
    "max(abs(x - y), sqrt(x * x) + 0.125)",
    "exp(y^2 - x^2) - exp(x - y)",
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_round_trip_preserves_ast_and_value(source):
    e = parse(source, {"x", "y"})
    text = e.to_source()
    again = parse(text, {"x", "y"})
    assert again.ast == e.ast
    for x, y in [(0.3, 0.7), (1.5, 0.25), (2.0, 2.0)]:
        assert e(x=x, y=y) == again(x=x, y=y)


def test_round_trip_spells_out_small_literals():
    e = parse("x * 0.00001", {"x"})
    text = e.to_source()
    assert "e" not in text.lower() or "exp" in text
    assert parse(text, {"x"}).ast == e.ast


def test_substitute_variable_with_expression():
    e = parse("2*y*exp(y^2 - x^2) + exp(x - y)", {"x", "y"})
    t = parse("t", {"t"})
    density = substitute(e, {"x": t, "y": t})
    assert density.free == {"t"}
    for v in (0.0, 0.25, 1.0):
        assert math.isclose(density(t=v), 2.0 * v + 1.0, abs_tol=1e-15)


def test_substitute_negative_constant_round_trips():
    e = parse("x + y", {"x", "y"})
    pinned = substitute(e, {"y": -2.5})
    assert pinned.free == {"x"}
    assert pinned(x=1.0) == -1.5
    assert parse(pinned.to_source(), {"x"}).ast == pinned.ast


def test_substitute_negative_zero_round_trips():
    pinned = substitute(parse("x + y", {"x", "y"}), {"y": -0.0})
    assert parse(pinned.to_source(), {"x"}).ast == pinned.ast
    # the value keeps its sign: -0.0 + -0.0 is -0.0, 0.0 + -0.0 is 0.0
    assert pinned(x=-0.0).hex() == "-0x0.0p+0"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_substitute_refuses_a_number_that_is_not_finite(value):
    with pytest.raises(ExprError, match=r"^x = .* is not a finite number$"):
        substitute(parse("x + 1", {"x"}), {"x": value})


def test_as_function_positional_order():
    f = as_function(parse("x - 2*y", {"x", "y"}), "x", "y")
    assert f(5.0, 1.0) == 3.0


# float.hex of the displacement formulas above, recorded from the tree-walking
# evaluator that the compiled one replaced; re-evaluation must not move a bit
GOLDEN_HEX = {
    "exp(y^2 - x^2) - exp(x - y)": [
        (0.0, 1.0, "0x1.2cd9fc44eb982p+1"),
        (0.123456, 0.654321, "0x1.d89f35a5cd7e2p-1"),
        (0.9, 0.1, "-0x1.c6b5d3c9c16f0p+0"),
        (1.0, 0.5, "-0x1.2d2595322133cp+0"),
        (0.37, 0.37, "0x0.0p+0"),
    ],
    "2*y*exp(y^2 - x^2) + exp(x - y)": [
        (0.0, 1.0, "0x1.737bfee77265cp+2"),
        (0.123456, 0.654321, "0x1.4868c39fb3de0p+1"),
        (0.9, 0.1, "0x1.285f3f587ec66p+1"),
        (1.0, 0.5, "0x1.0f7fce48cfcfep+1"),
        (0.37, 0.37, "0x1.bd70a3d70a3d7p+0"),
    ],
}


@pytest.mark.parametrize("source", sorted(GOLDEN_HEX))
def test_displacement_formulas_match_recorded_bits(source):
    e = parse(source, {"x", "y"})
    f = as_function(e, "x", "y")
    for x, y, bits in GOLDEN_HEX[source]:
        assert f(x, y).hex() == bits
        assert e(x=x, y=y).hex() == bits
        assert evaluate(e, {"y": y, "x": x}).hex() == bits


def test_substituted_density_matches_recorded_bits():
    d2 = parse("2*y*exp(y^2 - x^2) + exp(x - y)", {"x", "y"})
    t = parse("t", {"t"})
    density = as_function(substitute(d2, {"x": t, "y": t}), "t")
    assert [density(v).hex() for v in (0.0, 0.3, 0.7)] == [
        "0x1.0000000000000p+0", "0x1.999999999999ap+0", "0x1.3333333333333p+1"]


def test_as_function_too_few_values_names_first_variable_reached():
    f = as_function(parse("y * 2 + x", {"x", "y"}), "x", "y")
    with pytest.raises(MissingBindingError) as info:
        f(1.0)
    assert info.value.name == "y"
    with pytest.raises(MissingBindingError) as info:
        f()
    assert info.value.name == "y"


def test_name_missing_from_as_function_is_unbound():
    f = as_function(parse("x + y", {"x", "y"}), "x")
    with pytest.raises(MissingBindingError) as info:
        f(1.0, 2.0)
    assert info.value.name == "y"


def test_errors_are_raised_in_evaluation_order():
    domain_first = parse("ln(0) + y", {"y"})
    missing_first = parse("y + ln(0)", {"y"})
    with pytest.raises(DomainError) as info:
        evaluate(domain_first, {})
    assert info.value.fragment == "ln(0.0)"
    with pytest.raises(DomainError):
        as_function(domain_first, "y")()
    with pytest.raises(MissingBindingError):
        evaluate(missing_first, {})
    with pytest.raises(MissingBindingError):
        as_function(missing_first, "y")()


def test_as_function_ignores_extra_values():
    f = as_function(parse("x - 1", {"x"}), "x")
    assert f(3.0, 100.0, -7.0) == 2.0
    assert as_function(parse("2", {"x"}))(5.0) == 2.0


def test_repeated_name_takes_the_last_value_given():
    f = as_function(parse("x", {"x"}), "x", "x")
    assert f(1.0) == 1.0
    assert f(1.0, 2.0) == 2.0


def test_variables_may_shadow_generated_names():
    names = ("float", "_D", "p0", "math")
    e = parse("float * _D - p0 / math + sqrt(float)", names)
    f = as_function(e, *names)
    assert f(4.0, 3.0, 2.0, 8.0) == 4.0 * 3.0 - 2.0 / 8.0 + 2.0
    assert e(float=4.0, _D=3.0, p0=2.0, math=8.0) == 13.75
    assert as_function(e, "math", "p0", "_D", "float")(8.0, 2.0, 3.0, 4.0) == 13.75


def test_negation_keeps_negative_zero():
    f = as_function(parse("-x", {"x"}), "x")
    assert f(0.0).hex() == "-0x0.0p+0"
    assert parse("-x", {"x"})(x=0.0).hex() == "-0x0.0p+0"


def test_bound_values_are_converted_with_float():
    f = as_function(parse("x / 2", {"x"}), "x")
    assert f(3) == 1.5
    assert type(f(True)) is float
    with pytest.raises(ValueError):
        f("not a number")


def test_expr_pickles_after_evaluation():
    import pickle

    e = parse("x^2 - 1", {"x"})
    assert as_function(e, "x")(3.0) == 8.0
    again = pickle.loads(pickle.dumps(e))
    assert again == e
    assert again(x=3.0) == 8.0


@pytest.mark.parametrize("source", [
    "+".join(["t"] * 3000),
    "(" * 400 + "t" + ")" * 400,
    "-" * 1500 + "t",
], ids=["sum-of-3000", "400-parentheses", "1500-minus-signs"])
def test_nesting_too_deep_is_an_expression_error(source):
    # the sum parses into a tree too deep to compile; the others are too
    # deep to parse
    with pytest.raises(ExprError, match="^expression nested too deeply$"):
        as_function(parse(source, {"t"}), "t")


def test_a_sum_of_900_terms_still_evaluates():
    assert as_function(parse("+".join(["t"] * 900), {"t"}), "t")(0.5) == 450.0


def _kinks(expr, var, lo, hi, limit):
    # the kinks are the starts of the pieces after the first
    pieces = _pieces(expr, var, lo, hi, limit)
    return None if pieces is None else tuple(x for x, _ in pieces[1:])


def _kinks_of(source):
    return _kinks(parse(source, {"t"}), "t", 0.0, 1.0, _QUAD_LIMIT)


@pytest.mark.parametrize("source", [
    "1", "pi", "2*t + 1", "1.143871 + 0.644870*t", "-(t - e)/4",
    "max(2, 1)*t - min(t, t)", "abs(t + 1)", "max(0, t - 2)",
])
def test_an_affine_tree_has_no_kinks(source):
    assert _kinks_of(source) == ()


@pytest.mark.parametrize("source, kinks", [
    ("abs(t - 0.5)", (0.5,)),
    ("abs(abs(t - 0.5) - 0.25)", (0.25, 0.5, 0.75)),
    # the kink of abs at 0.5 lies in the zero stretch, where it merges
    ("2*max(0, abs(t - 0.5) - 0.125)", (0.375, 0.625)),
    ("1 - 200000*max(0, 0.005 - abs(t - 0.015))",
     (0.015 - 0.005, 0.015, 0.02)),
    ("min(t, 1 - t) + abs(t - 0.3)", (0.3, 0.5)),
    ("max(t, 0.5)*3 - (t - 0.2)/4", (0.5,)),
    ("min(max(t, 0.25), 0.75)", (0.25, 0.75)),
    # kinks outside (lo, hi), and on its ends, are not inside
    ("abs(t) + abs(t - 1) + abs(t - 2)", ()),
])
def test_nested_switches_give_their_exact_kinks(source, kinks):
    assert _kinks_of(source) == kinks


@pytest.mark.parametrize("source", [
    "t^2", "t^1", "exp(t)", "ln(t + 1)", "sin(t)", "cos(t)", "sqrt(t)",
    "t*t", "t/t", "t/0", "t/(1 - 1)", "max(0, t)*abs(t - 0.5)",
    "1 + 0*sin(t)",
    # a coefficient that is not finite
    "1" + "0" * 400 + "*t",
    # more than _QUAD_LIMIT kinks
    " + ".join(f"abs(t - {k / 1000})" for k in range(1, 250)),
])
def test_a_tree_that_is_not_piecewise_affine_has_none(source):
    assert _kinks_of(source) is None


def test_the_pieces_carry_their_coefficients():
    # each piece runs from its start to the next one's; the zero stretch
    # of the switch is one piece
    pieces = _pieces(parse("2*max(0, abs(t - 0.5) - 0.125)", {"t"}), "t",
                     0.0, 1.0, _QUAD_LIMIT)
    assert pieces == ((0.0, (0.75, -2.0)), (0.375, (0.0, 0.0)),
                      (0.625, (-1.25, 2.0)))


def _calls(f, g):
    def product(t):
        return float(f(t)) * float(g(t))
    return product


def _outcome(fn, t):
    try:
        return fn(t).hex()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("f_source, g_source", [
    ("1.234567*sin(t) + 0.345678*t^2", "2.1*max(0, abs(t - 0.5) - 0.08)"),
    ("ln(t - 0.5)", "1"),
    ("t", "sqrt(0.25 - t)"),
    ("1/(t - 0.5)", "ln(t)"),
    # exp(1000) overflows in the fast form; inf times 0 is a NaN product
    # of two values, not an error
    ("exp(1000*t)", "max(0, 0.5 - t)"),
    ("t*x", "1"),
])
def test_the_compiled_product_is_the_two_calls(f_source, g_source):
    f = as_function(parse(f_source, {"t", "x"}), "t")
    g = as_function(parse(g_source, {"t"}), "t")
    fused = _product(f, g)
    # one compiled function, with no call per row
    assert fused.__code__.co_filename == "<displace.expr>"
    for t in (0.0, 0.25, 0.5, 0.75, 1.0, 0.1 * 3):
        want = _outcome(_calls(f, g), t)
        assert _outcome(fused, t) == want, t
    if f_source == "exp(1000*t)":
        assert math.isnan(fused(1.0))


def test_a_product_of_other_functions_is_the_two_calls():
    t_fn = as_function(parse("t", {"t"}), "t")
    tu_fn = as_function(parse("t*u", {"t", "u"}), "t", "u")
    u_fn = as_function(parse("u", {"u"}), "u")
    for f, g in ((t_fn, lambda t: 2.0), (lambda t: 2.0, t_fn),
                 (t_fn, tu_fn), (t_fn, u_fn)):
        product = _product(f, g)
        assert product.__code__.co_filename != "<displace.expr>"
        assert _outcome(product, 0.5) == _outcome(_calls(f, g), 0.5)


def test_kinks_read_only_their_variable():
    e = parse("abs(t - x)", {"t", "x"})
    assert _kinks(e, "t", 0.0, 1.0, _QUAD_LIMIT) is None
    # a tree too deep to walk, affine as it is, has none either
    deep = parse("+".join(["t"] * 1500), {"t"})
    assert _kinks(deep, "t", 0.0, 1.0, _QUAD_LIMIT) is None
