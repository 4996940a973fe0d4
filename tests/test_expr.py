"""Tests for the expression parser and evaluator."""

import math

import pytest

from displace.expr import (ArityError, DomainError, MissingBindingError,
                           ParseError, UnknownIdentifierError, as_function,
                           evaluate, parse, substitute)


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
