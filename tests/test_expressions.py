import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk import ParseError, Polynomial, VariableSet, parse_expression
from foliatk.expressions import MAX_NESTING
from foliatk.poly import format_polynomial, random_polynomial

COT2 = VariableSet(("x", "y")).cotangent()


def test_rotation_lift_expression():
    p = parse_expression("(x^2+y^2)*(x*p_y - y*p_x)", COT2)
    assert p == parse_expression("x^3*p_y - x^2*y*p_x + x*y^2*p_y - y^3*p_x", COT2)


def test_rational_literal():
    p = parse_expression("1/2*p_x^2", COT2)
    q = parse_expression("p_x^2", COT2)
    assert p + p == q


def test_double_star_is_a_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_expression("x**2", COT2)
    assert err.value.position == 2


def test_undeclared_variable():
    with pytest.raises(ParseError) as err:
        parse_expression("x + w", COT2)
    assert err.value.position == 4


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("x + ", COT2)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_expression("(x + y", COT2)
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        parse_expression("x ? y", COT2)
    assert err.value.position == 2


def test_unary_minus_and_signs():
    assert parse_expression("-x", COT2) == -parse_expression("x", COT2)
    assert parse_expression("--x", COT2) == parse_expression("x", COT2)
    assert parse_expression("-x^2", COT2) == -(parse_expression("x", COT2) ** 2)
    assert parse_expression("3 - -2", COT2) == Polynomial.constant(COT2, 5)


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_expression("x^1/2", COT2)


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_expression("2 x", COT2)


def test_zero_prints_and_parses():
    assert format_polynomial(Polynomial.zero(COT2)) == "0"
    assert parse_expression("0", COT2).is_zero()


@given(st.integers(0, 100_000))
@settings(max_examples=120, deadline=None)
def test_print_parse_round_trip(seed):
    rnd = random.Random(seed)
    p = random_polynomial(rnd, COT2, max_base_degree=4, max_fiber_degree=3, terms=5)
    assert parse_expression(format_polynomial(p), COT2) == p


def test_round_trip_with_large_coefficients():
    terms = {(3, 0, 2, 0): 10**30, (0, 0, 0, 0): -7}
    p = Polynomial(COT2, terms)
    assert parse_expression(format_polynomial(p), COT2) == p


def test_nesting_depth_is_bounded():
    x = parse_expression("x", COT2)
    assert parse_expression("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, COT2) == x
    with pytest.raises(ParseError) as err:
        parse_expression("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), COT2)
    assert err.value.position == MAX_NESTING


def test_nesting_counts_depth_not_parentheses():
    # siblings and closed groups do not add to the depth
    text = "+".join(["(x)"] * 1000) + "+" + "(" * MAX_NESTING + "y" + ")" * MAX_NESTING
    assert parse_expression(text, COT2) == parse_expression("1000*x + y", COT2)
    assert parse_expression("-" * 5001 + "x", COT2) == parse_expression("-x", COT2)
