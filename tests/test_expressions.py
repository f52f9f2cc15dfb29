import math
import random
import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foliatk import ParseError, Polynomial, VariableSet, parse_expression
from foliatk.expressions import MAX_NESTING, MAX_TERM_PRODUCTS
from foliatk.poly import format_polynomial, random_polynomial

from oracle import reference_parse_expression

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


def test_zero_denominator_is_a_parse_error_at_the_literal():
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_expression("x + 1/0", COT2)
    assert err.value.position == 4


@pytest.mark.parametrize("text, start", [
    ("w" * 5000, "undeclared variable 'wwww"),
    ("x " + "9" * 4000, "unexpected '9999"),
    ("(x " + "9" * 4000, "expected ')', found '9999"),
    ("9" * 4000 + "/0", "zero denominator in '9999"),
], ids=["undeclared-variable", "unexpected", "expected-parenthesis", "zero-denominator"])
def test_an_error_quotes_a_bounded_excerpt_of_a_long_token(text, start):
    with pytest.raises(ParseError) as err:
        parse_expression(text, COT2)
    assert str(err.value).startswith(start)
    assert len(str(err.value)) < 200


def test_exponent_with_too_many_digits_is_a_parse_error_at_the_exponent():
    with pytest.raises(ParseError, match="digits") as err:
        parse_expression("x^" + "9" * 5000, COT2)
    assert err.value.position == 2


@pytest.mark.parametrize("text, position", [("3^99999999", 2), ("(1/3 + x)^99999", 10)])
def test_oversized_power_is_refused_at_the_exponent_before_it_is_computed(text, position):
    start = time.monotonic()
    with pytest.raises(ParseError, match="more than .* digits") as err:
        parse_expression(text, COT2)
    assert time.monotonic() - start < 0.1
    assert err.value.position == position


def test_powers_below_the_digit_limit_parse():
    assert parse_expression("3^100", COT2) == Polynomial.constant(COT2, 3 ** 100)
    assert parse_expression("(2*x)^50", COT2) == parse_expression(f"{2 ** 50}*x^50", COT2)


def test_an_oversized_power_is_refused_even_when_it_cancels():
    # the power is refused before the subtraction that would cancel it
    with pytest.raises(ParseError, match="digits") as err:
        parse_expression("2^50000 - 2^50000", COT2)
    assert err.value.position == 2


@pytest.mark.parametrize("text, position", [
    # each factor has 4001 digits; the product made at the * has 8001
    ("x + 10^4000*10^4000", 11),
    # the first and last coefficients of the cube have 4300 digits, so the
    # power is not refused before it is computed; the middle one, 6 times
    # larger, has 4301
    ("(2*10^1433*(x + y + p_x))^3", 26),
])
def test_a_product_past_the_digit_limit_is_refused_where_it_is_made(text, position):
    with pytest.raises(ParseError, match="more than .* digits") as err:
        parse_expression(text, COT2)
    assert err.value.position == position


@pytest.mark.parametrize("text, position", [
    ("(x+1)^3000", 5),
    ("(x+y+1)^5000", 7),
    ("x*(x+y+p_x+p_y)^60", 15),
    # the count runs over the whole expression: each power alone is allowed,
    # the third one passes the bound
    ("(x+1)^300 + (x+1)^300 + (x+1)^300", 29),
])
def test_expansion_past_the_term_product_bound_is_refused_at_its_operator(text, position):
    start = time.monotonic()
    with pytest.raises(ParseError, match=f"more than {MAX_TERM_PRODUCTS} term products") as err:
        parse_expression(text, COT2)
    assert time.monotonic() - start < 1.0
    assert err.value.position == position


def test_a_star_that_passes_the_term_product_bound_is_named():
    square = "(" + " + ".join(f"x^{i}" for i in range(400)) + ")"
    with pytest.raises(ParseError, match="term products") as err:
        parse_expression(square + "*" + square, COT2)
    assert err.value.position == len(square)


def test_expansion_below_the_term_product_bound_parses():
    p = parse_expression("(x+1)^300", COT2)
    assert len(p.terms) == 301 and p.terms[(150, 0, 0, 0)] == math.comb(300, 150)


@pytest.mark.parametrize("text", ["\u00b2", "x^\u00b2", "1/\u00b2", "\u00bd", "2*\u00bd"])
def test_numerals_that_are_not_decimal_digits_are_rejected(text):
    # superscript two and one half are numeric but not category Nd
    with pytest.raises(ParseError):
        parse_expression(text, COT2)


# grammar characters plus whitespace and non-ASCII digits and letters that
# the lexer must classify as the reference does
_PIECES = list("0123456789xyp_+-*^()/ ") + ["\t", "\u00a0", "\u0663", "\u00e9", "p_x", "p_y"]


def _outcome(parse, text):
    try:
        return parse(text, COT2)
    except ParseError as exc:
        return str(exc), exc.position
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
@settings(max_examples=300, deadline=None)
def test_lexer_and_parser_agree_with_the_reference(text):
    # a two-digit exponent of a sum costs seconds in polynomial arithmetic
    # that this property does not test; single digits keep every case fast
    assume(not re.search(r"\^\s*\d\d", text))
    expected = _outcome(reference_parse_expression, text)
    got = _outcome(parse_expression, text)
    if expected in (ZeroDivisionError, ValueError):
        assert isinstance(got, tuple), (text, got)
    else:
        assert got == expected


@pytest.mark.parametrize("text", [
    "x" + " " * 200_000,
    "+".join(["x"] * 100_000),
], ids=["trailing-spaces", "long-sum"])
def test_parsing_is_linear_in_the_input(text):
    # a backtracking lexer takes minutes on the trailing spaces
    start = time.monotonic()
    parse_expression(text, COT2)
    assert time.monotonic() - start < 20.0
