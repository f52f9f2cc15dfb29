"""Coefficients are in one normal form everywhere the engine builds a term map:
an ``int`` when integral, else a ``Fraction`` with denominator > 1, never a
float and never zero."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk import Polynomial, VariableSet, parse_expression
from foliatk.groebner import ModuleElement, buchberger, module_divide, module_groebner, syzygy_basis
from foliatk.poly import BLOCK, exact_quotient, format_polynomial

R2 = VariableSet(("x", "y"))
R3 = VariableSet(("u", "v", "w"))

# fractions whose products and sums are often integral, next to plain integers
POOL = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(3, 2),
        Fraction(7, 5))


def _assert_normal(c):
    assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)
    assert c != 0


def _assert_clean(p):
    for c in p.terms.values():
        _assert_normal(c)


def _assert_element_clean(v):
    for c in v.components:
        _assert_clean(c)


exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(exponents, st.sampled_from(POOL), max_size=3).map(
    lambda terms: Polynomial(R2, terms))


def test_quotient_of_two_ints_is_an_int_when_exact():
    for a, b, q in ((6, 3, 2), (-6, 3, -2), (7, -7, -1), (0, 5, 0)):
        assert type(exact_quotient(a, b)) is int and exact_quotient(a, b) == q


def test_quotient_of_two_ints_is_a_reduced_fraction_when_inexact():
    q = exact_quotient(-6, 4)
    assert type(q) is Fraction and q == Fraction(-3, 2)
    assert exact_quotient(1, -3) == Fraction(-1, 3) and exact_quotient(1, -3).denominator == 3


@pytest.mark.parametrize("a, b, expected", [
    (Fraction(1, 2), Fraction(1, 4), 2),
    (3, Fraction(3, 2), 2),
    (Fraction(3, 2), 2, Fraction(3, 4)),
    (Fraction(-2, 3), Fraction(5, 7), Fraction(-14, 15)),
    (Fraction(4, 2), 1, 2),
])
def test_quotient_with_fraction_operands_is_normal(a, b, expected):
    q = exact_quotient(a, b)
    _assert_normal(q)
    assert q == expected


def test_quotient_by_zero_raises():
    for a, b in ((1, 0), (Fraction(1, 2), 0)):
        with pytest.raises(ZeroDivisionError):
            exact_quotient(a, b)


@given(st.sampled_from(POOL) | st.integers(-50, 50), st.sampled_from(POOL))
def test_quotient_is_exact_and_never_a_float(a, b):
    q = exact_quotient(a, b)
    assert not isinstance(q, float)
    assert q == Fraction(a) / Fraction(b)
    if q:
        _assert_normal(q)


def test_constructors_store_integral_values_as_ints():
    one = Polynomial.constant(R2, Fraction(4, 2))
    assert type(one.terms[(0, 0)]) is int
    assert type(Polynomial.variable(R2, "x").terms[(1, 0)]) is int
    assert type(Polynomial.monomial(R2, (1, 1), Fraction(-6, 3)).terms[(1, 1)]) is int
    assert type(Polynomial(R2, {(0, 1): Fraction(10, 5)}).terms[(0, 1)]) is int
    _assert_clean(Polynomial(R2, {(1, 0): "3/2", (0, 1): "4/2", (0, 0): True}))
    assert type(Polynomial.variable(R2, "y").scale(Fraction(2, 1)).terms[(0, 1)]) is int


@pytest.mark.parametrize("value", [0, 1, -7, True, Fraction(0), Fraction(8, 4),
                                   Fraction(-3, 2), "5", "-6/3", "2/7", "0"])
def test_trusted_constructors_equal_the_validating_one(value):
    """``constant`` and ``variable`` skip the validating constructor, not its result."""
    for chart in (R2, R3.cotangent()):
        want = Polynomial(chart, {(0,) * chart.n_vars: value})
        got = Polynomial.constant(chart, value)
        assert got == want and got.terms == want.terms
        assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
        _assert_clean(got)
        for i, name in enumerate(chart.names):
            expo = tuple(int(j == i) for j in range(chart.n_vars))
            assert Polynomial.variable(chart, name).terms == Polynomial(chart, {expo: 1}).terms


def test_constant_refuses_a_float():
    with pytest.raises(TypeError):
        Polynomial.constant(R2, 0.5)


def test_parser_reads_integer_literals_as_ints():
    p = parse_expression("3*x + 4/2*y - 1/2 + 6/3*x*y + 5/7*x^2 - 2/3*y^2", R2)
    _assert_clean(p)
    assert type(p.terms[(1, 0)]) is int and type(p.terms[(0, 1)]) is int


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_arithmetic_and_parser_keep_the_normal_form(f, g, h):
    for p in (f, g, h):
        _assert_clean(p)
        _assert_clean(parse_expression(format_polynomial(p), R2))
    for p in (f + g, f - g, -f, f * g, g * h + f, f ** 2, (f - g) ** 3,
              f.scale(Fraction(2, 3)), f.scale(Fraction(-3, 2)), f.scale(2),
              f.diff("x"), f.diff("y"), (f * g).diff("x")):
        _assert_clean(p)
    images = {"x": g, "y": h}
    _assert_clean(f.compose(R2, images))
    _assert_clean(f.rename(R3, {"x": "u", "y": "w"}))
    _assert_clean(f.rename(R2, {"x": "y", "y": "x"}))


@given(st.lists(polys, min_size=1, max_size=3), polys)
@settings(max_examples=40, deadline=None)
def test_ideal_engine_keeps_the_normal_form(gens, target):
    gb = buchberger(gens, BLOCK)
    for g in gb.generators:
        _assert_clean(g)
    for row in gb.rows:
        for c in row.values():
            _assert_clean(c)
    cof, r = module_divide(ModuleElement(R2, (target,)),
                           [ModuleElement(R2, (g,)) for g in gens + list(gb.generators)], BLOCK)
    for c in cof.values():
        _assert_clean(c)
    _assert_element_clean(r)


@given(st.lists(st.tuples(polys, polys), min_size=1, max_size=3), st.tuples(polys, polys))
@settings(max_examples=30, deadline=None)
def test_module_engine_and_syzygies_keep_the_normal_form(pairs, target):
    gens = [ModuleElement(R2, pair) for pair in pairs]
    gb = module_groebner(gens, BLOCK)
    for g in gb.generators:
        _assert_element_clean(g)
    for row in gb.rows:
        for c in row.values():
            _assert_clean(c)
    cof, r = module_divide(ModuleElement(R2, target), list(gb.generators), BLOCK)
    for c in cof.values():
        _assert_clean(c)
    _assert_element_clean(r)
    for s in syzygy_basis(gb):
        _assert_element_clean(s)
