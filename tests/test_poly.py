import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk import Polynomial, VariableSet, VariableSetError
from foliatk.poly import BLOCK, GREVLEX, LEX, ExactPoint, random_polynomial

from conftest import P
from oracle import reference_compose


COT2 = VariableSet(("x", "y")).cotangent()


def test_difference_of_squares():
    assert P("(x+y)*(x-y)", COT2) == P("x^2 - y^2", COT2)


def test_additive_identity():
    p = P("3*x^2*p_y - 1/2*y", COT2)
    assert p + Polynomial.zero(COT2) == p


def test_rotation_lift_expansion():
    product = P("(x^2+y^2)*(x*p_y - y*p_x)", COT2)
    expanded = P("x^3*p_y - x^2*y*p_x + x*y^2*p_y - y^3*p_x", COT2)
    assert product == expanded


def test_diff_simple():
    assert P("x^2*p_y", COT2).diff("x") == P("2*x*p_y", COT2)
    assert P("x*p_x + y*p_y", COT2).diff("p_x") == P("x", COT2)


def test_diff_of_rotation_lift():
    f = P("(x^2+y^2)*(x*p_y - y*p_x)", COT2)
    assert f.diff("x") == P("3*x^2*p_y - 2*x*y*p_x + y^2*p_y", COT2)


def test_diff_unknown_variable():
    with pytest.raises(VariableSetError):
        P("x", COT2).diff("z")


def test_eval_exact():
    f = P("x*p_y - y*p_x", COT2)
    assert f.evaluate({"x": 1, "y": 0, "p_x": 0, "p_y": 0}) == 0
    g = P("x^2 + y^2", COT2)
    assert g.evaluate({"x": 3, "y": 4, "p_x": 0, "p_y": 0}) == 25


def test_eval_float_path():
    f = P("x^2 + y^2", COT2)
    value = f.evaluate({"x": 3.0, "y": 4, "p_x": 0, "p_y": 0})
    assert isinstance(value, float) and value == 25.0


def test_eval_missing_assignment():
    with pytest.raises(VariableSetError):
        P("x", COT2).evaluate({"x": 1})


@pytest.mark.parametrize("values", [(1, 2, 3, 4, 5), (1, 2, 3), ()],
                         ids=["too-long", "too-short", "empty"])
def test_eval_point_of_the_wrong_length(values):
    f = P("x + p_y", COT2)
    with pytest.raises(VariableSetError):
        f.evaluate_seq(values)
    with pytest.raises(VariableSetError):
        f.evaluate_seq(tuple(float(v) for v in values) or (0.5,))
    with pytest.raises(VariableSetError):
        f.evaluate_seq(ExactPoint(values))
    with pytest.raises(VariableSetError):
        f.vanishes_at(ExactPoint(values))


def test_chart_equality_and_hash():
    a, b = VariableSet(("x", "y")), VariableSet(("x", "y"))
    assert a is not b and a == b and not (a != b)
    assert a == a and a.cotangent() == b.cotangent()
    assert a != a.cotangent() and a != VariableSet(("y", "x"))
    assert a != ("x", "y")
    assert hash(a) == hash(b) == hash((("x", "y"), ()))
    assert hash(a.cotangent()) == hash((("x", "y"), ("p_x", "p_y")))


def test_fiber_grading_decomposition():
    f = P("x^2 + x*p_y + p_x*p_y", COT2)
    comps = f.fiber_components()
    assert [(k, str(c)) for k, c in comps] == [
        (0, "x^2"),
        (1, "x*p_y"),
        (2, "p_x*p_y"),
    ]
    assert Polynomial.zero(COT2).fiber_components() == []


def test_fiber_grading_of_band_hamiltonian():
    h = P("1/2*p_x^2 + 1/2*p_y^2 + 1/2*x^2*p_y^2", COT2)
    comps = h.fiber_components()
    assert len(comps) == 1
    degree, part = comps[0]
    assert degree == 2 and part == h


def test_grading_requires_fiber_variables():
    base = VariableSet(("x", "y"))
    with pytest.raises(VariableSetError):
        P("x", base).fiber_components()


def test_variable_set_mismatch():
    other = VariableSet(("x", "z")).cotangent()
    with pytest.raises(VariableSetError):
        P("x", COT2) + P("x", other)


def test_variable_set_invariants():
    with pytest.raises(VariableSetError):
        VariableSet(("x", "x"))
    with pytest.raises(VariableSetError):
        VariableSet(("x", "y"), ("p_x",))
    with pytest.raises(VariableSetError):
        VariableSet(("2bad",))


# -- randomized ring properties ---------------------------------------------

def _rand_poly(rnd):
    return random_polynomial(rnd, COT2, max_base_degree=3, max_fiber_degree=2, terms=4)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(seed):
    rnd = random.Random(seed)
    a, b, c = (_rand_poly(rnd) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_mixed_partials_commute(seed):
    rnd = random.Random(seed)
    f = _rand_poly(rnd)
    assert f.diff("x").diff("y") == f.diff("y").diff("x")
    assert f.diff("p_x").diff("x") == f.diff("x").diff("p_x")


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_fiber_components_sum_back(seed):
    rnd = random.Random(seed)
    f = _rand_poly(rnd)
    total = Polynomial.zero(COT2)
    for _, part in f.fiber_components():
        total = total + part
    assert total == f


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_evaluation_is_ring_homomorphism(seed):
    rnd = random.Random(seed)
    f, g = _rand_poly(rnd), _rand_poly(rnd)
    point = {name: Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
             for name in COT2.names}
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_compose_matches_the_term_by_term_reference(seed):
    rnd = random.Random(seed)
    f = _rand_poly(rnd)
    # images on a chart of its own, a zero image and a constant one included
    out = VariableSet(("u", "v")).cotangent()
    images = {name: random_polynomial(rnd, out, max_base_degree=2, max_fiber_degree=1,
                                      terms=rnd.randint(0, 3)) for name in COT2.names}
    got, want = f.compose(out, images), reference_compose(f, out, images)
    assert got == want
    assert list(got.terms) == list(want.terms)  # the same term order, so the same bytes


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_monomial_orders_are_multiplicative_total_orders(seed):
    rnd = random.Random(seed)
    expos = [
        tuple(rnd.randint(0, 3) for _ in range(COT2.n_vars)) for _ in range(3)
    ]
    a, b, c = expos
    for order in (GREVLEX, LEX, BLOCK):
        key = order.key_function(COT2)
        if key(a) > key(b):
            shifted_a = tuple(x + y for x, y in zip(a, c))
            shifted_b = tuple(x + y for x, y in zip(b, c))
            assert key(shifted_a) > key(shifted_b)
        # well-ordering: 1 is minimal
        one = (0,) * COT2.n_vars
        if a != one:
            assert key(a) > key(one)


def test_block_order_puts_fiber_first():
    key = BLOCK.key_function(COT2)
    p_x = (0, 0, 1, 0)
    x_sq = (2, 0, 0, 0)
    assert key(p_x) > key(x_sq)


def test_power_by_squaring_matches_repeated_multiplication(monkeypatch):
    chart = VariableSet(("x", "y")).cotangent()
    base = P("x - 1/3*p_y", chart)
    expected = Polynomial.constant(chart, 1)
    calls = 0
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    for k in range(41):
        monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
        calls = 0
        power = base ** k
        monkeypatch.setattr(Polynomial, "__mul__", mul)
        assert power == expected, k
        # floor(log2 k) squarings and one product per further set bit
        assert calls <= 2 * (k.bit_length() - 1) if k else calls == 0, (k, calls)
        expected = expected * base
