"""The integer evaluator against the ``Fraction`` loop, the two point searches
against a brute-force scan of the reference candidate pool, and the lazy
integer pool against the ``Fraction`` list it replaced."""

import random
from fractions import Fraction
from math import lcm
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk import Polynomial, VariableSet, poly
from foliatk.cli import run_command
from foliatk.foliation import find_module_obstruction
from foliatk.groebner import ModuleElement
from foliatk.ipoisson import find_obstruction_point
from foliatk.poly import ExactPoint, random_polynomial
from foliatk.sampling import candidate_points

from oracle import _Span, reference_candidate_points, reference_evaluate

SCENES = Path(__file__).resolve().parents[1] / "scenes"
BASE = VariableSet(("x", "y", "z"))
COT = VariableSet(("x", "y")).cotangent()
F = Fraction

# integer and fractional coefficients, so the common denominator D varies
COEFFS = (-3, -1, 1, 2, F(1, 2), F(-2, 3), F(5, 7))

coordinate = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(3), F(1, 2), F(-2, 3), F(5, 7)]),
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)


@st.composite
def poly_and_point(draw):
    chart = draw(st.sampled_from([BASE, COT]))
    kind = draw(st.sampled_from(["random", "zero", "constant", "vanishing"]))
    point = tuple(draw(st.lists(coordinate, min_size=chart.n_vars, max_size=chart.n_vars)))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    if kind == "zero":
        return Polynomial.zero(chart), point
    if kind == "constant":
        return Polynomial.constant(chart, draw(st.sampled_from(COEFFS))), point
    p = random_polynomial(rng, chart, max_base_degree=4, max_fiber_degree=2,
                          terms=rng.randint(1, 6), coeff_pool=COEFFS)
    if kind == "vanishing":
        # a factor (v - point[v]) makes the value zero through cancellation
        i = rng.randrange(chart.n_vars)
        name = chart.names[i]
        p = p * (Polynomial.variable(chart, name) - Polynomial.constant(chart, F(point[i])))
    return p, point


@settings(max_examples=300, deadline=None)
@given(poly_and_point())
def test_integer_evaluator_matches_the_fraction_loop(case):
    p, point = case
    want = reference_evaluate(p, point)
    exact = ExactPoint(point)
    for got in (p.evaluate_seq(point), p.evaluate_seq(exact),
                p.evaluate(dict(zip(p.varset.names, point)))):
        assert got == want and type(got) is Fraction
    assert p.vanishes_at(exact) == (want == 0)


def test_exact_point_clears_to_one_denominator():
    pt = ExactPoint((F(1, 2), F(-2, 3), 0, 5, "5/7"))
    assert pt.den == 42 and pt.nums == (21, -28, 0, 210, 30)
    assert ExactPoint((1, -2)).den == 1


# -- search order ----------------------------------------------------------------


def brute_obstruction(gens, residue):
    """First candidate point where every generator vanishes and the residue does not."""
    for pt in reference_candidate_points(residue.varset.n_vars):
        if all(reference_evaluate(g, pt) == 0 for g in gens):
            if reference_evaluate(residue, pt) != 0:
                return pt
    return None


def _factor(rng, chart):
    """A linear factor with rational zeros among the candidate points."""
    a, b = rng.sample(chart.names, 2)
    return (Polynomial.variable(chart, a)
            - Polynomial.constant(chart, rng.choice([0, 1, -1, 2]))
            * rng.choice([Polynomial.constant(chart, 1), Polynomial.variable(chart, b)]))


def _ideal(seed, chart):
    rng = random.Random(seed)
    gens = [
        random_polynomial(rng, chart, max_base_degree=2, max_fiber_degree=1, terms=2)
        * _factor(rng, chart)
        for _ in range(rng.randint(1, 3))
    ]
    return rng, gens


def test_obstruction_point_is_the_first_in_pool_order():
    found = 0
    for seed in range(40):
        chart = COT if seed % 2 else VariableSet(("x", "y", "z", "w", "u", "v", "t"))
        rng, gens = _ideal(seed, chart)
        residue = random_polynomial(rng, chart, max_base_degree=3, max_fiber_degree=1,
                                    terms=3)
        want = brute_obstruction(gens, residue)
        assert find_obstruction_point(gens, residue) == want
        found += want is not None
    assert found >= 10


def test_no_obstruction_where_the_residue_vanishes_on_the_zero_set():
    for seed in range(12):
        rng, gens = _ideal(seed, COT)
        # an ideal member vanishes wherever every generator does
        residue = Polynomial.zero(COT)
        for g in gens:
            residue = residue + g * random_polynomial(rng, COT, max_base_degree=1, terms=2)
        if residue.is_zero():
            continue
        assert brute_obstruction(gens, residue) is None
        assert find_obstruction_point(gens, residue) is None


def _values(element, pt):
    return [reference_evaluate(c, pt) for c in element.components]


def brute_module_obstruction(gens, residue):
    """First candidate point where the residue's value leaves the generators' span."""
    for pt in reference_candidate_points(residue.varset.n_vars):
        value = _values(residue, pt)
        if not any(value):
            continue
        span = _Span(lambda i: -i)
        for g in gens:
            span.insert({i: v for i, v in enumerate(_values(g, pt)) if v})
        if not span.contains({i: v for i, v in enumerate(value) if v}):
            return pt
    return None


def _module(rng, chart, rank, count):
    return [
        ModuleElement(chart, tuple(
            random_polynomial(rng, chart, max_base_degree=2, terms=rng.randint(0, 2))
            * _factor(rng, chart)
            for _ in range(rank)
        ))
        for _ in range(count)
    ]


def test_module_obstruction_is_the_first_in_pool_order():
    found = 0
    for seed in range(30):
        rng = random.Random(seed)
        chart = BASE if seed % 3 else VariableSet(("x", "y"))
        rank = rng.choice([1, 2, 3])
        gens = [g for g in _module(rng, chart, rank, rng.randint(1, 3)) if not g.is_zero()]
        if rng.random() < 0.3:
            # a combination over the ring stays in the span at every point
            residue = ModuleElement.zero(chart, rank)
            for g in gens:
                residue = residue + g.scale_by(random_polynomial(rng, chart, max_base_degree=1))
        else:
            residue = _module(rng, chart, rank, 1)[0]
        want = brute_module_obstruction(gens, residue)
        assert find_module_obstruction(gens, residue) == want
        found += want is not None
    assert found >= 10


def test_the_lazy_pool_yields_the_listed_points_in_order():
    for n_vars in range(1, 9):
        pool = candidate_points(n_vars)
        assert iter(pool) is pool  # a generator, built as it is read
        points = list(pool)
        assert [p.fractions() for p in points] == reference_candidate_points(n_vars), n_vars
        for p in points:  # integer numerators over the least common denominator
            assert p.den == lcm(*(c.denominator for c in p.fractions()))
            assert p.nums == ExactPoint(p.fractions()).nums


def test_the_srf_search_tests_the_residue_first(monkeypatch):
    """On the (3,3) ladder module the residue vanishes at most pool points,
    where no generator is evaluated: 1,224 evaluations, not the 7,299 of
    testing every generator first."""
    calls = []
    vanishes_at = poly.Polynomial.vanishes_at

    def counting(self, point):
        calls.append(point)
        return vanishes_at(self, point)

    monkeypatch.setattr(poly.Polynomial, "vanishes_at", counting)
    report, code = run_command("check-srf", str(SCENES / "order_3_n3.json"))
    assert code == 1 and report["verdict"] == "fail"
    assert len(calls) == 1224
