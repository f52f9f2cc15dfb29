"""The sparse Groebner engine: clean results, the divisor lead index, dense public views."""

import itertools
import random
from fractions import Fraction

import pytest

from foliatk import (
    ModuleElement,
    Polynomial,
    VariableSet,
    buchberger,
    ideal_membership,
    module_groebner,
    module_membership,
    normal_form_with_cofactors,
    syzygy_basis,
)
from foliatk.groebner import module_divide
from foliatk.poly import BLOCK, GREVLEX, LEX, random_polynomial

from conftest import P

R2 = VariableSet(("x", "y"))
R3 = VariableSet(("x", "y", "z"))
COT2 = R2.cotangent()


def _random_module(seed, rank):
    rnd = random.Random(4200 + 10 * rank + seed)
    gens = []
    for _ in range(rnd.choice((2, 3))):
        gens.append(ModuleElement(R2, tuple(
            random_polynomial(rnd, R2, max_base_degree=2, terms=rnd.choice((1, 2)))
            for _ in range(rank))))
    return gens


def _order_module(chart, k):
    """Degree-k monomials times every coordinate direction, as in the size ladder."""
    n = chart.dimension
    zero = Polynomial.zero(chart)
    gens = []
    for combo in itertools.combinations_with_replacement(range(n), k):
        mono = [0] * n
        for i in combo:
            mono[i] += 1
        for d in range(n):
            comps = [zero] * n
            comps[d] = Polynomial.monomial(chart, tuple(mono))
            gens.append(ModuleElement(chart, tuple(comps)))
    return gens


MODULES = [f"rank{rank}-seed{seed}" for rank in (1, 2, 3) for seed in range(4)] + ["ladder-3-2"]


def _module(name):
    if name == "ladder-3-2":
        return _order_module(R3, 2)
    rank, seed = name.removeprefix("rank").split("-seed")
    return _random_module(int(seed), int(rank))


def _assert_clean(p):
    assert p == Polynomial(p.varset, p.terms)
    width = p.varset.n_vars
    for expo, coeff in p.terms.items():
        # normal form: an int when integral, else a Fraction with denominator > 1
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)
        assert coeff != 0
        assert type(expo) is tuple and len(expo) == width
        assert all(type(e) is int and e >= 0 for e in expo)


def _assert_element_clean(v):
    for c in v.components:
        _assert_clean(c)


@pytest.mark.parametrize("name", MODULES)
def test_engine_results_are_clean_polynomials(name):
    gens = _module(name)
    gb = module_groebner(gens)
    for g in gb.generators:
        _assert_element_clean(g)
    for row in gb.rows:
        for c in row.values():
            _assert_clean(c)
    for s in syzygy_basis(gens):
        _assert_element_clean(s)
    rnd = random.Random(name)
    chart, rank = gens[0].varset, gens[0].rank
    targets = [gens[0].scale_by(P("x + 1", chart)) + gens[-1],
               ModuleElement(chart, tuple(random_polynomial(rnd, chart, max_base_degree=2)
                                          for _ in range(rank)))]
    for target in targets:
        cert = module_membership(target, gb)
        for c in cert.cofactors:
            _assert_clean(c)
        _assert_element_clean(cert.remainder)
        assert cert.verify(target)


@pytest.mark.parametrize("name", MODULES)
def test_representation_is_the_dense_view_of_the_sparse_rows(name):
    gens = _module(name)
    gb = module_groebner(gens)
    chart, rank = gens[0].varset, gens[0].rank
    assert len(gb.representation) == len(gb.rows) == len(gb.generators)
    for elem, row, dense in zip(gb.generators, gb.rows, gb.representation):
        assert len(dense) == len(gens)
        assert all(c.terms for c in row.values())
        assert all(dense[i] == row.get(i, Polynomial.zero(chart)) for i in range(len(gens)))
        acc = ModuleElement.zero(chart, rank)
        for c, g in zip(dense, gens):
            acc = acc + g.scale_by(c)
        assert acc == elem
    cert = module_membership(gens[-1].scale_by(P("y", chart)), gb)
    assert isinstance(cert.cofactors, tuple) and len(cert.cofactors) == len(gens)
    assert all(isinstance(c, Polynomial) for c in cert.cofactors)


def test_ideal_certificates_are_dense():
    gens = [P("x*p_x + y*p_y", COT2), P("x*p_y - y*p_x", COT2), P("0", COT2)]
    gb = buchberger(gens, BLOCK)
    assert all(len(row) == len(gens) for row in gb.representation)
    target = P("(x^2 + 1)*(x*p_y - y*p_x)", COT2)
    cert = ideal_membership(target, gb)
    assert len(cert.cofactors) == len(gens) and cert.cofactors[2].is_zero()
    assert cert.claim_holds and cert.verify(target)
    nf = normal_form_with_cofactors(target, gb)
    assert len(nf.cofactors) == len(gb.generators) and nf.verify(target)


def test_division_uses_the_first_dividing_divisor_at_the_terms_position():
    zero, one = Polynomial.zero(R2), Polynomial.constant(R2, 1)
    x, y = P("x", R2), P("y", R2)
    late = ModuleElement(R2, (zero, one))  # leads at position 1; its lead 1 divides any term
    by_x = ModuleElement(R2, (x, one))
    by_y = ModuleElement(R2, (y, zero))
    v = ModuleElement(R2, (P("x*y + 1", R2), zero))
    for divisors, cofactor in (([late, by_x, by_y], y), ([late, by_y, by_x], x)):
        cofactors, r = module_divide(v, divisors, GREVLEX)
        # x*y: both position-0 divisors divide it, and the first of them takes it
        assert cofactors[1] == cofactor and 2 not in cofactors
        # the constant 1 at position 0 stays: ``late`` leads at position 1
        assert r == ModuleElement(R2, (one, zero))
        assert list(cofactors) == sorted(cofactors)
        acc = r
        for i, c in cofactors.items():
            acc = acc + divisors[i].scale_by(c)
        assert acc == v
    # with by_x first, its tail 1 lands at position 1 and ``late`` reduces it
    cofactors, _ = module_divide(v, [late, by_x, by_y], GREVLEX)
    assert cofactors[0] == -y


def test_zero_divisors_take_no_cofactor():
    zero = Polynomial.zero(R2)
    v = ModuleElement(R2, (P("x^2", R2),))
    cofactors, r = module_divide(v, [ModuleElement(R2, (zero,)), ModuleElement(R2, (P("x", R2),))],
                                 GREVLEX)
    assert cofactors == {1: P("x", R2)} and r.is_zero()


def test_cached_leads_follow_the_order():
    p = P("x + y^2", R2)
    assert p.leading(GREVLEX.key_function(R2)) == ((0, 2), 1)
    assert p.leading(LEX.key_function(R2)) == ((1, 0), 1)
    assert p.leading(GREVLEX.key_function(R2)) == ((0, 2), 1)
    assert GREVLEX.key_function(R2) is GREVLEX.key_function(R3)
    assert BLOCK.key_function(COT2) is BLOCK.key_function(COT2)
    assert BLOCK.key_function(COT2) is not BLOCK.key_function(R3.cotangent())
