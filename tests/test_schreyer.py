"""Schreyer syzygies over a module basis, against the tagged construction.

``syzygy_basis`` builds the relations among the inputs from the reduced basis
and its representation rows.  ``oracle.reference_syzygies`` computes the same
module by a second Groebner basis in a larger rank, sharing no pair loop with
it.  The two generating sets differ; the modules, and every point report read
from them, must not.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk import (
    FoliationModule,
    ModuleElement,
    Polynomial,
    VariableSet,
    fiber_dim,
    isotropy_algebra,
    module_groebner,
    module_membership,
    syzygy_basis,
)
from foliatk.errors import FoliatkError, InternalCheckError
from foliatk.groebner import GroebnerBasis
from foliatk.poly import BLOCK, random_polynomial
from foliatk.scene import load_scene

from conftest import FOLIATIONS, P, SCENES
from oracle import reference_syzygies, reference_syzygy_basis
from test_foliation import order_k_module

R1 = VariableSet(("x",))
R2 = VariableSet(("x", "y"))
R3 = VariableSet(("x", "y", "z"))


def _me(chart, *exprs):
    return ModuleElement(chart, tuple(P(e, chart) for e in exprs))


def _unit(chart, n, i):
    return ModuleElement(chart, tuple(
        Polynomial.constant(chart, 1 if j == i else 0) for j in range(n)))


def _assert_syzygies(rows, gens):
    for row in rows:
        assert row.rank == len(gens)
        acc = ModuleElement.zero(gens[0].varset, gens[0].rank)
        for c, g in zip(row.components, gens):
            acc = acc + g.scale_by(c)
        assert acc.is_zero()


def _assert_same_module(a, b):
    for rows, other in ((a, b), (b, a)):
        gb = module_groebner(other)
        for row in rows:
            assert module_membership(row, gb).claim_holds


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FoliatkError as exc:
        return type(exc), str(exc)


def _check_against_reference(fol, points):
    rows = fol.syzygies
    reference = reference_syzygies(fol.elements())
    _assert_syzygies(rows, fol.elements())
    _assert_same_module(rows, reference)
    other = FoliationModule(fol.chart, fol.generators)
    other.syzygies = tuple(reference)
    for point in points:
        assert fiber_dim(other, point) == fiber_dim(fol, point)
        assert _outcome(isotropy_algebra, other, point) == _outcome(isotropy_algebra, fol, point)


# -- the oracle on every shipped foliation and on the ladder ---------------------

@pytest.mark.parametrize("name,key", FOLIATIONS)
def test_schreyer_matches_the_tagged_construction_on_scenes(name, key):
    scene = load_scene(SCENES / f"{name}.json")
    fol = getattr(scene, key)
    n = fol.chart.dimension
    points = [(0,) * n, tuple(Fraction(i + 1, 2) for i in range(n))]
    if key in ("foliation", "foliation_b"):
        points += list(scene.points.values())
    _check_against_reference(fol, points)


@pytest.mark.parametrize("n,k", [(2, 3), (3, 2), (3, 3)])
def test_schreyer_matches_the_tagged_construction_on_the_ladder(n, k):
    chart = VariableSet(("x", "y", "z")[:n])
    regular = tuple(Fraction(v) for v in ("-2", "1/2", "3/2")[:n])
    _check_against_reference(order_k_module(k, chart), [(0,) * n, regular])


# -- random modules --------------------------------------------------------------


def _random_module(rnd, rank):
    chart = rnd.choice((R2, R3)) if rank == 1 else R2
    gens = []
    while len(gens) < rnd.choice((2, 3)):
        comps = tuple(random_polynomial(rnd, chart, max_base_degree=2, terms=rnd.choice((2, 3)))
                      for _ in range(rank))
        if any(len(c.terms) > 1 for c in comps):  # keep the reduced basis off the inputs
            gens.append(ModuleElement(chart, comps))
    gens.insert(rnd.randrange(len(gens) + 1), rnd.choice(gens))
    zero_at = rnd.randrange(len(gens) + 1)
    gens.insert(zero_at, ModuleElement.zero(chart, rank))
    return gens, zero_at


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_schreyer_generates_the_relations_of_random_modules(seed, rank):
    gens, zero_at = _random_module(random.Random(seed), rank)
    rows = syzygy_basis(gens)
    _assert_syzygies(rows, gens)
    _assert_same_module(rows, reference_syzygies(gens))
    assert _unit(gens[0].varset, len(gens), zero_at) in rows


def _module_with_unit_inputs(rnd, rank):
    """Random elements, about half of them single terms with a coefficient, and
    a unit multiple of one of them: some inputs are basis elements up to a
    unit, and some are not."""
    chart = rnd.choice((R2, R3)) if rank == 1 else R2
    zero = Polynomial.zero(chart)
    gens = []
    for _ in range(rnd.randint(2, 4)):
        if rnd.random() < 0.5:
            comps = [zero] * rank
            expo = tuple(rnd.randint(0, 2) for _ in range(chart.n_vars))
            comps[rnd.randrange(rank)] = Polynomial.monomial(chart, expo, rnd.choice((1, 2, -3)))
        else:
            comps = [random_polynomial(rnd, chart, max_base_degree=2, terms=rnd.choice((1, 2)))
                     for _ in range(rank)]
        gens.append(ModuleElement(chart, tuple(comps)))
    unit = Polynomial.constant(chart, rnd.choice((2, -1, Fraction(1, 3))))
    gens.insert(rnd.randrange(len(gens) + 1), rnd.choice(gens).scale_by(unit))
    return gens


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_skipping_unit_inputs_keeps_the_relations(seed, rank):
    gens = _module_with_unit_inputs(random.Random(seed), rank)
    rows, reference = syzygy_basis(gens), reference_syzygy_basis(gens)
    _assert_syzygies(rows, gens)
    _assert_same_module(rows, reference)
    assert rows == reference  # each skipped relation was zero


@pytest.mark.parametrize("k, n", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
def test_single_term_pairs_give_the_divided_relations_on_order_k_modules(k, n):
    # every element of an order-k module is a single term: no pair's S-vector
    # is formed, and the rows are those of dividing each zero S-vector
    chart = VariableSet(tuple("xyz"[:n]))
    gens = order_k_module(k, chart).elements()
    rows = syzygy_basis(gens)
    assert rows == reference_syzygy_basis(gens)
    _assert_syzygies(rows, gens)


def test_an_input_that_is_a_basis_element_up_to_a_unit_is_not_divided(monkeypatch):
    # G = (x e_1, y e_2) with rows {0: 1/2} and {1: 1}: only x e_1 is divided
    gens = [_me(R2, "2*x", "0"), _me(R2, "0", "y"), _me(R2, "x", "0")]
    gb = module_groebner(gens)
    divided = []
    divide = GroebnerBasis.divide
    monkeypatch.setattr(GroebnerBasis, "divide", lambda self, v: divided.append(v) or divide(self, v))
    assert syzygy_basis(gb) == [_me(R2, "-1/2", "0", "1")]
    assert divided == [gens[2]]


def test_coprime_rank_one_pair_gives_its_koszul_syzygy():
    rows = syzygy_basis([_me(R2, "x"), _me(R2, "y")])
    assert _me(R2, "y", "-x") in rows or _me(R2, "-y", "x") in rows


@pytest.mark.parametrize("exprs", [
    ("x*z", "y*z", "x*y"),            # each pair's lcm is xyz, so no pair is redundant
    ("x^2", "x*y", "y^2"),            # the outer pair is redundant
    ("2*x*z + y", "3*y*z", "x*y - z"),
])
def test_chain_rule_keeps_the_relations_of_rank_one_modules(exprs):
    gens = [_me(R3, e) for e in exprs]
    rows = syzygy_basis(gens)
    _assert_syzygies(rows, gens)
    _assert_same_module(rows, reference_syzygies(gens))


def test_all_zero_and_empty_inputs():
    zero = ModuleElement.zero(R2, 2)
    assert syzygy_basis([zero, zero]) == [_unit(R2, 2, 0), _unit(R2, 2, 1)]
    assert syzygy_basis([]) == []


def test_a_basis_and_its_inputs_give_the_same_rows():
    gens = [_me(R2, "x*y + 1", "y"), _me(R2, "2*x", "x^2 - y"), _me(R2, "y^2", "3")]
    assert syzygy_basis(module_groebner(gens)) == syzygy_basis(gens, BLOCK)


def test_a_basis_that_misses_an_input_is_an_internal_error():
    gens = (_me(R1, "x"), _me(R1, "x + 1"))
    bogus = GroebnerBasis(gens, gens[:1], BLOCK, ({0: Polynomial.constant(R1, 1)},))
    with pytest.raises(InternalCheckError):
        syzygy_basis(bogus)
