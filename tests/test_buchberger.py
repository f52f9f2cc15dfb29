"""The Buchberger loop and the syzygy pair loop against their references in
``oracle.py``: the same basis, the same rows, and the same syzygies, for
ideals and rank-2 modules under every order.  Every row the engine gives,
and every certificate's row, lists its indices in increasing order."""

from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliatk import VariableSet, groebner
from foliatk.groebner import (GroebnerBasis, ModuleElement, _buchberger, ideal_membership,
                              module_membership, syzygy_basis)
from foliatk.poly import BLOCK, GREVLEX, LEX, Polynomial
from foliatk.scene import load_scene

from oracle import reference_buchberger, reference_syzygy_basis

SCENES = Path(__file__).resolve().parents[1] / "scenes"
R2 = VariableSet(("x", "y"))
R3 = VariableSet(("x", "y", "z"))
POOL = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
ORDERS = st.sampled_from((BLOCK, GREVLEX, LEX))


def _element(chart, rank, terms_at):
    """A rank-``rank`` element with the term maps ``terms_at`` by position."""
    return ModuleElement(chart, tuple(Polynomial(chart, terms_at.get(pos, {}))
                                      for pos in range(rank)))


def generator_lists(chart, rank):
    exponents = st.tuples(*[st.integers(0, 2)] * chart.n_vars)
    single = st.tuples(st.integers(0, rank - 1), exponents, st.sampled_from(POOL)).map(
        lambda t: _element(chart, rank, {t[0]: {t[1]: t[2]}}))
    terms = st.dictionaries(exponents, st.sampled_from(POOL), max_size=3)
    multi = st.tuples(*[terms] * rank).map(
        lambda maps: _element(chart, rank, dict(enumerate(maps))))
    return st.lists(st.one_of(single, multi), min_size=1, max_size=4)


# ideals and rank-2 modules on two variables; ideals on three, where the
# syzygy chain rule can drop a pair that it cannot drop on two
cases = st.sampled_from(((R2, 1), (R2, 2), (R3, 1))).flatmap(lambda c: generator_lists(*c))


def _increasing(row):
    return list(row) == sorted(row)


def _monomials(*exponents):
    return [_element(R3, 1, {0: {e: 1}}) for e in exponents]


# The syzygy chain rule keeps a pair when a third lead divides its lcm but
# shares it with either side: x^2 y divides lcm(x^2 z, y z^2) and
# lcm(y z^2, x^2 y) equals it; on the other side, y z^2 divides
# lcm(x z^2, x y^2) and lcm(x z^2, y z^2) does not, but lcm(x y^2, y z^2) does.
CHAIN_SECOND_SIDE = _monomials((2, 0, 1), (0, 1, 2), (2, 1, 0))
CHAIN_FIRST_SIDE = _monomials((0, 1, 2), (1, 0, 2), (1, 2, 0))


@settings(max_examples=120, deadline=None)
@given(cases, ORDERS)
@example(CHAIN_SECOND_SIDE, BLOCK)
@example(CHAIN_FIRST_SIDE, BLOCK)
def test_basis_rows_and_syzygies_match_the_reference(gens, order):
    gens = tuple(gens)
    basis, rows = _buchberger(gens, order)
    ref_basis, ref_rows = reference_buchberger(gens, order)
    assert basis == ref_basis
    assert rows == ref_rows  # as {index: Polynomial} maps
    assert all(_increasing(row) for row in rows)
    for b, rb in zip(basis, ref_basis):  # terms in the same order, lead first
        assert [list(c.terms) for c in b.components] == [list(c.terms) for c in rb.components]
    gb = GroebnerBasis(gens, basis, order, rows)  # an ideal as a rank-1 module
    assert syzygy_basis(gb) == reference_syzygy_basis(gb)
    # a certificate composes rows over every input: x^i g_i summed
    chart = gens[0].varset
    target = sum((g.scale_by(Polynomial.monomial(chart, (i,) + (0,) * (chart.n_vars - 1), 1))
                  for i, g in enumerate(gens[1:], 1)), gens[0])
    cert = module_membership(target, gb)
    assert cert.claim_holds and cert.verify(target) and _increasing(cert.row)
    if target.rank == 1:
        cert = ideal_membership(target.components[0],
                                GroebnerBasis(tuple(g.components[0] for g in gens),
                                              tuple(b.components[0] for b in basis), order, rows))
        assert cert.claim_holds and cert.verify(target.components[0]) and _increasing(cert.row)


def test_ladder_module_builds_one_reduction_table_and_divides_no_s_pair(monkeypatch):
    """On the (3,3) ladder module every generator is a single term, so every
    S-vector is zero and no pair is divided; the inter-reduction divides each
    kept element's tail through one table."""
    gens = tuple(load_scene(SCENES / "order_3_n3.json").foliation.generators)
    tables, divided = [], []
    init, divide = groebner.DivisorTable.__init__, groebner.module_divide

    def counting_init(self, divisors, order):
        tables.append(len(divisors))
        init(self, divisors, order)

    def counting_divide(v, divisors, order):
        divided.append(v)
        return divide(v, divisors, order)

    monkeypatch.setattr(groebner.DivisorTable, "__init__", counting_init)
    monkeypatch.setattr(groebner, "module_divide", counting_divide)
    basis, _ = _buchberger(gens, BLOCK)
    assert len(basis) == len(gens) == 30
    # the input's table, then the kept elements' table
    assert tables == [30, 30]
    # one tail division per kept element and none per S-pair
    assert len(divided) == len(basis)
