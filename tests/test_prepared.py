"""Prepared values: a basis owns its divisor table, a polynomial its partials,
and every sum of products, ``*`` included, is one product-sum.  Each must
agree exactly with the per-call reference in ``oracle.py``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk import Polynomial, VariableSet
from foliatk.cli import _cert_dicts
from foliatk.errors import VariableSetError
from foliatk.geometry import (MetricData, SymTensor2, VectorField, canonical_poisson, hamiltonian,
                              lie_bracket, sym_tensor_lift)
from foliatk.groebner import (DivisorTable, ModuleElement, _monic, buchberger, ideal_membership,
                              module_divide, module_groebner, module_membership, normal_form_with_cofactors)
from foliatk.linalg import poly_adjugate, poly_det
from foliatk.poly import BLOCK, GREVLEX, LEX, sum_of_products
from foliatk.scene import load_scene

from conftest import SCENES
from oracle import (reference_apply, reference_canonical_poisson, reference_diff,
                    reference_hamiltonian, reference_lie_bracket, reference_module_divide,
                    reference_mul, reference_poly_adjugate, reference_poly_det,
                    reference_poly_mat_mul, reference_sum_of_products, reference_sym_tensor_lift)

R2 = VariableSet(("x", "y"))
R3 = VariableSet(("u", "v", "w"))
COT2 = R2.cotangent()

POOL = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))
ORDERS = st.sampled_from((BLOCK, GREVLEX, LEX))


def polys(varset, max_exp=2, max_terms=3):
    expo = st.tuples(*[st.integers(0, max_exp)] * varset.n_vars)
    return st.dictionaries(expo, st.sampled_from(POOL), max_size=max_terms).map(
        lambda terms: Polynomial(varset, terms))


def elements(rank):
    return st.tuples(*[polys(R2)] * rank).map(lambda comps: ModuleElement(R2, comps))


# a module of rank 1-3: up to three generators and one element to divide
modules = st.integers(1, 3).flatmap(
    lambda r: st.tuples(st.lists(elements(r), min_size=1, max_size=3), elements(r)))
fields = st.tuples(polys(R2), polys(R2)).map(lambda comps: VectorField(R2, comps))


def _same(got, want):
    (gc, gr), (wc, wr) = got, want
    assert list(gc) == list(wc)  # the same cofactor keys, in the same order
    assert gc == wc
    assert gr == wr


# ---------------------------------------------------------------------------
# division through a table equals the reference division


@settings(max_examples=60, deadline=None)
@given(modules, ORDERS)
def test_plain_list_division_matches_reference(case, order):
    gens, v = case
    want = reference_module_divide(v, gens, order)
    _same(module_divide(v, gens, order), want)
    _same(module_divide(v, DivisorTable(gens, order), order), want)


# one table divides a list of elements, grows, and divides them again: the
# second round must not reuse what the first found before the table grew
growing = st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.lists(elements(r), max_size=2), st.lists(elements(r), min_size=1, max_size=2),
    st.lists(elements(r), min_size=1, max_size=4)))


@settings(max_examples=80, deadline=None)
@given(growing, ORDERS)
def test_a_table_that_grows_divides_as_its_current_elements(case, order):
    first, appended, dividends = case
    # the dividends share terms: each sum meets the exponents of two of them
    dividends = dividends + [a + b for a, b in zip(dividends, dividends[1:])]
    table = DivisorTable(first, order)
    for d in [None, *appended]:
        if d is not None:
            table.append(d)
        for v in dividends:
            _same(module_divide(v, table, order),
                  reference_module_divide(v, table.elements, order))


@settings(max_examples=40, deadline=None)
@given(modules)
def test_module_basis_division_matches_reference(case):
    gens, v = case
    gb = module_groebner(gens)
    want = reference_module_divide(v, gb.generators, gb.order)
    _same(gb.divide(v), want)
    _same(module_divide(v, gb.table, gb.order), want)
    cert = module_membership(v, gb)
    assert cert.verify(v) and cert.remainder == want[1]


@settings(max_examples=40, deadline=None)
@given(st.lists(polys(COT2, max_exp=1), min_size=1, max_size=3), polys(COT2), ORDERS)
def test_ideal_basis_division_matches_reference(gens, f, order):
    gb = buchberger(gens, order)
    rank_one = [ModuleElement(COT2, (g,)) for g in gb.generators]
    cofactors, remainder = reference_module_divide(ModuleElement(COT2, (f,)), rank_one, order)
    _same(gb.divide(f), (cofactors, remainder.components[0]))
    assert gb.normal_form(f) == remainder.components[0]
    nf = normal_form_with_cofactors(f, gb)
    assert nf.row == cofactors and nf.verify(f)
    assert ideal_membership(f, gb).verify(f)


# ---------------------------------------------------------------------------
# partials and brackets equal the references


@settings(max_examples=80, deadline=None)
@given(polys(COT2, max_terms=5))
def test_partials_match_reference(f):
    parts = f.partials()
    assert parts is f.partials()  # built once, then read from the slot
    assert parts == tuple(reference_diff(f, name) for name in COT2.names)
    assert all(f.diff(name) is parts[i] for i, name in enumerate(COT2.names))


@settings(max_examples=80, deadline=None)
@given(polys(COT2, max_terms=5), polys(COT2, max_terms=5))
def test_canonical_poisson_matches_reference(f, g):
    assert canonical_poisson(f, g) == reference_canonical_poisson(f, g)


# the shape of the benchmark ladder's fields: R^3, exactly one nonzero component
single_fields = st.tuples(st.integers(0, 2), polys(R3).filter(bool)).map(
    lambda ic: VectorField(R3, tuple(ic[1] if j == ic[0] else Polynomial.zero(R3)
                                     for j in range(3))))


@settings(max_examples=120, deadline=None)
@given(st.tuples(fields, fields, polys(R2)) | st.tuples(single_fields, single_fields, polys(R3)))
def test_lie_bracket_and_apply_match_reference(case):
    x, y, f = case
    got = lie_bracket(x, y)
    # the bracket sums over nonzero components and builds no zero one's partials
    assert not any(hasattr(c, "_partials") for c in x.components + y.components if not c)
    assert got == reference_lie_bracket(x, y)
    assert x.apply(f) == reference_apply(x, f)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(polys(R2), polys(R2)), max_size=3),
       st.lists(st.tuples(polys(R2), polys(R2)), max_size=3))
def test_sum_of_products_is_the_polynomial_sum(plus, minus):
    assert sum_of_products(R2, plus, minus) == reference_sum_of_products(R2, plus, minus)


def test_sum_of_products_refuses_a_factor_on_another_chart():
    x, u = Polynomial.variable(R2, "x"), Polynomial.variable(R3, "u")
    with pytest.raises(VariableSetError):
        sum_of_products(R2, [(x, u)])
    # a pair with a zero factor is skipped before any check
    assert sum_of_products(R2, [(Polynomial.zero(R3), u)]).is_zero()


# ---------------------------------------------------------------------------
# products: ``*`` and every matrix sum go through the kernel and equal the
# reference product loop


CHARTS = {1: VariableSet(("t",)), 2: R2, 3: R3}


def symmetric(n):
    """An n x n symmetric matrix of polynomials on the chart of dimension n."""
    return st.lists(polys(CHARTS[n]), min_size=n * n, max_size=n * n).map(
        lambda es: tuple(tuple(es[min(i, j) * n + max(i, j)] for j in range(n))
                         for i in range(n)))


@settings(max_examples=80, deadline=None)
@given(polys(COT2, max_terms=5), polys(COT2, max_terms=5), st.sampled_from(POOL))
def test_product_matches_the_reference_loop_in_term_order(a, b, c):
    const = Polynomial.constant(COT2, c)
    for got, want in ((a * b, reference_mul(a, b)), (b * a, reference_mul(b, a)),
                      (a * c, reference_mul(a, const)), (c * a, reference_mul(a, const))):
        assert got == want
        assert list(got.terms) == list(want.terms)  # flow kernels sum in term order


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    *[st.lists(polys(R2), min_size=n, max_size=n)] * n)))
def test_det_adjugate_and_matrix_product_match_the_references(m):
    assert poly_det(m) == reference_poly_det(m)
    assert poly_adjugate(m) == reference_poly_adjugate(m)
    columns = list(zip(*m))
    assert ([[sum_of_products(R2, zip(row, col)) for col in columns] for row in m]
            == reference_poly_mat_mul(m, m))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(symmetric))
def test_tensor_lift_and_hamiltonian_keep_the_reference_term_order(entries):
    chart = entries[0][0].varset
    s = SymTensor2(chart, "contravariant", entries)
    got, want = sym_tensor_lift(s), reference_sym_tensor_lift(s)
    assert got == want and list(got.terms) == list(want.terms)
    # the same entries off the origin plus the identity: positive-definite there
    n, origin = chart.dimension, (0,) * chart.n_vars
    cometric = SymTensor2(chart, "contravariant", tuple(
        tuple(Polynomial(chart, {e: c for e, c in entries[i][j].terms.items() if e != origin})
              + (1 if i == j else 0) for j in range(n)) for i in range(n)))
    metric = MetricData(cometric)
    got, want = hamiltonian(metric), reference_hamiltonian(metric)
    assert got == want and list(got.terms) == list(want.terms)


@pytest.mark.parametrize("path", sorted(SCENES.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_hamiltonians_keep_the_reference_term_order(path):
    metric = load_scene(path).metric
    got, want = hamiltonian(metric), reference_hamiltonian(metric)
    assert got == want and list(got.terms) == list(want.terms)


# ---------------------------------------------------------------------------
# counting and guards


def _counting_leading(monkeypatch):
    calls = []
    original = Polynomial.leading

    def leading(self, keyf):
        calls.append(self)
        return original(self, keyf)

    monkeypatch.setattr(Polynomial, "leading", leading)
    return calls


def _order_2_module():
    x, y = Polynomial.variable(R2, "x"), Polynomial.variable(R2, "y")
    zero = Polynomial.zero(R2)
    monos = (x * x, x * y, y * y)
    gens = [VectorField(R2, (m, zero)) for m in monos] + [VectorField(R2, (zero, m)) for m in monos]
    return gens, x, y


def test_module_basis_reads_each_lead_once(monkeypatch):
    gens, x, y = _order_2_module()
    gb = module_groebner(gens)
    calls = _counting_leading(monkeypatch)
    brackets = [lie_bracket(a, b) for a in gens for b in gens]
    module_membership(brackets[0], gb)
    first = len(calls)
    assert first == len(gb.generators)
    for v in brackets[1:]:
        assert module_membership(v, gb).claim_holds
    assert len(calls) == first


def test_ideal_basis_reads_each_lead_once(monkeypatch):
    p = [Polynomial.variable(COT2, n) for n in COT2.names]
    gb = buchberger([p[0] * p[2], p[1] * p[3], p[0] * p[3] + p[1] * p[2]])
    calls = _counting_leading(monkeypatch)
    ideal_membership(p[0] * p[0] * p[2], gb)
    first = len(calls)
    assert first == len(gb.generators)
    for f in (p[0] * p[1] * p[3], p[2] * p[3], p[0] + p[1]):
        ideal_membership(f, gb)
    assert len(calls) == first


def test_prepared_table_refuses_other_chart_or_rank():
    gens, x, y = _order_2_module()
    gb = module_groebner(gens)
    wrong_rank = ModuleElement(R2, (x, y, x))
    other_chart = ModuleElement(R3, (Polynomial.variable(R3, "u"),) * 2)
    for v in (wrong_rank, other_chart):
        with pytest.raises(VariableSetError):
            gb.divide(v)
        with pytest.raises(VariableSetError):
            module_divide(v, gb.table, gb.order)
    ideal = buchberger([Polynomial.variable(COT2, "p_x")])
    with pytest.raises(VariableSetError):
        ideal.divide(Polynomial.variable(R2, "x"))
    with pytest.raises(VariableSetError):
        DivisorTable([gens[0], wrong_rank], BLOCK)
    with pytest.raises(ValueError):
        module_divide(gens[0], gb.table, GREVLEX)


def test_empty_table_leaves_everything_in_the_remainder():
    v = ModuleElement(R3, (Polynomial.variable(R3, "u"),))
    cofactors, r = module_divide(v, DivisorTable([], BLOCK), BLOCK)
    assert cofactors == {} and r == v


def test_monic_with_unit_inverse_returns_the_same_objects():
    x, y = Polynomial.variable(R2, "x"), Polynomial.variable(R2, "y")
    keyf = BLOCK.key_function(R2)
    r, rep = ModuleElement(R2, (x + y, y)), {0: x}
    out_r, out_rep = _monic(r, rep, keyf)
    assert out_r is r and out_rep is rep
    r2 = ModuleElement(R2, (x.scale(3) + y, y))
    out_r, out_rep = _monic(r2, rep, keyf)
    assert out_r.leading(keyf)[1] == 1 and out_r.scale_by(Polynomial.constant(R2, 3)) == r2
    assert out_rep == {0: x.scale(Fraction(1, 3))}


def test_certificate_keeps_the_nonzero_row_and_renders_every_cofactor():
    p = [Polynomial.variable(COT2, n) for n in COT2.names]
    gb = buchberger([p[0], p[1], p[2] * p[3]])
    cert = ideal_membership(p[1] * p[3], gb)
    assert set(cert.row) == {1} and all(c.terms for c in cert.row.values())
    assert cert.cofactors is cert.cofactors  # the dense view is built once
    assert [str(c) for c in cert.cofactors] == ["0", "p_y", "0"]
    assert cert.verify(p[1] * p[3])
    (entry,) = _cert_dicts([("claim", cert)])
    assert entry["cofactors"] == ["0", "p_y", "0"]


def test_zero_remainders_share_one_formatted_value_per_generator_list():
    x, y = Polynomial.variable(R2, "x"), Polynomial.variable(R2, "y")
    zero, one = Polynomial.zero(R2), Polynomial.constant(R2, 1)
    gb = module_groebner([ModuleElement(R2, (x, zero)), ModuleElement(R2, (zero, y))])
    targets = [(x * y, zero), (one, y), (zero, y * y)]
    out = _cert_dicts([(str(i), module_membership(ModuleElement(R2, t), gb))
                       for i, t in enumerate(targets)])
    assert [entry["holds"] for entry in out] == [True, False, True]
    assert out[0]["remainder"] == ["0", "0"] and out[0]["remainder"] is out[2]["remainder"]
    assert out[1]["remainder"] == ["1", "0"]
    assert out[0]["generators"] is out[1]["generators"] is out[2]["generators"]
