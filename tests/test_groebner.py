import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk import (
    CheckResult,
    ModuleElement,
    Polynomial,
    VariableSet,
    buchberger,
    canonical_poisson,
    ideal_membership,
    module_membership,
    normal_form_with_cofactors,
    syzygy_basis,
)
from foliatk.groebner import check_claims
from foliatk.poly import BLOCK, GREVLEX, LEX, random_polynomial

from conftest import P

COT2 = VariableSet(("x", "y")).cotangent()
R2 = VariableSet(("x", "y"))
SO3 = VariableSet(("q1", "q2", "q3"))
SO3_COT = SO3.cotangent()


def test_single_generator_is_its_own_basis():
    g = P("x*p_x + y*p_y", COT2)
    gb = buchberger([g], BLOCK)
    assert gb.generators == (g,)


def test_two_variables_under_lex():
    gb = buchberger([P("x", COT2), P("y", COT2)], LEX)
    assert set(gb.generators) == {P("x", COT2), P("y", COT2)}


def test_so3_lift_basis_contains_all_brackets():
    gens = [
        P("q1*p_q2 - q2*p_q1", SO3_COT),
        P("q1*p_q3 - q3*p_q1", SO3_COT),
        P("q2*p_q3 - q3*p_q2", SO3_COT),
    ]
    gb = buchberger(gens, BLOCK)
    for i in range(3):
        for j in range(3):
            bracket = canonical_poisson(gens[i], gens[j])
            assert gb.normal_form(bracket).is_zero()


def test_normal_form_detects_non_membership():
    gb = buchberger([P("x*p_x + y*p_y", COT2)], BLOCK)
    cert = normal_form_with_cofactors(P("p_x^2 + p_y^2", COT2), gb)
    assert not cert.claim_holds
    # the generator vanishes identically at x=y=0 while the remainder does not
    assert cert.remainder.evaluate(
        {"x": 0, "y": 0, "p_x": 1, "p_y": 0}
    ) != 0


def test_normal_form_with_exact_multiple():
    gb = buchberger([P("x*p_x + y*p_y", COT2)], BLOCK)
    cert = normal_form_with_cofactors(P("(x^2+1)*(x*p_x + y*p_y)", COT2), gb)
    assert cert.claim_holds
    assert cert.cofactors == (P("x^2 + 1", COT2),)


def test_normal_form_of_zero():
    gb = buchberger([P("x*p_x + y*p_y", COT2)], BLOCK)
    cert = normal_form_with_cofactors(Polynomial.zero(COT2), gb)
    assert cert.claim_holds
    assert all(c.is_zero() for c in cert.cofactors)


def test_empty_input_gives_zero_ideal_basis():
    gb = buchberger([], BLOCK)
    assert gb.generators == ()
    f = P("x", COT2)
    cert = ideal_membership(f, gb)
    assert not cert.claim_holds and cert.remainder == f


# -- module layer ------------------------------------------------------------


def _me(varset, *exprs):
    return ModuleElement(varset, tuple(P(e, varset) for e in exprs))


def test_module_membership_degree_obstruction():
    v = _me(R2, "x", "0")
    cert = module_membership(v, [_me(R2, "x^2", "0")])
    assert not cert.claim_holds


def test_module_membership_of_generator_itself():
    gen = _me(R2, "x*y + 1", "y^2")
    cert = module_membership(gen, [gen])
    assert cert.claim_holds
    assert cert.cofactors == (Polynomial.constant(R2, 1),)


def test_so3_bracket_reexpression():
    gens = [
        _me(SO3, "-q2", "q1", "0"),
        _me(SO3, "-q3", "0", "q1"),
        _me(SO3, "0", "-q3", "q2"),
    ]
    # [X12, X13] = -X23 as vector fields on R^3
    bracket = _me(SO3, "0", "q3", "-q2")
    cert = module_membership(bracket, gens)
    assert cert.claim_holds
    assert [str(c) for c in cert.cofactors] == ["0", "0", "-1"]


def test_syzygy_of_principal_module_is_empty():
    for k in (1, 2, 3):
        assert syzygy_basis([_me(VariableSet(("x",)), f"x^{k}")]) == []


def test_so3_syzygy():
    gens = [
        _me(SO3, "-q2", "q1", "0"),
        _me(SO3, "-q3", "0", "q1"),
        _me(SO3, "0", "-q3", "q2"),
    ]
    rows = syzygy_basis(gens)
    assert len(rows) == 1
    expected = _me(SO3, "q3", "-q2", "q1")
    # spans the same rank-1 module as the Koszul relation
    assert module_membership(expected, rows).claim_holds


def test_koszul_syzygy():
    gens = [_me(R2, "x", "0"), _me(R2, "y", "0")]
    rows = syzygy_basis(gens)
    assert module_membership(_me(R2, "y", "-x"), rows).claim_holds
    for row in rows:
        acc = ModuleElement.zero(R2, 2)
        for c, g in zip(row.components, gens):
            acc = acc + g.scale_by(c)
        assert acc.is_zero()


# -- certificate invariants ---------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_certificate_identity_reexpands(seed):
    rnd = random.Random(seed)
    gens = [
        random_polynomial(rnd, COT2, max_base_degree=2, max_fiber_degree=1, terms=2)
        for _ in range(2)
    ]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    gb = buchberger(gens, BLOCK)
    f = random_polynomial(rnd, COT2, max_base_degree=2, max_fiber_degree=2, terms=3)
    cert = normal_form_with_cofactors(f, gb)
    assert cert.verify(f)
    composed = ideal_membership(f, gb)
    assert composed.verify(f)
    assert composed.remainder == cert.remainder


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_normal_form_idempotent(seed):
    rnd = random.Random(seed)
    gens = [
        random_polynomial(rnd, COT2, max_base_degree=2, max_fiber_degree=1, terms=2)
        for _ in range(2)
    ]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    gb = buchberger(gens, BLOCK)
    f = random_polynomial(rnd, COT2, max_base_degree=2, max_fiber_degree=2, terms=3)
    r = gb.normal_form(f)
    assert gb.normal_form(r) == r


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_syzygy_rows_annihilate_generators(seed):
    rnd = random.Random(seed)
    varset = R2
    gens = [
        ModuleElement(varset, (
            random_polynomial(rnd, varset, max_base_degree=2, terms=2),
            random_polynomial(rnd, varset, max_base_degree=2, terms=2),
        ))
        for _ in range(3)
    ]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    for row in syzygy_basis(gens):
        acc = ModuleElement.zero(varset, 2)
        for c, g in zip(row.components, gens):
            acc = acc + g.scale_by(c)
        assert acc.is_zero()


def test_groebner_basis_is_reduced():
    gens = [P("x^2 + y", COT2), P("x*y", COT2)]
    gb = buchberger(gens, GREVLEX)
    keyf = GREVLEX.key_function(COT2)
    leads = [g.leading(keyf)[0] for g in gb.generators]
    for i, g in enumerate(gb.generators):
        assert g.terms[leads[i]] == 1  # monic
        for j, lead in enumerate(leads):
            if i == j:
                continue
            for expo in g.terms:
                assert not all(a <= b for a, b in zip(lead, expo))


def test_representation_tracks_inputs():
    gens = [P("x^2 + y", COT2), P("x*y", COT2)]
    gb = buchberger(gens, GREVLEX)
    for basis_elem, rep in zip(gb.generators, gb.representation):
        acc = Polynomial.zero(COT2)
        for c, g in zip(rep, gens):
            acc = acc + c * g
        assert acc == basis_elem


def test_syzygy_row_evaluation():
    row = _me(SO3, "q3", "-q2", "q1")
    assert row.evaluate_seq((1, 0, 0)) == (0, 0, 1)


def _member_of_x():
    gb = buchberger([P("x", COT2)], BLOCK)
    return lambda f: ideal_membership(f, gb)


def test_check_claims_stops_at_the_first_non_member():
    def claims():
        yield "a", P("x*y", COT2)
        yield "b", P("y + x", COT2)
        pytest.fail("the claims were read past the first non-member")

    searched = []
    res = check_claims(claims(), _member_of_x(), lambda r: searched.append(r) or "point")
    assert not res.passed
    ((key, cert),) = res.certificates
    assert key == "a" and cert.claim_holds and cert.verify(P("x*y", COT2))
    key, cert = res.witness
    assert key == "b" and cert.remainder == P("y", COT2) and cert.verify(P("y + x", COT2))
    assert searched == [P("y", COT2)] and res.obstruction_point == "point"


def test_check_claims_passes_with_every_certificate_in_claim_order():
    def no_search(residue):
        pytest.fail("an obstruction search on a pass")

    claims = iter([((0, 1), P("x*y", COT2)), ((0, 2), P("x*p_x", COT2))])
    res = check_claims(claims, _member_of_x(), no_search)
    assert res.passed and res.witness is None and res.obstruction_point is None
    assert [key for key, _ in res.certificates] == [(0, 1), (0, 2)]
    assert all(cert.claim_holds for _, cert in res.certificates)
    assert check_claims(iter(()), _member_of_x(), no_search) == CheckResult(True)
