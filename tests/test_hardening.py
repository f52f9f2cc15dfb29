"""Cross-checks of the engine against criteria-free and linear-algebra routes."""

import random
from fractions import Fraction

import pytest

from foliatk import (
    FoliationModule,
    ModuleElement,
    Polynomial,
    PreconditionError,
    SubmersionData,
    SymTensor2,
    VariableSet,
    VectorField,
    buchberger,
    cotangent_lift,
    module_groebner,
    module_membership,
    normalizer_check,
    reduced_bracket,
    sym_tensor_lift,
)
from foliatk.groebner import _divides, _lcm, _sub, divide_with_cofactors, module_divide
from foliatk.ipoisson import IdealPresentation
from foliatk.poly import BLOCK, GREVLEX, MonomialOrder, random_polynomial

from conftest import P, euclidean
from oracle import _Span, monomials_up_to

COT2 = VariableSet(("x", "y")).cotangent()
R2 = VariableSet(("x", "y"))


def _buchberger_no_criteria(gens, order):
    """Reference Buchberger over R^rank: every S-vector of two elements leading
    in the same position is reduced, with no skipping and no reduction pass."""
    varset = gens[0].varset
    keyf = order.key_function(varset)
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        (pi, li), ci = basis[i].leading(keyf)
        (pj, lj), cj = basis[j].leading(keyf)
        if pi != pj:
            continue
        lcm_ij = _lcm(li, lj)
        s = (basis[i].scale_by(Polynomial.monomial(varset, _sub(lcm_ij, li), Fraction(1) / ci))
             - basis[j].scale_by(Polynomial.monomial(varset, _sub(lcm_ij, lj), Fraction(1) / cj)))
        _, r = module_divide(s, basis, order)
        if not r.is_zero():
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return basis


def _reduced_reference(basis, order):
    """Minimise, inter-reduce and make monic a Groebner basis; the result is unique."""
    varset = basis[0].varset
    keyf = order.key_function(varset)

    def lead(g):
        return g.leading(keyf)[0]

    minimal = []
    for g in sorted(basis, key=lambda g: (-lead(g)[0], keyf(lead(g)[1]))):
        if not any(lead(m)[0] == lead(g)[0] and _divides(lead(m)[1], lead(g)[1])
                   for m in minimal):
            minimal.append(g)
    reduced = []
    for k, g in enumerate(minimal):
        _, r = module_divide(g, minimal[:k] + minimal[k + 1:], order)
        reduced.append(r.scale_by(Polynomial.constant(varset, Fraction(1) / r.leading(keyf)[1])))
    return reduced


def _rank_one(polys):
    return [ModuleElement(p.varset, (p,)) for p in polys]


@pytest.mark.parametrize("seed", range(40))
def test_criteria_do_not_change_the_ideal(seed):
    rnd = random.Random(7000 + seed)
    gens = []
    for _ in range(rnd.choice((2, 3))):
        g = random_polynomial(rnd, COT2, max_base_degree=2, max_fiber_degree=1,
                              terms=rnd.choice((1, 2, 3)))
        if not g.is_zero():
            gens.append(g)
    if not gens:
        return
    order = rnd.choice((GREVLEX, BLOCK, MonomialOrder("lex")))
    fast = buchberger(gens, order)
    slow = [m.components[0] for m in _buchberger_no_criteria(_rank_one(gens), order)]
    # same ideal: each side's elements reduce to zero against the other
    for g in slow:
        assert fast.normal_form(g).is_zero()
    slow_gb = buchberger(slow, order)
    for g in fast.generators:
        assert slow_gb.normal_form(g).is_zero()


@pytest.mark.parametrize("seed", range(8))
def test_reduced_basis_is_presentation_independent(seed):
    rnd = random.Random(8100 + seed)
    gens = []
    for _ in range(2):
        g = random_polynomial(rnd, COT2, max_base_degree=2, max_fiber_degree=1, terms=2)
        if not g.is_zero():
            gens.append(g)
    if len(gens) < 2:
        return
    g1, g2 = gens
    mixer = random_polynomial(rnd, COT2, max_base_degree=1, terms=1)
    a = buchberger([g1, g2], BLOCK)
    b = buchberger([g2, g1 + mixer * g2, g1], BLOCK)
    assert a.generators == b.generators


@pytest.mark.parametrize("seed", range(30))
def test_module_chain_criterion_keeps_the_reduced_basis(seed):
    rnd = random.Random(9600 + seed)
    rank = rnd.choice((2, 3))
    gens = []
    for _ in range(rnd.choice((2, 3))):
        g = ModuleElement(R2, tuple(
            random_polynomial(rnd, R2, max_base_degree=2, terms=rnd.choice((1, 2)))
            for _ in range(rank)))
        if not g.is_zero():
            gens.append(g)
    if not gens:
        return
    # on a chart without fiber variables BLOCK is GREVLEX
    order = rnd.choice((GREVLEX, MonomialOrder("lex")))
    gb = module_groebner(gens, order)
    reference = _reduced_reference(_buchberger_no_criteria(gens, order), order)
    assert len(gb.generators) == len(reference)
    assert set(gb.generators) == set(reference)
    for elem, row in zip(gb.generators, gb.representation):
        acc = ModuleElement.zero(R2, rank)
        for c, g in zip(row, gens):
            acc = acc + g.scale_by(c)
        assert acc == elem


def test_product_criterion_does_not_hold_in_rank_two():
    """(x, 1) and (y, 0) have coprime leads, yet their S-vector is (0, y)."""
    one, zero = Polynomial.constant(R2, 1), Polynomial.zero(R2)
    x, y = Polynomial.variable(R2, "x"), Polynomial.variable(R2, "y")
    gens = [ModuleElement(R2, (x, one)), ModuleElement(R2, (y, zero))]
    target = ModuleElement(R2, (zero, y))
    cert = module_membership(target, gens)
    assert cert.claim_holds and cert.verify(target)


@pytest.mark.parametrize("seed", range(12))
def test_ideal_basis_is_the_rank_one_module_basis(seed):
    rnd = random.Random(9700 + seed)
    gens = [random_polynomial(rnd, COT2, max_base_degree=2, max_fiber_degree=1,
                              terms=rnd.choice((1, 2, 3)))
            for _ in range(rnd.choice((2, 3)))]
    order = rnd.choice((GREVLEX, BLOCK, MonomialOrder("lex")))
    ideal = buchberger(gens, order)
    module = module_groebner(_rank_one(gens), order)
    assert ideal.generators == tuple(m.components[0] for m in module.generators)
    assert ideal.representation == module.representation


def _module_span_oracle(v, gens, degree_bound):
    """v in span_Q{m * g_i : deg m <= bound}, encoded over (position, monomial)."""
    varset = v.varset
    keyf = GREVLEX.key_function(varset)

    def vec_of(elem):
        return {(pos, e): c for pos, comp in enumerate(elem.components)
                for e, c in comp.terms.items()}

    span = _Span(lambda key: (-key[0], keyf(key[1])))
    for expo in monomials_up_to(varset.n_vars, degree_bound):
        mono = Polynomial.monomial(varset, expo)
        for g in gens:
            span.insert(vec_of(g.scale_by(mono)))
    return span.contains(vec_of(v))


@pytest.mark.parametrize("seed", range(25))
def test_module_membership_against_span_oracle(seed):
    rnd = random.Random(9200 + seed)
    gens = []
    for _ in range(rnd.choice((2, 3))):
        g = ModuleElement(R2, (
            random_polynomial(rnd, R2, max_base_degree=1, terms=2),
            random_polynomial(rnd, R2, max_base_degree=1, terms=2),
        ))
        if not g.is_zero():
            gens.append(g)
    if not gens:
        return
    if rnd.random() < 0.5:
        v = ModuleElement.zero(R2, 2)
        for g in gens:
            c = random_polynomial(rnd, R2, max_base_degree=1, terms=1)
            v = v + g.scale_by(c)
    else:
        v = ModuleElement(R2, (
            random_polynomial(rnd, R2, max_base_degree=2, terms=2),
            random_polynomial(rnd, R2, max_base_degree=2, terms=2),
        ))
    if v.is_zero():
        return
    cert = module_membership(v, gens)
    assert cert.verify(v)
    v_deg = max(c.total_degree() for c in v.components)
    g_deg = min(max(c.total_degree() for c in g.components) for g in gens)
    bound = v_deg - g_deg + 2
    if bound < 0:
        return
    if cert.claim_holds:
        needed = max((c.total_degree() for c in cert.cofactors if not c.is_zero()),
                     default=0)
        if needed > bound:
            return
    assert _module_span_oracle(v, gens, bound) == cert.claim_holds


def test_symmetric_product_lift_convention(rng):
    """(V (.) W)-lift = 2 V-lift W-lift with (.) = tensor + flip, no half."""
    for _ in range(5):
        v = VectorField(R2, tuple(
            random_polynomial(rng, R2, max_base_degree=2, terms=2) for _ in range(2)))
        w = VectorField(R2, tuple(
            random_polynomial(rng, R2, max_base_degree=2, terms=2) for _ in range(2)))
        entries = tuple(
            tuple(v.components[i] * w.components[j] + w.components[i] * v.components[j]
                  for j in range(2))
            for i in range(2)
        )
        sym = SymTensor2(R2, "contravariant", entries)
        cot = R2.cotangent()
        assert sym_tensor_lift(sym, cot) == \
            cotangent_lift(v, cot) * cotangent_lift(w, cot) * 2


def test_reduced_bracket_is_representative_independent(so3_foliation):
    ideal = so3_foliation.lift_presentation
    cot = ideal.chart
    f = P("q1^2 + q2^2 + q3^2", cot)
    g = P("1/2*p_q1^2 + 1/2*p_q2^2 + 1/2*p_q3^2", cot)
    member = ideal.generators[0] * P("p_q3", cot)
    assert normalizer_check(ideal, f + member).passed
    base = reduced_bracket(ideal, f, g)
    shifted = reduced_bracket(ideal, f + member, g)
    assert base == shifted


def test_zero_generator_rejected_in_foliation():
    with pytest.raises(PreconditionError):
        FoliationModule(R2, (VectorField.zero(R2),))


def test_order_flag_preserves_membership_verdicts():
    cot = VariableSet(("q1", "q2", "q3")).cotangent()
    gens = [
        P("q1*p_q2 - q2*p_q1", cot),
        P("q1*p_q3 - q3*p_q1", cot),
        P("q2*p_q3 - q3*p_q2", cot),
    ]
    member = gens[0] * P("q3", cot) - gens[1] * P("q2 + 1", cot)
    outsider = P("p_q1", cot)
    for kind in ("block", "grevlex", "lex"):
        ideal = IdealPresentation(cot, gens, MonomialOrder(kind))
        cert = ideal.membership(member)
        assert cert.claim_holds and cert.verify(member)
        assert not ideal.membership(outsider).claim_holds


def test_bracket_certificates_respect_grading(so3_foliation):
    ideal = so3_foliation.lift_presentation
    h = P(
        "1/2*p_q1^2 + 1/2*p_q2^2 + 1/2*p_q3^2",
        ideal.chart,
    )
    res = normalizer_check(ideal, h)
    assert res.passed
    for _, cert in res.certificates:
        for cof in cert.cofactors:
            assert cof.is_zero() or cof.is_fiber_homogeneous(1)


def test_every_s_polynomial_reduces_to_zero():
    cot = VariableSet(("q1", "q2", "q3")).cotangent()
    gens = [
        P("q1*p_q2 - q2*p_q1", cot),
        P("q1*p_q3 - q3*p_q1", cot),
        P("q2*p_q3 - q3*p_q2", cot),
    ]
    gb = buchberger(gens, BLOCK)
    keyf = BLOCK.key_function(cot)
    basis = list(gb.generators)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            li, ci = basis[i].leading(keyf)
            lj, cj = basis[j].leading(keyf)
            lcm_ij = _lcm(li, lj)
            s = (Polynomial.monomial(cot, _sub(lcm_ij, li), Fraction(1) / ci) * basis[i]
                 - Polynomial.monomial(cot, _sub(lcm_ij, lj), Fraction(1) / cj) * basis[j])
            _, r = divide_with_cofactors(s, basis, BLOCK)
            assert r.is_zero()


@pytest.mark.parametrize("kind", ["block", "grevlex", "lex"])
def test_membership_is_the_sum_over_fiber_components(so3_foliation, kind):
    """Fiber-homogeneous generators: dividing f at once equals dividing each
    fiber component and adding the certificates."""
    order = MonomialOrder(kind)
    src, tgt = VariableSet(("x", "y", "z")), VariableSet(("u", "v"))
    vertical = SubmersionData(src, tgt, (0, 1), euclidean(src), euclidean(tgt)).vertical_ideal()
    lift = so3_foliation.lift_presentation
    rng = random.Random(kind)
    for base in (lift, vertical):
        ideal = IdealPresentation(base.chart, base.generators, order)
        for _ in range(3):
            f = random_polynomial(rng, ideal.chart, max_base_degree=2, max_fiber_degree=3,
                                  terms=8)
            if len(f.fiber_components()) < 2:
                continue
            whole = ideal.membership(f)
            parts = [ideal.membership(c) for _, c in f.fiber_components()]
            cofactors, remainder = list(parts[0].cofactors), parts[0].remainder
            for part in parts[1:]:
                cofactors = [a + b for a, b in zip(cofactors, part.cofactors)]
                remainder = remainder + part.remainder
            assert whole.cofactors == tuple(cofactors)
            assert whole.remainder == remainder
