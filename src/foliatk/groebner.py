"""Groebner bases with mandatory cofactor tracking, plus free-module variants.

Every membership decision made by this package flows through the division
routine here, and every answer is a :class:`Certificate`: an exact cofactor
decomposition ``input = sum(cofactor_i * generator_i) + remainder`` whose
remainder is zero iff the claim holds.  Certificates re-expand exactly; that
identity is asserted throughout the test suite and can be re-checked by third
parties from serialized reports.

The module side (position-over-term order) powers involutivity checks,
module equality, and syzygy computation via the standard tagged construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import VariableSetError
from .poly import BLOCK, Exponents, MonomialOrder, Polynomial, VariableSet

# ---------------------------------------------------------------------------
# monomial helpers


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _coprime(a: Exponents, b: Exponents) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """Exact decomposition proving or refuting a membership claim.

    ``generators`` records the list the cofactors refer to, so the identity
    ``target == sum(cofactor*generator) + remainder`` is self-contained.
    """

    generators: tuple
    cofactors: tuple[Polynomial, ...]
    remainder: object

    @property
    def claim_holds(self) -> bool:
        return self.remainder.is_zero()

    def reexpand(self):
        """sum(cofactor_i * generator_i) + remainder, in the target's type."""
        acc = None
        for c, g in zip(self.cofactors, self.generators):
            part = g.scale_by(c) if isinstance(g, ModuleElement) else c * g
            acc = part if acc is None else acc + part
        if acc is None:
            return self.remainder
        return acc + self.remainder

    def verify(self, target) -> bool:
        return self.reexpand() == target


# ---------------------------------------------------------------------------
# polynomial division and Buchberger


def divide_with_cofactors(
    f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder
) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division with full remainder.

    Ties in divisor selection go to the first divisor in list order whose
    leading term divides, which makes certificates reproducible.  The
    remainder has no term divisible by any divisor leading term.
    """
    varset = f.varset
    keyf = order.key_function(varset)
    leads = []
    for g in divisors:
        if g.varset != varset:
            raise VariableSetError("divisor on a different chart")
        leads.append(None if g.is_zero() else g.leading(keyf))
    cofactors = [Polynomial.zero(varset) for _ in divisors]
    remainder: dict[Exponents, Fraction] = {}
    work = dict(f.terms)
    while work:
        expo = max(work, key=keyf)
        coeff = work.pop(expo)
        for i, lead in enumerate(leads):
            if lead is None:
                continue
            lt_e, lt_c = lead
            if _divides(lt_e, expo):
                q_expo = _sub(expo, lt_e)
                q_coeff = coeff / lt_c
                cofactors[i] = cofactors[i] + Polynomial.monomial(varset, q_expo, q_coeff)
                for ge, gc in divisors[i].terms.items():
                    te = tuple(a + b for a, b in zip(ge, q_expo))
                    if te == expo:
                        continue
                    s = work.get(te, Fraction(0)) - gc * q_coeff
                    if s:
                        work[te] = s
                    else:
                        work.pop(te, None)
                break
        else:
            remainder[expo] = coeff
    return cofactors, Polynomial(varset, remainder)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis remembering how it sits over its input generators."""

    input_generators: tuple[Polynomial, ...]
    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    representation: tuple[tuple[Polynomial, ...], ...]
    reduced: bool = True

    @property
    def varset(self) -> VariableSet:
        return self.input_generators[0].varset if self.input_generators else self.generators[0].varset

    def normal_form(self, f: Polynomial) -> Polynomial:
        _, r = divide_with_cofactors(f, self.generators, self.order)
        return r

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = BLOCK) -> GroebnerBasis:
    """Reduced Groebner basis with the product and chain criteria.

    An empty input (or all-zero input) yields the zero ideal's empty basis.
    """
    gens = tuple(gens)
    live = [(i, g) for i, g in enumerate(gens) if not g.is_zero()]
    if not live:
        return GroebnerBasis(gens, (), order, ())
    varset = live[0][1].varset
    for _, g in live:
        if g.varset != varset:
            raise VariableSetError("generators on different charts")
    keyf = order.key_function(varset)

    def unit_rep(i: int) -> list[Polynomial]:
        return [
            Polynomial.constant(varset, 1) if j == i else Polynomial.zero(varset)
            for j in range(len(gens))
        ]

    basis: list[Polynomial] = [g for _, g in live]
    reps: list[list[Polynomial]] = [unit_rep(i) for i, _ in live]
    leads = [g.leading(keyf)[0] for g in basis]

    # each pair's key is computed once, when it is queued; the key tuple is
    # unique, so pops follow the order (lcm key, pair) exactly.  ``pending``
    # mirrors the queue for the chain criterion's membership test.
    queue: list[tuple[tuple, tuple[int, int]]] = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(new: int) -> None:
        for k in range(new):
            heapq.heappush(queue, (keyf(_lcm(leads[k], leads[new])), (k, new)))
            pending.add((k, new))

    for j in range(len(basis)):
        push_pairs(j)

    def chain_skippable(i: int, j: int, lcm_ij: Exponents) -> bool:
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not _divides(leads[k], lcm_ij):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                return True
        return False

    while queue:
        i, j = heapq.heappop(queue)[1]
        pending.discard((i, j))
        li, lj = leads[i], leads[j]
        lcm_ij = _lcm(li, lj)
        if _coprime(li, lj):
            continue
        if chain_skippable(i, j, lcm_ij):
            continue
        ci = Fraction(1) / basis[i].terms[li]
        cj = Fraction(1) / basis[j].terms[lj]
        mi = Polynomial.monomial(varset, _sub(lcm_ij, li), ci)
        mj = Polynomial.monomial(varset, _sub(lcm_ij, lj), cj)
        s = mi * basis[i] - mj * basis[j]
        rep_s = [mi * a - mj * b for a, b in zip(reps[i], reps[j])]
        cof, r = divide_with_cofactors(s, basis, order)
        if r.is_zero():
            continue
        rep_r = rep_s
        for c, rep_k in zip(cof, reps):
            if not c.is_zero():
                rep_r = [a - c * b for a, b in zip(rep_r, rep_k)]
        lc = r.leading(keyf)[1]
        inv = Fraction(1) / lc
        r = r.scale(inv)
        rep_r = [p.scale(inv) for p in rep_r]
        basis.append(r)
        reps.append(rep_r)
        leads.append(r.leading(keyf)[0])
        push_pairs(len(basis) - 1)

    # minimize: drop elements whose leading monomial is divisible by another's
    order_idx = sorted(range(len(basis)), key=lambda k: keyf(leads[k]))
    kept: list[int] = []
    for k in order_idx:
        if not any(_divides(leads[m], leads[k]) for m in kept):
            kept.append(k)

    # inter-reduce tails and normalize monic
    final: list[tuple[Polynomial, list[Polynomial]]] = []
    minimal = [basis[k] for k in kept]
    for pos, k in enumerate(kept):
        others = minimal[:pos] + minimal[pos + 1:]
        other_reps = [reps[m] for m in kept if m != k]
        cof, r = divide_with_cofactors(basis[k], others, order)
        rep_r = list(reps[k])
        for c, rep_o in zip(cof, other_reps):
            if not c.is_zero():
                rep_r = [a - c * b for a, b in zip(rep_r, rep_o)]
        lc = r.leading(keyf)[1]
        inv = Fraction(1) / lc
        final.append((r.scale(inv), [p.scale(inv) for p in rep_r]))

    final.sort(key=lambda item: keyf(item[0].leading(keyf)[0]), reverse=True)
    return GroebnerBasis(
        gens,
        tuple(p for p, _ in final),
        order,
        tuple(tuple(rep) for _, rep in final),
    )


def normal_form_with_cofactors(f: Polynomial, gb: GroebnerBasis) -> Certificate:
    """Deterministic normal form; cofactors refer to the basis elements."""
    cof, r = divide_with_cofactors(f, gb.generators, gb.order)
    return Certificate(gb.generators, tuple(cof), r)


def ideal_membership(f: Polynomial, gb: GroebnerBasis) -> Certificate:
    """Membership certificate with cofactors over the *input* generators."""
    cof, r = divide_with_cofactors(f, gb.generators, gb.order)
    varset = f.varset
    inputs = gb.input_generators
    composed = [Polynomial.zero(varset) for _ in inputs]
    for c, rep in zip(cof, gb.representation):
        if c.is_zero():
            continue
        for i, t in enumerate(rep):
            if not t.is_zero():
                composed[i] = composed[i] + c * t
    return Certificate(inputs, tuple(composed), r)


# ---------------------------------------------------------------------------
# free-module layer


@dataclass(frozen=True)
class ModuleElement:
    """Element of a free module R^rank over the base polynomial ring."""

    varset: VariableSet
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        for c in self.components:
            if c.varset != self.varset:
                raise VariableSetError("component on a different chart")

    @property
    def rank(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    @classmethod
    def zero(cls, varset: VariableSet, rank: int) -> "ModuleElement":
        z = Polynomial.zero(varset)
        return cls(varset, (z,) * rank)

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return ModuleElement(self.varset, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return ModuleElement(self.varset, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.varset, tuple(-a for a in self.components))

    def scale_by(self, p: Polynomial) -> "ModuleElement":
        return ModuleElement(self.varset, tuple(p * a for a in self.components))

    def _check(self, other: "ModuleElement"):
        if other.varset != self.varset or other.rank != self.rank:
            raise VariableSetError("module rank or chart mismatch")

    def evaluate_seq(self, values) -> tuple[Fraction, ...]:
        return tuple(c.evaluate_seq(values) for c in self.components)

    def leading(self, keyf) -> tuple[tuple[int, Exponents], Fraction]:
        best = None
        best_key = None
        for pos, comp in enumerate(self.components):
            for expo, coeff in comp.terms.items():
                k = (-pos, keyf(expo))
                if best_key is None or k > best_key:
                    best_key = k
                    best = ((pos, expo), coeff)
        if best is None:
            raise ValueError("zero module element has no leading term")
        return best

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def module_divide(
    v: ModuleElement, divisors: Sequence[ModuleElement], order: MonomialOrder
) -> tuple[list[Polynomial], ModuleElement]:
    """Division in R^rank under the position-over-term extension of ``order``."""
    varset = v.varset
    keyf = order.key_function(varset)
    leads = [None if d.is_zero() else d.leading(keyf) for d in divisors]
    cofactors = [Polynomial.zero(varset) for _ in divisors]

    work: dict[tuple[int, Exponents], Fraction] = {}
    for pos, comp in enumerate(v.components):
        for expo, coeff in comp.terms.items():
            work[(pos, expo)] = coeff
    remainder: dict[tuple[int, Exponents], Fraction] = {}

    def mkey(item: tuple[int, Exponents]):
        return (-item[0], keyf(item[1]))

    while work:
        pos, expo = max(work, key=mkey)
        coeff = work.pop((pos, expo))
        for i, lead in enumerate(leads):
            if lead is None:
                continue
            (lpos, lexpo), lcoeff = lead
            if lpos == pos and _divides(lexpo, expo):
                q_expo = _sub(expo, lexpo)
                q_coeff = coeff / lcoeff
                cofactors[i] = cofactors[i] + Polynomial.monomial(varset, q_expo, q_coeff)
                for dpos, dcomp in enumerate(divisors[i].components):
                    for ge, gc in dcomp.terms.items():
                        te = tuple(a + b for a, b in zip(ge, q_expo))
                        key = (dpos, te)
                        if key == (pos, expo):
                            continue
                        s = work.get(key, Fraction(0)) - gc * q_coeff
                        if s:
                            work[key] = s
                        else:
                            work.pop(key, None)
                break
        else:
            remainder[(pos, expo)] = coeff

    comps: list[dict[Exponents, Fraction]] = [dict() for _ in range(v.rank)]
    for (pos, expo), coeff in remainder.items():
        comps[pos][expo] = coeff
    rem = ModuleElement(varset, tuple(Polynomial(varset, c) for c in comps))
    return cofactors, rem


@dataclass(frozen=True)
class ModuleGroebnerBasis:
    input_generators: tuple[ModuleElement, ...]
    generators: tuple[ModuleElement, ...]
    order: MonomialOrder
    representation: tuple[tuple[Polynomial, ...], ...]
    reduced: bool = True


def module_groebner(
    gens: Sequence[ModuleElement], order: MonomialOrder = BLOCK
) -> ModuleGroebnerBasis:
    """Buchberger over a free module (S-vectors only for equal lead positions)."""
    gens = tuple(gens)
    live = [(i, g) for i, g in enumerate(gens) if not g.is_zero()]
    if not live:
        return ModuleGroebnerBasis(gens, (), order, ())
    varset = live[0][1].varset
    rank = live[0][1].rank
    for _, g in live:
        if g.varset != varset or g.rank != rank:
            raise VariableSetError("module rank or chart mismatch")
    keyf = order.key_function(varset)

    def unit_rep(i: int) -> list[Polynomial]:
        return [
            Polynomial.constant(varset, 1) if j == i else Polynomial.zero(varset)
            for j in range(len(gens))
        ]

    basis = [g for _, g in live]
    reps = [unit_rep(i) for i, _ in live]
    leads = [g.leading(keyf)[0] for g in basis]

    # same queue discipline as ``buchberger``: pairs with equal lead
    # positions, keyed once by (lcm key, pair)
    queue: list[tuple[tuple, tuple[int, int]]] = []

    def push_pairs(new: int) -> None:
        pos, expo = leads[new]
        for k in range(new):
            if leads[k][0] == pos:
                heapq.heappush(queue, (keyf(_lcm(leads[k][1], expo)), (k, new)))

    for j in range(len(basis)):
        push_pairs(j)

    while queue:
        i, j = heapq.heappop(queue)[1]
        (pos_i, li), (pos_j, lj) = leads[i], leads[j]
        lcm_ij = _lcm(li, lj)
        ci = Fraction(1) / basis[i].leading(keyf)[1]
        cj = Fraction(1) / basis[j].leading(keyf)[1]
        mi = Polynomial.monomial(varset, _sub(lcm_ij, li), ci)
        mj = Polynomial.monomial(varset, _sub(lcm_ij, lj), cj)
        s = basis[i].scale_by(mi) - basis[j].scale_by(mj)
        rep_s = [mi * a - mj * b for a, b in zip(reps[i], reps[j])]
        if s.is_zero():
            continue
        cof, r = module_divide(s, basis, order)
        if r.is_zero():
            continue
        rep_r = rep_s
        for c, rep_k in zip(cof, reps):
            if not c.is_zero():
                rep_r = [a - c * b for a, b in zip(rep_r, rep_k)]
        lc = r.leading(keyf)[1]
        inv = Fraction(1) / lc
        r = r.scale_by(Polynomial.constant(varset, inv))
        rep_r = [p.scale(inv) for p in rep_r]
        basis.append(r)
        reps.append(rep_r)
        leads.append(r.leading(keyf)[0])
        push_pairs(len(basis) - 1)

    def mkey(lead):
        pos, expo = lead
        return (-pos, keyf(expo))

    order_idx = sorted(range(len(basis)), key=lambda k: mkey(leads[k]))
    kept: list[int] = []
    for k in order_idx:
        if not any(
            leads[m][0] == leads[k][0] and _divides(leads[m][1], leads[k][1]) for m in kept
        ):
            kept.append(k)

    final: list[tuple[ModuleElement, list[Polynomial]]] = []
    minimal = [basis[k] for k in kept]
    for pos, k in enumerate(kept):
        others = minimal[:pos] + minimal[pos + 1:]
        other_reps = [reps[m] for m in kept if m != k]
        cof, r = module_divide(basis[k], others, order)
        rep_r = list(reps[k])
        for c, rep_o in zip(cof, other_reps):
            if not c.is_zero():
                rep_r = [a - c * b for a, b in zip(rep_r, rep_o)]
        lc = r.leading(keyf)[1]
        inv = Fraction(1) / lc
        final.append((r.scale_by(Polynomial.constant(varset, inv)), [p.scale(inv) for p in rep_r]))

    final.sort(key=lambda item: mkey(item[0].leading(keyf)[0]), reverse=True)
    return ModuleGroebnerBasis(
        gens,
        tuple(m for m, _ in final),
        order,
        tuple(tuple(rep) for _, rep in final),
    )


def module_membership(
    v: ModuleElement,
    gens: Sequence[ModuleElement] | ModuleGroebnerBasis,
    order: MonomialOrder = BLOCK,
) -> Certificate:
    """Membership certificate with a ModuleElement remainder, cofactors over inputs."""
    gb = gens if isinstance(gens, ModuleGroebnerBasis) else module_groebner(gens, order)
    cof, r = module_divide(v, gb.generators, gb.order)
    varset = v.varset
    composed = [Polynomial.zero(varset) for _ in gb.input_generators]
    for c, rep in zip(cof, gb.representation):
        if c.is_zero():
            continue
        for i, t in enumerate(rep):
            if not t.is_zero():
                composed[i] = composed[i] + c * t
    return Certificate(gb.input_generators, tuple(composed), r)


def syzygy_basis(
    gens: Sequence[ModuleElement], order: MonomialOrder = BLOCK
) -> list[ModuleElement]:
    """Generators of the full relation module {(f_1..f_N) : sum f_i gens_i = 0}.

    Tagged construction: a module Groebner basis of the generators augmented
    with unit tags is computed under an order where original positions
    dominate; elements reducing the original part to zero carry syzygies in
    their tags.
    """
    gens = tuple(gens)
    if not gens:
        return []
    varset = gens[0].varset
    rank = gens[0].rank
    n = len(gens)
    zero = Polynomial.zero(varset)
    one = Polynomial.constant(varset, 1)
    augmented = []
    for i, g in enumerate(gens):
        tag = tuple(one if j == i else zero for j in range(n))
        augmented.append(ModuleElement(varset, g.components + tag))
    gb = module_groebner(augmented, order)
    rows: list[ModuleElement] = []
    for g in gb.generators:
        if all(c.is_zero() for c in g.components[:rank]):
            rows.append(ModuleElement(varset, g.components[rank:]))
    return rows
