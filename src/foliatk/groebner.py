"""Groebner bases with mandatory cofactor tracking: one engine for ideals and modules.

Every membership decision made by this package flows through the division
routine here, and every answer is a :class:`Certificate`: an exact cofactor
decomposition ``input = sum(cofactor_i * generator_i) + remainder`` whose
remainder is zero iff the claim holds.  Certificates re-expand exactly; that
identity is asserted throughout the test suite and can be re-checked by third
parties from serialized reports.

There is one engine.  It works in a free module ``R^rank`` under the
position-over-term extension of a monomial order, and a polynomial is a
module element of rank 1, so ideals (:func:`buchberger`) and modules
(:func:`module_groebner`) share one division, one Buchberger loop and one
certificate composition.  S-vectors are formed only for equal lead positions.
Of the Gebauer-Moeller pair criteria, the chain criterion holds in every rank
and is always applied.  The product criterion (coprime leading monomials)
holds only for ideals: in ``R^2`` the elements ``(x, 1)`` and ``(y, 0)`` have
coprime leads, yet their S-vector reduces to ``(0, y)``, not to zero.  It is
applied only in rank 1.

Module bases power involutivity checks, module equality, and syzygy
computation via the standard tagged construction.
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
# certificates and check results


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


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a pass/witness decision procedure.

    ``certificates`` holds the memberships that passed; on a fail, ``witness``
    names the failing claim with its certificate, and ``obstruction_point``
    is a rational point refuting it with smooth coefficients, when found.
    """

    passed: bool
    certificates: tuple = ()
    witness: object = None
    obstruction_point: tuple[Fraction, ...] | None = None

    def __bool__(self) -> bool:
        return self.passed


# ---------------------------------------------------------------------------
# free-module elements (a polynomial is one of rank 1)


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
        """Position over term: the leading term of the first nonzero component."""
        for pos, comp in enumerate(self.components):
            if comp.terms:
                expo, coeff = comp.leading(keyf)
                return (pos, expo), coeff
        raise ValueError("zero module element has no leading term")

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def _rank_one(f: Polynomial) -> ModuleElement:
    return ModuleElement(f.varset, (f,))


# ---------------------------------------------------------------------------
# division


def module_divide(
    v: ModuleElement, divisors: Sequence[ModuleElement], order: MonomialOrder
) -> tuple[list[Polynomial], ModuleElement]:
    """Division in R^rank under the position-over-term extension of ``order``.

    Ties in divisor selection go to the first divisor in list order whose
    leading term divides, which makes certificates reproducible.  The
    remainder has no term divisible by any divisor leading term.
    """
    varset = v.varset
    keyf = order.key_function(varset)
    leads = []
    for d in divisors:
        if d.varset != varset or d.rank != v.rank:
            raise VariableSetError("module rank or chart mismatch")
        leads.append(None if d.is_zero() else d.leading(keyf))
    cofactors: list[dict[Exponents, Fraction]] = [{} for _ in divisors]
    work = [dict(c.terms) for c in v.components]
    remainder: list[dict[Exponents, Fraction]] = [{} for _ in work]
    # a divisor leading at position ``pos`` has no terms at earlier positions,
    # so each position is finished before the next one is touched
    for pos, terms in enumerate(work):
        while terms:
            expo = max(terms, key=keyf)
            coeff = terms.pop(expo)
            for i, lead in enumerate(leads):
                if lead is None:
                    continue
                (lpos, lexpo), lcoeff = lead
                if lpos == pos and _divides(lexpo, expo):
                    q_expo = _sub(expo, lexpo)
                    q_coeff = coeff / lcoeff
                    # each divisor reduces strictly decreasing terms of one
                    # position, so its quotient exponents never repeat
                    cofactors[i][q_expo] = q_coeff
                    for dpos, dcomp in enumerate(divisors[i].components):
                        target = work[dpos]
                        for ge, gc in dcomp.terms.items():
                            te = tuple(a + b for a, b in zip(ge, q_expo))
                            if dpos == pos and te == expo:
                                continue
                            s = target.get(te, Fraction(0)) - gc * q_coeff
                            if s:
                                target[te] = s
                            else:
                                target.pop(te, None)
                    break
            else:
                remainder[pos][expo] = coeff
    return (
        [Polynomial(varset, c) for c in cofactors],
        ModuleElement(varset, tuple(Polynomial(varset, r) for r in remainder)),
    )


def divide_with_cofactors(
    f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder
) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division with full remainder: :func:`module_divide` in rank 1."""
    cofactors, r = module_divide(_rank_one(f), [_rank_one(g) for g in divisors], order)
    return cofactors, r.components[0]


# ---------------------------------------------------------------------------
# Buchberger


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis remembering how it sits over its input generators.

    The elements are polynomials for an ideal (:func:`buchberger`) and
    :class:`ModuleElement` values for a module (:func:`module_groebner`).
    ``representation[k]`` holds the cofactors of ``generators[k]`` over
    ``input_generators``.
    """

    input_generators: tuple
    generators: tuple
    order: MonomialOrder
    representation: tuple[tuple[Polynomial, ...], ...]

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Remainder of ``f`` on division by an ideal basis."""
        _, r = divide_with_cofactors(f, self.generators, self.order)
        return r


ModuleGroebnerBasis = GroebnerBasis


def _buchberger(
    gens: tuple[ModuleElement, ...], order: MonomialOrder
) -> tuple[tuple[ModuleElement, ...], tuple[tuple[Polynomial, ...], ...]]:
    """Reduced basis of the submodule spanned by ``gens``, with representation rows.

    Zero inputs are skipped; an all-zero or empty input gives the empty basis.
    """
    live = [(i, g) for i, g in enumerate(gens) if not g.is_zero()]
    if not live:
        return (), ()
    varset = live[0][1].varset
    rank = live[0][1].rank
    for _, g in live:
        if g.varset != varset or g.rank != rank:
            raise VariableSetError("module rank or chart mismatch")
    keyf = order.key_function(varset)
    one, zero = Polynomial.constant(varset, 1), Polynomial.zero(varset)

    basis = [g for _, g in live]
    reps = [[one if j == i else zero for j in range(len(gens))] for i, _ in live]
    leads = [g.leading(keyf) for g in basis]

    def reduce_rep(rep, cofactors, rows):
        for c, row in zip(cofactors, rows):
            if not c.is_zero():
                rep = [a - c * b for a, b in zip(rep, row)]
        return rep

    def monic(r: ModuleElement, rep):
        inv = Fraction(1) / r.leading(keyf)[1]
        return r.scale_by(Polynomial.constant(varset, inv)), [p.scale(inv) for p in rep]

    # each pair is keyed once, when it is queued; the key is unique, so pops
    # follow (lcm key, pair) exactly.  ``pending`` mirrors the queue for the
    # chain criterion's membership test.
    queue: list[tuple[tuple, tuple[int, int]]] = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(new: int) -> None:
        pos, expo = leads[new][0]
        for k in range(new):
            if leads[k][0][0] == pos:
                heapq.heappush(queue, (keyf(_lcm(leads[k][0][1], expo)), (k, new)))
                pending.add((k, new))

    def chain_skippable(i: int, j: int, pos: int, lcm_ij: Exponents) -> bool:
        for k, ((kpos, kexpo), _) in enumerate(leads):
            if k in (i, j) or kpos != pos or not _divides(kexpo, lcm_ij):
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                return True
        return False

    for j in range(len(basis)):
        push_pairs(j)

    while queue:
        i, j = heapq.heappop(queue)[1]
        pending.discard((i, j))
        ((pos, li), ci), ((_, lj), cj) = leads[i], leads[j]
        if rank == 1 and _coprime(li, lj):
            continue
        lcm_ij = _lcm(li, lj)
        if chain_skippable(i, j, pos, lcm_ij):
            continue
        mi = Polynomial.monomial(varset, _sub(lcm_ij, li), Fraction(1) / ci)
        mj = Polynomial.monomial(varset, _sub(lcm_ij, lj), Fraction(1) / cj)
        cof, r = module_divide(basis[i].scale_by(mi) - basis[j].scale_by(mj), basis, order)
        if r.is_zero():
            continue
        rep_s = [mi * a - mj * b for a, b in zip(reps[i], reps[j])]
        r, rep_r = monic(r, reduce_rep(rep_s, cof, reps))
        basis.append(r)
        reps.append(rep_r)
        leads.append(r.leading(keyf))
        push_pairs(len(basis) - 1)

    def mkey(lead):
        pos, expo = lead
        return (-pos, keyf(expo))

    # minimize: drop elements whose leading term is divisible by another's
    kept: list[int] = []
    for k in sorted(range(len(basis)), key=lambda k: mkey(leads[k][0])):
        pos, expo = leads[k][0]
        if not any(leads[m][0][0] == pos and _divides(leads[m][0][1], expo) for m in kept):
            kept.append(k)

    # inter-reduce tails and normalize monic
    final = []
    for k in kept:
        others = [m for m in kept if m != k]
        cof, r = module_divide(basis[k], [basis[m] for m in others], order)
        final.append(monic(r, reduce_rep(list(reps[k]), cof, [reps[m] for m in others])))

    final.sort(key=lambda item: mkey(item[0].leading(keyf)[0]), reverse=True)
    return tuple(m for m, _ in final), tuple(tuple(rep) for _, rep in final)


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = BLOCK) -> GroebnerBasis:
    """Reduced Groebner basis of an ideal: the engine in rank 1.

    An empty input (or all-zero input) yields the zero ideal's empty basis.
    """
    gens = tuple(gens)
    basis, reps = _buchberger(tuple(_rank_one(g) for g in gens), order)
    return GroebnerBasis(gens, tuple(m.components[0] for m in basis), order, reps)


def module_groebner(
    gens: Sequence[ModuleElement], order: MonomialOrder = BLOCK
) -> GroebnerBasis:
    """Reduced Groebner basis of a submodule of a free module."""
    gens = tuple(gens)
    basis, reps = _buchberger(gens, order)
    return GroebnerBasis(gens, basis, order, reps)


# ---------------------------------------------------------------------------
# membership certificates


def _certificate(gb: GroebnerBasis, cofactors: list[Polynomial], remainder) -> Certificate:
    """Compose cofactors over the basis into cofactors over the input generators."""
    composed = [Polynomial.zero(remainder.varset) for _ in gb.input_generators]
    for c, rep in zip(cofactors, gb.representation):
        if c.is_zero():
            continue
        for i, t in enumerate(rep):
            if not t.is_zero():
                composed[i] = composed[i] + c * t
    return Certificate(gb.input_generators, tuple(composed), remainder)


def normal_form_with_cofactors(f: Polynomial, gb: GroebnerBasis) -> Certificate:
    """Deterministic normal form; cofactors refer to the basis elements."""
    cof, r = divide_with_cofactors(f, gb.generators, gb.order)
    return Certificate(gb.generators, tuple(cof), r)


def ideal_membership(f: Polynomial, gb: GroebnerBasis) -> Certificate:
    """Membership certificate with cofactors over the *input* generators."""
    cofactors, r = divide_with_cofactors(f, gb.generators, gb.order)
    return _certificate(gb, cofactors, r)


def module_membership(
    v: ModuleElement,
    gens: Sequence[ModuleElement] | GroebnerBasis,
    order: MonomialOrder = BLOCK,
) -> Certificate:
    """Membership certificate with a ModuleElement remainder, cofactors over inputs."""
    gb = gens if isinstance(gens, GroebnerBasis) else module_groebner(gens, order)
    cofactors, r = module_divide(v, gb.generators, gb.order)
    return _certificate(gb, cofactors, r)


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
