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

The engine is sparse.  :func:`module_divide` returns only the nonzero
cofactors, as ``{divisor index: cofactor}``; the representation rows of a
basis over its input generators (``GroebnerBasis.rows``) and the composition
of certificates use the same maps.  Dense tuples exist only at the public
boundary: ``GroebnerBasis.representation`` and ``Certificate.cofactors``.
A division looks up each divisor's leading term, which the polynomial caches
under the order's key function (one function object per order and chart
dimension), and tries a term only against the divisors leading at that
term's position.

Module bases power involutivity checks, module equality and syzygies.  A
basis remembers how it sits over its inputs (``rows``), so the relations
among the inputs come from Schreyer's construction over the basis itself
(:func:`syzygy_basis`): no second Groebner computation in a larger rank.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import Sequence

from .errors import InternalCheckError, VariableSetError
from .poly import BLOCK, Exponents, MonomialOrder, Polynomial, VariableSet

# ---------------------------------------------------------------------------
# monomial helpers


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def _sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


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


@dataclass(frozen=True, eq=False)
class ModuleElement:
    """Element of a free module R^rank over the base polynomial ring.

    Equality and hashing go by chart and components, so elements of
    subclasses (vector fields) compare equal to plain elements with the same
    components; arithmetic keeps the class of the left operand.
    """

    varset: VariableSet
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        for c in self.components:
            if c.varset != self.varset:
                raise VariableSetError("component on a different chart")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self.varset == other.varset and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.varset, self.components))

    @property
    def rank(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    @classmethod
    def zero(cls, varset: VariableSet, rank: int) -> "ModuleElement":
        z = Polynomial.zero(varset)
        return cls(varset, (z,) * rank)

    # where the result equals a component as it is, that component is reused:
    # most components of a syzygy row are zero

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return self.__class__(self.varset, tuple(
            a + b if b.terms else a for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return self.__class__(self.varset, tuple(
            a - b if b.terms else a for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "ModuleElement":
        return self.__class__(self.varset, tuple(-a for a in self.components))

    def scale_by(self, p: Polynomial) -> "ModuleElement":
        return self.__class__(self.varset, tuple(p * a if a.terms else a for a in self.components))

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
) -> tuple[dict[int, Polynomial], ModuleElement]:
    """Division in R^rank under the position-over-term extension of ``order``.

    Returns the nonzero cofactors as ``{divisor index: cofactor}`` in index
    order, and the remainder.  Ties in divisor selection go to the first
    divisor in list order whose leading term divides, which makes
    certificates reproducible.  The remainder has no term divisible by any
    divisor leading term.
    """
    varset = v.varset
    rank = v.rank
    keyf = order.key_function(varset)
    # a term at position ``pos`` is divisible only by a divisor leading there;
    # each list keeps list order, so the first divisor that divides wins
    by_pos: dict[int, list[tuple[int, Exponents, Fraction]]] = {}
    for i, d in enumerate(divisors):
        if d.varset != varset or len(d.components) != rank:
            raise VariableSetError("module rank or chart mismatch")
        for lpos, comp in enumerate(d.components):
            if comp.terms:  # a zero divisor has no lead and divides nothing
                lexpo, lcoeff = comp.leading(keyf)
                by_pos.setdefault(lpos, []).append((i, lexpo, lcoeff))
                break
    cofactors: dict[int, dict[Exponents, Fraction]] = {}
    work = [dict(c.terms) for c in v.components]
    remainder: list[dict[Exponents, Fraction]] = [{} for _ in work]
    # a divisor leading at position ``pos`` has no terms at earlier positions,
    # so each position is finished before the next one is touched
    for pos, terms in enumerate(work):
        leads = by_pos.get(pos, ())
        while terms:
            expo = max(terms, key=keyf)
            coeff = terms.pop(expo)
            for i, lexpo, lcoeff in leads:
                if _divides(lexpo, expo):
                    q_expo = _sub(expo, lexpo)
                    q_coeff = coeff / lcoeff
                    # each divisor reduces strictly decreasing terms of one
                    # position, so its quotient exponents never repeat
                    cofactors.setdefault(i, {})[q_expo] = q_coeff
                    comps = divisors[i].components
                    for dpos in range(pos, rank):
                        target = work[dpos]
                        for ge, gc in comps[dpos].terms.items():
                            if dpos == pos and ge is lexpo:
                                continue  # the leading term cancels ``coeff``
                            te = tuple(map(add, ge, q_expo))
                            old = target.get(te)
                            if old is None:
                                target[te] = -gc * q_coeff
                            else:
                                s = old - gc * q_coeff
                                if s:
                                    target[te] = s
                                else:
                                    del target[te]
                    break
            else:
                remainder[pos][expo] = coeff
    zero = Polynomial.zero(varset)
    return (
        {i: Polynomial._trusted(varset, cofactors[i]) for i in sorted(cofactors)},
        ModuleElement(varset, tuple(Polynomial._trusted(varset, r) if r else zero
                                    for r in remainder)),
    )


def divide_with_cofactors(
    f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder
) -> tuple[dict[int, Polynomial], Polynomial]:
    """Multivariate division with full remainder: :func:`module_divide` in rank 1."""
    cofactors, r = module_divide(_rank_one(f), [_rank_one(g) for g in divisors], order)
    return cofactors, r.components[0]


# ---------------------------------------------------------------------------
# Buchberger


Row = dict[int, Polynomial]  # nonzero entries of a sparse cofactor vector, by index


def _dense(row: Row, n: int, varset: VariableSet) -> tuple[Polynomial, ...]:
    zero = Polynomial.zero(varset)
    return tuple(row.get(i, zero) for i in range(n))


def _sub_scaled(acc: Row, c: Polynomial, row: Row) -> None:
    """acc -= c * row, entry by entry; entries that cancel are dropped."""
    for j, b in row.items():
        t = c * b
        a = acc.get(j)
        if a is None:
            acc[j] = -t
        else:
            a = a - t
            if a.terms:
                acc[j] = a
            else:
                del acc[j]


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis remembering how it sits over its input generators.

    The elements are polynomials for an ideal (:func:`buchberger`) and
    :class:`ModuleElement` values for a module (:func:`module_groebner`).
    ``rows[k]`` holds the nonzero cofactors of ``generators[k]`` over
    ``input_generators``, keyed by input index; :attr:`representation` is
    the same data as dense tuples.
    """

    input_generators: tuple
    generators: tuple
    order: MonomialOrder
    rows: tuple[Row, ...]

    @property
    def representation(self) -> tuple[tuple[Polynomial, ...], ...]:
        """``representation[k][i]`` is the cofactor of input ``i`` in ``generators[k]``."""
        n = len(self.input_generators)
        return tuple(_dense(row, n, self.input_generators[0].varset) for row in self.rows)

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Remainder of ``f`` on division by an ideal basis."""
        _, r = divide_with_cofactors(f, self.generators, self.order)
        return r


def _buchberger(
    gens: tuple[ModuleElement, ...], order: MonomialOrder
) -> tuple[tuple[ModuleElement, ...], tuple[Row, ...]]:
    """Reduced basis of the submodule spanned by ``gens``, with sparse representation rows.

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
    one = Polynomial.constant(varset, 1)

    basis = [g for _, g in live]
    reps: list[Row] = [{i: one} for i, _ in live]
    leads = [g.leading(keyf) for g in basis]

    def reduce_rep(rep: Row, cofactors: Row, rows: Sequence[Row]) -> Row:
        for k, c in cofactors.items():
            _sub_scaled(rep, c, rows[k])
        return rep

    def monic(r: ModuleElement, rep: Row):
        inv = Fraction(1) / r.leading(keyf)[1]
        return (r.scale_by(Polynomial.constant(varset, inv)),
                {j: p.scale(inv) for j, p in rep.items()})

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
        rep_s = {k: mi * a for k, a in reps[i].items()}
        _sub_scaled(rep_s, mj, reps[j])
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
        final.append(monic(r, reduce_rep(dict(reps[k]), cof, [reps[m] for m in others])))

    final.sort(key=lambda item: mkey(item[0].leading(keyf)[0]), reverse=True)
    return tuple(m for m, _ in final), tuple(rep for _, rep in final)


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = BLOCK) -> GroebnerBasis:
    """Reduced Groebner basis of an ideal: the engine in rank 1.

    An empty input (or all-zero input) yields the zero ideal's empty basis.
    """
    gens = tuple(gens)
    basis, rows = _buchberger(tuple(_rank_one(g) for g in gens), order)
    return GroebnerBasis(gens, tuple(m.components[0] for m in basis), order, rows)


def module_groebner(
    gens: Sequence[ModuleElement], order: MonomialOrder = BLOCK
) -> GroebnerBasis:
    """Reduced Groebner basis of a submodule of a free module."""
    gens = tuple(gens)
    basis, rows = _buchberger(gens, order)
    return GroebnerBasis(gens, basis, order, rows)


# ---------------------------------------------------------------------------
# membership certificates


def _certificate(gb: GroebnerBasis, cofactors: Row, remainder) -> Certificate:
    """Compose cofactors over the basis into dense cofactors over the input generators."""
    composed: Row = {}
    for k, c in cofactors.items():
        for i, t in gb.rows[k].items():
            a = composed.get(i)
            composed[i] = c * t if a is None else a + c * t
    n = len(gb.input_generators)
    return Certificate(gb.input_generators, _dense(composed, n, remainder.varset), remainder)


def normal_form_with_cofactors(f: Polynomial, gb: GroebnerBasis) -> Certificate:
    """Deterministic normal form; cofactors refer to the basis elements."""
    cof, r = divide_with_cofactors(f, gb.generators, gb.order)
    return Certificate(gb.generators, _dense(cof, len(gb.generators), f.varset), r)


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
    gens: Sequence[ModuleElement] | GroebnerBasis, order: MonomialOrder = BLOCK
) -> list[ModuleElement]:
    """Generators of the relation module {(f_1..f_N) : sum f_i g_i = 0} of the inputs g.

    Schreyer's construction over the reduced basis ``G`` of the inputs, with
    ``G_k = sum_i R_ki g_i`` (``R`` is ``rows``).  Accepts the inputs or their
    :class:`GroebnerBasis`.  The relations are, in this order:

    * for each input ``i``, ``e_i - sum_k A_ik R_k`` where ``g_i = sum_k A_ik G_k``
      is its division by ``G``; skipped when zero (an input that is a basis
      element);
    * for each pair ``k < l`` of basis elements leading at the same position
      and kept by the chain rule, the lift ``sum_j s_j R_j`` of the syzygy
      ``s = m_k e_k - m_l e_l - a`` of ``G``, where ``a`` is the division of
      the S-vector ``m_k G_k - m_l G_l`` by ``G``; skipped when zero.

    The pair syzygies generate Syz(G) (Schreyer 1980), so with the input
    relations they generate Syz(g).  The chain rule is static and strict: it
    drops ``(k, l)`` with ``L = lcm(lead_k, lead_l)`` when a third element
    ``j`` at the same position has ``lead_j | L`` and both ``lcm(lead_k,
    lead_j)`` and ``lcm(lead_l, lead_j)`` differ from ``L``.  Then the leading
    syzygy of ``(k, l)`` is a combination of those of ``(k, j)`` and ``(j, l)``,
    whose lcms are proper divisors of ``L``, so by induction on ``L`` the
    kept pairs still generate the leading syzygies (Gebauer & Moeller 1988).
    There is no product criterion: a rank-1 pair with coprime leads gives its
    Koszul syzygy through the same division.  A nonzero remainder in either
    division would mean ``G`` is not a Groebner basis of the inputs, and
    raises :class:`InternalCheckError`.
    """
    gb = gens if isinstance(gens, GroebnerBasis) else module_groebner(gens, order)
    inputs, basis, rows = gb.input_generators, gb.generators, gb.rows
    n = len(inputs)
    if not n:
        return []
    varset = inputs[0].varset
    keyf = gb.order.key_function(varset)
    out: list[ModuleElement] = []

    def standard(v: ModuleElement) -> Row:
        cofactors, r = module_divide(v, basis, gb.order)
        if not r.is_zero():
            raise InternalCheckError("a module element left a remainder on its own Groebner basis")
        return cofactors

    def emit(acc: Row, cofactors: Row) -> None:
        for j, a in cofactors.items():
            _sub_scaled(acc, a, rows[j])
        if acc:
            out.append(ModuleElement(varset, _dense(acc, n, varset)))

    one = Polynomial.constant(varset, 1)
    for i, g in enumerate(inputs):
        emit({i: one}, standard(g))

    # pairs form only within a lead position
    by_pos: dict[int, list[tuple[int, Exponents, Fraction]]] = {}
    for k, b in enumerate(basis):
        (pos, expo), coeff = b.leading(keyf)
        by_pos.setdefault(pos, []).append((k, expo, coeff))
    for group in by_pos.values():
        for a, (k, lk, ck) in enumerate(group):
            for l, ll, cl in group[a + 1:]:
                lcm_kl = _lcm(lk, ll)
                if any(j != k and j != l and _divides(lj, lcm_kl)
                       and _lcm(lk, lj) != lcm_kl and _lcm(ll, lj) != lcm_kl
                       for j, lj, _ in group):
                    continue
                mk = Polynomial.monomial(varset, _sub(lcm_kl, lk), Fraction(1) / ck)
                ml = Polynomial.monomial(varset, _sub(lcm_kl, ll), Fraction(1) / cl)
                acc = {i: mk * t for i, t in rows[k].items()}
                _sub_scaled(acc, ml, rows[l])
                emit(acc, standard(basis[k].scale_by(mk) - basis[l].scale_by(ml)))
    return out
