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
certificate composition.  S-vectors are formed only for equal lead positions:
pairs are formed, and the chain criterion runs, over the list of one
position's leads in the basis's table, and each pair carries the lcm it was
queued with.  Of the Gebauer-Moeller pair criteria, the chain criterion holds
in every rank and is always applied.  The product criterion (coprime leading
monomials) holds only for ideals: in ``R^2`` the elements ``(x, 1)`` and
``(y, 0)`` have coprime leads, yet their S-vector reduces to ``(0, y)``, not
to zero.  It is applied only in rank 1.  Before either, a pair of two
single-term elements is skipped: its S-vector is exactly zero.  When every
element is a single term, as for the order-k modules and their lift ideals,
no pair is queued at all.  The final inter-reduction divides each kept
element's tail, the terms below its lead, through one table of all the kept
elements; that makes the divisor choices of dividing the whole element by the
others, since no kept lead divides another or any term below itself.

The engine is sparse.  :func:`module_divide` returns only the nonzero
cofactors, as ``{divisor index: cofactor}``; the representation rows of a
basis over its input generators (``GroebnerBasis.rows``), the certificates
(``Certificate.row``) and the syzygies are built from the same maps by one
row combination, :func:`_combine_rows`, a sum of ``c * row`` terms whose
every entry is one ``sum_of_products`` call; each row lists its indices in
increasing order.  Dense tuples exist only at the public boundary:
``GroebnerBasis.representation`` and the lazy view ``Certificate.cofactors``.

A division reads its divisors through a :class:`DivisorTable`: each
divisor's leading term, read once when the divisor enters the table, grouped
by lead position in list order, so a term is tried only against the divisors
leading at its position and the first one that divides wins.  A basis owns its
table (``GroebnerBasis.table``; an ideal basis's table also holds its
rank-1 elements), and Buchberger extends one table as it appends to the
basis, so no claim loop rebuilds a table per division.  Coefficients stay in
the polynomial module's normal form, an ``int`` when integral: every
quotient is an ``exact_quotient``, and every sum written into a division's
work map is normalised.

Module bases power involutivity checks, module equality and syzygies.  A
basis remembers how it sits over its inputs (``rows``), so the relations
among the inputs come from Schreyer's construction over the basis itself
(:func:`syzygy_basis`): no second Groebner computation in a larger rank.

Every pass/witness check (involutivity, module equality, Poisson closure,
normalizer, SRF) runs the one claim loop, :func:`check_claims`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Sequence

from .errors import InternalCheckError, VariableSetError
from .poly import (BLOCK, Exponents, MonomialOrder, Polynomial, Scalar, VariableSet,
                   exact_quotient, normal_coefficient, sum_of_products)

_ZERO = Fraction(0)

# ---------------------------------------------------------------------------
# monomial helpers


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def _sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def _coprime(a: Exponents, b: Exponents) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# certificates and check results


@dataclass(frozen=True)
class Certificate:
    """Exact decomposition proving or refuting a membership claim.

    ``generators`` records the list the cofactors refer to, so the identity
    ``target == sum(cofactor*generator) + remainder`` is self-contained.
    ``row`` holds the nonzero cofactors, keyed by generator index;
    :attr:`cofactors` is the dense view, built when first read.
    """

    generators: tuple
    row: Row
    remainder: object

    @cached_property
    def cofactors(self) -> tuple[Polynomial, ...]:
        return _dense(self.row, len(self.generators), self.remainder.varset)

    @property
    def claim_holds(self) -> bool:
        return self.remainder.is_zero()

    def reexpand(self):
        """sum(cofactor_i * generator_i) + remainder, in the target's type."""
        acc = None
        for i, c in self.row.items():
            g = self.generators[i]
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


def check_claims(claims, member, obstruct) -> CheckResult:
    """Certify each ``(key, target)`` claim with ``member``, read lazily.

    The loop stops at the first non-member, computing no later target; the
    fail's witness is ``(key, cert)``, its point ``obstruct(cert.remainder)``.
    """
    certs = []
    for key, target in claims:
        cert = member(target)
        if not cert.claim_holds:
            return CheckResult(False, tuple(certs), (key, cert), obstruct(cert.remainder))
        certs.append((key, cert))
    return CheckResult(True, tuple(certs))


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
        """Component values; a zero component is the shared ``_ZERO``, not evaluated."""
        return tuple(c.evaluate_seq(values) if c.terms else _ZERO for c in self.components)

    def leading(self, keyf) -> tuple[tuple[int, Exponents], Scalar]:
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


class DivisorTable:
    """Divisors with their leading terms, read once, grouped by lead position.

    ``leads[i]`` is ``(position, exponent, coefficient)`` of divisor ``i``'s
    position-over-term leading term, or ``None`` for a zero divisor, which
    divides nothing.  ``by_pos[pos]`` lists ``(i, exponent, coefficient)``
    for the divisors leading at ``pos``, in list order.  Every divisor shares
    one chart and rank; :meth:`append` extends the table in place.
    """

    __slots__ = ("order", "elements", "leads", "by_pos", "varset", "rank")

    def __init__(self, divisors: Sequence[ModuleElement], order: MonomialOrder):
        self.order = order
        self.elements: list[ModuleElement] = []
        self.leads: list[tuple[int, Exponents, Scalar] | None] = []
        self.by_pos: dict[int, list[tuple[int, Exponents, Scalar]]] = {}
        self.varset: VariableSet | None = None
        self.rank = 0
        for d in divisors:
            self.append(d)

    def append(self, d: ModuleElement) -> None:
        if self.varset is None:
            self.varset, self.rank = d.varset, len(d.components)
        elif d.varset != self.varset or len(d.components) != self.rank:
            raise VariableSetError("module rank or chart mismatch")
        i = len(self.elements)
        self.elements.append(d)
        lead = None
        for pos, comp in enumerate(d.components):
            if comp.terms:
                lexpo, lcoeff = comp.leading(self.order.key_function(d.varset))
                lead = (pos, lexpo, lcoeff)
                self.by_pos.setdefault(pos, []).append((i, lexpo, lcoeff))
                break
        self.leads.append(lead)


def module_divide(
    v: ModuleElement, divisors: Sequence[ModuleElement] | DivisorTable, order: MonomialOrder
) -> tuple[dict[int, Polynomial], ModuleElement]:
    """Division in R^rank under the position-over-term extension of ``order``.

    ``divisors`` is a :class:`DivisorTable` built for ``order``, or a plain
    list, for which one is built.  Returns the nonzero cofactors as
    ``{divisor index: cofactor}`` in index order, and the remainder.  Ties in
    divisor selection go to the first divisor in list order whose leading
    term divides, which makes certificates reproducible.  The remainder has
    no term divisible by any divisor leading term.
    """
    if not isinstance(divisors, DivisorTable):
        divisors = DivisorTable(divisors, order)
    elif divisors.order != order:
        raise ValueError("a divisor table divides under the order it was built for")
    varset = v.varset
    rank = v.rank
    if divisors.varset is not None and (divisors.varset != varset or divisors.rank != rank):
        raise VariableSetError("module rank or chart mismatch")
    keyf = order.key_function(varset)
    # a term at position ``pos`` is divisible only by a divisor leading there;
    # each list keeps list order, so the first divisor that divides wins
    elements, by_pos = divisors.elements, divisors.by_pos
    cofactors: dict[int, dict[Exponents, Scalar]] = {}
    work = [dict(c.terms) for c in v.components]
    remainder: list[dict[Exponents, Scalar]] = [{} for _ in work]
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
                    q_coeff = exact_quotient(coeff, lcoeff)
                    # each divisor reduces strictly decreasing terms of one
                    # position, so its quotient exponents never repeat
                    cofactors.setdefault(i, {})[q_expo] = q_coeff
                    comps = elements[i].components
                    for dpos in range(pos, rank):
                        target = work[dpos]
                        for ge, gc in comps[dpos].terms.items():
                            if dpos == pos and ge is lexpo:
                                continue  # the leading term cancels ``coeff``
                            te = tuple(map(add, ge, q_expo))
                            s = target.get(te, 0) - gc * q_coeff
                            if s:
                                target[te] = s if s.__class__ is int else normal_coefficient(s)
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


def _combine_rows(varset: VariableSet, plus: Iterable[tuple[Polynomial, Row]],
                  minus: Iterable[tuple[Polynomial, Row]] = ()) -> Row:
    """``sum(c * row for c, row in plus) - sum(c * row for c, row in minus)``: each
    index's entry is one :func:`sum_of_products` call, entries that cancel are
    dropped, and the keys come out in increasing index order."""
    plus_at, minus_at = {}, {}  # index -> (c, entry) pairs of each side
    for at, terms in ((plus_at, plus), (minus_at, minus)):
        for c, row in terms:
            for i, t in row.items():
                at.setdefault(i, []).append((c, t))
    out: Row = {}
    for i in sorted(plus_at.keys() | minus_at.keys()):
        entry = sum_of_products(varset, plus_at.get(i, ()), minus_at.get(i, ()))
        if entry.terms:
            out[i] = entry
    return out


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis remembering how it sits over its input generators.

    The elements are polynomials for an ideal (:func:`buchberger`) and
    :class:`ModuleElement` values for a module (:func:`module_groebner`).
    ``rows[k]`` holds the nonzero cofactors of ``generators[k]`` over
    ``input_generators``, keyed by input index; :attr:`representation` is
    the same data as dense tuples.  Every division by the basis goes through
    its :attr:`table`, built on first use.
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

    @cached_property
    def table(self) -> DivisorTable:
        """The divisor table of the basis; an ideal's elements enter it in rank 1."""
        return DivisorTable([g if isinstance(g, ModuleElement) else _rank_one(g)
                             for g in self.generators], self.order)

    def divide(self, f) -> tuple[Row, object]:
        """Division through :attr:`table`; the remainder has ``f``'s type."""
        if isinstance(f, Polynomial):
            cofactors, r = module_divide(_rank_one(f), self.table, self.order)
            return cofactors, r.components[0]
        return module_divide(f, self.table, self.order)

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Remainder of ``f`` on division by an ideal basis."""
        return self.divide(f)[1]


def _monic(r: ModuleElement, rep: Row, keyf) -> tuple[ModuleElement, Row]:
    """``r`` and its row scaled to a leading coefficient of 1; unchanged when it is 1."""
    inv = exact_quotient(1, r.leading(keyf)[1])
    if inv == 1:
        return r, rep
    return (r.scale_by(Polynomial.constant(r.varset, inv)),
            {j: p.scale(inv) for j, p in rep.items()})


def _s_vector(table: DivisorTable, k: int, l: int,
              lcm: Exponents) -> tuple[Polynomial, Polynomial, ModuleElement]:
    """``(m_k, m_l, m_k g_k - m_l g_l)`` for two table elements leading at one
    position, where ``m_k`` takes ``g_k``'s leading term to ``lcm`` with
    coefficient 1, and likewise ``m_l``."""
    (_, lk, ck), (_, ll, cl) = table.leads[k], table.leads[l]
    mk = Polynomial.monomial(table.varset, _sub(lcm, lk), exact_quotient(1, ck))
    ml = Polynomial.monomial(table.varset, _sub(lcm, ll), exact_quotient(1, cl))
    return mk, ml, ModuleElement(table.varset, tuple(
        sum_of_products(table.varset, [(mk, a)], [(ml, b)])
        for a, b in zip(table.elements[k].components, table.elements[l].components)))


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
    keyf = order.key_function(varset)
    one = Polynomial.constant(varset, 1)

    # the table checks every element's chart and rank as it enters
    table = DivisorTable([g for _, g in live], order)
    basis, leads = table.elements, table.leads
    reps: list[Row] = [{i: one} for i, _ in live]

    # a pair of two single-term elements has the S-vector zero; it is still
    # queued, so that ``pending`` reads as it would if the pair were divided
    single = [sum(len(c.terms) for c in g.components) == 1 for g in basis]

    # each pair is queued with its lcm, keyed once; the key is unique, so pops
    # follow (lcm key, pair) exactly.  ``pending`` mirrors the queue for the
    # chain criterion's membership test.
    queue: list[tuple[tuple, tuple[int, int], Exponents]] = []
    pending: set[tuple[int, int]] = set()
    by_pos = table.by_pos

    def push_pairs(new: int) -> None:
        pos, expo, _ = leads[new]
        for k, kexpo, _ in by_pos[pos]:
            if k == new:
                break
            lcm = _lcm(kexpo, expo)
            heapq.heappush(queue, (keyf(lcm), (k, new), lcm))
            pending.add((k, new))

    def chain_skippable(i: int, j: int, pos: int, lcm_ij: Exponents) -> bool:
        for k, kexpo, _ in by_pos[pos]:
            if k == i or k == j or not _divides(kexpo, lcm_ij):
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                return True
        return False

    # terms alone are their own Groebner basis: every pair would be skipped
    if not all(single):
        for j in range(len(basis)):
            push_pairs(j)

    while queue:
        _, (i, j), lcm_ij = heapq.heappop(queue)
        pending.discard((i, j))
        if single[i] and single[j]:
            continue
        (pos, li, _), (_, lj, _) = leads[i], leads[j]
        if rank == 1 and _coprime(li, lj):
            continue
        if chain_skippable(i, j, pos, lcm_ij):
            continue
        mi, mj, s = _s_vector(table, i, j, lcm_ij)
        cof, r = module_divide(s, table, order)
        if r.is_zero():
            continue
        r, rep_r = _monic(r, _combine_rows(varset, [(mi, reps[i])], [
            (mj, reps[j]), *((c, reps[k]) for k, c in cof.items())]), keyf)
        table.append(r)
        reps.append(rep_r)
        single.append(sum(len(c.terms) for c in r.components) == 1)
        push_pairs(len(basis) - 1)

    def mkey(k: int):
        pos, expo, _ = leads[k]
        return (-pos, keyf(expo))

    # minimize: drop elements whose leading term is divisible by another's
    kept: list[int] = []
    for k in sorted(range(len(basis)), key=mkey):
        pos, expo, _ = leads[k]
        if not any(leads[m][0] == pos and _divides(leads[m][1], expo) for m in kept):
            kept.append(k)

    # inter-reduce tails through one table of the kept elements.  No other
    # kept lead divides a kept lead, and every term a tail division meets at
    # the lead's position lies below the lead, so dividing the tail by all
    # kept elements picks the divisors that dividing the whole element by the
    # others would.  A lead survives, so the final order is that of the kept
    # leads, whose keys are distinct; each result is normalized monic.
    kept_table = DivisorTable([basis[k] for k in kept], order)
    kept_reps = [reps[k] for k in kept]
    final = []
    for k in reversed(kept):
        pos, expo, coeff = leads[k]
        comps = basis[k].components
        below = dict(comps[pos].terms)
        del below[expo]
        cof, r = module_divide(ModuleElement(varset, comps[:pos] + (
            Polynomial._trusted(varset, below),) + comps[pos + 1:]), kept_table, order)
        # the lead is the first term a whole-element division would have kept
        head = {expo: coeff}
        head.update(r.components[pos].terms)
        r = ModuleElement(varset, r.components[:pos] + (Polynomial._trusted(varset, head),)
                          + r.components[pos + 1:])
        # a tail that no kept lead divides leaves the row as it is
        rep = _combine_rows(varset, [(one, reps[k])], [
            (c, kept_reps[m]) for m, c in cof.items()]) if cof else reps[k]
        final.append(_monic(r, rep, keyf))
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
    """Compose cofactors over the basis into sparse cofactors over the input generators."""
    return Certificate(gb.input_generators, _combine_rows(
        remainder.varset, [(c, gb.rows[k]) for k, c in cofactors.items()]), remainder)


def normal_form_with_cofactors(f: Polynomial, gb: GroebnerBasis) -> Certificate:
    """Deterministic normal form; cofactors refer to the basis elements."""
    cof, r = gb.divide(f)
    return Certificate(gb.generators, cof, r)


def ideal_membership(f: Polynomial, gb: GroebnerBasis) -> Certificate:
    """Membership certificate with cofactors over the *input* generators."""
    return _certificate(gb, *gb.divide(f))


def module_membership(
    v: ModuleElement,
    gens: Sequence[ModuleElement] | GroebnerBasis,
    order: MonomialOrder = BLOCK,
) -> Certificate:
    """Membership certificate with a ModuleElement remainder, cofactors over inputs."""
    gb = gens if isinstance(gens, GroebnerBasis) else module_groebner(gens, order)
    return _certificate(gb, *gb.divide(v))


def syzygy_basis(
    gens: Sequence[ModuleElement] | GroebnerBasis, order: MonomialOrder = BLOCK
) -> list[ModuleElement]:
    """Generators of the relation module {(f_1..f_N) : sum f_i g_i = 0} of the inputs g.

    Schreyer's construction over the reduced basis ``G`` of the inputs, with
    ``G_k = sum_i R_ki g_i`` (``R`` is ``rows``).  Accepts the inputs or their
    :class:`GroebnerBasis`.  The relations are, in this order:

    * for each input ``i``, ``e_i - sum_k A_ik R_k`` where ``g_i = sum_k A_ik G_k``
      is its division by ``G``; skipped when zero, and not formed when ``g_i``
      is a basis element up to a unit (``R_k = {i: c}``, ``c`` constant): it
      divides as ``g_i = G_k / c``, so its relation is zero;
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
    inputs, rows = gb.input_generators, gb.rows
    n = len(inputs)
    if not n:
        return []
    varset = inputs[0].varset

    def lifted(v: ModuleElement) -> list[tuple[Polynomial, Row]]:
        """The pairs ``(a_j, R_j)`` of ``v = sum_j a_j G_j``, its division by ``G``."""
        cofactors, r = gb.divide(v)
        if not r.is_zero():
            raise InternalCheckError("a module element left a remainder on its own Groebner basis")
        return [(a, rows[j]) for j, a in cofactors.items()]

    units = {i for row in rows if len(row) == 1 for i, c in row.items() if c.total_degree() == 0}
    one = Polynomial.constant(varset, 1)
    relations = [_combine_rows(varset, [(one, {i: one})], lifted(g))
                 for i, g in enumerate(inputs) if i not in units]

    # pairs form only within a lead position
    for group in gb.table.by_pos.values():
        lcms = [[_lcm(x, y) for _, y, _ in group] for _, x, _ in group]
        for a, (k, _, _) in enumerate(group):
            for b in range(a + 1, len(group)):
                l, lcm_kl = group[b][0], lcms[a][b]
                if any(c != a and c != b and _divides(lj, lcm_kl)
                       and lcms[a][c] != lcm_kl and lcms[b][c] != lcm_kl
                       for c, (_, lj, _) in enumerate(group)):
                    continue
                mk, ml, s = _s_vector(gb.table, k, l, lcm_kl)
                relations.append(_combine_rows(varset, [(mk, rows[k])],
                                               [(ml, rows[l]), *lifted(s)]))
    return [ModuleElement(varset, _dense(row, n, varset)) for row in relations if row]
