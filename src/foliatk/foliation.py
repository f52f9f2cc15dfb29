"""Singular foliations as finitely generated modules of polynomial vector fields.

A :class:`FoliationModule` is a chart plus generators: vector fields, which
are elements of the free module ``R[q]^n``, so the generators and their
brackets enter the module engine as they are.  Its module Groebner
basis ``G``, with representation rows ``R`` (``G_k = sum_i R_ki g_i``), is
computed on first use and cached, so commands that never read it (the
cotangent-lift ideal and the checks built on it) never pay for it; every
point query is pure.  ``G`` and ``R`` are the one source of the point
layer:

* the syzygies are Schreyer's relations over ``G``, lifted through ``R``
  (:func:`~foliatk.groebner.syzygy_basis`);
* the fiber ``F / I_q F`` is the presented module (generators plus those
  syzygies) at ``q``: its dimension is the generator count minus the rank of
  the evaluated syzygies;
* the isotropy algebra is the kernel of evaluation inside the fiber, with
  the bracket class of two representatives read off their division by ``G``
  as ``sum_k c_k(q) R_k(q)``.  Its basis is one ordered pass over the kernel:
  the units of the generators vanishing at ``q`` (its one-entry vectors) in
  generator order, then the rest in column order, each kept, with a tag,
  when it enlarges the evaluated syzygy span.  Every bracket class is then
  solved on that one span.

Two cases are decided exactly without that work.  Where the tangent rank at
``q`` is the rank ``r`` of F (the dimension, or the number of lead positions
of ``G``), an ``r``-minor of the generators is a unit near ``q`` and every
``(r+1)``-minor vanishes, so F is free there: the fiber is the tangent space
and the isotropy 0, with no syzygy read.  At the origin of a module of
homogeneous generators, ``G``, ``R`` and a bracket's cofactors are homogeneous
and evaluation keeps degree 0, so a bracket of degree ``D`` has a class only
at generators of degree ``D``.  Where there are none and every monomial field
of degree ``D`` is a lead multiple, F holds every field of degree ``D``: the
bracket is in F with class zero, and is not computed.

The point layer is sparse.  The echelon rows of :mod:`~foliatk.linalg` are
``{index: value}`` maps, and a bracket class is accumulated as a map of its
nonzero entries, so a zero class is an empty map, skipped before any solve,
whose structure constants share one zero row.  :class:`PointReport` keeps
dense tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from operator import le
from typing import Sequence

from .errors import AmbiguousQuotientError, ChartMismatchError, PreconditionError
from .geometry import VectorField, cotangent_lift, lie_bracket
from .groebner import (
    Certificate,
    CheckResult,
    GroebnerBasis,
    ModuleElement,
    check_claims,
    module_groebner,
    module_membership,
    syzygy_basis,
)
from .linalg import EchelonSpan, nullspace, solve_coordinates, subtract_scaled
from .poly import BLOCK, ExactPoint, Polynomial, VariableSet, sum_of_products
from .sampling import candidate_points

Point = tuple[Fraction, ...]

_ZERO = Fraction(0)


def _as_point(chart: VariableSet, point: Sequence) -> Point:
    pt = tuple(Fraction(x) for x in point)
    if len(pt) != chart.dimension:
        raise PreconditionError(
            f"point has {len(pt)} coordinates, chart has {chart.dimension}"
        )
    return pt


@dataclass(frozen=True)
class PointReport:
    """Pointwise invariants of a foliation module.

    ``structure_constants[u][v][w]`` is the coefficient of basis element ``w``
    in the bracket of basis elements ``u`` and ``v``; antisymmetric in (u, v).
    ``isotropy_basis`` lists the generator-coefficient vectors representing
    the chosen basis of the isotropy algebra.
    """

    point: Point
    tangent_dim: int
    fiber_dim: int
    isotropy_dim: int
    structure_constants: tuple[tuple[tuple[Fraction, ...], ...], ...]
    isotropy_basis: tuple[tuple[Fraction, ...], ...]


class FoliationModule:
    """Finitely many polynomial vector fields spanning a vector-field module.

    ``module_gb`` and ``syzygies`` are computed on first access, not at
    construction, and cached on the instance.
    """

    def __init__(self, chart: VariableSet, generators: Sequence[VectorField]):
        generators = tuple(generators)
        for g in generators:
            if g.chart != chart:
                raise ChartMismatchError("generator on a different chart")
            if g.is_zero():
                raise PreconditionError("zero vector field among generators")
        self.chart = chart
        self.generators = generators

    @cached_property
    def module_gb(self) -> GroebnerBasis:
        return module_groebner(self.generators, BLOCK)

    @cached_property
    def syzygies(self) -> tuple[ModuleElement, ...]:
        return tuple(syzygy_basis(self.module_gb))

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def elements(self) -> tuple[VectorField, ...]:
        return self.generators

    def contains(self, v: VectorField) -> Certificate:
        return module_membership(v, self.module_gb)

    @cached_property
    def lift_presentation(self):
        from .ipoisson import IdealPresentation

        cot = self.chart.cotangent()
        return IdealPresentation(
            cot, tuple(cotangent_lift(g, cot) for g in self.generators)
        )

    def __repr__(self):
        return f"FoliationModule({self.chart.base}, {self.n_generators} generators)"


def involutivity_check(fol: FoliationModule) -> CheckResult:
    """Pass iff every generator bracket re-expresses over the generators.

    On failure the witness is ``(pair, certificate)`` for the first offending
    bracket, with a point obstruction attached when one exists.
    """
    gens = fol.generators
    brackets = (((a, b), lie_bracket(gens[a], gens[b]))
                for a, b in combinations(range(len(gens)), 2))
    return check_claims(brackets, fol.contains,
                        lambda residue: find_module_obstruction(gens, residue))


def tangent_dim(fol: FoliationModule, point: Sequence) -> int:
    """Rank over Q of the evaluated generators, i.e. dim of the leaf tangent."""
    exact = ExactPoint(_as_point(fol.chart, point))
    return EchelonSpan(fol.chart.dimension, [g.evaluate_seq(exact) for g in fol.generators]).rank


def _free_at(fol: FoliationModule, tdim: int) -> bool:
    """Whether the tangent rank at a point is the rank of F, so F is free there."""
    return tdim == fol.chart.dimension or tdim == len(fol.module_gb.table.by_pos)


def fiber_dim(fol: FoliationModule, point: Sequence) -> int:
    """dim F/I_q F: the tangent rank where F is free, else N minus the syzygy rank."""
    tdim = tangent_dim(fol, point)
    if _free_at(fol, tdim):
        return tdim
    exact = ExactPoint(_as_point(fol.chart, point))
    return fol.n_generators - EchelonSpan(
        fol.n_generators, [s.evaluate_seq(exact) for s in fol.syzygies]).rank


def isotropy_algebra(fol: FoliationModule, point: Sequence) -> PointReport:
    """Kernel of evaluation inside the fiber, with its induced Lie bracket."""
    pt = _as_point(fol.chart, point)
    exact = ExactPoint(pt)
    big_n = fol.n_generators

    # kernel of c |-> sum_a c_a X_a(q), the evaluated generators as columns
    kernel = nullspace([g.evaluate_seq(exact) for g in fol.generators], fol.chart.dimension)
    tdim = big_n - len(kernel)
    if _free_at(fol, tdim):
        return PointReport(pt, tdim, tdim, 0, (), ())

    span = EchelonSpan(big_n, [s.evaluate_seq(exact) for s in fol.syzygies])
    fdim = big_n - span.rank

    # basis of ker(ev_q) modulo the evaluated syzygies: the one-entry kernel vectors
    # (units of the generators vanishing at q) in generator order, then the rest in
    # column order; basis vector i goes into the span with tag big_n + i, so every
    # bracket below is solved on the same span
    kernel.sort(key=lambda v: len(v) != 1)
    basis = []
    for v in kernel:
        if span.insert({**v, big_n + len(basis): 1}):
            basis.append(tuple(v.get(a, _ZERO) for a in range(big_n)))
    idim = len(basis)
    if tdim + idim != fdim:
        raise AmbiguousQuotientError(
            f"exactness failed at {pt}: tangent {tdim} + isotropy {idim} != fiber {fdim}"
        )

    # a zero bracket class has zero coordinates, so its rows share one zero
    # row and only nonzero classes are solved, stored and negated
    zero_row = (_ZERO,) * idim
    consts = [[zero_row] * idim for _ in range(idim)]
    reps = [_combine(fol, b) for b in basis]
    gb = fol.module_gb
    # a bracket is sum_k c_k G_k with G_k = sum_i R_ki g_i, and evaluation is
    # a ring map, so its class at q is sum_k c_k(q) R_k(q); each row R_k is
    # evaluated once, when a bracket first needs it, and keeps its nonzero
    # entries only
    row_values: dict[int, dict[int, Fraction]] = {}
    decided = _decided_by_degree(fol, pt, reps)
    for u in range(idim):
        for v in range(u + 1, idim):
            if decided(u, v):
                continue
            bracket = lie_bracket(reps[u], reps[v])
            cofactors, remainder = gb.divide(bracket)
            if not remainder.is_zero():
                raise PreconditionError(
                    "bracket of isotropy representatives leaves the module; "
                    "the foliation is not involutive"
                )
            # the class as {index: value}, entries that cancel dropped
            w: dict[int, Fraction] = {}
            for k, c in cofactors.items():
                ck = c.evaluate_once(exact)
                if not ck:
                    continue
                row = row_values.get(k)
                if row is None:
                    row = row_values[k] = {i: t for i, r in gb.rows[k].items()
                                           if (t := r.evaluate_seq(exact))}
                subtract_scaled(w, -ck, row)
            if not w:
                continue
            coords = solve_coordinates(span, w)
            if coords is None:
                raise AmbiguousQuotientError(
                    f"bracket class at {pt} not expressible in the computed presentation"
                )
            tail = consts[u][v] = tuple(coords.get(i, _ZERO) for i in range(idim))
            consts[v][u] = tuple(-c if c else _ZERO for c in tail)

    return PointReport(
        point=pt,
        tangent_dim=tdim,
        fiber_dim=fdim,
        isotropy_dim=idim,
        structure_constants=tuple(tuple(plane) for plane in consts),
        isotropy_basis=tuple(basis),
    )


def _decided_by_degree(fol: FoliationModule, pt: Point, reps: Sequence[VectorField]):
    """``(u, v) -> bool``: whether degree alone makes the bracket class of ``reps[u]``
    and ``reps[v]`` zero and puts their bracket in F (see the module docstring)."""
    degrees = [{sum(e) for c in x.components for e in c.terms} for x in (*fol.generators, *reps)]
    gen_degrees, rep_degrees = degrees[:fol.n_generators], degrees[fol.n_generators:]
    if any(pt) or any(len(ds) != 1 for ds in gen_degrees):
        return lambda u, v: False
    by_pos, n_vars = fol.module_gb.table.by_pos, fol.chart.n_vars
    full: dict[int, bool] = {}

    def decided(u: int, v: int) -> bool:
        if len(rep_degrees[u]) != 1 or len(rep_degrees[v]) != 1:
            return False
        # a representative vanishes at the origin, so it has degree >= 1
        d = min(rep_degrees[u]) + min(rep_degrees[v]) - 1
        if d not in full:  # no generator of degree d, and every monomial field a lead multiple
            full[d] = {d} not in gen_degrees and all(
                any(all(map(le, lead, m)) for _, lead, _ in by_pos.get(p, ()))
                for p in range(fol.chart.dimension)
                for m in (tuple(map(c.count, range(n_vars)))
                          for c in combinations_with_replacement(range(n_vars), d)))
        return full[d]
    return decided


def _combine(fol: FoliationModule, coeffs: Sequence[Fraction]) -> VectorField:
    nonzero = [a for a, c in enumerate(coeffs) if c]
    if len(nonzero) == 1 and coeffs[nonzero[0]] == 1:
        return fol.generators[nonzero[0]]
    scaled = [(Polynomial.constant(fol.chart, coeffs[a]), fol.generators[a]) for a in nonzero]
    return VectorField(fol.chart, tuple(
        sum_of_products(fol.chart, [(c, g.components[i]) for c, g in scaled])
        for i in range(fol.chart.dimension)))


def module_equal(f1: FoliationModule, f2: FoliationModule) -> CheckResult:
    """Mutual membership of generators, keyed ``(side, index)``.

    On failure the witness is ``((side, index), certificate)`` for the first
    generator of one side outside the other module.
    """
    if f1.chart != f2.chart:
        raise ChartMismatchError("foliations on different charts")
    certs = ()
    for side, src, dst in (("left", f1, f2), ("right", f2, f1)):
        res = check_claims((((side, i), g) for i, g in enumerate(src.generators)),
                           dst.contains,
                           lambda residue: find_module_obstruction(dst.generators, residue))
        certs += res.certificates
        if not res.passed:
            break
    return replace(res, certificates=certs)


def lift_ideal(fol: FoliationModule):
    """The cotangent-lift ideal of the foliation, fiber-degree-1 homogeneous."""
    return fol.lift_presentation


def find_module_obstruction(
    gens: Sequence[ModuleElement], residue: ModuleElement
) -> Point | None:
    """Point where the residue leaves the evaluated span of the generators.

    Such a point refutes membership over smooth coefficients too, not just
    over polynomial ones.
    """
    if residue.is_zero():
        return None
    width = residue.rank
    for exact in candidate_points(residue.varset.n_vars):
        value = residue.evaluate_seq(exact)
        if not any(value):
            continue
        if not EchelonSpan(width, [g.evaluate_seq(exact) for g in gens]).contains(value):
            return exact.fractions()
    return None
