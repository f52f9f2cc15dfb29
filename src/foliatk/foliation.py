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
  as ``sum_k c_k(q) R_k(q)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import AmbiguousQuotientError, ChartMismatchError, PreconditionError
from .geometry import VectorField, cotangent_lift, lie_bracket
from .groebner import (
    Certificate,
    CheckResult,
    GroebnerBasis,
    ModuleElement,
    module_divide,
    module_groebner,
    module_membership,
    syzygy_basis,
)
from .linalg import CoordinateFrame, EchelonSpan, nullspace, solve_coordinates
from .poly import BLOCK, ExactPoint, Polynomial, VariableSet
from .sampling import candidate_points

Point = tuple[Fraction, ...]


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
    certs = []
    for a in range(fol.n_generators):
        for b in range(a + 1, fol.n_generators):
            bracket = lie_bracket(fol.generators[a], fol.generators[b])
            cert = module_membership(bracket, fol.module_gb)
            if not cert.claim_holds:
                point = find_module_obstruction(fol.generators, cert.remainder)
                return CheckResult(
                    False,
                    certificates=tuple(certs),
                    witness=((a, b), cert),
                    obstruction_point=point,
                )
            certs.append(((a, b), cert))
    return CheckResult(True, certificates=tuple(certs))


def tangent_dim(fol: FoliationModule, point: Sequence) -> int:
    """Rank over Q of the evaluated generators, i.e. dim of the leaf tangent."""
    exact = ExactPoint(_as_point(fol.chart, point))
    span = EchelonSpan(fol.chart.dimension)
    for g in fol.generators:
        span.insert(g.evaluate_seq(exact))
    return span.rank


def fiber_dim(fol: FoliationModule, point: Sequence) -> int:
    """dim F/I_q F = generator count minus the rank of the evaluated syzygies."""
    exact = ExactPoint(_as_point(fol.chart, point))
    span = EchelonSpan(fol.n_generators)
    for s in fol.syzygies:
        span.insert(s.evaluate_seq(exact))
    return fol.n_generators - span.rank


def isotropy_algebra(fol: FoliationModule, point: Sequence) -> PointReport:
    """Kernel of evaluation inside the fiber, with its induced Lie bracket."""
    pt = _as_point(fol.chart, point)
    exact = ExactPoint(pt)
    big_n = fol.n_generators

    syz_span = EchelonSpan(big_n)
    for s in fol.syzygies:
        syz_span.insert(s.evaluate_seq(exact))
    fdim = big_n - syz_span.rank

    # kernel of c |-> sum_a c_a X_a(q)
    values = [g.evaluate_seq(exact) for g in fol.generators]
    kernel = nullspace(list(zip(*values)), big_n)
    tdim = big_n - len(kernel)

    # basis of ker(ev_q) modulo the evaluated syzygies, preferring generator classes
    selection = EchelonSpan(big_n)
    for row in syz_span.rows:
        selection.insert(row)
    basis: list[tuple[Fraction, ...]] = []
    unit_candidates = []
    for a in range(big_n):
        if not any(values[a]):
            e = [Fraction(0)] * big_n
            e[a] = Fraction(1)
            unit_candidates.append(tuple(e))
    for cand in unit_candidates + kernel:
        if selection.insert(cand):
            basis.append(tuple(cand))
    idim = len(basis)
    if tdim + idim != fdim:
        raise AmbiguousQuotientError(
            f"exactness failed at {pt}: tangent {tdim} + isotropy {idim} != fiber {fdim}"
        )

    # factored once; every bracket below is solved against the same frame
    frame = CoordinateFrame(syz_span.rows + basis, big_n)
    zero = Fraction(0)
    consts = [[[Fraction(0)] * idim for _ in range(idim)] for _ in range(idim)]
    reps = [_combine(fol, b) for b in basis]
    gb = fol.module_gb
    # a bracket is sum_k c_k G_k with G_k = sum_i R_ki g_i, and evaluation is
    # a ring map, so its class at q is sum_k c_k(q) R_k(q); each row R_k is
    # evaluated once, when a bracket first needs it
    row_values: dict[int, list[tuple[int, Fraction]]] = {}
    for u in range(idim):
        for v in range(u + 1, idim):
            bracket = lie_bracket(reps[u], reps[v])
            cofactors, remainder = module_divide(bracket, gb.generators, gb.order)
            if not remainder.is_zero():
                raise PreconditionError(
                    "bracket of isotropy representatives leaves the module; "
                    "the foliation is not involutive"
                )
            w = [zero] * big_n
            for k, c in cofactors.items():
                ck = c.evaluate_seq(exact)
                if not ck:
                    continue
                row = row_values.get(k)
                if row is None:
                    row = row_values[k] = [(i, t.evaluate_seq(exact))
                                           for i, t in gb.rows[k].items()]
                for i, t in row:
                    w[i] += ck * t
            coords = solve_coordinates(frame, w)
            if coords is None:
                raise AmbiguousQuotientError(
                    f"bracket class at {pt} not expressible in the computed presentation"
                )
            tail = coords[frame.size - idim:]
            for w_idx in range(idim):
                consts[u][v][w_idx] = tail[w_idx]
                consts[v][u][w_idx] = -tail[w_idx]

    return PointReport(
        point=pt,
        tangent_dim=tdim,
        fiber_dim=fdim,
        isotropy_dim=idim,
        structure_constants=tuple(tuple(tuple(row) for row in plane) for plane in consts),
        isotropy_basis=tuple(basis),
    )


def _combine(fol: FoliationModule, coeffs: Sequence[Fraction]) -> VectorField:
    nonzero = [a for a, c in enumerate(coeffs) if c]
    if len(nonzero) == 1 and coeffs[nonzero[0]] == 1:
        return fol.generators[nonzero[0]]
    acc = VectorField.zero(fol.chart)
    for c, gen in zip(coeffs, fol.generators):
        if c:
            acc = acc + gen.scale_by(Polynomial.constant(fol.chart, c))
    return acc


def module_equal(f1: FoliationModule, f2: FoliationModule) -> CheckResult:
    """Mutual membership of generators; witness is the first failing certificate."""
    if f1.chart != f2.chart:
        raise ChartMismatchError("foliations on different charts")
    certs = []
    for side, (src, dst) in enumerate(((f1, f2), (f2, f1))):
        for idx, gen in enumerate(src.generators):
            cert = dst.contains(gen)
            if not cert.claim_holds:
                point = find_module_obstruction(dst.generators, cert.remainder)
                return CheckResult(
                    False,
                    certificates=tuple(certs),
                    witness=(("left", "right")[side], idx, cert),
                    obstruction_point=point,
                )
            certs.append(((("left", "right")[side], idx), cert))
    return CheckResult(True, certificates=tuple(certs))


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
    for pt in candidate_points(residue.varset.n_vars):
        exact = ExactPoint(pt)
        value = residue.evaluate_seq(exact)
        if not any(value):
            continue
        span = EchelonSpan(width)
        for g in gens:
            span.insert(g.evaluate_seq(exact))
        if not span.contains(value):
            return pt
    return None
