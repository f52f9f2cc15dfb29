"""Differential-geometric operators on a polynomial chart.

A vector field is an element of the free module ``R[q]^n`` of its base chart
(a :class:`~foliatk.groebner.ModuleElement`), so brackets and lifts of
vector fields go into divisions, certificates and syzygies as they are.

Conventions fixed here and relied on everywhere else:

* canonical bracket ``{f, g} = sum_i df/dp_i dg/dq^i - df/dq^i dg/dp_i``,
  which makes the bracket of two lifted vector fields the lift of their Lie
  bracket with no sign;
* symmetric product ``a (.) b = a@b + b@a`` without a half, so the lift of a
  contravariant symmetric 2-tensor ``S`` is ``sum_ij S^ij p_i p_j`` and
  ``(V (.) W)-lift = 2 V-lift W-lift``;
* the metric Hamiltonian is half the lift of the cometric.

The cometric is the primary metric input; a covariant polynomial metric is
optional because polynomial cometrics rarely have polynomial inverses.  Where
covariant data is unavoidable it is derived exactly as A/D over one common
denominator (:meth:`MetricData.covariant_over_det`): the explicit metric over
D = 1, else the cometric's adjugate over its determinant.  Callers keep A and
D as polynomials and build rational functions only for what they print.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from .errors import ChartMismatchError, InternalCheckError, MetricError, VariableSetError
from .groebner import ModuleElement
from .linalg import leading_minors_positive, poly_adjugate, poly_det
from .poly import ExactPoint, Polynomial, VariableSet, normal_coefficient, sum_of_products
from .ratfunc import RationalFunction


class VectorField(ModuleElement):
    """X = sum X^i d/dq^i: an element of the free module R[q]^n of a base chart.

    Arithmetic, ``is_zero``, ``evaluate_seq`` and printing are the module's;
    a vector field adds its chart checks and the derivation ``apply``.
    """

    def __post_init__(self):
        chart = self.varset
        if chart.has_fiber:
            raise VariableSetError("vector fields live on the base chart")
        if len(self.components) != chart.dimension:
            raise VariableSetError("component count must equal the chart dimension")
        for c in self.components:
            if c.varset != chart:
                raise ChartMismatchError("component polynomial on a different chart")

    @property
    def chart(self) -> VariableSet:
        return self.varset

    @classmethod
    def zero(cls, chart: VariableSet) -> "VectorField":
        return super().zero(chart, chart.dimension)

    @classmethod
    def coordinate(cls, chart: VariableSet, index: int) -> "VectorField":
        comps = [Polynomial.zero(chart) for _ in range(chart.dimension)]
        comps[index] = Polynomial.constant(chart, 1)
        return cls(chart, tuple(comps))

    def apply(self, f: Polynomial) -> Polynomial:
        """Derivation on chart functions: X(f) = sum X^i df/dq^i."""
        if f.varset != self.varset:
            raise VariableSetError("variable-set mismatch")
        return sum_of_products(self.varset, zip(self.components, f.partials()))


@dataclass(frozen=True)
class OneForm:
    """omega = sum omega_i dq^i with exact rational-function components."""

    chart: VariableSet
    components: tuple[RationalFunction, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dimension:
            raise VariableSetError("component count must equal the chart dimension")

    @classmethod
    def zero(cls, chart: VariableSet) -> "OneForm":
        return cls(chart, tuple(RationalFunction.zero(chart) for _ in range(chart.dimension)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


@dataclass(frozen=True)
class RationalVectorField:
    chart: VariableSet
    components: tuple[RationalFunction, ...]

    def __eq__(self, other) -> bool:
        if isinstance(other, VectorField):
            other = RationalVectorField(
                other.chart, tuple(RationalFunction(c) for c in other.components)
            )
        if not isinstance(other, RationalVectorField):
            return NotImplemented
        return self.chart == other.chart and all(
            a == b for a, b in zip(self.components, other.components)
        )


@dataclass(frozen=True)
class SymTensor2:
    """Symmetric 2-tensor, covariant or contravariant, with polynomial entries."""

    chart: VariableSet
    kind: str
    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        if self.kind not in ("covariant", "contravariant"):
            raise ValueError(f"unknown tensor kind {self.kind!r}")
        n = self.chart.dimension
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise VariableSetError("entry matrix must be n x n")
        for i in range(n):
            for j in range(n):
                if self.entries[i][j].varset != self.chart:
                    raise ChartMismatchError("entry on a different chart")
                if self.entries[i][j] != self.entries[j][i]:
                    raise MetricError("entries must be symmetric")

    @classmethod
    def euclidean(cls, chart: VariableSet, kind: str = "contravariant") -> "SymTensor2":
        n = chart.dimension
        one = Polynomial.constant(chart, 1)
        zero = Polynomial.zero(chart)
        return cls(chart, kind, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)


@dataclass(frozen=True)
class MetricData:
    """Cometric (required) plus optional covariant polynomial metric.

    Construction checks that metric*cometric is the identity when both are
    given, entry by entry, each entry one product-sum, and that the cometric
    is positive-definite at every sample point.  Positivity is Sylvester's
    test on the cometric evaluated there, an exact rational matrix: its
    leading minors are the symbolic ones evaluated, since evaluation is a
    ring map, so no minor is expanded symbolically.
    """

    cometric: SymTensor2
    metric: SymTensor2 | None = None
    sample_points: tuple[tuple[Fraction, ...], ...] = ()

    def __post_init__(self):
        if self.cometric.kind != "contravariant":
            raise MetricError("cometric must be contravariant")
        chart = self.cometric.chart
        if self.metric is not None:
            if self.metric.kind != "covariant":
                raise MetricError("metric must be covariant")
            if self.metric.chart != chart:
                raise ChartMismatchError("metric and cometric on different charts")
            one = {(0,) * chart.n_vars: 1}
            columns = tuple(zip(*self.cometric.entries))
            for i, row in enumerate(self.metric.entries):
                for j, column in enumerate(columns):
                    if sum_of_products(chart, zip(row, column)).terms != (one if i == j else {}):
                        raise MetricError("metric * cometric is not the identity")
        pts = self.sample_points
        if not pts:
            pts = ((Fraction(0),) * chart.dimension,)
            object.__setattr__(self, "sample_points", pts)
        entries = self.cometric.entries
        for pt in pts:
            exact = ExactPoint(pt)
            if not leading_minors_positive([[e.evaluate_seq(exact) for e in row]
                                            for row in entries]):
                raise MetricError(f"cometric not positive-definite at {pt}")

    @property
    def chart(self) -> VariableSet:
        return self.cometric.chart

    def covariant_over_det(self) -> tuple[tuple[tuple[Polynomial, ...], ...], Polynomial]:
        """(A, D) with the covariant metric g = A/D, polynomial A and D.

        The explicit metric gives D = 1; otherwise A is the cometric's
        adjugate and D its determinant, refused when zero.  Every covariant
        quantity derived here shares D as its one denominator.
        """
        if self.metric is not None:
            return self.metric.entries, Polynomial.constant(self.chart, 1)
        det = poly_det(self.cometric.entries)
        if det.is_zero():
            raise MetricError("cometric is degenerate: no covariant metric available")
        return tuple(map(tuple, poly_adjugate(self.cometric.entries))), det


# ---------------------------------------------------------------------------
# lifts and brackets


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^i = sum_j X^j dY^i/dq^j - Y^j dX^i/dq^j."""
    if x.chart != y.chart:
        raise ChartMismatchError("vector fields on different charts")
    chart, xs, ys = x.chart, x.components, y.components
    return VectorField(chart, tuple(
        sum_of_products(chart, zip(xs, yc.partials()), zip(ys, xc.partials()))
        for xc, yc in zip(xs, ys)))


def cotangent_lift(x: VectorField, cot: VariableSet | None = None) -> Polynomial:
    """The fiber-linear function <p, X> on the cotangent chart."""
    cot = cot or x.chart.cotangent()
    width = cot.n_vars
    positions = [cot.index(name) for name in x.chart.names]
    terms: dict = {}
    for comp, p_name in zip(x.components, cot.fiber):
        p = cot.index(p_name)
        for e, c in comp.terms.items():
            ne = [0] * width
            for pos, k in zip(positions, e):
                ne[pos] += k
            ne[p] += 1
            ne = tuple(ne)
            # each component lands on its own fiber variable; terms can meet
            # only if a name of the chart is a fiber name of ``cot``
            s = terms.get(ne, 0) + c
            if s:
                terms[ne] = s if s.__class__ is int else normal_coefficient(s)
            else:
                del terms[ne]
    return Polynomial._trusted(cot, terms)


def field_of_lift(lam: Polynomial, base: VariableSet) -> VectorField:
    """The inverse of :func:`cotangent_lift`: a fiber-linear polynomial read
    as a vector field on ``base`` via p_i -> d/dq^i."""
    n = base.dimension
    comps = []
    for d in lam.partials()[lam.varset.dimension:]:
        terms = {}
        for e, c in d.terms.items():
            if any(e[n:]):
                raise InternalCheckError("expected a polynomial in base variables only")
            terms[e[:n]] = c
        comps.append(Polynomial._trusted(base, terms))
    return VectorField(base, tuple(comps))


def sym_tensor_lift(s: SymTensor2, cot: VariableSet | None = None) -> Polynomial:
    """sum_ij S^ij p_i p_j for a contravariant symmetric tensor."""
    if s.kind != "contravariant":
        raise MetricError("only contravariant tensors lift to fiber polynomials")
    cot = cot or s.chart.cotangent()
    p = [Polynomial.variable(cot, name) for name in cot.fiber]
    return sum_of_products(cot, ((e.rename(cot), p[i] * p[j])
                                 for i, row in enumerate(s.entries)
                                 for j, e in enumerate(row) if e.terms))


def hamiltonian(m: MetricData, cot: VariableSet | None = None) -> Polynomial:
    """H_g = (1/2) <p, g_flat^{-1} p> = half the cometric lift."""
    return sym_tensor_lift(m.cometric, cot).scale(Fraction(1, 2))


def canonical_poisson(f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = sum_i df/dp_i dg/dq^i - df/dq^i dg/dp_i on a cotangent chart."""
    varset = f.varset
    if g.varset != varset:
        raise ChartMismatchError("bracket arguments on different charts")
    if not varset.has_fiber:
        raise VariableSetError("canonical bracket needs fiber variables")
    n = varset.dimension
    fd, gd = f.partials(), g.partials()
    return sum_of_products(varset, zip(fd[n:], gd[:n]), zip(fd[:n], gd[n:]))


def lie_derivative(x: VectorField, t: SymTensor2) -> SymTensor2:
    """Lie derivative of a symmetric 2-tensor along a vector field.

    Contravariant case satisfies {X-lift, T-lift} = (L_X T)-lift exactly;
    covariant case is the dual Leibniz formula.
    """
    if x.chart != t.chart:
        raise ChartMismatchError("tensor and field on different charts")
    chart, n = x.chart, x.chart.dimension
    xs, ts = x.components, t.entries
    covariant = t.kind == "covariant"
    # shared by every entry: jac[i][k] = dX^i/dq^k, transposed when covariant
    jac = [c.partials() for c in xs]
    if covariant:
        jac = list(zip(*jac))
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            derivation = zip(xs, ts[i][j].partials())
            jacobian = [pair for k in range(n)
                        for pair in ((ts[k][j], jac[i][k]), (ts[i][k], jac[j][k]))]
            entries[i][j] = entries[j][i] = (
                sum_of_products(chart, chain(derivation, jacobian)) if covariant
                else sum_of_products(chart, derivation, jacobian))
    return SymTensor2(x.chart, t.kind, tuple(map(tuple, entries)))


def musical_flat(v: VectorField, m: MetricData) -> OneForm:
    """(g_flat v)_i = sum_j g_ij v^j; needs the covariant polynomial metric."""
    if m.metric is None:
        raise MetricError("musical flat requires a covariant metric")
    if v.chart != m.chart:
        raise ChartMismatchError("field and metric on different charts")
    return OneForm(v.chart, tuple(
        RationalFunction(sum_of_products(v.chart, zip(row, v.components)))
        for row in m.metric.entries))


def musical_sharp(omega: OneForm, m: MetricData) -> RationalVectorField:
    """(g_sharp omega)^i = sum_j g^ij omega_j; rational components in general."""
    if omega.chart != m.chart:
        raise ChartMismatchError("form and metric on different charts")
    n = omega.chart.dimension
    comps = []
    for i in range(n):
        acc = RationalFunction.zero(omega.chart)
        for j in range(n):
            acc = acc + RationalFunction(m.cometric.entries[i][j]) * omega.components[j]
        comps.append(acc)
    return RationalVectorField(omega.chart, tuple(comps))
