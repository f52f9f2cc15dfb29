"""Riemannian submersions in adapted coordinates and their cotangent maps.

Only coordinate projections are supported: the source chart splits into
base indices (mapped one-to-one onto the target coordinates) and fiber
indices.  That is exactly the normal form in which the defect lemmas are
proved, and it keeps every verification a polynomial identity.

The cotangent bundle map is phi = g_flat o dpi o h_flat^{-1} (source musical
inverse, target musical).  It fails to be Poisson exactly when the horizontal
distribution has curvature; the failure is confined to the vertical-momentum
ideal <p_alpha>, and both defect operations return certificates against that
ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ChartMismatchError, InternalCheckError, PreconditionError, VariableSetError
from .foliation import FoliationModule, involutivity_check, module_equal
from .geometry import MetricData, VectorField, canonical_poisson, cotangent_lift, hamiltonian, lie_bracket
from .groebner import Certificate, CheckResult
from .ipoisson import IdealPresentation, PolyMap, _restrict_to_base
from .linalg import poly_adjugate
from .poly import Polynomial, VariableSet


@dataclass(frozen=True)
class SubmersionData:
    """Coordinate projection (q^i, q^alpha) -> (q^i) with metric data on both ends.

    ``base_indices[j]`` is the source coordinate carrying target coordinate j.
    Surjectivity and connectedness of fibers are structural for full
    coordinate projections of R^n; they are recorded, not proven.
    """

    source: VariableSet
    target: VariableSet
    base_indices: tuple[int, ...]
    source_metric: MetricData
    target_metric: MetricData

    def __post_init__(self):
        if self.source.has_fiber or self.target.has_fiber:
            raise VariableSetError("submersion charts are base charts")
        m, n = self.target.dimension, self.source.dimension
        if len(self.base_indices) != m or m > n:
            raise PreconditionError("base indices must enumerate the target chart")
        if len(set(self.base_indices)) != m or not all(0 <= i < n for i in self.base_indices):
            raise PreconditionError("base indices must be distinct source indices")
        if self.source_metric.chart != self.source:
            raise ChartMismatchError("source metric on the wrong chart")
        if self.target_metric.chart != self.target:
            raise ChartMismatchError("target metric on the wrong chart")

    @property
    def fiber_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.source.dimension) if i not in self.base_indices)

    def rename_target_to_source(self, f: Polynomial, varset_out: VariableSet) -> Polynomial:
        """Compose a target base function with the projection."""
        name_map = {
            self.target.base[k]: self.source.base[self.base_indices[k]]
            for k in range(self.target.dimension)
        }
        return f.rename(varset_out, name_map)

    def vertical_ideal(self) -> IdealPresentation:
        """<p_alpha>: the lift ideal of the projection's fibers."""
        cot = self.source.cotangent()
        gens = [Polynomial.variable(cot, cot.fiber[a]) for a in self.fiber_indices]
        return IdealPresentation(cot, gens)


@dataclass(frozen=True)
class RiemannianCheck:
    passed: bool
    entry: tuple[int, int] | None = None
    defect: Polynomial | None = None

    def __bool__(self):
        return self.passed


def check_riemannian(s: SubmersionData) -> RiemannianCheck:
    """Cometric pushforward identity, entrywise and exact.

    For a coordinate projection the condition is that the base-index block of
    the source cometric equals the target cometric composed with the
    projection.
    """
    h_inv = s.source_metric.cometric.entries
    g_inv = s.target_metric.cometric.entries
    for i in range(s.target.dimension):
        for j in range(s.target.dimension):
            lhs = h_inv[s.base_indices[i]][s.base_indices[j]]
            rhs = s.rename_target_to_source(g_inv[i][j], s.source)
            if lhs != rhs:
                return RiemannianCheck(False, (i, j), lhs - rhs)
    return RiemannianCheck(True)


@dataclass(frozen=True)
class CotangentMap:
    """Bundle map between cotangent charts: base components plus fiber-linear momenta."""

    source: VariableSet
    target: VariableSet
    base_components: tuple[Polynomial, ...]
    fiber_components: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.source.has_fiber or not self.target.has_fiber:
            raise VariableSetError("cotangent maps live on cotangent charts")
        for c in self.fiber_components:
            if not (c.is_zero() or c.is_fiber_homogeneous(1)):
                raise PreconditionError("fiber components must be fiber-linear")

    def components(self) -> tuple[Polynomial, ...]:
        return self.base_components + self.fiber_components

    def as_poly_map(self) -> PolyMap:
        images = {}
        for name, comp in zip(self.target.base, self.base_components):
            images[name] = comp
        for name, comp in zip(self.target.fiber, self.fiber_components):
            images[name] = comp
        return PolyMap(self.source, self.target, images)

    def pullback(self, f: Polynomial) -> Polynomial:
        return self.as_poly_map().pullback(f)


def phi_pi(s: SubmersionData) -> CotangentMap:
    """phi = g_flat o dpi o h_flat^{-1}; needs the polynomial covariant target metric."""
    if s.target_metric.metric is None:
        raise PreconditionError("phi_pi needs a covariant polynomial target metric")
    cot_src = s.source.cotangent()
    cot_tgt = s.target.cotangent()
    m = s.target.dimension
    h_inv = s.source_metric.cometric.entries

    base_comps = tuple(
        Polynomial.variable(cot_src, s.source.base[s.base_indices[j]]) for j in range(m)
    )
    # (dpi h^{-1} p)^k = row base_indices[k] of h^{-1} contracted with p
    rows = []
    for k in range(m):
        acc = Polynomial.zero(cot_src)
        for b in range(s.source.dimension):
            entry = h_inv[s.base_indices[k]][b]
            if not entry.is_zero():
                acc = acc + entry.rename(cot_src) * Polynomial.variable(cot_src, cot_src.fiber[b])
        rows.append(acc)
    fiber_comps = []
    for j in range(m):
        acc = Polynomial.zero(cot_src)
        for k in range(m):
            g_jk = s.target_metric.metric.entries[j][k]
            if g_jk.is_zero():
                continue
            acc = acc + s.rename_target_to_source(g_jk, cot_src) * rows[k]
        fiber_comps.append(acc)
    return CotangentMap(cot_src, cot_tgt, base_comps, tuple(fiber_comps))


def pullback_function(s: SubmersionData, f: Polynomial) -> Polynomial:
    return phi_pi(s).pullback(f)


def horizontal_lift(s: SubmersionData, x: VectorField) -> VectorField:
    """The unique V with lift(V) = pullback(lift(X)), verified orthogonal and projectable."""
    if x.chart != s.target:
        raise ChartMismatchError("vector field not on the target chart")
    cot_src = s.source.cotangent()
    lifted = pullback_function(s, cotangent_lift(x, s.target.cotangent()))
    comps = tuple(
        _restrict_to_base(lifted.diff(p_name), s.source) for p_name in cot_src.fiber
    )
    v = VectorField(s.source, comps)

    for j in range(s.target.dimension):
        expected = s.rename_target_to_source(x.components[j], s.source)
        if v.components[s.base_indices[j]] != expected:
            raise PreconditionError(
                "horizontal lift is not projectable; is the submersion Riemannian?"
            )
    adj = poly_adjugate(s.source_metric.cometric.entries)
    for alpha in s.fiber_indices:
        acc = Polynomial.zero(s.source)
        for b in range(s.source.dimension):
            acc = acc + adj[alpha][b] * v.components[b]
        if not acc.is_zero():
            raise PreconditionError(
                "horizontal lift is not h-orthogonal to the fibers; "
                "is the submersion Riemannian?"
            )
    return v


def pullback_foliation(s: SubmersionData, target_fol: FoliationModule | None) -> FoliationModule:
    """Horizontal lifts of the target generators plus the vertical coordinate fields."""
    gens: list[VectorField] = []
    if target_fol is not None:
        if target_fol.chart != s.target:
            raise ChartMismatchError("target foliation on the wrong chart")
        gens.extend(horizontal_lift(s, g) for g in target_fol.generators)
    gens.extend(VectorField.coordinate(s.source, a) for a in s.fiber_indices)
    result = FoliationModule(s.source, gens)
    check = involutivity_check(result)
    if not check.passed:
        raise InternalCheckError(
            f"pullback foliation failed involutivity at pair {check.witness[0]}"
        )
    return result


def poisson_defect(
    s: SubmersionData, f: Polynomial, g: Polynomial
) -> tuple[Polynomial, Certificate]:
    """{phi*f, phi*g} - phi*{f,g}, certified inside the vertical-momentum ideal."""
    phi = phi_pi(s)
    defect = canonical_poisson(phi.pullback(f), phi.pullback(g)) - phi.pullback(
        canonical_poisson(f, g)
    )
    cert = s.vertical_ideal().membership(defect)
    if not cert.claim_holds:
        if check_riemannian(s).passed:
            raise InternalCheckError("poisson defect escaped the vertical ideal")
        raise PreconditionError("submersion is not Riemannian; the defect guarantee needs the isometry identity")
    return defect, cert


def metric_defect(s: SubmersionData) -> tuple[Polynomial, Certificate]:
    """H_h - H_g o phi, certified inside the vertical-momentum ideal."""
    phi = phi_pi(s)
    h_src = hamiltonian(s.source_metric, s.source.cotangent())
    h_tgt = hamiltonian(s.target_metric, s.target.cotangent())
    defect = h_src - phi.pullback(h_tgt)
    if not (defect.is_zero() or defect.is_fiber_homogeneous(2)):
        raise InternalCheckError("metric defect is not fiber-quadratic")
    cert = s.vertical_ideal().membership(defect)
    if not cert.claim_holds:
        if check_riemannian(s).passed:
            raise InternalCheckError("metric defect escaped the vertical ideal")
        raise PreconditionError("submersion is not Riemannian; the defect guarantee needs the isometry identity")
    return defect, cert


def integrability_check(s: SubmersionData) -> CheckResult:
    """Horizontal distribution integrability via brackets of coordinate lifts.

    The bracket defect of two horizontal lifts of commuting coordinate fields
    is always vertical (checked); the distribution is integrable iff every
    such defect vanishes identically.  The first nonzero defect is returned
    as the curvature witness ``(i, j, defect)``.
    """
    m = s.target.dimension
    lifts = [horizontal_lift(s, VectorField.coordinate(s.target, i)) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            defect = lie_bracket(lifts[i], lifts[j])
            for k in range(m):
                if not defect.components[s.base_indices[k]].is_zero():
                    raise InternalCheckError(
                        "bracket of horizontal lifts has a horizontal part"
                    )
            if not defect.is_zero():
                return CheckResult(False, witness=(i, j, defect))
    return CheckResult(True)


@dataclass(frozen=True)
class MoritaResult:
    passed: bool
    comparison: CheckResult
    left_pullback: FoliationModule
    right_pullback: FoliationModule
    notes: tuple[str, ...]

    def __bool__(self):
        return self.passed


def morita_span_check(
    s1: SubmersionData,
    s2: SubmersionData,
    fol1: FoliationModule | None,
    fol2: FoliationModule | None,
) -> MoritaResult:
    """Module equality of the two pullback foliations over a common source."""
    if s1.source != s2.source:
        raise ChartMismatchError("span legs have different source charts")
    if s1.source_metric.cometric != s2.source_metric.cometric:
        raise PreconditionError("span legs carry different source cometrics")
    left = pullback_foliation(s1, fol1)
    right = pullback_foliation(s2, fol2)
    comparison = module_equal(left, right)
    notes = (
        "surjectivity and connected fibers are structural for coordinate projections; recorded, not proven",
    )
    return MoritaResult(comparison.passed, comparison, left, right, notes)


def compose(inner: SubmersionData, outer: SubmersionData) -> SubmersionData:
    """The composed coordinate projection; metrics must agree on the shared chart."""
    if inner.target != outer.source:
        raise ChartMismatchError("submersions are not composable")
    if inner.target_metric.cometric != outer.source_metric.cometric:
        raise PreconditionError("metrics disagree on the intermediate chart")
    indices = tuple(inner.base_indices[k] for k in outer.base_indices)
    return SubmersionData(inner.source, outer.target, indices,
                          inner.source_metric, outer.target_metric)


def compose_cotangent_maps(inner: CotangentMap, outer: CotangentMap) -> CotangentMap:
    """outer o inner as a single cotangent map (pull outer's components through inner)."""
    if inner.target != outer.source:
        raise ChartMismatchError("cotangent maps are not composable")
    base = tuple(inner.pullback(c) for c in outer.base_components)
    fiber = tuple(inner.pullback(c) for c in outer.fiber_components)
    return CotangentMap(inner.source, outer.target, base, fiber)
