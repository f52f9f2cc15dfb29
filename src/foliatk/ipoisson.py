"""Ideals on the cotangent chart: closure, normalizers, reduction, SRF decision.

The central decision procedure is :func:`srf_check`: a foliation with a
cometric is a module singular Riemannian foliation exactly when the metric
Hamiltonian normalizes the lift ideal: the bracket of every lifted generator
with it re-expresses over the lifted generators, and the fiber-degree-1
cofactor matrix (lambda) is the certificate.  So the SRF decision is the
normalizer-shaped claim loop (:func:`~foliatk.groebner.check_claims`), as
are :func:`normalizer_check` and :func:`poisson_closure_check`.
:func:`killing_connection` converts lambda into connection
one-forms omega and verifies the metric-compatibility identity of the
induced connection exactly: the covariant metric is A/D over the one
denominator D (1 for an explicit metric, else det of the cometric), so after
multiplying by D^2 every entry of the identity is a polynomial equality.
Rational functions appear only in the returned omega, as W/D.

Non-membership answers distinguish two strengths: "no polynomial certificate
exists" (always available) and, when the search finds one, a rational point
on the generators' common zero set where the remainder survives, which also
refutes membership with smooth coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import InternalCheckError, PreconditionError, VariableSetError
from .geometry import (
    MetricData,
    OneForm,
    SymTensor2,
    VectorField,
    canonical_poisson,
    field_of_lift,
    hamiltonian,
    lie_derivative,
)
from .groebner import Certificate, CheckResult, GroebnerBasis, buchberger, check_claims
from .groebner import ideal_membership
from .poly import BLOCK, MonomialOrder, Polynomial, VariableSet, sum_of_products
from .ratfunc import RationalFunction
from .sampling import candidate_points

if TYPE_CHECKING:  # pragma: no cover
    from .foliation import FoliationModule

Point = tuple[Fraction, ...]


class IdealPresentation:
    """Finitely generated ideal in the q,p-ring with cached Groebner data.

    An empty generator list presents the zero ideal; a list containing the
    zero polynomial is rejected.
    """

    def __init__(self, chart: VariableSet, generators: Sequence[Polynomial],
                 order: MonomialOrder = BLOCK):
        if not chart.has_fiber:
            raise VariableSetError("ideal presentations live on a cotangent chart")
        generators = tuple(generators)
        for g in generators:
            if g.is_zero():
                raise PreconditionError("zero polynomial among ideal generators")
            if g.varset != chart:
                raise VariableSetError("generator on a different chart")
        self.chart = chart
        self.generators = generators
        self.order = order

    @cached_property
    def gb(self) -> GroebnerBasis:
        return buchberger(self.generators, self.order)

    @cached_property
    def fiber_graded_linear(self) -> bool:
        return all(g.is_fiber_homogeneous(1) for g in self.generators)

    def membership(self, f: Polynomial) -> Certificate:
        """Certificate with cofactors over the presentation's own generators.

        Fiber-homogeneous generators (every lift ideal) have a fiber-homogeneous
        Groebner basis in any order, so the division never mixes fiber degrees:
        the cofactors and remainder are the sums of those of ``f``'s fiber
        components, and cofactors inherit the grading.
        """
        if f.varset != self.chart:
            raise VariableSetError("candidate on a different chart")
        return ideal_membership(f, self.gb)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return self.gb.normal_form(f)

    def __repr__(self):
        return f"IdealPresentation({len(self.generators)} generators on {self.chart.names})"


def find_obstruction_point(
    generators: Sequence[Polynomial], residue: Polynomial
) -> Point | None:
    """Rational point with all generators zero but the residue nonzero.

    Found points upgrade a polynomial-level refutation to a smooth-level one.
    The residue is tested first: it vanishes at most pool points, and where it
    does no generator needs evaluating.  The test is a conjunction, so the
    first point found is the same in either order.
    """
    if residue.is_zero():
        return None
    for exact in candidate_points(residue.varset.n_vars):
        if not residue.vanishes_at(exact) and all(g.vanishes_at(exact) for g in generators):
            return exact.fractions()
    return None


def poisson_closure_check(ideal: IdealPresentation) -> CheckResult:
    """Pass iff the bracket of every generator pair stays in the ideal."""
    gens = ideal.generators
    brackets = (((i, j), canonical_poisson(gens[i], gens[j]))
                for i, j in combinations(range(len(gens)), 2))
    return check_claims(brackets, ideal.membership,
                        lambda residue: find_obstruction_point(gens, residue))


def normalizer_check(ideal: IdealPresentation, f: Polynomial) -> CheckResult:
    """Pass iff {f, g} lies in the ideal for every generator g."""
    gens = ideal.generators
    return check_claims(((i, canonical_poisson(f, g)) for i, g in enumerate(gens)),
                        ideal.membership,
                        lambda residue: find_obstruction_point(gens, residue))


def reduced_bracket(ideal: IdealPresentation, f: Polynomial, g: Polynomial) -> Polynomial:
    """Normal-form representative of {[f], [g]} in the reduced Poisson algebra."""
    for name, cand in (("first", f), ("second", g)):
        res = normalizer_check(ideal, cand)
        if not res.passed:
            raise PreconditionError(
                f"{name} argument is not in the normalizer; "
                f"witness generator index {res.witness[0]}"
            )
    return ideal.normal_form(canonical_poisson(f, g))


# ---------------------------------------------------------------------------
# SRF decision


@dataclass(frozen=True)
class SRFCertificate:
    """lambda matrix with {X_a-lift, H_g} = sum_b lambda[a][b] X_b-lift, exactly."""

    hamiltonian: Polynomial
    lam: tuple[tuple[Polynomial, ...], ...]
    certificates: tuple[Certificate, ...]
    omega: tuple[tuple[OneForm, ...], ...] | None = None
    verified_identity: bool = False

    @property
    def passed(self) -> bool:
        return True


@dataclass(frozen=True)
class SRFRefutation:
    """First generator whose bracket with H_g admits no polynomial certificate."""

    hamiltonian: Polynomial
    generator_index: int
    bracket: Polynomial
    certificate: Certificate
    obstruction_point: Point | None

    @property
    def passed(self) -> bool:
        return False

    @property
    def smooth_level(self) -> bool:
        return self.obstruction_point is not None


def srf_check(fol: "FoliationModule", metric: MetricData) -> SRFCertificate | SRFRefutation:
    """Decide H_g in N(I_F) by dividing each {X_a-lift, H_g} by the lift ideal."""
    if metric.chart != fol.chart:
        raise PreconditionError("metric and foliation on different charts")
    ideal = fol.lift_presentation
    gens = ideal.generators
    h = hamiltonian(metric, ideal.chart)
    res = check_claims(((a, canonical_poisson(lifted, h)) for a, lifted in enumerate(gens)),
                       ideal.membership,
                       lambda residue: find_obstruction_point(gens, residue))
    if not res.passed:
        a, cert = res.witness
        return SRFRefutation(h, a, cert.reexpand(), cert, res.obstruction_point)
    certs = tuple(cert for _, cert in res.certificates)
    if not all(cof.is_zero() or cof.is_fiber_homogeneous(1)
               for cert in certs for cof in cert.cofactors):
        raise InternalCheckError("lambda cofactor is not fiber-linear; grading bookkeeping broke")
    return SRFCertificate(h, tuple(cert.cofactors for cert in certs), certs)


def killing_connection(fol: "FoliationModule", metric: MetricData) -> SRFCertificate:
    """omega_a^b = -g_flat(lambda_a^b read as a vector field), verified exactly.

    The verified identity is the metric-compatibility condition of the
    induced connection: for all coordinate fields d_i, d_j and each a,

        (L_{X_a} g)(d_i, d_j) = sum_b omega_a^b(d_i) g(X_b, d_j)
                              + omega_a^b(d_j) g(d_i, X_b)

    With g = A/D over one denominator (:meth:`MetricData.covariant_over_det`),
    W_ab = -A lambda_ab gives omega_a^b = W_ab/D, and F_b = A X_b gives
    g(X_b, .) = F_b/D.  Multiplied by D^2, each entry i <= j is one
    polynomial equality

        D (L_{X_a} A)_ij - X_a(D) A_ij = sum_b W_ab,i F_b,j + W_ab,j F_b,i

    and no rational function enters the check; the printed omega components
    are W_ab,i/D.  Failure is an internal-error class: it would mean the
    omega/lambda conventions disagree, never bad input.
    """
    result = srf_check(fol, metric)
    if not result.passed:
        raise PreconditionError(
            "killing_connection requires srf_check to pass; "
            f"generator {result.generator_index} is refuted"
        )
    chart = fol.chart
    n = chart.dimension
    a_mat, d = metric.covariant_over_det()
    gens = fol.generators

    def times_a(v: VectorField) -> list[Polynomial]:
        return [sum_of_products(chart, zip(row, v.components)) for row in a_mat]

    flat = [times_a(x) for x in gens]
    cov = SymTensor2(chart, "covariant", a_mat)
    zero_form = OneForm.zero(chart)
    omega: list[tuple[OneForm, ...]] = []
    for a, x in enumerate(gens):
        # W_ab for each nonzero lambda_ab; a zero lambda contributes nothing
        w_row = [None if lam.is_zero()
                 else [-c for c in times_a(field_of_lift(lam, chart))]
                 for lam in result.lam[a]]
        lie = lie_derivative(x, cov).entries
        xd = x.apply(d)
        for i in range(n):
            for j in range(i, n):
                rhs = [pair for w, f in zip(w_row, flat) if w is not None
                       for pair in ((w[i], f[j]), (w[j], f[i]))]
                if sum_of_products(chart, [(d, lie[i][j])], [(xd, a_mat[i][j]), *rhs]):
                    raise InternalCheckError(
                        f"connection identity failed at generator {a}, entry ({i},{j})"
                    )
        omega.append(tuple(
            zero_form if w is None
            else OneForm(chart, tuple(RationalFunction(c, d) for c in w))
            for w in w_row
        ))

    return SRFCertificate(
        result.hamiltonian,
        result.lam,
        result.certificates,
        omega=tuple(omega),
        verified_identity=True,
    )


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class PolyMap:
    """Polynomial map between cotangent charts, given by images of target variables."""

    source: VariableSet
    target: VariableSet
    images: Mapping[str, Polynomial]

    def __post_init__(self):
        for name in self.target.names:
            if name not in self.images:
                raise VariableSetError(f"no image for target variable {name!r}")
            if self.images[name].varset != self.source:
                raise VariableSetError("image on the wrong source chart")

    def pullback(self, f: Polynomial) -> Polynomial:
        if f.varset != self.target:
            raise VariableSetError("pullback argument on the wrong chart")
        return f.compose(self.source, self.images)


@dataclass(frozen=True)
class MorphismReport:
    """Defect certificates for the three morphism conditions."""

    ideal_certificates: tuple[Certificate, ...]
    normalizer_results: tuple[CheckResult, ...]
    bracket_certificates: tuple[tuple[tuple[int, int], Polynomial, Certificate], ...]
    passed: bool
    witness: object = None


def morphism_defect_check(
    ideal_src: IdealPresentation,
    ideal_dst: IdealPresentation,
    phi: PolyMap,
    probes: Sequence[Polynomial],
) -> MorphismReport:
    """Check the three defect conditions of a map against explicit probes.

    Conditions: pullbacks of the target ideal's generators land in the source
    ideal; pullbacks of the probes normalize the source ideal; and bracket
    defects {phi*f, phi*g} - phi*{f, g} land in the source ideal.  Probes must
    normalize the target ideal (precondition).
    """
    if phi.source != ideal_src.chart or phi.target != ideal_dst.chart:
        raise PreconditionError("map charts do not match the ideals")
    for k, probe in enumerate(probes):
        if not normalizer_check(ideal_dst, probe).passed:
            raise PreconditionError(f"probe {k} is not in the target normalizer")

    witness = None
    ideal_certs = []
    for g in ideal_dst.generators:
        cert = ideal_src.membership(phi.pullback(g))
        ideal_certs.append(cert)
        if not cert.claim_holds and witness is None:
            witness = ("ideal", g, cert)

    norm_results = []
    for probe in probes:
        res = normalizer_check(ideal_src, phi.pullback(probe))
        norm_results.append(res)
        if not res.passed and witness is None:
            witness = ("normalizer", probe, res)

    bracket_certs = []
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            defect = canonical_poisson(
                phi.pullback(probes[i]), phi.pullback(probes[j])
            ) - phi.pullback(canonical_poisson(probes[i], probes[j]))
            cert = ideal_src.membership(defect)
            bracket_certs.append(((i, j), defect, cert))
            if not cert.claim_holds and witness is None:
                witness = ("bracket", (i, j), cert)

    return MorphismReport(
        tuple(ideal_certs),
        tuple(norm_results),
        tuple(bracket_certs),
        passed=witness is None,
        witness=witness,
    )
