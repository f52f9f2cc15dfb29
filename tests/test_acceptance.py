"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import itertools
import math
import random
import time
from math import comb

import pytest

from foliatk import (
    FlowState,
    FoliationModule,
    MetricData,
    SubmersionData,
    SymTensor2,
    VariableSet,
    VectorField,
    canonical_poisson,
    cotangent_lift,
    buchberger,
    check_riemannian,
    compose,
    fiber_dim,
    geodesic_orthogonality_check,
    hamiltonian,
    ideal_membership,
    integrability_check,
    isotropy_algebra,
    lie_bracket,
    lie_derivative,
    lift_ideal,
    metric_defect,
    module_equal,
    monitor_ideal_preservation,
    morita_span_check,
    phi_pi,
    poisson_defect,
    pullback_foliation,
    srf_check,
    sym_tensor_lift,
    tangent_dim,
)
from foliatk.poly import GREVLEX, Polynomial, random_polynomial

from conftest import P, VF, euclidean, matrix
from oracle import bounded_membership

R2 = VariableSet(("x", "y"))
R3 = VariableSet(("x", "y", "z"))
COT2 = R2.cotangent()
COT3 = R3.cotangent()


class _Timer:
    def __init__(self, criterion, budget):
        self.criterion = criterion
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion} {status} ({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.criterion} exceeded {self.budget}s"


def _random_field(rnd, chart):
    return VectorField(chart, tuple(
        random_polynomial(rnd, chart, max_base_degree=3, terms=3)
        for _ in range(chart.dimension)
    ))


def _random_sym(rnd, chart):
    n = chart.dimension
    raw = [[random_polynomial(rnd, chart, max_base_degree=2, terms=2)
            for _ in range(n)] for _ in range(n)]
    entries = tuple(tuple(raw[i][j] + raw[j][i] for j in range(n)) for i in range(n))
    return SymTensor2(chart, "contravariant", entries)


def test_criterion_1_bracket_and_derivative_lifts():
    with _Timer(1, 5.0):
        rnd = random.Random(101)
        for trial in range(200):
            chart = (VariableSet(("x",)), R2, R3)[trial % 3]
            cot = chart.cotangent()
            x, y = _random_field(rnd, chart), _random_field(rnd, chart)
            assert canonical_poisson(
                cotangent_lift(x, cot), cotangent_lift(y, cot)
            ) == cotangent_lift(lie_bracket(x, y), cot)
            s = _random_sym(rnd, chart)
            assert canonical_poisson(
                cotangent_lift(x, cot), sym_tensor_lift(s, cot)
            ) == sym_tensor_lift(lie_derivative(x, s), cot)


def _twisted_submersion():
    src = R3
    tgt = VariableSet(("u", "v"))
    h_inv = SymTensor2(src, "contravariant", matrix(src, [
        ["1", "0", "0"], ["0", "1", "x"], ["0", "x", "1 + x^2"]]))
    h_cov = SymTensor2(src, "covariant", matrix(src, [
        ["1", "0", "0"], ["0", "1 + x^2", "-x"], ["0", "-x", "1"]]))
    return SubmersionData(src, tgt, (0, 1), MetricData(h_inv, h_cov), euclidean(tgt))


def test_criterion_2_cotangent_map_and_defects():
    with _Timer(2, 1.0):
        s = _twisted_submersion()
        cot_tgt = s.target.cotangent()
        phi = phi_pi(s)
        assert [str(c) for c in phi.base_components] == ["x", "y"]
        assert phi.fiber_components == (P("p_x", COT3), P("p_y + x*p_z", COT3))

        defect, cert = poisson_defect(s, P("p_u", cot_tgt), P("p_v", cot_tgt))
        assert defect == P("p_z", COT3) and cert.claim_holds

        mdefect, mcert = metric_defect(s)
        assert mdefect == P("1/2*p_z^2", COT3) and mcert.claim_holds

        res = integrability_check(s)
        assert not res.passed
        assert res.witness[2] == VF(R3, "0", "0", "1")


def test_criterion_3_srf_decision_pair():
    with _Timer(3, 1.0):
        rotation = FoliationModule(R2, (VF(R2, "-y", "x"),))
        out = srf_check(rotation, euclidean(R2))
        assert out.passed
        assert all(l.is_zero() for row in out.lam for l in row)

        cubic = FoliationModule(R2, (VF(R2, "-(x^2+y^2)*y", "(x^2+y^2)*x"),))
        ref = srf_check(cubic, euclidean(R2))
        assert not ref.passed
        assert not ref.certificate.remainder.is_zero()
        assert ref.bracket == P("-2*(x*p_x + y*p_y)*(x*p_y - y*p_x)", COT2)


def test_criterion_4_killing_connection():
    from foliatk import killing_connection
    from foliatk.ratfunc import RationalFunction

    with _Timer(4, 1.0):
        com = SymTensor2(R2, "contravariant", matrix(R2, [["1", "0"], ["0", "1 + x^2"]]))
        fol = FoliationModule(R2, (VectorField.coordinate(R2, 0),
                                   VectorField.coordinate(R2, 1)))
        kc = killing_connection(fol, MetricData(com))
        assert kc.verified_identity
        w01 = kc.omega[0][1]
        assert w01.components[0].is_zero()
        assert w01.components[1] == RationalFunction(P("-x", R2), P("1 + x^2", R2))


def _oracle_instances(rnd):
    """Seeded stream of (gens, f, degree_bound) within the stated size caps."""
    names = ("x", "y", "z")
    while True:
        n_base = rnd.choice((1, 2, 2, 2, 3))
        chart = VariableSet(names[:n_base]).cotangent()
        max_fiber = 1 if n_base == 3 else 2
        gens = []
        for _ in range(rnd.choice((2, 2, 3))):
            terms = 1 if rnd.random() < 0.4 else rnd.choice((2, 3))
            g = random_polynomial(rnd, chart, max_base_degree=2,
                                  max_fiber_degree=max_fiber, terms=terms)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        if rnd.random() < 0.5:
            f = Polynomial.zero(chart)
            for g in gens:
                c = random_polynomial(rnd, chart, max_base_degree=1,
                                      max_fiber_degree=0, terms=rnd.choice((1, 2)))
                f = f + c * g
            if f.is_zero() or f.base_degree() > 2 or f.fiber_degree() > max_fiber + 1:
                continue
        else:
            f = random_polynomial(rnd, chart, max_base_degree=2,
                                  max_fiber_degree=max_fiber, terms=3)
            if f.is_zero():
                continue
        bound = f.total_degree() - min(g.total_degree() for g in gens) + 2
        if bound < 0:
            continue
        yield gens, f, bound


def test_criterion_5_groebner_oracle_equivalence():
    with _Timer(5, 60.0):
        rnd = random.Random(505)
        stream = _oracle_instances(rnd)
        counted = members = 0
        while counted < 100:
            gens, f, bound = next(stream)
            gb = buchberger(gens, GREVLEX)
            cert = ideal_membership(f, gb)
            if cert.claim_holds:
                needed = max(
                    (c.total_degree() for c in cert.cofactors if not c.is_zero()),
                    default=0,
                )
                if needed > bound:
                    # certificate needs degrees beyond the oracle's stated bound;
                    # the instance is not oracle-decidable, draw another
                    continue
            oracle_says = bounded_membership(f, gens, bound)
            assert oracle_says == cert.claim_holds
            assert cert.verify(f)
            counted += 1
            members += int(cert.claim_holds)
        assert counted >= 100
        assert 0 < members < counted
        print(f"  oracle agreement on {counted} instances ({members} members)")


def test_criterion_6_fiber_and_isotropy_suite():
    with _Timer(6, 5.0):
        line = VariableSet(("x",))
        for k in (1, 2, 3):
            fol = FoliationModule(line, (VF(line, f"x^{k}"),))
            assert fiber_dim(fol, (0,)) == 1

        so3_chart = VariableSet(("q1", "q2", "q3"))
        so3 = FoliationModule(so3_chart, (
            VF(so3_chart, "-q2", "q1", "0"),
            VF(so3_chart, "-q3", "0", "q1"),
            VF(so3_chart, "0", "-q3", "q2"),
        ))
        origin = isotropy_algebra(so3, (0, 0, 0))
        assert (origin.fiber_dim, origin.tangent_dim, origin.isotropy_dim) == (3, 0, 3)
        c = origin.structure_constants
        assert c[0][1] == (0, 0, -1)
        assert c[0][2] == (0, 1, 0)
        assert c[1][2] == (-1, 0, 0)
        regular = isotropy_algebra(so3, (1, 0, 0))
        assert (regular.fiber_dim, regular.tangent_dim, regular.isotropy_dim) == (2, 2, 0)

        # flagged comparison for the order-k family: syzygy-computed value vs
        # the binomial count C(k+n-1, n-1), which omits the n directions
        for n, k in ((2, 2), (2, 3)):
            chart = VariableSet(("x", "y", "z")[:n])
            gens = []
            for combo in itertools.combinations_with_replacement(range(n), k):
                mono = "*".join(chart.base[i] for i in combo)
                for d in range(n):
                    comps = ["0"] * n
                    comps[d] = mono
                    gens.append(VF(chart, *comps))
            fol = FoliationModule(chart, gens)
            computed = fiber_dim(fol, (0,) * n)
            binomial = comb(k + n - 1, n - 1)
            assert computed == n * binomial
            print(f"  order-{k} family on R^{n}: syzygy fiber dim {computed}, "
                  f"binomial count {binomial} (flagged: differs by the factor n={n})")


def test_criterion_7_numeric_monitors():
    with _Timer(7, 10.0):
        rotation3 = FoliationModule(R3, (VF(R3, "-y", "x", "0"),))
        geo = geodesic_orthogonality_check(
            rotation3, euclidean(R3),
            FlowState((1.0, 0.0, 0.0), (1.0, 0.0, 1.0), 0.0), 1.0, 1e-3,
        )
        assert geo.max_abs_generator <= 1e-9

        cubic = FoliationModule(R2, (VF(R2, "-(x^2+y^2)*y", "(x^2+y^2)*x"),))
        assert not srf_check(cubic, euclidean(R2)).passed
        geo2 = geodesic_orthogonality_check(
            cubic, euclidean(R2), FlowState((1.0, 0.0), (1.0, 0.0), 0.0), 1.0, 1e-3,
        )
        assert geo2.max_abs_generator <= 1e-6

        so3_chart = VariableSet(("q1", "q2", "q3"))
        so3 = FoliationModule(so3_chart, (
            VF(so3_chart, "-q2", "q1", "0"),
            VF(so3_chart, "-q3", "0", "q1"),
            VF(so3_chart, "0", "-q3", "q2"),
        ))
        ideal = lift_ideal(so3)
        h = hamiltonian(euclidean(so3_chart), ideal.chart)
        mon = monitor_ideal_preservation(
            ideal, h, FlowState((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0), 1.0, 1e-3,
        )
        assert mon.max_abs_generator <= 1e-9
        assert mon.energy_drift <= 1e-8


def test_criterion_8_morita_spans():
    with _Timer(8, 5.0):
        tgt2 = VariableSet(("u", "v"))
        line = VariableSet(("w",))
        s1 = SubmersionData(R3, tgt2, (0, 1), euclidean(R3), euclidean(tgt2))
        s2 = SubmersionData(R3, line, (0,), euclidean(R3), euclidean(line))
        rot = FoliationModule(tgt2, (VF(tgt2, "-v", "u"),))

        assert morita_span_check(s1, s1, rot, rot).passed

        vertical = FoliationModule(tgt2, (VF(tgt2, "0", "1"),))
        assert morita_span_check(s1, s2, vertical, None).passed

        mismatch = morita_span_check(s1, s2, None, None)
        assert not mismatch.passed
        _, witness_cert = mismatch.comparison.witness
        assert not witness_cert.remainder.is_zero()

        big = VariableSet(("x", "y", "z", "w"))
        inner = SubmersionData(big, R3, (0, 1, 2), euclidean(big), euclidean(R3))
        outer = SubmersionData(R3, tgt2, (0, 1), euclidean(R3), euclidean(tgt2))
        composed = compose(inner, outer)
        assert check_riemannian(composed).passed
        direct = pullback_foliation(composed, rot)
        chained = pullback_foliation(inner, pullback_foliation(outer, rot))
        assert module_equal(direct, chained).passed
