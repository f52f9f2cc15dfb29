
import pytest

from foliatk import (
    ChartMismatchError,
    FoliationModule,
    MetricData,
    PreconditionError,
    SubmersionData,
    SymTensor2,
    VariableSet,
    VectorField,
    check_riemannian,
    compose,
    compose_cotangent_maps,
    cotangent_lift,
    horizontal_lift,
    integrability_check,
    metric_defect,
    module_equal,
    morita_span_check,
    phi_pi,
    poisson_defect,
    pullback_foliation,
    pullback_function,
)
from foliatk.errors import VariableSetError
from foliatk.ipoisson import PolyMap
from foliatk.poly import random_polynomial
from foliatk.submersion import CotangentMap

from conftest import P, VF, euclidean, matrix

SRC = VariableSet(("x", "y", "z"))
TGT = VariableSet(("u", "v"))
LINE = VariableSet(("w",))
COT_SRC = SRC.cotangent()
COT_TGT = TGT.cotangent()


def euclidean_projection(source=SRC, target=TGT, indices=(0, 1)):
    return SubmersionData(source, target, indices, euclidean(source), euclidean(target))


def twisted_submersion():
    """R^3 -> R^2 with the corrected band metric upstairs, Euclidean downstairs."""
    h_inv = SymTensor2(SRC, "contravariant", matrix(SRC, [
        ["1", "0", "0"], ["0", "1", "x"], ["0", "x", "1 + x^2"]]))
    h_cov = SymTensor2(SRC, "covariant", matrix(SRC, [
        ["1", "0", "0"], ["0", "1 + x^2", "-x"], ["0", "-x", "1"]]))
    return SubmersionData(SRC, TGT, (0, 1), MetricData(h_inv, h_cov), euclidean(TGT))


def scaled_projection():
    h_inv = SymTensor2(SRC, "contravariant", matrix(SRC, [
        ["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    return SubmersionData(SRC, TGT, (0, 1), MetricData(h_inv), euclidean(TGT))


# -- riemannian identity -------------------------------------------------------


def test_euclidean_projection_is_riemannian():
    assert check_riemannian(euclidean_projection()).passed


def test_twisted_metrics_give_a_riemannian_submersion():
    assert check_riemannian(twisted_submersion()).passed


def test_scaling_breaks_the_isometry():
    res = check_riemannian(scaled_projection())
    assert not res.passed
    assert res.entry == (0, 0)
    assert res.defect == P("1", SRC)


# -- phi and pullback of functions ----------------------------------------------


def test_twisted_cotangent_map():
    phi = phi_pi(twisted_submersion())
    assert [str(c) for c in phi.base_components] == ["x", "y"]
    assert phi.fiber_components == (P("p_x", COT_SRC), P("p_y + x*p_z", COT_SRC))


def test_euclidean_cotangent_map_is_trivial():
    phi = phi_pi(euclidean_projection())
    assert phi.fiber_components == (P("p_x", COT_SRC), P("p_y", COT_SRC))


def test_pullback_of_target_momentum():
    assert pullback_function(twisted_submersion(), P("p_v", COT_TGT)) == P("p_y + x*p_z", COT_SRC)


def test_phi_pi_needs_polynomial_target_metric():
    s = SubmersionData(SRC, TGT, (0, 1), euclidean(SRC),
                       MetricData(SymTensor2.euclidean(TGT)))
    with pytest.raises(PreconditionError):
        phi_pi(s)


# -- horizontal lifts --------------------------------------------------------------


def test_twisted_horizontal_frame():
    s = twisted_submersion()
    assert horizontal_lift(s, VF(TGT, "0", "1")) == VF(SRC, "0", "1", "x")
    assert horizontal_lift(s, VF(TGT, "1", "0")) == VF(SRC, "1", "0", "0")


def test_euclidean_lift_keeps_components(rng):
    s = euclidean_projection()
    for _ in range(5):
        x = VectorField(TGT, tuple(
            random_polynomial(rng, TGT, max_base_degree=2, terms=2) for _ in range(2)
        ))
        v = horizontal_lift(s, x)
        assert v.components[2].is_zero()


def test_lift_round_trip(rng):
    s = twisted_submersion()
    cot_tgt = TGT.cotangent()
    for _ in range(5):
        x = VectorField(TGT, tuple(
            random_polynomial(rng, TGT, max_base_degree=2, terms=2) for _ in range(2)
        ))
        v = horizontal_lift(s, x)
        assert cotangent_lift(v, COT_SRC) == pullback_function(s, cotangent_lift(x, cot_tgt))


def test_lift_fails_for_non_riemannian_data():
    with pytest.raises(PreconditionError):
        horizontal_lift(scaled_projection(), VF(TGT, "1", "0"))


# -- pullback foliations -------------------------------------------------------------


def test_pullback_of_zero_foliation_is_vertical():
    result = pullback_foliation(euclidean_projection(), None)
    assert [g.components for g in result.generators] == [
        VF(SRC, "0", "0", "1").components
    ]


def test_pullback_of_rotation_through_euclidean_projection():
    rot = FoliationModule(TGT, (VF(TGT, "-v", "u"),))
    result = pullback_foliation(euclidean_projection(), rot)
    expected = FoliationModule(SRC, (VF(SRC, "-y", "x", "0"), VF(SRC, "0", "0", "1")))
    assert module_equal(result, expected).passed


def test_pullback_through_twisted_submersion():
    fol = FoliationModule(TGT, (VF(TGT, "1", "0"),))
    result = pullback_foliation(twisted_submersion(), fol)
    expected = FoliationModule(SRC, (VF(SRC, "1", "0", "0"), VF(SRC, "0", "0", "1")))
    assert module_equal(result, expected).passed


# -- defects ----------------------------------------------------------------------------


def test_twisted_poisson_defect():
    defect, cert = poisson_defect(twisted_submersion(), P("p_u", COT_TGT), P("p_v", COT_TGT))
    assert defect == P("p_z", COT_SRC)
    assert cert.claim_holds


def test_euclidean_defects_vanish(rng):
    s = euclidean_projection()
    for _ in range(5):
        f = random_polynomial(rng, COT_TGT, max_base_degree=2, max_fiber_degree=2, terms=3)
        g = random_polynomial(rng, COT_TGT, max_base_degree=2, max_fiber_degree=2, terms=3)
        defect, cert = poisson_defect(s, f, g)
        assert defect.is_zero()
        assert cert.claim_holds


def test_base_functions_commute():
    defect, _ = poisson_defect(twisted_submersion(), P("u", COT_TGT), P("v", COT_TGT))
    assert defect.is_zero()


def test_poisson_defect_certificate_always_passes(rng):
    s = twisted_submersion()
    for _ in range(8):
        f = random_polynomial(rng, COT_TGT, max_base_degree=2, max_fiber_degree=2, terms=3)
        g = random_polynomial(rng, COT_TGT, max_base_degree=2, max_fiber_degree=2, terms=3)
        _, cert = poisson_defect(s, f, g)
        assert cert.claim_holds


def test_twisted_metric_defect():
    defect, cert = metric_defect(twisted_submersion())
    assert defect == P("1/2*p_z^2", COT_SRC)
    assert cert.claim_holds
    assert [str(c) for c in cert.cofactors] == ["1/2*p_z"]


def test_euclidean_metric_defect():
    defect, cert = metric_defect(euclidean_projection())
    assert defect == P("1/2*p_z^2", COT_SRC)
    assert cert.claim_holds


def test_metric_defect_is_fiber_quadratic(rng):
    defect, _ = metric_defect(twisted_submersion())
    assert defect.is_fiber_homogeneous(2)


def test_identity_projection_has_no_defect():
    s = SubmersionData(TGT, TGT, (0, 1), euclidean(TGT), euclidean(TGT))
    defect, cert = metric_defect(s)
    assert defect.is_zero()
    assert cert.claim_holds


# -- integrability -----------------------------------------------------------------------


def test_euclidean_horizontal_distribution_is_integrable():
    assert integrability_check(euclidean_projection()).passed


def test_twisted_distribution_has_curvature():
    res = integrability_check(twisted_submersion())
    assert not res.passed
    i, j, witness = res.witness
    assert (i, j) == (0, 1)
    assert witness == VF(SRC, "0", "0", "1")


def test_vertical_metric_dependence_keeps_integrability():
    # product metric with x-dependent vertical block only: lifts unchanged
    h_inv = SymTensor2(SRC, "contravariant", matrix(SRC, [
        ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1 + x^2"]]))
    s = SubmersionData(SRC, TGT, (0, 1), MetricData(h_inv), euclidean(TGT))
    assert check_riemannian(s).passed
    assert integrability_check(s).passed


# -- morita spans -------------------------------------------------------------------------


def test_reflexive_span_passes():
    s = euclidean_projection()
    rot = FoliationModule(TGT, (VF(TGT, "-v", "u"),))
    res = morita_span_check(s, s, rot, rot)
    assert res.passed


def test_two_projection_span_passes():
    s1 = euclidean_projection()
    s2 = SubmersionData(SRC, LINE, (0,), euclidean(SRC), euclidean(LINE))
    f1 = FoliationModule(TGT, (VF(TGT, "0", "1"),))
    res = morita_span_check(s1, s2, f1, None)
    assert res.passed
    assert any("surjectivity" in note for note in res.notes)


def test_mismatched_fibers_fail():
    s1 = euclidean_projection()
    s2 = SubmersionData(SRC, LINE, (0,), euclidean(SRC), euclidean(LINE))
    res = morita_span_check(s1, s2, None, None)
    assert not res.passed
    (side, idx), cert = res.comparison.witness
    assert not cert.remainder.is_zero()


def test_span_requires_shared_cometric():
    s1 = euclidean_projection()
    h_inv = SymTensor2(SRC, "contravariant", matrix(SRC, [
        ["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    s2 = SubmersionData(SRC, LINE, (0,), MetricData(h_inv), euclidean(LINE))
    with pytest.raises(PreconditionError):
        morita_span_check(s1, s2, None, None)


# -- functoriality ------------------------------------------------------------------------


def _tower():
    """R^4 -> R^3 -> R^2 with the band metric in the middle."""
    big = VariableSet(("x", "y", "z", "w"))
    h4_inv = SymTensor2(big, "contravariant", matrix(big, [
        ["1", "0", "0", "0"],
        ["0", "1", "x", "0"],
        ["0", "x", "1 + x^2", "0"],
        ["0", "0", "0", "1"]]))
    h4_cov = SymTensor2(big, "covariant", matrix(big, [
        ["1", "0", "0", "0"],
        ["0", "1 + x^2", "-x", "0"],
        ["0", "-x", "1", "0"],
        ["0", "0", "0", "1"]]))
    mid = twisted_submersion()
    inner = SubmersionData(big, SRC, (0, 1, 2), MetricData(h4_inv, h4_cov),
                           mid.source_metric)
    return big, inner, mid


def test_phi_of_composition_is_composition_of_phis():
    big, inner, outer = _tower()
    assert check_riemannian(inner).passed and check_riemannian(outer).passed
    composed = compose(inner, outer)
    assert check_riemannian(composed).passed
    direct = phi_pi(composed)
    chained = compose_cotangent_maps(phi_pi(inner), phi_pi(outer))
    assert direct.base_components == chained.base_components
    assert direct.fiber_components == chained.fiber_components


def test_pullback_composes():
    big, inner, outer = _tower()
    composed = compose(inner, outer)
    fol = FoliationModule(TGT, (VF(TGT, "-v", "u"),))
    through_composition = pullback_foliation(composed, fol)
    step_by_step = pullback_foliation(inner, pullback_foliation(outer, fol))
    assert module_equal(through_composition, step_by_step).passed


def test_cotangent_map_is_a_checked_poly_map():
    phi = phi_pi(euclidean_projection())
    assert isinstance(phi, PolyMap) and phi.images["p_u"] == P("p_x", COT_SRC)
    images = dict(phi.images, p_u=P("p_x^2", COT_SRC))
    with pytest.raises(PreconditionError, match="fiber-linear"):
        CotangentMap(COT_SRC, COT_TGT, images)
    with pytest.raises(VariableSetError, match="cotangent charts"):
        CotangentMap(COT_SRC, TGT, {"u": P("x", COT_SRC), "v": P("y", COT_SRC)})


def test_compose_requires_matching_charts():
    big, inner, outer = _tower()
    with pytest.raises(ChartMismatchError):
        compose(outer, inner)
