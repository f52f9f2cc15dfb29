import dataclasses
import json

import pytest

from foliatk import (
    FoliationModule,
    IdealPresentation,
    InternalCheckError,
    MetricData,
    PolyMap,
    Polynomial,
    PreconditionError,
    RationalFunction,
    SRFCertificate,
    SRFRefutation,
    SymTensor2,
    VariableSet,
    VectorField,
    canonical_poisson,
    hamiltonian,
    killing_connection,
    lift_ideal,
    morphism_defect_check,
    normalizer_check,
    poisson_closure_check,
    reduced_bracket,
    srf_check,
)

from foliatk import ipoisson
from foliatk.cli import run_command
from foliatk.linalg import poly_det
from foliatk.scene import load_scene

from conftest import SCENES, P, VF, euclidean, matrix
from oracle import reference_killing_connection

R2 = VariableSet(("x", "y"))
R3 = VariableSet(("q1", "q2", "q3"))
COT2 = R2.cotangent()
COT3 = R3.cotangent()


@pytest.fixture
def so3_ideal(so3_foliation):
    return lift_ideal(so3_foliation)


def band_metric():
    return MetricData(SymTensor2(
        R2, "contravariant", matrix(R2, [["1", "0"], ["0", "1 + x^2"]])
    ))


# -- closure -------------------------------------------------------------------


def test_lift_of_involutive_foliation_is_closed(so3_foliation, so3_ideal):
    assert poisson_closure_check(so3_ideal).passed


def test_so_n_moment_ideal_is_closed(so3_ideal):
    res = poisson_closure_check(so3_ideal)
    assert res.passed
    for _, cert in res.certificates:
        assert cert.claim_holds


def test_momentum_position_pair_is_not_closed():
    ideal = IdealPresentation(COT2, [P("p_x", COT2), P("x", COT2)])
    res = poisson_closure_check(ideal)
    assert not res.passed
    (i, j), cert = res.witness
    assert cert.remainder == Polynomial.constant(COT2, 1)
    # constant remainder: nonzero on the whole zero set, smooth-level refutation
    assert res.obstruction_point is not None


def test_zero_generator_rejected():
    with pytest.raises(PreconditionError):
        IdealPresentation(COT2, [Polynomial.zero(COT2)])


# -- normalizer -----------------------------------------------------------------


def test_radius_squared_normalizes_so3(so3_ideal):
    f = P("q1^2 + q2^2 + q3^2", COT3)
    res = normalizer_check(so3_ideal, f)
    assert res.passed
    for _, cert in res.certificates:
        # the brackets are exactly zero
        assert cert.remainder.is_zero()
        assert all(c.is_zero() for c in cert.cofactors)


def test_euclidean_hamiltonian_normalizes_so3(so3_ideal):
    h = P("1/2*p_q1^2 + 1/2*p_q2^2 + 1/2*p_q3^2", COT3)
    res = normalizer_check(so3_ideal, h)
    assert res.passed
    for _, cert in res.certificates:
        assert cert.remainder.is_zero()


def test_momentum_fails_normalizer_with_point_obstruction():
    ideal = IdealPresentation(COT2, [P("x*p_x", COT2)])
    res = normalizer_check(ideal, P("p_x", COT2))
    assert not res.passed
    assert res.obstruction_point is not None
    point = dict(zip(COT2.names, res.obstruction_point))
    assert P("x*p_x", COT2).evaluate(point) == 0
    _, cert = res.witness
    assert cert.remainder.evaluate(point) != 0


# -- reduced bracket ---------------------------------------------------------------


def test_reduced_bracket_over_zero_ideal():
    ideal = IdealPresentation(COT3, [])
    f = P("q1*p_q1 + q2*p_q2 + q3*p_q3", COT3)
    h = P("1/2*p_q1^2 + 1/2*p_q2^2 + 1/2*p_q3^2", COT3)
    assert reduced_bracket(ideal, f, h) == P("-p_q1^2 - p_q2^2 - p_q3^2", COT3)


def test_reduced_bracket_with_ideal_member_is_zero(so3_ideal):
    f = P("q1^2 + q2^2 + q3^2", COT3)
    member = so3_ideal.generators[0] * P("q3", COT3)
    assert reduced_bracket(so3_ideal, f, member).is_zero()


def test_reduced_bracket_on_so3(so3_ideal):
    f = P("q1^2 + q2^2 + q3^2", COT3)
    h = P("1/2*p_q1^2 + 1/2*p_q2^2 + 1/2*p_q3^2", COT3)
    value = reduced_bracket(so3_ideal, f, h)
    assert value == P("-2*q1*p_q1 - 2*q2*p_q2 - 2*q3*p_q3", COT3)


def test_reduced_bracket_rejects_non_normalizer():
    ideal = IdealPresentation(COT2, [P("x*p_x", COT2)])
    with pytest.raises(PreconditionError):
        reduced_bracket(ideal, P("p_x", COT2), P("x", COT2))


def test_reduced_bracket_jacobi_modulo_ideal(so3_ideal):
    f = P("q1^2 + q2^2 + q3^2", COT3)
    g = P("1/2*p_q1^2 + 1/2*p_q2^2 + 1/2*p_q3^2", COT3)
    h = P("q1*p_q1 + q2*p_q2 + q3*p_q3", COT3)
    for cand in (f, g, h):
        assert normalizer_check(so3_ideal, cand).passed
    jac = (
        canonical_poisson(canonical_poisson(f, g), h)
        + canonical_poisson(canonical_poisson(g, h), f)
        + canonical_poisson(canonical_poisson(h, f), g)
    )
    assert so3_ideal.normal_form(jac).is_zero()


# -- srf decision --------------------------------------------------------------------


def test_rotation_on_euclidean_plane_is_srf():
    fol = FoliationModule(R2, (VF(R2, "-y", "x"),))
    out = srf_check(fol, euclidean(R2))
    assert isinstance(out, SRFCertificate) and out.passed
    assert all(l.is_zero() for row in out.lam for l in row)


def test_cubic_rotation_is_refuted():
    fol = FoliationModule(R2, (VF(R2, "-(x^2+y^2)*y", "(x^2+y^2)*x"),))
    out = srf_check(fol, euclidean(R2))
    assert isinstance(out, SRFRefutation) and not out.passed
    expected = P("-2*(x*p_x + y*p_y)*(x*p_y - y*p_x)", COT2)
    assert out.bracket == expected
    assert not out.certificate.remainder.is_zero()
    # the bracket vanishes wherever the generator's lift vanishes, so only the
    # polynomial-level refutation is available
    assert out.obstruction_point is None and not out.smooth_level


def test_band_strip_srf_lambda():
    fol = FoliationModule(R2, (VF(R2, "1", "0"), VF(R2, "0", "1")))
    out = srf_check(fol, band_metric())
    assert out.passed
    assert out.lam[0][1] == P("x*p_y", COT2)
    assert out.lam[0][0].is_zero()
    assert all(l.is_zero() for l in out.lam[1])


def test_srf_certificates_reexpand(so3_foliation):
    out = srf_check(so3_foliation, euclidean(so3_foliation.chart))
    assert out.passed
    ideal = lift_ideal(so3_foliation)
    for a, cert in enumerate(out.certificates):
        bracket = canonical_poisson(ideal.generators[a], out.hamiltonian)
        assert cert.verify(bracket)
        for lam in cert.cofactors:
            assert lam.is_zero() or lam.is_fiber_homogeneous(1)


def test_srf_implies_closure_and_normalizer(so3_foliation):
    metric = euclidean(so3_foliation.chart)
    out = srf_check(so3_foliation, metric)
    assert out.passed
    ideal = lift_ideal(so3_foliation)
    assert poisson_closure_check(ideal).passed
    assert normalizer_check(ideal, hamiltonian(metric, ideal.chart)).passed


# -- killing connection -----------------------------------------------------------------


def test_killing_connection_for_killing_fields():
    fol = FoliationModule(R2, (VF(R2, "-y", "x"),))
    kc = killing_connection(fol, euclidean(R2))
    assert kc.verified_identity
    assert all(w.is_zero() for row in kc.omega for w in row)


def test_band_strip_omega():
    fol = FoliationModule(R2, (VF(R2, "1", "0"), VF(R2, "0", "1")))
    kc = killing_connection(fol, band_metric())
    assert kc.verified_identity
    w01 = kc.omega[0][1]
    assert w01.components[0].is_zero()
    assert w01.components[1] == RationalFunction(P("-x", R2), P("1 + x^2", R2))
    for (a, b) in ((0, 0), (1, 0), (1, 1)):
        assert kc.omega[a][b].is_zero()


def test_killing_connection_requires_srf():
    fol = FoliationModule(R2, (VF(R2, "-(x^2+y^2)*y", "(x^2+y^2)*x"),))
    with pytest.raises(PreconditionError):
        killing_connection(fol, euclidean(R2))


def test_killing_connection_with_explicit_metric(so3_foliation):
    kc = killing_connection(so3_foliation, euclidean(so3_foliation.chart))
    assert kc.verified_identity
    assert all(w.is_zero() for row in kc.omega for w in row)


def _tamper_lambda(monkeypatch):
    """Make srf_check add p_<first coordinate> to lambda[0][0]."""
    original = ipoisson.srf_check

    def tampered(fol, metric):
        out = original(fol, metric)
        cot = out.hamiltonian.varset
        lam = [list(row) for row in out.lam]
        lam[0][0] = lam[0][0] + Polynomial.variable(cot, cot.fiber[0])
        return dataclasses.replace(out, lam=tuple(map(tuple, lam)))

    monkeypatch.setattr(ipoisson, "srf_check", tampered)


@pytest.mark.parametrize("path", ["adjugate", "explicit"])
def test_tampered_lambda_fails_the_identity(monkeypatch, so3_foliation, path):
    if path == "adjugate":
        scene = load_scene(SCENES / "killing_band_r2.json")
        fol, metric = scene.foliation, scene.metric
        assert metric.metric is None
    else:
        fol, metric = so3_foliation, euclidean(so3_foliation.chart, with_metric=True)
    assert killing_connection(fol, metric).verified_identity
    _tamper_lambda(monkeypatch)
    with pytest.raises(InternalCheckError, match="generator 0"):
        killing_connection(fol, metric)


# shipped scenes on which killing-connection passes
KILLING_SCENES = ["killing_band_r2", "rotation_r3", "rotation_srf_r2", "so3_moment",
                  "submersion_r3_to_r2"]


def _random_cometric(rnd):
    """Degree-1 cometric on R^2, positive-definite at the origin."""
    def entry(const):
        return P(f"{const} + {rnd.randint(-3, 3)}*x + {rnd.randint(-3, 3)}*y", R2)

    a0, d0 = rnd.randint(1, 4), rnd.randint(1, 4)
    b0 = rnd.choice([k for k in range(-3, 4) if k * k < a0 * d0])
    a, b, d = entry(a0), entry(b0), entry(d0)
    return MetricData(SymTensor2(R2, "contravariant", ((a, b), (b, d))))


def _assert_matches_reference(fol, metric):
    kc = killing_connection(fol, metric)
    ref, verified = reference_killing_connection(fol, metric)
    assert kc.verified_identity and verified
    for row, ref_row in zip(kc.omega, ref):
        for w, ref_w in zip(row, ref_row):
            assert all(c == r for c, r in zip(w.components, ref_w, strict=True))
    return kc


@pytest.mark.parametrize("name", KILLING_SCENES)
def test_killing_connection_matches_reference_on_scenes(name):
    scene = load_scene(SCENES / f"{name}.json")
    _assert_matches_reference(scene.foliation, scene.metric)


def test_killing_connection_matches_reference_on_random_cometrics(rng):
    fol = FoliationModule(R2, (VectorField.coordinate(R2, 0), VectorField.coordinate(R2, 1)))
    for _ in range(3):
        kc = _assert_matches_reference(fol, _random_cometric(rng))
        assert any(not c.is_polynomial() for row in kc.omega for w in row
                   for c in w.components)


def test_printed_omega_is_over_the_monic_determinant(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "chart": {"dimension": 2, "coordinates": ["x", "y"]},
        "cometric": [["2 - 3*x", "3*x"], ["3*x", "1 + 2*y"]],
        "foliation": [["1", "0"], ["0", "1"]],
    }), encoding="utf-8")
    report, code = run_command("killing-connection", scene)
    assert code == 0 and report["detail"]["verified_identity"]
    det = poly_det(matrix(R2, [["2 - 3*x", "3*x"], ["3*x", "1 + 2*y"]]))
    monic = P("x^2 + 2/3*x*y + 1/3*x - 4/9*y - 2/9", R2)
    assert det == monic.scale(-9)
    omega_00 = report["detail"]["omega"][0][0]
    assert omega_00 == [{"num": "-x - 1/3*y - 1/6", "den": str(monic)},
                        {"num": "-1/2*x + 2/3", "den": str(monic)}]


# -- morphisms ------------------------------------------------------------------------


def test_identity_map_is_a_morphism(so3_ideal):
    images = {name: P(name, COT3) for name in COT3.names}
    phi = PolyMap(COT3, COT3, images)
    probes = [P("q1^2 + q2^2 + q3^2", COT3),
              P("1/2*p_q1^2 + 1/2*p_q2^2 + 1/2*p_q3^2", COT3)]
    report = morphism_defect_check(so3_ideal, so3_ideal, phi, probes)
    assert report.passed


def _twisted_phi():
    src = VariableSet(("x", "y", "z")).cotangent()
    tgt = VariableSet(("u", "v")).cotangent()
    images = {
        "u": P("x", src),
        "v": P("y", src),
        "p_u": P("p_x", src),
        "p_v": P("p_y + x*p_z", src),
    }
    return src, tgt, PolyMap(src, tgt, images)


def test_twisted_map_is_an_ipoisson_morphism():
    src, tgt, phi = _twisted_phi()
    vertical = IdealPresentation(src, [P("p_z", src)])
    zero = IdealPresentation(tgt, [])
    probes = [P("p_u", tgt), P("p_v", tgt)]
    report = morphism_defect_check(vertical, zero, phi, probes)
    assert report.passed
    ((_, defect, cert),) = report.bracket_certificates
    assert defect == P("p_z", src)
    assert cert.claim_holds


def test_twisted_map_is_not_a_poisson_map():
    src, tgt, phi = _twisted_phi()
    zero_src = IdealPresentation(src, [])
    zero_tgt = IdealPresentation(tgt, [])
    probes = [P("p_u", tgt), P("p_v", tgt)]
    report = morphism_defect_check(zero_src, zero_tgt, phi, probes)
    assert not report.passed
    kind, _, cert = report.witness
    assert kind == "bracket"
    assert cert.remainder == P("p_z", src)


def test_morphism_rejects_bad_probe():
    ideal = IdealPresentation(COT2, [P("x*p_x", COT2)])
    images = {name: P(name, COT2) for name in COT2.names}
    phi = PolyMap(COT2, COT2, images)
    with pytest.raises(PreconditionError):
        morphism_defect_check(ideal, ideal, phi, [P("p_x", COT2)])


# -- graded shortcut ---------------------------------------------------------------------


def test_graded_membership_of_mixed_degree_input(so3_ideal):
    # fiber degrees 1 and 2 mixed: components divided separately, certificate exact
    g0 = so3_ideal.generators[0]
    f = g0 + g0 * P("p_q1", COT3) + P("q1^2", COT3) * g0
    cert = so3_ideal.membership(f)
    assert cert.claim_holds
    assert cert.verify(f)


def test_membership_failure_keeps_identity(so3_ideal):
    f = P("p_q1^2 + q1", COT3)
    cert = so3_ideal.membership(f)
    assert not cert.claim_holds
    assert cert.verify(f)
