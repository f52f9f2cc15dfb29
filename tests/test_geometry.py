import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk import (
    MetricData,
    MetricError,
    RationalFunction,
    SymTensor2,
    VariableSet,
    VectorField,
    canonical_poisson,
    cotangent_lift,
    hamiltonian,
    lie_bracket,
    lie_derivative,
    musical_flat,
    musical_sharp,
    sym_tensor_lift,
)
from foliatk.geometry import OneForm
from foliatk.poly import random_polynomial

from conftest import P, VF, euclidean, matrix

R2 = VariableSet(("x", "y"))
R3 = VariableSet(("x", "y", "z"))
COT2 = R2.cotangent()
COT3 = R3.cotangent()


def _random_field(rnd, chart, degree=3):
    return VectorField(chart, tuple(
        random_polynomial(rnd, chart, max_base_degree=degree, terms=3)
        for _ in range(chart.dimension)
    ))


def _random_sym(rnd, chart, kind="contravariant"):
    n = chart.dimension
    raw = [[random_polynomial(rnd, chart, max_base_degree=2, terms=2)
            for _ in range(n)] for _ in range(n)]
    entries = tuple(tuple(raw[i][j] + raw[j][i] for j in range(n)) for i in range(n))
    return SymTensor2(chart, kind, entries)


# -- lie bracket --------------------------------------------------------------


def test_bracket_of_coordinate_and_linear_field():
    assert lie_bracket(VF(R2, "1", "0"), VF(R2, "0", "x")) == VF(R2, "0", "1")


def test_bracket_antisymmetry_on_self(rng):
    x = _random_field(rng, R2)
    assert lie_bracket(x, x).is_zero()


def test_so3_bracket():
    x12 = VF(R3, "-y", "x", "0")   # rotation in the (x,y) plane
    x13 = VF(R3, "-z", "0", "x")
    x23 = VF(R3, "0", "-z", "y")
    assert lie_bracket(x12, x13) == -x23


# -- lifts ---------------------------------------------------------------------


def test_lift_of_rotation():
    assert cotangent_lift(VF(R2, "-y", "x")) == P("x*p_y - y*p_x", COT2)


def test_lift_of_so_n_generators():
    # q^i p_j - q^j p_i for 1 <= i < j <= n
    for (i, j), expected in (((0, 1), "x*p_y - y*p_x"),
                             ((0, 2), "x*p_z - z*p_x"),
                             ((1, 2), "y*p_z - z*p_y")):
        comps = ["0", "0", "0"]
        comps[i] = f"-{R3.base[j]}"
        comps[j] = R3.base[i]
        assert cotangent_lift(VF(R3, *comps)) == P(expected, COT3)


def test_band_cometric_hamiltonian():
    com = SymTensor2(R2, "contravariant", matrix(R2, [["1", "0"], ["0", "1 + x^2"]]))
    m = MetricData(com)
    assert hamiltonian(m) * 2 == P("p_x^2 + (1 + x^2)*p_y^2", COT2)


# -- canonical bracket ---------------------------------------------------------


def test_momentum_bracket_with_sheared_momentum():
    assert canonical_poisson(P("p_x", COT3), P("p_y + x*p_z", COT3)) == P("p_z", COT3)


def test_bracket_lift_homomorphism_simple():
    x, y = VF(R2, "1", "0"), VF(R2, "0", "x")
    assert canonical_poisson(cotangent_lift(x), cotangent_lift(y)) == P("p_y", COT2)


def test_rotation_is_killing_for_euclidean():
    h = hamiltonian(euclidean(R2))
    assert canonical_poisson(P("x*p_y - y*p_x", COT2), h).is_zero()


# -- lie derivative --------------------------------------------------------------


def test_rotation_preserves_euclidean_cometric():
    t = SymTensor2.euclidean(R2)
    assert lie_derivative(VF(R2, "-y", "x"), t).is_zero()


def test_band_cometric_derivative_along_dx():
    com = SymTensor2(R2, "contravariant", matrix(R2, [["1", "0"], ["0", "1 + x^2"]]))
    out = lie_derivative(VF(R2, "1", "0"), com)
    assert out.entries[0][0].is_zero() and out.entries[0][1].is_zero()
    assert out.entries[1][1] == P("2*x", R2)


def test_lie_derivative_along_zero_field():
    assert lie_derivative(VectorField.zero(R2), SymTensor2.euclidean(R2)).is_zero()


# -- musical maps ----------------------------------------------------------------


def test_flat_of_rotation_euclidean():
    form = musical_flat(VF(R2, "-y", "x"), euclidean(R2))
    assert form.components[0] == RationalFunction(P("-y", R2))
    assert form.components[1] == RationalFunction(P("x", R2))


def test_sharp_flat_round_trip(rng):
    m = euclidean(R2)
    for _ in range(5):
        v = _random_field(rng, R2)
        assert musical_sharp(musical_flat(v, m), m) == v


def test_sharp_keeps_a_shared_denominator(rng):
    # a sum over one denominator D stays over D, not over D^n
    com = SymTensor2(R2, "contravariant", matrix(R2, [["2", "1"], ["1", "2"]]))
    met = SymTensor2(R2, "covariant", matrix(R2, [["2/3", "-1/3"], ["-1/3", "2/3"]]))
    m = MetricData(com, met)
    d = P("1 + x^2", R2)
    omega = OneForm(R2, (RationalFunction(P("x", R2), d), RationalFunction(P("y", R2), d)))
    first, second = musical_sharp(omega, m).components
    assert (first.num, first.den) == (P("2*x + y", R2), P("x^2 + 1", R2))
    assert (second.num, second.den) == (P("x + 2*y", R2), P("x^2 + 1", R2))
    for _ in range(5):
        v = _random_field(rng, R2)
        assert musical_sharp(musical_flat(v, m), m) == v


def test_rational_sum_skips_a_unit_denominator():
    d, e = P("1 + x^2", R2), P("1 + y^2", R2)
    f = RationalFunction(P("x", R2), d)
    for total in (f + P("y", R2), RationalFunction(P("y", R2)) + f):
        assert (total.num, total.den) == (P("x^2*y + x + y", R2), P("x^2 + 1", R2))
    total = f + RationalFunction(P("y", R2), e)
    assert (total.num, total.den) == (P("x*y^2 + x^2*y + x + y", R2), d * e)
    assert f + RationalFunction(-P("x", R2), d) == 0


def test_flat_requires_metric():
    com = SymTensor2(R2, "contravariant", matrix(R2, [["1", "0"], ["0", "1 + x^2"]]))
    m = MetricData(com)
    with pytest.raises(MetricError):
        musical_flat(VF(R2, "1", "0"), m)


def _rational_metric(m):
    """The covariant metric, exactly, as rational functions A_ij/D."""
    a, d = m.covariant_over_det()
    return [[RationalFunction(e, d) for e in row] for row in a]


def test_band_metric_is_only_rational():
    # 1/(1+x^2) is not polynomial: the covariant side exists only rationally
    com = SymTensor2(R2, "contravariant", matrix(R2, [["1", "0"], ["0", "1 + x^2"]]))
    m = MetricData(com)
    g = _rational_metric(m)
    assert g[0][0] == RationalFunction(P("1", R2))
    assert g[1][1] == RationalFunction(P("1", R2), P("1 + x^2", R2))
    with pytest.raises(MetricError):
        MetricData(com, SymTensor2.euclidean(R2, "covariant"))


def test_positivity_spot_check():
    entries = matrix(R2, [["x", "0"], ["0", "1"]])
    com = SymTensor2(R2, "contravariant", entries)
    with pytest.raises(MetricError):
        MetricData(com, sample_points=((Fraction(0), Fraction(0)),))
    MetricData(com, sample_points=((Fraction(1), Fraction(0)),))


# -- structural invariants --------------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_bracket_lift_homomorphism(seed):
    rnd = random.Random(seed)
    chart = R3 if seed % 2 else R2
    cot = chart.cotangent()
    x, y = _random_field(rnd, chart), _random_field(rnd, chart)
    lhs = canonical_poisson(cotangent_lift(x, cot), cotangent_lift(y, cot))
    assert lhs == cotangent_lift(lie_bracket(x, y), cot)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_lift_derivative_compatibility(seed):
    rnd = random.Random(seed)
    chart = R2
    cot = chart.cotangent()
    x = _random_field(rnd, chart)
    s = _random_sym(rnd, chart)
    lhs = canonical_poisson(cotangent_lift(x, cot), sym_tensor_lift(s, cot))
    assert lhs == sym_tensor_lift(lie_derivative(x, s), cot)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_jacobi_identity(seed):
    rnd = random.Random(seed)
    polys = [
        random_polynomial(rnd, COT2, max_base_degree=2, max_fiber_degree=2, terms=3)
        for _ in range(3)
    ]
    f, g, h = polys
    jac = (
        canonical_poisson(canonical_poisson(f, g), h)
        + canonical_poisson(canonical_poisson(g, h), f)
        + canonical_poisson(canonical_poisson(h, f), g)
    )
    assert jac.is_zero()


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_antisymmetry_and_leibniz(seed):
    rnd = random.Random(seed)
    f, g, h = (
        random_polynomial(rnd, COT2, max_base_degree=2, max_fiber_degree=2, terms=3)
        for _ in range(3)
    )
    assert canonical_poisson(f, g) == -canonical_poisson(g, f)
    assert canonical_poisson(f, g * h) == canonical_poisson(f, g) * h + g * canonical_poisson(f, h)


def test_hamiltonian_self_bracket_vanishes():
    for m in (euclidean(R2), euclidean(R3)):
        h = hamiltonian(m)
        assert canonical_poisson(h, h).is_zero()
    band = MetricData(SymTensor2(
        R2, "contravariant", matrix(R2, [["1", "0"], ["0", "1 + x^2"]])
    ))
    h = hamiltonian(band)
    assert canonical_poisson(h, h).is_zero()


def test_equal_unreduced_rational_functions_are_unhashable():
    # x/y and x(x+y)/(y(x+y)) are equal, but no gcd puts them in one normal
    # form, so no hash could agree with equality
    a = RationalFunction(P("x", R2), P("y", R2))
    b = RationalFunction(P("x*(x + y)", R2), P("y*(x + y)", R2))
    assert a == b
    with pytest.raises(TypeError):
        {a, b}


def test_rational_function_divides_out_an_exact_denominator(rng):
    for _ in range(10):
        p = random_polynomial(rng, R2, max_base_degree=3, terms=3)
        q = random_polynomial(rng, R2, max_base_degree=2, terms=3)
        if q.is_zero():
            continue
        r = RationalFunction(p * q, q)
        assert r.num == p and r.den == P("1", R2)


def test_rational_function_keeps_a_non_dividing_denominator_monic():
    r = RationalFunction(P("x^2 + y", R2), P("2*x*y + 3", R2))
    assert r.den == P("x*y + 3/2", R2) and r.num == P("1/2*x^2 + 1/2*y", R2)
    assert not r.is_polynomial()
