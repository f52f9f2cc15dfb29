import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk import (
    FoliationModule,
    Polynomial,
    PreconditionError,
    VariableSet,
    VectorField,
    fiber_dim,
    involutivity_check,
    isotropy_algebra,
    lie_bracket,
    lift_ideal,
    module_equal,
    tangent_dim,
)
from foliatk.ipoisson import poisson_closure_check, srf_check
from foliatk.linalg import EchelonSpan
from foliatk.poly import random_polynomial
from foliatk.scene import load_scene

from conftest import FOLIATIONS, P, SCENES, VF
from oracle import reference_isotropy_algebra

R1 = VariableSet(("x",))
R2 = VariableSet(("x", "y"))
SO3 = VariableSet(("q1", "q2", "q3"))


def order_k_module(k, chart):
    """All degree-k monomials times all coordinate directions."""
    n = chart.dimension
    gens = []
    for combo in itertools.combinations_with_replacement(range(n), k):
        mono = None
        for i in combo:
            v = P(chart.base[i], chart)
            mono = v if mono is None else mono * v
        for d in range(n):
            comps = [P("0", chart)] * n
            comps[d] = mono
            gens.append(VF(chart, *[str(c) for c in comps]))
    return FoliationModule(chart, gens)


# -- involutivity --------------------------------------------------------------


def test_so3_passes_with_constant_cofactors(so3_foliation):
    res = involutivity_check(so3_foliation)
    assert res.passed
    for (_, _), cert in [(pair, c) for pair, c in res.certificates]:
        for cof in cert.cofactors:
            assert cof.total_degree() <= 0


def test_non_involutive_pair_with_point_obstruction():
    fol = FoliationModule(R2, (VF(R2, "1", "0"), VF(R2, "0", "x")))
    res = involutivity_check(fol)
    assert not res.passed
    (a, b), cert = res.witness
    assert (a, b) == (0, 1)
    assert not cert.remainder.is_zero()
    # [d_x, x d_y] = d_y is not in the module: at x=0 the span misses d_y
    assert res.obstruction_point is not None
    x_value = res.obstruction_point[0]
    assert x_value == 0


def test_single_generator_always_involutive():
    fol = FoliationModule(R2, (VF(R2, "x^2 + y", "x*y"),))
    assert involutivity_check(fol).passed


def test_involutivity_certificates_reexpand(so3_foliation):
    res = involutivity_check(so3_foliation)
    for (a, b), cert in res.certificates:
        bracket = lie_bracket(so3_foliation.generators[a], so3_foliation.generators[b])
        acc = None
        for cof, gen in zip(cert.cofactors, cert.generators):
            part = gen.scale_by(cof)
            acc = part if acc is None else acc + part
        acc = acc + cert.remainder
        assert tuple(acc.components) == bracket.components


# -- dimensions -----------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_order_k_on_the_line(k):
    fol = FoliationModule(R1, (VF(R1, f"x^{k}"),))
    assert tangent_dim(fol, (0,)) == 0
    assert tangent_dim(fol, (1,)) == 1
    assert fiber_dim(fol, (0,)) == 1
    assert fol.syzygies == ()


def test_so3_dimensions(so3_foliation):
    assert tangent_dim(so3_foliation, (1, 0, 0)) == 2
    assert tangent_dim(so3_foliation, (0, 0, 0)) == 0
    assert fiber_dim(so3_foliation, (0, 0, 0)) == 3
    assert fiber_dim(so3_foliation, (1, 0, 0)) == 2


def test_tangent_dim_zero_where_all_generators_vanish(so3_foliation):
    assert tangent_dim(so3_foliation, (0, 0, 0)) == 0


def test_single_nonvanishing_generator_fiber():
    fol = FoliationModule(R2, (VF(R2, "1", "x"),))
    for pt in ((0, 0), (1, 2), (-1, 3)):
        assert fiber_dim(fol, pt) == 1


# -- isotropy --------------------------------------------------------------------


def test_single_rotation_is_abelian():
    fol = FoliationModule(R2, (VF(R2, "-y", "x"),))
    rep = isotropy_algebra(fol, (0, 0))
    assert rep.isotropy_dim == 1
    assert rep.structure_constants == (((Fraction(0),),),)


def test_so3_structure_constants(so3_foliation):
    rep = isotropy_algebra(so3_foliation, (0, 0, 0))
    assert (rep.fiber_dim, rep.tangent_dim, rep.isotropy_dim) == (3, 0, 3)
    c = rep.structure_constants
    assert c[0][1] == (0, 0, -1)   # [e12, e13] = -e23
    assert c[0][2] == (0, 1, 0)    # [e12, e23] = +e13
    assert c[1][2] == (-1, 0, 0)   # [e13, e23] = -e12
    for u in range(3):
        for v in range(3):
            for w in range(3):
                assert c[u][v][w] == -c[v][u][w]


def test_regular_point_has_trivial_isotropy(so3_foliation):
    rep = isotropy_algebra(so3_foliation, (1, 0, 0))
    assert rep.isotropy_dim == 0
    assert rep.tangent_dim == rep.fiber_dim == 2


@pytest.mark.parametrize("name", ["order_2_n3", "order_3_n2", "so3_moment"])
def test_point_reports_depend_only_on_the_syzygy_module(name):
    # any generating set of the syzygy module spans the same evaluated rows,
    # so a different syzygy construction leaves the point reports unchanged
    scene = load_scene(SCENES / f"{name}.json")
    fol = scene.foliation
    syzygies = list(fol.syzygies)
    random.Random(name).shuffle(syzygies)
    other = FoliationModule(fol.chart, fol.generators)
    pairs = zip(syzygies, syzygies[1:] + syzygies[:1])
    other.syzygies = tuple(syzygies + [a + b for a, b in pairs])
    assert len(other.syzygies) == 2 * len(fol.syzygies) > 0
    for point in scene.points.values():
        assert isotropy_algebra(other, point) == isotropy_algebra(fol, point)
        assert fiber_dim(other, point) == fiber_dim(fol, point)


# -- the sparse point layer against the dense reference ---------------------------
#
# isotropy_algebra skips the solve of a zero bracket class and shares one zero;
# oracle.reference_isotropy_algebra evaluates and solves everything.

def _assert_matches_reference(fol, points):
    for point in points:
        assert isotropy_algebra(fol, point) == reference_isotropy_algebra(fol, point)


@pytest.mark.parametrize("name,key", FOLIATIONS)
def test_point_layer_matches_the_dense_reference_on_scenes(name, key):
    scene = load_scene(SCENES / f"{name}.json")
    fol = getattr(scene, key)
    n = fol.chart.dimension
    points = [(0,) * n, tuple(Fraction(i + 1, 2) for i in range(n))]
    if key in ("foliation", "foliation_b"):
        points += list(scene.points.values())
    _assert_matches_reference(fol, points)


@pytest.mark.parametrize("n,k", [(3, 2), (3, 3)])
def test_point_layer_matches_the_dense_reference_on_the_ladder(n, k):
    chart = VariableSet(("x", "y", "z")[:n])
    regular = tuple(Fraction(v) for v in ("-2", "1/2", "3/2")[:n])
    _assert_matches_reference(order_k_module(k, chart), [(0,) * n, regular])


def _random_involutive_module(rnd):
    """``I * M`` for a random ideal ``I`` vanishing at the origin and an involutive ``M``.

    ``[f X, g Y] = f X(g) Y - g Y(f) X + f g [X, Y]`` lies in ``I * M`` when
    ``f, g`` lie in ``I`` and ``M`` is closed under brackets; ``M`` is all
    vector fields or the multiples of one field.
    """
    chart = rnd.choice((R2, VariableSet(("x", "y", "z"))))
    n = chart.dimension
    ideal = []
    while len(ideal) < rnd.choice((1, 2)):
        f = random_polynomial(rnd, chart, max_base_degree=2, terms=rnd.choice((1, 2, 3)))
        f = f - Polynomial.constant(chart, f.terms.get((0,) * n, 0))
        if not f.is_zero():
            ideal.append(f)
    if rnd.random() < 0.5:
        fields = [VectorField.coordinate(chart, d) for d in range(n)]
    else:
        fields = [VectorField(chart, tuple(
            random_polynomial(rnd, chart, max_base_degree=1, terms=2) for _ in range(n)))]
    gens = [x.scale_by(f) for f in ideal for x in fields]
    return FoliationModule(chart, [g for g in gens if not g.is_zero()])


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_point_layer_matches_the_dense_reference_on_random_modules(seed):
    rnd = random.Random(seed)
    fol = _random_involutive_module(rnd)
    assert involutivity_check(fol).passed
    n = fol.chart.dimension
    points = [(0,) * n] + [
        tuple(Fraction(rnd.randint(-3, 3), rnd.choice((1, 2))) for _ in range(n))
        for _ in range(2)
    ]
    _assert_matches_reference(fol, points)


# -- module equality ---------------------------------------------------------------


def test_order_one_vs_order_two_differ():
    f1 = FoliationModule(R1, (VF(R1, "x"),))
    f2 = FoliationModule(R1, (VF(R1, "x^2"),))
    res = module_equal(f1, f2)
    assert not res.passed
    (side, idx), cert = res.witness
    assert side == "left" and idx == 0
    assert not cert.remainder.is_zero()


def test_reordered_generators_are_equal(so3_foliation):
    reversed_fol = FoliationModule(SO3, tuple(reversed(so3_foliation.generators)))
    assert module_equal(so3_foliation, reversed_fol).passed


def test_invertible_frame_change_is_equal():
    f1 = FoliationModule(R2, (VF(R2, "1", "0"), VF(R2, "0", "1")))
    f2 = FoliationModule(R2, (VF(R2, "1", "1"), VF(R2, "1", "-1")))
    assert module_equal(f1, f2).passed


# -- lift ideal ---------------------------------------------------------------------


def test_lift_ideal_of_rotation():
    fol = FoliationModule(R2, (VF(R2, "-y", "x"),))
    ideal = lift_ideal(fol)
    assert [str(g) for g in ideal.generators] == ["-y*p_x + x*p_y"]
    assert ideal.fiber_graded_linear


def test_lift_ideal_of_coordinate_fields():
    fol = FoliationModule(R2, (VF(R2, "1", "0"), VF(R2, "0", "1")))
    ideal = lift_ideal(fol)
    cot = R2.cotangent()
    assert set(ideal.generators) == {P("p_x", cot), P("p_y", cot)}


def test_lift_ideal_of_so3(so3_foliation):
    ideal = lift_ideal(so3_foliation)
    cot = SO3.cotangent()
    expected = {
        P("q1*p_q2 - q2*p_q1", cot),
        P("q1*p_q3 - q3*p_q1", cot),
        P("q2*p_q3 - q3*p_q2", cot),
    }
    assert set(ideal.generators) == expected


# -- semicontinuity and oracles -------------------------------------------------------


def test_semicontinuity_along_a_line(so3_foliation):
    samples = [Fraction(t, 2) for t in (-4, -2, -1, 1, 2, 4)]
    t0 = tangent_dim(so3_foliation, (0, 0, 0))
    f0 = fiber_dim(so3_foliation, (0, 0, 0))
    for t in samples:
        pt = (t, Fraction(0), Fraction(0))
        assert t0 <= tangent_dim(so3_foliation, pt)
        assert f0 >= fiber_dim(so3_foliation, pt)


def test_dim_bounds_at_sampled_points(so3_foliation):
    pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 3)]
    for pt in pts:
        t = tangent_dim(so3_foliation, pt)
        f = fiber_dim(so3_foliation, pt)
        assert t <= f <= so3_foliation.n_generators


def _truncated_coeff_vector(poly_vec, chart, max_degree):
    monos = [
        e for e in itertools.product(range(max_degree + 1), repeat=chart.dimension)
        if sum(e) <= max_degree
    ]
    index = {e: i for i, e in enumerate(monos)}
    width = len(monos) * len(poly_vec)
    vec = [Fraction(0)] * width
    for comp_idx, comp in enumerate(poly_vec):
        for e, c in comp.terms.items():
            if sum(e) <= max_degree:
                vec[comp_idx * len(monos) + index[e]] = c
    return vec


@pytest.mark.parametrize("k,n", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_order_k_fiber_dim_against_truncation_oracle(k, n):
    chart = VariableSet(("x", "y", "z")[:n])
    fol = order_k_module(k, chart)
    syzygy_value = fiber_dim(fol, (0,) * n)

    # oracle: rank of generators modulo maximal-ideal multiples, truncated at k+1
    gens = [g.components for g in fol.generators]
    multiples = []
    for g in gens:
        for name in chart.base:
            var = P(name, chart)
            multiples.append(tuple(var * c for c in g))
    gen_rows = [_truncated_coeff_vector(g, chart, k + 1) for g in gens]
    mult_rows = [_truncated_coeff_vector(m, chart, k + 1) for m in multiples]
    width = len(gen_rows[0])
    span_m = EchelonSpan(width)
    for row in mult_rows:
        span_m.insert(row)
    span_all = EchelonSpan(width)
    for row in mult_rows + gen_rows:
        span_all.insert(row)
    oracle_value = span_all.rank - span_m.rank

    assert syzygy_value == oracle_value
    # generator-count formula: n directions x monomials of degree k
    from math import comb
    assert syzygy_value == n * comb(k + n - 1, n - 1)


def test_empty_foliation_is_the_zero_module():
    fol = FoliationModule(R2, ())
    assert fol.n_generators == 0
    assert involutivity_check(fol).passed
    assert tangent_dim(fol, (0, 0)) == 0
    assert fiber_dim(fol, (1, 1)) == 0


def test_point_dimension_mismatch_raises(so3_foliation):
    with pytest.raises(PreconditionError):
        tangent_dim(so3_foliation, (1, 0))


# -- lazy module data ------------------------------------------------------------


def test_lift_commands_leave_module_data_uncomputed():
    scene = load_scene(SCENES / "order_3_n3.json")
    fol = scene.foliation
    ideal = lift_ideal(fol)
    srf_check(fol, scene.metric)
    poisson_closure_check(ideal)
    assert "module_gb" not in vars(fol)
    assert "syzygies" not in vars(fol)


def test_module_data_is_computed_once_on_first_use(so3_foliation):
    assert "module_gb" not in vars(so3_foliation)
    gb = so3_foliation.module_gb
    syz = so3_foliation.syzygies
    assert so3_foliation.module_gb is gb and so3_foliation.syzygies is syz
