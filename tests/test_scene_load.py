"""Scene load: one parse per distinct (text, chart) within a load, the
metric checks on the evaluated cometric, against the symbolic references in
``oracle.py``, and the numeric scene fields under any JSON value."""

import argparse
import copy
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliatk import SceneError
from foliatk.cli import render_report, run_command
from foliatk.errors import MetricError, ParseError
from foliatk.expressions import MAX_TERM_PRODUCTS, parse_expression
from foliatk.geometry import MetricData, SymTensor2
from foliatk.poly import Polynomial, VariableSet
from foliatk.scene import load_scene

from conftest import SCENES
from oracle import reference_metric_verdicts, reference_poly_mat_mul

OVERSIZED = "(x+1)^300 + (x+1)^300 + (x+1)^300"  # each power alone is allowed


def base(**extra):
    data = {
        "chart": {"dimension": 2, "coordinates": ["x", "y"]},
        "cometric": [["1", "0"], ["0", "1"]],
    }
    data.update(extra)
    return data


# ---------------------------------------------------------------------------
# the parse memo


def test_an_oversized_text_under_two_keys_is_refused_at_the_first():
    chart = VariableSet(("x", "y"))
    with pytest.raises(ParseError) as direct:
        parse_expression(OVERSIZED, chart)
    assert f"more than {MAX_TERM_PRODUCTS} term products" in str(direct.value)
    for data, first in (
        (base(foliation=[[OVERSIZED, "0"]], foliation_b=[[OVERSIZED, "0"]]), "foliation[0]"),
        (base(foliation=[["x", "0"]], candidates={"a": OVERSIZED, "b": OVERSIZED}),
         "candidates.a"),
    ):
        with pytest.raises(SceneError) as err:
            load_scene(data)
        assert str(err.value) == f"{first}: {direct.value}"


def test_an_oversized_text_after_an_accepted_one_is_still_refused():
    data = base(foliation=[["(x+1)^300", "0"]], foliation_b=[[OVERSIZED, "0"]])
    with pytest.raises(SceneError, match=r"^foliation_b\[0\]: .*term products \(at position 29\)"):
        load_scene(data)


def test_one_text_on_one_chart_is_parsed_once_per_load():
    data = base(foliation=[["x*y + 1", "0"]], foliation_b=[["x*y + 1", "0"]],
                ideal=["x*y + 1"])
    scene = load_scene(data)
    a = scene.foliation.generators[0].components[0]
    assert a is scene.foliation_b.generators[0].components[0]
    # the cotangent chart is another key
    ideal = scene.ideal.generators[0]
    assert ideal.varset == scene.chart.cotangent() and ideal.varset != a.varset
    assert ideal == parse_expression("x*y + 1", scene.chart.cotangent())
    # nothing is kept from one load to the next
    assert load_scene(data).foliation.generators[0].components[0] is not a


# ---------------------------------------------------------------------------
# metric checks on the evaluated cometric

R2 = VariableSet(("x", "y"))
R3 = VariableSet(("x", "y", "z"))
SMALL = st.sampled_from((0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3)))


def polys(chart):
    expo = st.tuples(*[st.integers(0, 1)] * chart.n_vars)
    return st.dictionaries(expo, st.integers(-2, 2), max_size=2).map(
        lambda terms: Polynomial(chart, terms))


def matrices(chart):
    n = chart.dimension
    return st.lists(st.lists(polys(chart), min_size=n, max_size=n), min_size=n, max_size=n)


def points(chart):
    return st.lists(st.tuples(*[SMALL] * chart.dimension), min_size=1, max_size=3)


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _cometric(chart, b, kind, shift):
    """B B^T (semidefinite), plus the identity (definite), or minus a
    multiple of it (often indefinite)."""
    c = reference_poly_mat_mul(b, _transpose(b))
    if kind != "semidefinite":
        d = Polynomial.constant(chart, 1 if kind == "definite" else -shift)
        c = [[e + d if i == j else e for j, e in enumerate(row)] for i, row in enumerate(c)]
    return SymTensor2(chart, "contravariant", tuple(tuple(row) for row in c))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((R2, R3)).flatmap(lambda chart: st.tuples(
    st.just(chart), matrices(chart), points(chart),
    st.sampled_from(("definite", "semidefinite", "indefinite")), st.integers(0, 3))))
def test_positivity_verdict_matches_the_symbolic_minors(case):
    chart, b, pts, kind, shift = case
    cometric = _cometric(chart, b, kind, shift)
    _, positive = reference_metric_verdicts(None, cometric, pts)
    if positive:
        MetricData(cometric, None, tuple(pts))
    else:
        with pytest.raises(MetricError, match="not positive-definite"):
            MetricData(cometric, None, tuple(pts))


def _unit_lower(chart, below):
    n = chart.dimension
    one, zero = Polynomial.constant(chart, 1), Polynomial.zero(chart)
    it = iter(below)
    return [[one if i == j else (next(it) if j < i else zero) for j in range(n)]
            for i in range(n)]


def _unit_lower_inverse(e):
    """The inverse of a unit lower triangular polynomial matrix, by forward substitution."""
    n = len(e)
    one, zero = e[0][0], e[0][0] - e[0][0]
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum((e[i][t] * inv[t][j] for t in range(j, i)), zero)
    return inv


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((R2, R3)).flatmap(lambda chart: st.tuples(
    st.just(chart), st.lists(polys(chart), min_size=3, max_size=3), polys(chart),
    st.integers(0, chart.dimension - 1), st.integers(0, chart.dimension - 1))))
def test_identity_verdict_matches_the_matrix_product(case):
    """C = E E^T and G = E^-T E^-1 for a unit lower triangular E, so G C = I;
    a symmetric change ``d`` at (i, j) breaks it unless ``d`` is zero."""
    chart, below, d, i, j = case
    e = _unit_lower(chart, below)
    inv = _unit_lower_inverse(e)
    cometric = SymTensor2(chart, "contravariant",
                          tuple(map(tuple, reference_poly_mat_mul(e, _transpose(e)))))
    g = reference_poly_mat_mul(_transpose(inv), inv)
    g[i][j] = g[i][j] + d
    if i != j:
        g[j][i] = g[j][i] + d
    metric = SymTensor2(chart, "covariant", tuple(map(tuple, g)))
    identity, positive = reference_metric_verdicts(metric, cometric, [(0,) * chart.dimension])
    assert positive and identity == d.is_zero()
    if identity:
        MetricData(cometric, metric)
    else:
        with pytest.raises(MetricError, match="not the identity"):
            MetricData(cometric, metric)


# -- the numeric fields under any JSON value ---------------------------------

_HUGE = 10 ** 5000  # past the limit on integer-string conversion
_VALUES = st.one_of(
    st.booleans(),
    st.sampled_from(["", "x", "1/0", "1/2", "-3", "1e400", "1e-3x", "nan", "1e9999999"]),
    st.sampled_from([0.0, -0.0, 0.5, 2.5, -1.0, 1e-300, 1e308,
                     float("inf"), float("-inf"), float("nan")]),
    st.integers(-3, 3),
    st.sampled_from([_HUGE, -_HUGE]),
    st.recursive(st.one_of(st.integers(-2, 2), st.just("1")),
                 lambda inner: st.lists(inner, max_size=3), max_leaves=5),
)
# scene: (commands, paths of its numeric fields); every command loads the
# whole scene, and the last ones read the points and the flow as well
_NUMERIC_FIELDS = {
    "rotation_srf_r2": (
        ("lift-ideal", "point-report", "flow-monitor", "geodesic-check"),
        (("chart", "dimension"), ("points", "unit_x"), ("points", "unit_x", 0),
         ("sample_points",), ("sample_points", 0), ("sample_points", 0, 1),
         ("flow", "q"), ("flow", "q", 1), ("flow", "p"), ("flow", "p", 0),
         ("flow", "t_end"), ("flow", "dt"))),
    "submersion_r3_to_r2": (
        ("check-riemannian", "pullback"),
        (("chart", "dimension"), ("submersion", "base_indices"),
         ("submersion", "base_indices", 1), ("sample_points", 0, 2))),
}
_CALLS = [(scene, command, path) for scene, (commands, paths) in _NUMERIC_FIELDS.items()
          for command in commands for path in paths]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(_CALLS), _VALUES)
@example(("rotation_srf_r2", "flow-monitor", ("flow", "t_end")), _HUGE)
@example(("rotation_srf_r2", "flow-monitor", ("flow", "dt")), True)
def test_numeric_scene_fields_get_a_report_and_never_exit_3(call, value):
    scene, command, path = call
    data = json.loads((SCENES / f"{scene}.json").read_text(encoding="utf-8"))
    data["sample_points"] = [["1"] + ["0"] * (data["chart"]["dimension"] - 1)]
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = copy.deepcopy(value)
    args = argparse.Namespace(point="unit_x", candidate=[], tol=None, dt=None, t_end=None,
                              order="block")
    report, code = run_command(command, data, args)
    assert code in (0, 1, 2), report["detail"]
    assert json.loads(render_report(report))["verdict"] == ("pass", "fail", "error")[code]
    # a bool or a 5000-digit integer is never a number a scene may hold
    if isinstance(value, bool) or (type(value) is int and abs(value) == _HUGE):
        assert code == 2 and report["detail"]["error_type"] == "SceneError"
