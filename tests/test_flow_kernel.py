"""The generated flow kernels against the closure-interpreter reference.

The kernels perform the reference's float operations in the same order, so
trajectories, monitor reports and divergence messages must be equal, not
close; ``repr`` equality also tells -0.0 from 0.0.  The rk4 kernel folds the
stages of a zero ``dH/dq`` away, since ``x + -0.0`` is ``x``, but not those
of a zero ``dH/dp``, since ``-0.0 + 0.0`` is ``0.0``: the signed-zero cases
below tell the two apart.
"""

import io
import json
import math
import random
import re
import tokenize
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliatk import (
    FlowDivergedError,
    FlowState,
    MonitorReport,
    PreconditionError,
    Polynomial,
    VariableSet,
    hamiltonian,
    integrate_flow,
    monitor_ideal_preservation,
)
from foliatk import dynamics
from foliatk.cli import _working_ideal, render_report, run_command
from foliatk.dynamics import compile_evaluator, flow_source
from foliatk.geometry import cotangent_lift
from foliatk.ipoisson import IdealPresentation
from foliatk.poly import MonomialOrder
from foliatk.scene import load_scene

from conftest import MAX_ERROR_MESSAGE, P, SCENES
from oracle import reference_evaluator, reference_flow, reference_monitor

FLOW_SCENES = ("so3_moment", "rotation_r3", "rotation_srf_r2", "rotation_nonmodule_r2")
INF = float("inf")
NAN = float("nan")

# name: (coordinates, H, generators, q, p, t_end, dt, start_tol, store_every,
#        the monitor's error message as a pattern, None for a completed run)
FLOW_EXITS = {
    "off-start": (("q",), "1/2*p_q^2", ["q"], (1.0,), (0.0,), 1.0, 1e-2, 1e-12, 10,
                  r"start: 1 of 1 generator values at start are not within start_tol = 1e-12;"
                  r" the first is generator 0, \|value\| 1\.0"),
    "off-start-later": (("q",), "1/2*p_q^2", ["p_q", "q", "-q^2"], (-2.0,), (0.0,), 1.0, 1e-2,
                        0.5, 10, r"start: 2 of 3 generator values at start are not within"
                        r" start_tol = 0\.5; the first is generator 1, \|value\| 2\.0"),
    # 0 * inf: a nan generator value is not within any tolerance
    "nan-start": (("x", "y"), "1/2*p_x^2 + p_y", ["x*p_y"], (0.0, 0.0), (0.5, INF), 1.0, 1e-2,
                  INF, 10, r"start: 1 of 1 generator values at start are not within"
                  r" start_tol = inf; the first is generator 0, \|value\| nan"),
    # x*y overflows to inf once x > 1.797 while the state stays finite, and
    # inf - inf is a nan generator value
    "nan-sample": (("x", "y", "z"), "p_x", ["x", "x*y - x*z"], (1.79, 1e308, 1e308),
                   (0.0, 0.0, 0.0), 1.0, 1e-2, INF, 10, r"monitored value overflowed at t=0\.01"),
    # x^200 overflows in C pow once |x| > 34.6, while the state stays finite
    "start-sample-overflow": (("x",), "1/2*p_x^2", ["x^200"], (40.0,), (10.0,), 1.0, 1e-2, INF,
                              10, r"monitored value overflowed at t=0"),
    "sample-overflow": (("x",), "1/2*p_x^2", ["x^200"], (30.0,), (10.0,), 1.0, 1e-2, INF, 10,
                        r"monitored value overflowed at t=0\.\d+"),
    # dq/dt = q^3 blows up at t = 1/2; the stage value q^3 overflows in C pow
    "step-overflow": (("q",), "q^3*p_q", ["p_q"], (1.0,), (1.0,), 1.0, 1e-2, INF, 10,
                      r"state overflowed near t=0\.\d+"),
    # dx/dt = dy/dt = x*y: products only, so the state reaches inf without OverflowError
    "non-finite": (("x", "y"), "x*y*p_x + x*y*p_y", ["x - y"], (1.0, 1.0), (0.0, 0.0), 2.0,
                   1e-2, INF, 10, r"non-finite state at t=[\d.]+: 4 of 4 coordinates are not"
                   r" finite; the first is coordinate 0 = inf"),
    "negative-zero-start": (("q",), "1/2*p_q^2", ["p_q"], (-0.0,), (-0.0,), 0.1, 1e-2, INF, 3,
                            None),
    # 50 steps: the last state is stored though 7 does not divide 50
    "store-every-not-dividing": (("q",), "1/2*p_q^2 + 1/2*q^2", ["q*p_q"], (1.0,), (0.0,), 0.5,
                                 1e-2, INF, 7, None),
    # dx/dt = 200*p_x^199 reads only the unmoved p_x, so it is computed before
    # the loop; 40^199 overflows in C pow.  The energy p_x^200 overflows at the
    # start sample first, as every H whose rate overflows does, so only the
    # trajectory reaches the step (TRAJECTORY_EXITS)
    "invariant-rate-overflow": (("x",), "p_x^200", ["x"], (0.0,), (40.0,), 1.0, 1e-2, INF, 10,
                                r"monitored value overflowed at t=0"),
    "invariant-rate-overflow-no-steps": (("x",), "p_x^200", ["x"], (0.0,), (40.0,), 0.0, 1e-2,
                                         INF, 10, r"monitored value overflowed at t=0"),
    # the moved x and y stay finite: only the start test of the unmoved p_y fails
    "unmoved-inf": (("x", "y"), "1/2*p_x^2 + p_y", ["x"], (0.0, 0.0), (0.5, INF), 1.0, 1e-2,
                    INF, 10, r"non-finite state at t=0\.01: 1 of 4 coordinates are not finite;"
                    r" the first is coordinate 3 = inf"),
    "unmoved-nan": (("x", "y"), "1/2*p_x^2 + p_y", ["x"], (0.0, 0.0), (0.5, NAN), 1.0, 1e-2,
                    INF, 10, r"non-finite state at t=0\.01: 1 of 4 coordinates are not finite;"
                    r" the first is coordinate 3 = nan"),
    "unmoved-inf-no-steps": (("x", "y"), "1/2*p_x^2 + p_y", ["x"], (0.0, 0.0), (0.5, INF), 0.0,
                             1e-2, INF, 10, None),
    # the energy 1/2*p_x^2 reads only the unmoved p_x; (1e200)^2 overflows
    "invariant-energy-overflow": (("x",), "1/2*p_x^2", ["x"], (0.0,), (1e200,), 1.0, 1e-2, INF,
                                  10, r"monitored value overflowed at t=0"),
}

# name: the trajectory's error message as a pattern, None for a completed
# run, for the exits where it differs from the monitor's; the trajectory
# samples no energy, so no energy overflow stops it
TRAJECTORY_EXITS = {
    "invariant-rate-overflow": r"state overflowed near t=0\.01",
    "invariant-rate-overflow-no-steps": None,
    "invariant-energy-overflow": None,
}


def outcome(fn, *args, **kwargs):
    """The result, or the type and message of the package error raised."""
    try:
        return fn(*args, **kwargs)
    except (FlowDivergedError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


def assert_identical(got, want):
    # repr tells -0.0 from 0.0 and reads a nan drift as nan, where == does not
    assert type(got) is type(want) and repr(got) == repr(want)


def scene_flows(name):
    """(label, generators, H, start) for the scene's flow-monitor and geodesic-check."""
    scene = load_scene(SCENES / f"{name}.json")
    start = FlowState(scene.flow.q, scene.flow.p, 0.0)
    cot = scene.chart.cotangent()
    ideal = _working_ideal(scene, MonomialOrder("block"))
    lifts = [cotangent_lift(g, cot) for g in scene.foliation.generators]
    return [
        ("flow-monitor", ideal.generators, scene.candidates["H"], start),
        ("geodesic-check", lifts, hamiltonian(scene.metric, cot), start),
    ]


def random_poly(rng, varset, n_terms, max_exp):
    terms = {}
    while len(terms) < n_terms:
        e = [rng.randint(0, max_exp) for _ in range(varset.n_vars)]
        terms[tuple(e)] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 8))
    return Polynomial(varset, terms)


def random_state(rng, n, scale=0.6):
    return FlowState(tuple(rng.uniform(-scale, scale) for _ in range(n)),
                     tuple(rng.uniform(-scale, scale) for _ in range(n)), 0.0)


@pytest.mark.parametrize("name", FLOW_SCENES)
def test_scene_flows_match_the_reference(name):
    rng = random.Random(name)
    for label, gens, h, start in scene_flows(name):
        n = len(start.q)
        starts = [start] + [random_state(rng, n) for _ in range(2)]
        for s, store_every in zip(starts, (10, 7, 1)):
            assert_identical(integrate_flow(h, s, 0.5, 1e-3), reference_flow(h, s, 0.5, 1e-3))
            got = dynamics._monitor(gens, h, s, 1.0, 1e-3, float("inf"), store_every, label)
            want = reference_monitor(gens, h, s, 1.0, 1e-3, float("inf"), store_every)
            assert_identical(got, want)


@pytest.mark.parametrize("seed", range(8))
def test_random_hamiltonians_match_the_reference(seed):
    rng = random.Random(seed)
    chart = VariableSet(tuple(f"x{i}" for i in range(rng.randint(1, 3)))).cotangent()
    n = chart.dimension
    h = random_poly(rng, chart, rng.randint(1, 8), 3)
    gens = [random_poly(rng, chart, rng.randint(0, 4), 2) for _ in range(rng.randint(0, 3))]
    start = random_state(rng, n)
    assert_identical(outcome(integrate_flow, h, start, 1.0, 1e-2),
                     outcome(reference_flow, h, start, 1.0, 1e-2))
    assert_identical(
        outcome(dynamics._monitor, gens, h, start, 1.0, 1e-2, float("inf"), 3, ""),
        outcome(reference_monitor, gens, h, start, 1.0, 1e-2, float("inf"), 3),
    )
    assert_identical(outcome(dynamics._monitor, gens, h, start, 0.0, 1e-2, float("inf"), 3, ""),
                     outcome(reference_monitor, gens, h, start, 0.0, 1e-2, float("inf"), 3))


def test_divergence_message_matches_the_reference():
    # dq/dt = q^2 blows up in finite time from q=1 (H = q^2 p)
    chart = VariableSet(("q",)).cotangent()
    h = P("q^2*p_q", chart)
    start = FlowState((1.0,), (1.0,), 0.0)
    got = outcome(integrate_flow, h, start, 2.0, 1e-2)
    assert got[0] == "FlowDivergedError"
    assert got == outcome(reference_flow, h, start, 2.0, 1e-2)
    gens = [P("q*p_q - 1", chart)]
    got = outcome(dynamics._monitor, gens, h, start, 2.0, 1e-2, 1e-12, 10, "")
    assert got[0] == "FlowDivergedError"
    assert got == outcome(reference_monitor, gens, h, start, 2.0, 1e-2)


@pytest.mark.parametrize("name", FLOW_EXITS)
def test_every_exit_of_the_flow_loop_matches_the_reference(name):
    coords, h, gens, q, p, t_end, dt, start_tol, store_every, message = FLOW_EXITS[name]
    chart = VariableSet(coords).cotangent()
    h, gens = P(h, chart), [P(g, chart) for g in gens]
    start = FlowState(q, p, 0.0)
    got = outcome(dynamics._monitor, gens, h, start, t_end, dt, start_tol, store_every, "start")
    assert_identical(got, outcome(reference_monitor, gens, h, start, t_end, dt, start_tol,
                                  store_every, "start"))
    if message is None:
        assert isinstance(got, MonitorReport)
        assert got.samples[-1][0] == t_end
    else:
        assert re.fullmatch(message, got[1]), got
    got = outcome(integrate_flow, h, start, t_end, dt)
    assert_identical(got, outcome(reference_flow, h, start, t_end, dt))
    if name not in TRAJECTORY_EXITS:
        return
    message = TRAJECTORY_EXITS[name]
    if message is None:
        assert isinstance(got, list)
        assert got[-1].t == t_end and len(got) == round(t_end / dt) + 1
    else:
        assert re.fullmatch(message, got[1]), got


@pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0)],
                         ids=["nan-first", "inf-first", "finite-first"])
def test_running_maximum_follows_builtin_max_through_nan_and_inf(order):
    # x*y and x*z overflow to inf once x > 1.797: x*y - x*z, and the energy
    # with it, turn from finite to nan while the state stays finite
    chart = VariableSet(("x", "y", "z")).cotangent()
    h = P("p_x + x*y - x*z", chart)
    pool = [P("x*y - x*z", chart), P("x*y", chart), P("x", chart)]
    gens = [pool[k] for k in order]
    start = FlowState((1.5, 1e308, 1e308), (1.0, 0.0, 0.0), 0.0)
    # a nan generator value is refused wherever it stands among the values
    got = outcome(dynamics._monitor, gens, h, start, 1.0, 0.1, INF, 3, "")
    assert got == ("FlowDivergedError", "monitored value overflowed at t=0.3")
    assert got == outcome(reference_monitor, gens, h, start, 1.0, 0.1, INF, 3)
    # without the nan generator, the maximum is builtin max through inf
    gens = [pool[k] for k in order if k]
    got = dynamics._monitor(gens, h, start, 1.0, 0.1, INF, 1, "")
    # nan != nan, so the reports can only be compared by repr
    assert repr(got) == repr(reference_monitor(gens, h, start, 1.0, 0.1, INF, 1))
    values = [abs(v) for _, vals, _ in got.samples for v in vals]
    assert got.max_abs_generator == max(values) == INF
    # a nan energy makes the drift nan, in the kernel as in the reference
    assert math.isnan(got.samples[-1][2]) and math.isnan(got.energy_drift)


def test_the_drift_stays_nan_after_the_energy_turns_finite_again():
    # x = 2 sin t; x*y - x*z is inf - inf = nan while |x| > 1.797, and finite
    # after (the rate y - z + x keeps x exact: the terms come in that order)
    chart = VariableSet(("x", "y", "z")).cotangent()
    h = P("x*y - x*z + 1/2*x^2 + 1/2*p_x^2", chart)
    start = FlowState((0.0, 1e308, 1e308), (2.0, 0.0, 0.0), 0.0)
    got = dynamics._monitor([P("x", chart)], h, start, 3.0, 1e-2, INF, 10, "")
    energies = [e for _, _, e in got.samples]
    assert any(map(math.isnan, energies)) and math.isfinite(energies[-1])
    assert math.isnan(got.energy_drift)
    assert repr(got) == repr(reference_monitor([P("x", chart)], h, start, 3.0, 1e-2, INF, 10))


def test_large_hamiltonian_compiles_and_matches():
    # the kernel writes a sum in statements of at most 64 terms, so the sums
    # of this H run to several statements each
    rng = random.Random(400)
    chart = VariableSet(("x", "y", "z")).cotangent()
    h = random_poly(rng, chart, 420, 6)
    assert len(h.terms) >= 400 and max(max(e) for e in h.terms) == 6
    evaluate, reference = compile_evaluator(h), reference_evaluator(h)
    for _ in range(20):
        vals = [rng.uniform(-1.2, 1.2) for _ in range(chart.n_vars)]
        assert repr(evaluate(vals)) == repr(reference(vals))
    start = random_state(rng, 3, scale=0.3)
    assert_identical(outcome(integrate_flow, h, start, 3e-3, 1e-3),
                     outcome(reference_flow, h, start, 3e-3, 1e-3))
    # a run of no steps samples the start once: h as the generator and as the energy
    value = reference(start.vector())
    report = dynamics._monitor([h], h, start, 0.0, 1e-3, INF, 1, "")
    assert_identical(report.samples, ((0.0, (value,), value),))


def test_kernel_source_holds_no_scene_text():
    scene = load_scene({
        "chart": {"coordinates": ["lambda_", "q"]},
        "cometric": [["1 + q^2", "0"], ["0", "1"]],
        "foliation": [["-q", "lambda_"]],
        "candidates": {"H": "1/2*p_lambda_^2 + 1/2*p_q^2 + lambda_^2*q"},
    })
    cot = scene.chart.cotangent()
    lifts = [cotangent_lift(g, cot) for g in scene.foliation.generators]
    names = set(cot.names)
    assert {"lambda_", "p_q"} <= names
    # the flow loop adds its keywords, builtins, parameters and running maxima
    loop_names = ("flow|steps|start_tol|store_every|append|i|m|t|max_gen|drift|fin|isfinite|abs|range"
                  "|try|except|OverflowError|if|or|and|not|for|in")
    for h in (hamiltonian(scene.metric, cot), scene.candidates["H"]):
        for source in (flow_source(h, lifts, 1e-3), flow_source(h, None, 1e-3)):
            for name in names:
                assert not re.search(rf"\b{re.escape(name)}\b", source), name
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                if tok.type == tokenize.NAME:
                    assert re.fullmatch(rf"def|return|e|[a-z]{{1,2}}\d+|{loop_names}",
                                        tok.string), tok.string
                elif tok.type == tokenize.NUMBER:
                    assert tok.string.isdigit() or repr(float(tok.string)) == tok.string
                else:
                    assert tok.type != tokenize.STRING


def test_step_cap_is_checked_before_the_first_step(monkeypatch):
    chart = VariableSet(("q",)).cotangent()
    h = P("1/2*p_q^2 + 1/2*q^2", chart)
    start = FlowState((1.0,), (0.0,), 0.0)
    ideal = IdealPresentation(chart, [P("p_q", chart)])
    with pytest.raises(PreconditionError, match="MAX_FLOW_STEPS"):
        integrate_flow(h, start, 1e9, 1e-3)
    with pytest.raises(PreconditionError, match="MAX_FLOW_STEPS"):
        monitor_ideal_preservation(ideal, h, start, 1e9, 1e-3)
    with pytest.raises(PreconditionError, match="MAX_FLOW_STEPS"):
        integrate_flow(h, start, float("inf"), 1e-3)
    monkeypatch.setattr(dynamics, "MAX_FLOW_STEPS", 10)
    assert len(integrate_flow(h, start, 10e-3, 1e-3)) == 11
    with pytest.raises(PreconditionError, match="MAX_FLOW_STEPS"):
        integrate_flow(h, start, 11e-3, 1e-3)


# a signed-zero start coordinate: +0.0, -0.0 or a uniform value
ZERO_OR_UNIFORM = st.one_of(st.sampled_from([0.0, -0.0]),
                            st.floats(-0.6, 0.6, allow_nan=False, allow_subnormal=False))


@st.composite
def sparse_poly(draw, chart, max_terms):
    """Terms over a drawn subset of the variables, so that partials can be zero."""
    used = draw(st.lists(st.booleans(), min_size=chart.n_vars, max_size=chart.n_vars))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, 3)) if u else 0 for u in used)
        terms[e] = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 4)))
    return Polynomial(chart, terms)


@st.composite
def signed_zero_flows(draw):
    chart = VariableSet(tuple(f"x{i}" for i in range(draw(st.integers(1, 2))))).cotangent()
    n = chart.dimension
    h = draw(sparse_poly(chart, 4))
    gens = draw(st.lists(sparse_poly(chart, 2), max_size=2))
    values = draw(st.lists(ZERO_OR_UNIFORM, min_size=2 * n, max_size=2 * n))
    return h, gens, FlowState(tuple(values[:n]), tuple(values[n:]), 0.0)


def _flow_case(coords, h, gens, values):
    chart = VariableSet(coords).cotangent()
    n = chart.dimension
    return P(h, chart), [P(g, chart) for g in gens], FlowState(values[:n], values[n:], 0.0)


@settings(max_examples=150, deadline=None)
@given(signed_zero_flows())
# zero dH/dp: the kernel must still turn the -0.0 start of x0 into 0.0
@example(_flow_case(("x0", "x1"), "7/4*x1^2", [], (-0.0, 0.0, 0.0, 0.0)))
@example(_flow_case(("x0",), "-3*x0^2*p_x0", ["p_x0"], (-0.0, -0.0)))
# unmoved momenta that start non-finite or whose powers overflow
@example(_flow_case(("x0", "x1"), "1/2*p_x0^2 + p_x1", ["x0*p_x1"], (0.0, -0.0, 0.5, INF)))
@example(_flow_case(("x0", "x1"), "1/2*p_x0^2 + p_x1", ["x0*p_x1"], (0.0, -0.0, NAN, 0.5)))
@example(_flow_case(("x0",), "1/2*p_x0^2", ["x0"], (-0.0, 1e200)))
@example(_flow_case(("x0",), "p_x0^200", [], (0.0, 40.0)))
def test_signed_zero_flows_match_the_reference(case):
    h, gens, start = case
    assert_identical(outcome(integrate_flow, h, start, 0.05, 1e-2),
                     outcome(reference_flow, h, start, 0.05, 1e-2))
    assert_identical(outcome(dynamics._monitor, gens, h, start, 0.05, 1e-2, INF, 2, ""),
                     outcome(reference_monitor, gens, h, start, 0.05, 1e-2, INF, 2))


@settings(max_examples=100, deadline=None)
@given(signed_zero_flows(), st.sampled_from([0.0, 0.05]))
# 0 * inf is a nan generator value at the start
@example(_flow_case(("x0", "x1"), "1/2*p_x0^2 + p_x1", ["x0*p_x1"], (0.0, -0.0, 0.5, INF)), 0.0)
# x0 * 1e308 turns inf after one step, and inf - inf a nan generator value
@example(_flow_case(("x0", "x1"), "p_x0", ["x0*x1 - x0*p_x1"], (1.79, 1e308, 0.0, 1e308)), 0.05)
def test_a_returned_monitor_bounds_every_stored_generator_value(case, t_end):
    h, gens, start = case
    got = outcome(dynamics._monitor, gens, h, start, t_end, 1e-2, INF, 1, "")
    if isinstance(got, MonitorReport):
        assert all(got.max_abs_generator >= abs(v) for _, values, _ in got.samples for v in values)


def _step(source):
    """The statements of the step in a ``flow_source`` kernel."""
    rest = source.split("        if i < steps:\n            try:\n", 1)[1]
    return rest.split("            except OverflowError:\n", 1)[0].splitlines()


def _once(source):
    """The step statements that a ``flow_source`` kernel runs once, before the loop."""
    rest = source.split("    if steps:\n        try:\n", 1)[1]
    return rest.split("        except OverflowError:\n", 1)[0].splitlines()


def _loop(source):
    """The body of the loop over the steps in a ``flow_source`` kernel."""
    return source.split("    for i in range(steps + 1):\n", 1)[1].splitlines()


def test_a_free_particle_step_is_three_sums_and_three_updates():
    chart = VariableSet(("x", "y", "z")).cotangent()
    h = P("1/2*p_x^2 + 1/2*p_y^2 + 1/2*p_z^2", chart)
    source = flow_source(h, [P("x*p_y - y*p_x", chart)], 1e-3)
    assert [s.strip() for s in _once(source)] == [
        "a0 = 0.0 + v3",
        "a1 = 0.0 + v4",
        "a2 = 0.0 + v5",
        *(f"d{i} = 0.001 * (a{i} + 2 * a{i} + 2 * a{i} + a{i}) / 6.0" for i in range(3)),
    ]
    step = _step(source)
    assert [s.strip() for s in step] == [f"n{i} = v{i} + d{i}" for i in range(3)]
    assert not any("-0.0" in s or re.search(r"\bw\d", s) for s in step)
    assert "        fin = isfinite(v3) and isfinite(v4) and isfinite(v5)\n" in source
    assert "            if not (fin and isfinite(n0) and isfinite(n1) and isfinite(n2)):\n" in source


def test_the_so3_moment_loop_recomputes_no_energy_and_tests_no_unmoved_momentum():
    # H = 1/2*|p|^2: the momenta v3..v5 never move, so the energy is the start's
    for label, gens, h, start in scene_flows("so3_moment"):
        loop = _loop(flow_source(h, gens, 1e-3))
        assert not any(s.strip().startswith("e =") for s in loop), label
        assert not any(re.search(r"isfinite\(v[345]\)", s) for s in loop), label
        assert not any(re.search(r"\b[ad]\d+ =", s) for s in loop), label
        assert any(s.strip().startswith("g0 =") for s in loop), label


def test_an_energy_of_unmoved_momenta_takes_no_drift_in_the_loop():
    # so3_moment's geodesic energy 1/2*|p|^2 reads only the unmoved momenta
    (_, gens, h, start), = [f for f in scene_flows("so3_moment") if f[0] == "geodesic-check"]
    source = flow_source(h, gens, 1e-3)
    assert not any(re.search(r"\be0\b", s) for s in _loop(source))
    assert "drift = abs(e0 - e0)" in source
    # e0 = inf, so abs(e - e0) is nan at every step, and the drift nan from the start
    chart = VariableSet(("x", "y")).cotangent()
    h, gens = P("p_x*p_y", chart), [P("x - y", chart)]
    start = FlowState((0.0, 0.0), (1e200, 1e200), 0.0)
    assert not any(re.search(r"\be0\b", s) for s in _loop(flow_source(h, gens, 1e-2)))
    got = dynamics._monitor(gens, h, start, 1.0, 1e-2, INF, 10, "")
    assert got.samples[0][2] == INF and math.isnan(got.energy_drift)
    assert repr(got) == repr(reference_monitor(gens, h, start, 1.0, 1e-2, INF, 10))
    # the non-finite start that completes: an infinite unmoved momentum, no steps
    coords, h, gens, q, p, t_end, dt, start_tol, store_every, _ = FLOW_EXITS[
        "unmoved-inf-no-steps"]
    chart = VariableSet(coords).cotangent()
    h, gens = P(h, chart), [P(g, chart) for g in gens]
    start = FlowState(q, p, 0.0)
    got = dynamics._monitor(gens, h, start, t_end, dt, start_tol, store_every, "")
    assert math.isnan(got.energy_drift)
    assert repr(got) == repr(reference_monitor(gens, h, start, t_end, dt, start_tol,
                                               store_every))


def test_a_5000_term_polynomial_compiles_and_matches():
    # one flat sum of a few thousand terms exhausts the compiler's recursion limit
    rng = random.Random(5000)
    chart = VariableSet(("x", "y", "z")).cotangent()
    h = random_poly(rng, chart, 5000, 6)
    evaluate, reference = compile_evaluator(h), reference_evaluator(h)
    for _ in range(5):
        vals = [rng.uniform(-1.1, 1.1) for _ in range(chart.n_vars)]
        assert repr(evaluate(vals)) == repr(reference(vals))


@pytest.mark.parametrize("command", ["flow-monitor", "geodesic-check"])
@pytest.mark.parametrize("name", FLOW_SCENES)
def test_shipped_flow_reports_match_the_reference_bytes(name, command, monkeypatch):
    path = SCENES / f"{name}.json"
    report, code = run_command(command, path)
    assert code == 0 and report["monitor"]["samples"]
    calls = []
    monkeypatch.setattr(dynamics, "_monitor",
                        lambda *args: calls.append(args) or reference_monitor(*args))
    want, want_code = run_command(command, path)
    assert len(calls) == 1 and code == want_code
    assert render_report(report) == render_report(want)


def _scene_with_flow(name, q, p):
    scene = json.loads((SCENES / f"{name}.json").read_text(encoding="utf-8"))
    scene["flow"] = {"q": q, "p": p, "t_end": 2.0, "dt": 0.001}
    return json.dumps(scene)


@pytest.mark.parametrize("command, label", [
    ("flow-monitor", "start is not on the zero set"),
    ("geodesic-check", "start covector is not orthogonal to the leaf"),
], ids=["flow-monitor", "geodesic-check"])
@pytest.mark.parametrize("scene, q, p, message", [
    # the state stays finite, and a generator value turns nan at t=0.798
    ("so3_moment", ["1e154", "1e154", "0"], ["1e154", "1e154", "0"],
     r"monitored value overflowed at t=0\.798"),
    # the first generator value is nan at the start
    ("so3_moment", ["1e200", "1e200", "0"], ["1e150", "1e150", "0"],
     r"{label}: 1 of 3 generator values at start are not within start_tol = 1e-12;"
     r" the first is generator 0, \|value\| nan"),
    # all 30 order-3 lifts are nonzero here, and 30 values would take over 600 characters
    ("order_3_n3", ["1/3", "1/7", "1/11"], ["1", "2", "3"],
     r"{label}: 30 of 30 generator values at start are not within start_tol = 1e-12;"
     r" the first is generator 0, \|value\| 0\.03703703703703703"),
], ids=["nan-in-the-loop", "nan-at-the-start", "order-3-off-start"])
def test_a_flow_refusal_exits_2_with_a_bounded_message(command, label, scene, q, p, message):
    report, code = run_command(command, _scene_with_flow(scene, q, p))
    assert (code, report["verdict"]) == (2, "error"), report
    text = report["detail"]["message"]
    assert re.fullmatch(message.format(label=re.escape(label)), text), text
    assert len(text) <= MAX_ERROR_MESSAGE
