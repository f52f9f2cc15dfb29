"""The generated flow kernels against the closure-interpreter reference.

The kernels perform the reference's float operations in the same order, so
trajectories, monitor reports and divergence messages must be equal, not
close; ``repr`` equality also tells -0.0 from 0.0.
"""

import io
import random
import re
import tokenize
from fractions import Fraction

import pytest

from foliatk import (
    FlowDivergedError,
    FlowState,
    PreconditionError,
    Polynomial,
    VariableSet,
    hamiltonian,
    integrate_flow,
    monitor_ideal_preservation,
)
from foliatk import dynamics
from foliatk.cli import _working_ideal
from foliatk.dynamics import compile_evaluator, compile_kernel, kernel_source
from foliatk.geometry import cotangent_lift
from foliatk.ipoisson import IdealPresentation
from foliatk.poly import MonomialOrder
from foliatk.scene import load_scene

from conftest import P, SCENES
from oracle import reference_evaluator, reference_flow, reference_monitor

FLOW_SCENES = ("so3_moment", "rotation_r3", "rotation_srf_r2", "rotation_nonmodule_r2")


def outcome(fn, *args, **kwargs):
    """The result, or the type and message of the package error raised."""
    try:
        return fn(*args, **kwargs)
    except (FlowDivergedError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


def assert_identical(got, want):
    assert got == want
    assert repr(got) == repr(want)


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


def random_poly(rng, varset, n_terms, max_exp, separable=False):
    n = varset.dimension
    terms = {}
    while len(terms) < n_terms:
        e = [rng.randint(0, max_exp) for _ in range(varset.n_vars)]
        if separable:
            half = rng.randrange(2)
            e = [k if (i < n) == bool(half) else 0 for i, k in enumerate(e)]
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
    sep = random_poly(rng, chart, rng.randint(1, 6), 3, separable=True)
    assert_identical(outcome(integrate_flow, sep, start, 1.0, 1e-2, method="leapfrog"),
                     outcome(reference_flow, sep, start, 1.0, 1e-2, method="leapfrog"))


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


def test_large_hamiltonian_compiles_and_matches():
    # one nested expression per polynomial would exceed the parser's nesting
    # limit at a few hundred terms; the kernel is one statement per term
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
    _, sample = compile_kernel(h, [h], 1e-3)
    assert sample(*start.vector()) == ((reference(start.vector()),), reference(start.vector()))


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
    for h in (hamiltonian(scene.metric, cot), scene.candidates["H"]):
        source = kernel_source(h, lifts, 1e-3)
        for name in names:
            assert not re.search(rf"\b{re.escape(name)}\b", source), name
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert re.fullmatch(r"def|return|step|sample|e|[a-z]{1,2}\d+", tok.string)
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit() or repr(float(tok.string)) == tok.string
    leapfrog = kernel_source(P("1/2*p_q^2 + lambda_^4", cot), [], 1e-3, "leapfrog")
    assert not any(re.search(rf"\b{re.escape(name)}\b", leapfrog) for name in names)


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
