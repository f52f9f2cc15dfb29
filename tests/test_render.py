"""The report emitter against ``json.dumps``, and the flow trace float format.

``render_report`` must print exactly what ``json.dumps(report, sort_keys=True,
indent=2, ensure_ascii=False) + "\\n"`` prints, on every report the CLI makes
and on any value of the types reports hold.
"""

import argparse
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk.cli import _f, render_report, run_command

from conftest import SCENES
from test_report_digests import DIGESTS


def _oracle(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_emitter_matches_json_dumps_on_every_digest_call():
    calls = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(calls) == 211
    for call in calls:
        args = argparse.Namespace(point=call["point"], candidate=list(call["candidates"]),
                                  tol=None, dt=None, t_end=None, order=call["order"])
        report, _ = run_command(call["command"], SCENES / f"{call['scene']}.json", args)
        assert render_report(report) == _oracle(report), call


FLOW_SCENES = [p.stem for p in sorted(SCENES.glob("*.json"))
               if json.loads(p.read_text(encoding="utf-8")).get("flow")]


@pytest.mark.parametrize("command", ["flow-monitor", "geodesic-check"])
@pytest.mark.parametrize("scene", FLOW_SCENES)
def test_emitter_matches_json_dumps_on_flow_reports(scene, command):
    report, _ = run_command(command, SCENES / f"{scene}.json")
    assert report["monitor"]["samples"]
    assert render_report(report) == _oracle(report)


def test_emitter_matches_json_dumps_on_an_error_report():
    report, code = run_command("check-involutive", SCENES / "nonclosed_ideal_r2.json")
    assert code == 2 and report["verdict"] == "error"
    assert render_report(report) == _oracle(report)


TEXT = st.text() | st.text(alphabet=st.sampled_from(
    ["a", " ", "\u00e9", "\u2603", "\U0001d523", '"', "\\", "/", "\n", "\t", "\r",
     "\x00", "\x1f", "\x7f", "\u2028", "\ud800"]))
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)


@st.composite
def reports(draw):
    """A report-shaped dict in which one list is shared at two depths and twice at one."""
    shared = draw(st.lists(TEXT, max_size=3) | st.lists(VALUES, max_size=3))
    report = draw(st.dictionaries(TEXT, VALUES, max_size=4))
    report["same depth"] = [shared, {"inner": shared}, shared]
    report["other depth"] = {"a": shared, "b": [[shared]]}
    return report


@given(reports() | VALUES)
@settings(max_examples=150, deadline=None)
def test_emitter_matches_json_dumps_on_report_shaped_values(report):
    assert render_report(report) == _oracle(report)


@pytest.mark.parametrize("value", [
    1.5, float("nan"), (1, 2), {1, 2}, b"bytes", {1: "a"}, {"a": "b", 2: "c"},
    {"a": [0.5]}, ["a", "b", 2.0], [["a"], ("b",)],
])
def test_emitter_refuses_types_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        render_report({"detail": value})


@pytest.mark.parametrize("x", [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, 1e-300,
    0.1, 1 / 3, 2.0 ** 53 + 1, 1.7976931348623157e308,
])
def test_flow_floats_print_as_the_17_digit_format(x):
    assert _f(x) == format(float(x), ".17g")


@given(st.floats())
def test_flow_floats_print_as_the_17_digit_format_on_any_float(x):
    assert _f(x) == format(float(x), ".17g")
