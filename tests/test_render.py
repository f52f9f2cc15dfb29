"""The report emitter against ``json.dumps``, and the flow trace float format.

``render_report`` must print exactly what ``json.dumps(report, sort_keys=True,
indent=2, ensure_ascii=False) + "\\n"`` prints, on every report the CLI makes
and on any value of the types reports hold.  A list of records of one shape
goes through a ``%`` template; any list that is not one must render, or
raise, exactly as on the generic path.
"""

import argparse
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliatk import cli
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


KEYS = TEXT | st.sampled_from(["%", "%s", "%%", "%(a)s", "100%", "\u2028", "\u00e9\u2603"])
NOT_STR = st.none() | st.booleans() | st.integers() | st.just(0.5)


@st.composite
def record_lists(draw):
    """A list of records of one shape at a drawn depth; perhaps one record
    differs in its key set, a value type, an inner length or a key type."""
    lengths = draw(st.dictionaries(KEYS, st.none() | st.integers(0, 3), min_size=1, max_size=4))

    def value(length):
        if length is None:
            return draw(TEXT)
        return draw(st.lists(TEXT, min_size=length, max_size=length))

    records = [{k: value(n) for k, n in lengths.items()} for _ in range(draw(st.integers(0, 4)))]
    if records and draw(st.booleans()):
        at = draw(st.integers(0, len(records) - 1))
        record = records[at]
        key = draw(st.sampled_from(sorted(record)))
        change = draw(st.sampled_from(
            ["add key", "drop key", "value type", "inner length", "inner item", "key type",
             "not a dict"]))
        if change == "add key":
            record[draw(KEYS)] = draw(TEXT)
        elif change == "drop key":
            del record[key]
        elif change == "value type":
            record[key] = draw(NOT_STR | VALUES)
        elif change == "inner length":
            record[key] = value(draw(st.integers(0, 4)))
        elif change == "inner item":
            record[key] = [*value(draw(st.integers(0, 2))), draw(NOT_STR)]
        elif change == "key type":
            record[draw(st.integers())] = draw(TEXT)
        else:
            records[at] = draw(VALUES)
    obj = records
    for _ in range(draw(st.integers(0, 3))):
        obj = [obj] if draw(st.booleans()) else {draw(KEYS): obj}
    return obj


def _generic(report):
    """``render_report`` without the record template, or the TypeError it raises."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_records", lambda obj, depth: None)
        try:
            return render_report(report)
        except TypeError as exc:
            return exc


@given(record_lists())
@settings(max_examples=300, deadline=None)
def test_record_lists_render_as_json_dumps_or_raise_the_generic_type_error(obj):
    report = {"monitor": {"samples": obj}}
    want = _generic(report)
    if isinstance(want, TypeError):
        with pytest.raises(TypeError) as got:
            render_report(report)
        assert str(got.value) == str(want)
    else:
        assert want == _oracle(report)
        assert render_report(report) == want


def test_a_percent_in_a_record_key_is_escaped_in_the_template():
    records = [{"50%%": "a", "b": ["c", "%s"]}, {"50%%": "d%", "b": ["e", "f"]}]
    text = render_report({"r": records})
    assert text == _oracle({"r": records})
    assert '"50%%": "d%"' in text
    assert cli._records(records, 2) in text


def test_a_flow_trace_takes_the_record_template():
    report, _ = run_command("flow-monitor", SCENES / "so3_moment.json")
    samples = report["monitor"]["samples"]
    body = cli._records(samples, 3)
    assert body is not None and body in _oracle(report)


class _Text(str):
    pass


@pytest.mark.parametrize("report", [
    {"a": [_Text("x")]}, {_Text("k"): "v"}, {"a": _Text("x\u2028\"")},
    {"r": [{"k": _Text("x")}, {"k": "y"}]}, {"r": [{"k": "y"}, {"k": _Text("x")}]},
], ids=["list item", "key", "value", "first record value", "record value"])
def test_a_str_subclass_renders_as_json_dumps_renders_it_wherever_it_sits(report):
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
