"""Mutated shipped scenes always give a JSON report, never an exception.

Each case takes a shipped scene and applies a few mutations: a dict key
dropped, a value replaced by one of the wrong type, or an expression text
replaced from a fixed pool of hostile texts (a huge power, a huge literal, a
huge exponent, a short power that expands, a zero denominator, an empty
text, unbalanced parentheses).  ``lift-ideal``, ``check-riemannian`` and
``normalizer-check`` then run through ``run_command`` and ``render_report``,
as the CLI runs them: each must give a report that is JSON and exit 0, 1
or 2, never 3, the code of an internal fault.
"""

import argparse
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliatk.cli import render_report, run_command

from conftest import SCENES

HOSTILE = ("2^10000", "9" * 5000, "x^99999", "(x+1)^500", "1/0", "", "(x + 1", "x)")
WRONG_TYPES = (None, True, 2, 2.5, "0", [], ["0"], {}, {"x": "0"})
COMMANDS = ("lift-ideal", "check-riemannian", "normalizer-check")
SHIPPED = {path.stem: json.loads(path.read_text(encoding="utf-8"))
           for path in sorted(SCENES.glob("*.json"))}


def _paths(value, path=()):
    """Every (path, value) inside a JSON value, the value itself first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


_DROP = object()


def _replace(value, path, new):
    """A copy of ``value`` with the item at ``path`` replaced, or dropped
    when ``new`` is ``_DROP``."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    copy = dict(value) if isinstance(value, dict) else list(value)
    if rest or new is not _DROP:
        copy[key] = _replace(value[key], rest, new)
    else:
        del copy[key]
    return copy


@st.composite
def mutated_scenes(draw):
    name = draw(st.sampled_from(sorted(SHIPPED)))
    data = SHIPPED[name]
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p, _ in _paths(data) if p]
        texts = [p for p, v in _paths(data) if p and isinstance(v, str) and p[0] != "notes"]
        kind = draw(st.sampled_from(("drop", "wrong type", "hostile text")))
        if kind == "drop":
            droppable = [p for p, _ in _paths(data) if p and isinstance(p[-1], str)]
            data = _replace(data, draw(st.sampled_from(droppable)), _DROP)
        elif kind == "wrong type":
            data = _replace(data, draw(st.sampled_from(paths)), draw(st.sampled_from(WRONG_TYPES)))
        elif texts:
            data = _replace(data, draw(st.sampled_from(texts)), draw(st.sampled_from(HOSTILE)))
    return name, data


# 2^10000 parses, but the certificates of normalizer-check hold coefficients
# past the digit limit, which no report can print
BIG_COEFFICIENT = _replace(SHIPPED["killing_band_r2"], ("foliation", 1, 0), "2^10000")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_scenes())
@example(("killing_band_r2", BIG_COEFFICIENT))
def test_a_mutated_scene_gives_a_json_report_and_never_exits_3(case):
    name, data = case
    candidates = list(SHIPPED[name].get("candidates", {}))[:1]
    args = argparse.Namespace(point=None, candidate=candidates, tol=None, dt=None, t_end=None,
                              order="block")
    for command in COMMANDS:
        report, code = run_command(command, data, args)
        assert code in (0, 1, 2), report["detail"]
        rendered = json.loads(render_report(report))
        assert rendered["verdict"] == {0: "pass", 1: "fail"}.get(code, "error")
