import json
import random
from pathlib import Path

import pytest

from foliatk import (
    FoliationModule,
    MetricData,
    SymTensor2,
    VariableSet,
    VectorField,
    cli,
    parse_expression,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"

# the longest message an error report may carry: it quotes inputs as excerpts
MAX_ERROR_MESSAGE = 300


@pytest.fixture(autouse=True)
def bounded_error_messages(monkeypatch):
    """Fail any test in which an error report's message runs past the bound."""
    report_error = cli._error_report

    def bounded(*args, **kwargs):
        report = report_error(*args, **kwargs)
        message = report["detail"]["message"]
        assert len(message) <= MAX_ERROR_MESSAGE, (
            f"an error message of {len(message)} characters: {message[:200]!r}...")
        return report

    monkeypatch.setattr(cli, "_error_report", bounded)


# (scene, key) of every foliation a shipped scene declares
FOLIATIONS = [
    (path.stem, key)
    for path in sorted(SCENES.glob("*.json"))
    for key in ("foliation", "foliation_b", "target_foliation", "target_foliation_b")
    if json.loads(path.read_text(encoding="utf-8")).get(key) is not None
]


def P(expr, varset):
    return parse_expression(expr, varset)


def VF(chart, *exprs):
    return VectorField(chart, tuple(parse_expression(e, chart) for e in exprs))


def euclidean(chart, with_metric=True):
    com = SymTensor2.euclidean(chart)
    met = SymTensor2.euclidean(chart, "covariant") if with_metric else None
    return MetricData(com, met)


def matrix(chart, rows):
    return tuple(tuple(parse_expression(e, chart) for e in row) for row in rows)


@pytest.fixture
def r2():
    return VariableSet(("x", "y"))


@pytest.fixture
def r3():
    return VariableSet(("x", "y", "z"))


@pytest.fixture
def so3_chart():
    return VariableSet(("q1", "q2", "q3"))


@pytest.fixture
def so3_foliation(so3_chart):
    return FoliationModule(
        so3_chart,
        (
            VF(so3_chart, "-q2", "q1", "0"),
            VF(so3_chart, "-q3", "0", "q1"),
            VF(so3_chart, "0", "-q3", "q2"),
        ),
    )


@pytest.fixture
def rng():
    return random.Random(20250809)
