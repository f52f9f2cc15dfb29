"""JSON scene schema: charts, metrics, foliations, submersions, candidates.

Scenes are diffable fixtures with expression strings; every referenced name
must be declared.  Optional second copies of the foliation and submersion
sections serve the comparison commands (module-equal, morita-span), and an
explicit ``ideal`` section covers presentations that are not lift ideals.

One load parses each distinct (text, chart) once: most entries of a scene are
the literals ``0`` and ``1``, and polynomials are immutable, so every key
holding a text shares its parse.  The memo lives for one :func:`load_scene`
call, holds one text map per chart, which each section looks up once, and
keeps only parses that succeeded, so a refused text is refused at the first
key that holds it, with its own message and position.

A load costs what the scene holds.  Nearly every text is a flat sum of
monomials, which :func:`~foliatk.expressions.parse_expression` reads in one
pass into the recursive parser's polynomial and term order, handing it every
text whose outcome a limit could change; a path is opened before anything
probes it; symmetry is checked once, by
:class:`~foliatk.geometry.SymTensor2`; and positivity reads each cometric
entry once per sample point, at the default origin its constant term alone.
All of it keeps full validation: every malformed scene is refused at load,
whatever the command.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .errors import FoliatkError, SceneError, excerpt
from .expressions import parse_expression
from .foliation import FoliationModule
from .geometry import MetricData, SymTensor2, VectorField
from .ipoisson import IdealPresentation
from .poly import Polynomial, VariableSet
from .submersion import SubmersionData


@dataclass
class FlowSpec:
    q: tuple[float, ...]
    p: tuple[float, ...]
    t_end: float
    dt: float


@dataclass
class Scene:
    chart: VariableSet
    metric: MetricData
    foliation: FoliationModule | None = None
    foliation_b: FoliationModule | None = None
    ideal: IdealPresentation | None = None
    submersion: SubmersionData | None = None
    submersion_b: SubmersionData | None = None
    target_foliation: FoliationModule | None = None
    target_foliation_b: FoliationModule | None = None
    points: dict[str, tuple[Fraction, ...]] = field(default_factory=dict)
    candidates: dict[str, Polynomial] = field(default_factory=dict)
    target_candidates: dict[str, Polynomial] = field(default_factory=dict)
    flow: FlowSpec | None = None
    notes: tuple[str, ...] = ()

    def lift_or_explicit_ideal(self) -> IdealPresentation:
        """The scene's working ideal: the explicit one, else the foliation lift."""
        if self.ideal is not None:
            return self.ideal
        if self.foliation is not None:
            return self.foliation.lift_presentation
        raise SceneError("scene declares neither an ideal nor a foliation")


def _require(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise SceneError(f"missing {key!r} in {context}")
    return mapping[key]


def _array(value, context: str) -> list | tuple:
    """``value`` itself if it is a JSON array; a string is not read as one."""
    if not isinstance(value, (list, tuple)):
        raise SceneError(f"{context} must be a JSON array, got {type(value).__name__}")
    return value


def _integer(value, context: str) -> int:
    """``value`` itself if it is a JSON integer; a bool, float or string is not read as one."""
    if value.__class__ is not int:
        raise SceneError(f"{context} must be a JSON integer, got {type(value).__name__}")
    return value


# digits a rational coordinate may hold: past Python's default limit on
# integer-string conversion, a report could not print it
MAX_COORDINATE_DIGITS = sys.int_info.default_max_str_digits
_EXPONENT = re.compile(r"e\s*[+-]?([\d_]+)\s*\Z", re.IGNORECASE)


def parse_coordinate(value, context: str) -> Fraction:
    """One exact coordinate: a JSON number, or a string ``Fraction`` reads.

    The text is measured before any value is built: the length of its part
    before a decimal exponent, plus the exponent's power, may not pass
    ``MAX_COORDINATE_DIGITS``, or ``Fraction("1e9999999")`` would spend
    seconds building a value no report could print.  Every refusal is a
    :class:`SceneError` naming ``context``.
    """
    if value.__class__ not in (int, float, str):
        raise SceneError(f"{context}: a coordinate must be a number or a string, "
                         f"got {type(value).__name__}")
    try:
        text = str(value)
    except ValueError as exc:  # an int past the limit on integer-string conversion
        raise SceneError(f"{context}: coordinate has more than {MAX_COORDINATE_DIGITS} digits") \
            from exc
    exponent = _EXPONENT.search(text)
    power = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
    length = exponent.start() if exponent else len(text)
    if len(power) > 9 or length + int(power or 0) > MAX_COORDINATE_DIGITS:
        raise SceneError(f"{context}: coordinate {excerpt(text)} could pass "
                         f"{MAX_COORDINATE_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SceneError(f"{context}: cannot read {excerpt(text)} as a rational coordinate") \
            from exc


def _member(section: str, name) -> str:
    """The context ``section.name`` of a scene key, the name past 80
    characters as its :func:`excerpt`."""
    name = str(name)
    return f"{section}.{name}" if len(name) <= 80 else f"{section}.{excerpt(name)}"


def _point(coords, context: str) -> tuple[Fraction, ...]:
    return tuple(parse_coordinate(v, f"{context}[{i}]")
                 for i, v in enumerate(_array(coords, context)))


def _float(value, context: str) -> float:
    """A coordinate read by :func:`parse_coordinate`, as a float; it must lie in
    float range, so a bool, unreadable text or a non-finite value is refused."""
    try:
        return float(parse_coordinate(value, context))
    except OverflowError as exc:
        raise SceneError(f"{context} is outside the float range") from exc


def _flow_start(flow: Mapping, key: str) -> tuple[float, ...]:
    """The float start coordinates ``flow[key]``."""
    return tuple(_float(c, f"flow.{key}[{i}]")
                 for i, c in enumerate(_array(_require(flow, key, "flow"), f"flow.{key}")))


_Memo = dict[VariableSet, dict[str, Polynomial]]  # the parses of one load, by chart


def _parse_matrix(rows, varset: VariableSet, kind: str, context: str, memo: _Memo) -> SymTensor2:
    n = varset.dimension
    rows = [_array(r, f"{context} row") for r in _array(rows, context)]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise SceneError(f"{context}: matrix must be {n}x{n}")
    parses = memo.setdefault(varset, {})
    entries = tuple(tuple(_parse(cell, varset, context, parses) for cell in row) for row in rows)
    try:
        return SymTensor2(varset, kind, entries)
    except FoliatkError as exc:  # not symmetric
        raise SceneError(f"{context}: {exc}") from exc


def _parse(text, varset: VariableSet, context: str, parses: dict[str, Polynomial]) -> Polynomial:
    """``text`` parsed on ``varset``; ``parses`` holds the texts this load
    parsed on it.

    Only a parse that succeeded is kept, so every key holding a text that is
    refused (past ``MAX_TERM_PRODUCTS``, say) is refused, at the first one.
    Polynomials are immutable, so one parse may serve every key.
    """
    if not isinstance(text, str):
        text = str(text)
    value = parses.get(text)
    if value is None:
        try:
            value = parses[text] = parse_expression(text, varset)
        except FoliatkError as exc:
            raise SceneError(f"{context}: {exc}") from exc
    return value


def _parse_foliation(rows, chart: VariableSet, context: str, memo: _Memo) -> FoliationModule:
    gens = []
    parses = memo.setdefault(chart, {})
    for idx, comps in enumerate(_array(rows, context)):
        comps = _array(comps, f"{context}[{idx}]")
        if len(comps) != chart.dimension:
            raise SceneError(f"{context}: generator {idx} needs {chart.dimension} components")
        gens.append(VectorField(chart, tuple(
            _parse(c, chart, f"{context}[{idx}]", parses) for c in comps
        )))
    return FoliationModule(chart, gens)


def _parse_metric_data(data: Mapping, chart: VariableSet, context: str, memo: _Memo,
                       prefix: str = "") -> MetricData:
    """The metric from the keys ``{prefix}cometric``, ``{prefix}metric`` and
    ``{prefix}sample_points`` of ``data``; errors name them ``{context}.{key}``."""
    cometric_key, metric_key, samples_key = (
        f"{prefix}{key}" for key in ("cometric", "metric", "sample_points")
    )
    cometric = _parse_matrix(_require(data, cometric_key, context), chart,
                             "contravariant", f"{context}.{cometric_key}", memo)
    metric = None
    if data.get(metric_key) is not None:
        metric = _parse_matrix(data[metric_key], chart, "covariant", f"{context}.{metric_key}",
                               memo)
    samples = []
    for idx, coords in enumerate(_array(data.get(samples_key, []),
                                        f"{context}.{samples_key}")):
        where = f"{context}.{samples_key}[{idx}]"
        pt = _point(coords, where)
        if len(pt) != chart.dimension:
            raise SceneError(f"{where} has {len(pt)} coordinates, chart has {chart.dimension}")
        samples.append(pt)
    try:
        return MetricData(cometric, metric, tuple(samples))
    except FoliatkError as exc:
        raise SceneError(f"{context}.{cometric_key}: {exc}") from exc


def _parse_submersion(data: Mapping, chart: VariableSet, metric: MetricData,
                      context: str, memo: _Memo) -> tuple[SubmersionData, VariableSet]:
    target = VariableSet(tuple(_array(_require(data, "target_coordinates", context),
                                      f"{context}.target_coordinates")))
    indices = tuple(_integer(i, f"{context}.base_indices[{k}]") for k, i in enumerate(
        _array(_require(data, "base_indices", context), f"{context}.base_indices")))
    target_metric = _parse_metric_data(data, target, context, memo, "target_")
    try:
        sub = SubmersionData(chart, target, indices, metric, target_metric)
    except FoliatkError as exc:
        raise SceneError(f"{context}: {exc}") from exc
    return sub, target


def load_scene(source) -> Scene:
    """Build a scene from a dict, a JSON string, or a path to a JSON file."""
    data = source
    if isinstance(source, (str, Path)):
        found = True
        try:
            try:  # most sources are files: the path is probed only when it cannot be read
                with open(source, encoding="utf-8") as handle:
                    text = handle.read()
            except (OSError, ValueError):
                try:
                    found = Path(source).exists()
                except OSError:  # JSON text can be longer than a file name may be
                    found = False
                if found:  # a file that exists but cannot be read
                    raise
                text = str(source)
            data = json.loads(text)
        except (OSError, ValueError) as exc:  # a JSON integer past the digit limit too
            kind = "file" if found else "path or JSON text"
            # an OSError's text repeats the path; its reason alone does not
            reason = exc.strerror if isinstance(exc, OSError) else exc
            raise SceneError(f"cannot read scene {kind} {excerpt(str(source))}: {reason}") from exc
    if not isinstance(data, Mapping):
        raise SceneError("scene must be a JSON object")
    try:
        return _build_scene(data)
    except (ValueError, TypeError, ZeroDivisionError, AttributeError) as exc:
        raise SceneError(f"malformed scene value: {exc}") from exc


def _build_scene(data: Mapping) -> Scene:
    chart_spec = _require(data, "chart", "scene")
    coords = tuple(_array(_require(chart_spec, "coordinates", "chart"), "chart.coordinates"))
    if "dimension" in chart_spec and _integer(chart_spec["dimension"],
                                              "chart.dimension") != len(coords):
        raise SceneError("chart dimension disagrees with the coordinate list")
    try:
        chart = VariableSet(coords)
    except FoliatkError as exc:
        raise SceneError(str(exc)) from exc
    cot = chart.cotangent()
    memo: _Memo = {}

    metric = _parse_metric_data(data, chart, "scene", memo)

    scene = Scene(chart=chart, metric=metric)

    if data.get("foliation") is not None:
        scene.foliation = _parse_foliation(data["foliation"], chart, "foliation", memo)
    if data.get("foliation_b") is not None:
        scene.foliation_b = _parse_foliation(data["foliation_b"], chart, "foliation_b", memo)

    if data.get("ideal") is not None:
        parses = memo.setdefault(cot, {})
        gens = [_parse(t, cot, "ideal", parses) for t in _array(data["ideal"], "ideal")]
        try:
            scene.ideal = IdealPresentation(cot, gens)
        except FoliatkError as exc:
            raise SceneError(f"ideal: {exc}") from exc

    for key, fol_key in (("submersion", "target_foliation"),
                         ("submersion_b", "target_foliation_b")):
        if data.get(key) is not None:
            sub, target = _parse_submersion(data[key], chart, metric, key, memo)
            setattr(scene, key, sub)
            if data.get(fol_key) is not None:
                setattr(scene, fol_key, _parse_foliation(data[fol_key], target, fol_key, memo))
        elif data.get(fol_key) is not None:
            raise SceneError(f"{fol_key} declared without {key}")

    for name, coords_ in data.get("points", {}).items():
        pt = _point(coords_, _member("points", name))
        if len(pt) != chart.dimension:
            raise SceneError(f"point {excerpt(str(name))} has the wrong dimension")
        scene.points[name] = pt

    parses = memo.setdefault(cot, {})
    for name, expr in data.get("candidates", {}).items():
        scene.candidates[name] = _parse(expr, cot, _member("candidates", name), parses)
    for name, expr in data.get("target_candidates", {}).items():
        if scene.submersion is None:
            raise SceneError("target_candidates declared without a submersion")
        target = scene.submersion.target.cotangent()
        scene.target_candidates[name] = _parse(
            expr, target, _member("target_candidates", name), memo.setdefault(target, {})
        )

    if data.get("flow") is not None:
        flow = data["flow"]
        scene.flow = FlowSpec(
            q=_flow_start(flow, "q"),
            p=_flow_start(flow, "p"),
            t_end=_float(flow.get("t_end", 1.0), "flow.t_end"),
            dt=_float(flow.get("dt", 1e-3), "flow.dt"),
        )
        if len(scene.flow.q) != chart.dimension or len(scene.flow.p) != chart.dimension:
            raise SceneError("flow start has the wrong dimension")

    scene.notes = tuple(_array(data.get("notes", []), "notes"))
    for note in scene.notes:
        if not isinstance(note, str):
            raise SceneError(f"notes must be strings, got {type(note).__name__}")
    return scene
