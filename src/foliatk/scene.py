"""JSON scene schema: charts, metrics, foliations, submersions, candidates.

Scenes are diffable fixtures with expression strings; every referenced name
must be declared.  Optional second copies of the foliation and submersion
sections serve the comparison commands (module-equal, morita-span), and an
explicit ``ideal`` section covers presentations that are not lift ideals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .errors import FoliatkError, SceneError
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


def _point(coords, context: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(str(v)) for v in _array(coords, context))


def _parse_matrix(rows, varset: VariableSet, kind: str, context: str) -> SymTensor2:
    n = varset.dimension
    rows = [_array(r, f"{context} row") for r in _array(rows, context)]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise SceneError(f"{context}: matrix must be {n}x{n}")
    entries = tuple(
        tuple(_parse(cell, varset, context) for cell in row) for row in rows
    )
    for i in range(n):
        for j in range(n):
            if entries[i][j] != entries[j][i]:
                raise SceneError(f"{context}: matrix not symmetric at ({i},{j})")
    return SymTensor2(varset, kind, entries)


def _parse(text, varset: VariableSet, context: str) -> Polynomial:
    if not isinstance(text, str):
        text = str(text)
    try:
        return parse_expression(text, varset)
    except FoliatkError as exc:
        raise SceneError(f"{context}: {exc}") from exc


def _parse_foliation(rows, chart: VariableSet, context: str) -> FoliationModule:
    gens = []
    for idx, comps in enumerate(_array(rows, context)):
        comps = _array(comps, f"{context}[{idx}]")
        if len(comps) != chart.dimension:
            raise SceneError(f"{context}: generator {idx} needs {chart.dimension} components")
        gens.append(VectorField(chart, tuple(
            _parse(c, chart, f"{context}[{idx}]") for c in comps
        )))
    return FoliationModule(chart, gens)


def _parse_metric_data(data: Mapping, chart: VariableSet, context: str,
                       prefix: str = "") -> MetricData:
    """The metric from the keys ``{prefix}cometric``, ``{prefix}metric`` and
    ``{prefix}sample_points`` of ``data``; errors name them ``{context}.{key}``."""
    cometric_key, metric_key, samples_key = (
        f"{prefix}{key}" for key in ("cometric", "metric", "sample_points")
    )
    cometric = _parse_matrix(_require(data, cometric_key, context), chart,
                             "contravariant", f"{context}.{cometric_key}")
    metric = None
    if data.get(metric_key) is not None:
        metric = _parse_matrix(data[metric_key], chart, "covariant", f"{context}.{metric_key}")
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
                      context: str) -> tuple[SubmersionData, VariableSet]:
    target = VariableSet(tuple(_array(_require(data, "target_coordinates", context),
                                      f"{context}.target_coordinates")))
    indices = tuple(int(i) for i in _array(_require(data, "base_indices", context),
                                           f"{context}.base_indices"))
    target_metric = _parse_metric_data(data, target, context, "target_")
    try:
        sub = SubmersionData(chart, target, indices, metric, target_metric)
    except FoliatkError as exc:
        raise SceneError(f"{context}: {exc}") from exc
    return sub, target


def load_scene(source) -> Scene:
    """Build a scene from a dict, a JSON string, or a path to a JSON file."""
    data = source
    if isinstance(source, (str, Path)):
        try:
            found = Path(source).exists()
        except OSError:  # JSON text can be longer than a file name may be
            found = False
        try:
            data = json.loads(Path(source).read_text(encoding="utf-8") if found else str(source))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            kind = "file" if found else "path or JSON text"
            raise SceneError(f"cannot read scene {kind} {str(source)!r}: {exc}") from exc
    if not isinstance(data, Mapping):
        raise SceneError("scene must be a JSON object")
    try:
        return _build_scene(data)
    except (ValueError, TypeError, ZeroDivisionError, AttributeError) as exc:
        raise SceneError(f"malformed scene value: {exc}") from exc


def _build_scene(data: Mapping) -> Scene:
    chart_spec = _require(data, "chart", "scene")
    coords = tuple(_array(_require(chart_spec, "coordinates", "chart"), "chart.coordinates"))
    if "dimension" in chart_spec and int(chart_spec["dimension"]) != len(coords):
        raise SceneError("chart dimension disagrees with the coordinate list")
    try:
        chart = VariableSet(coords)
    except FoliatkError as exc:
        raise SceneError(str(exc)) from exc
    cot = chart.cotangent()

    metric = _parse_metric_data(data, chart, "scene")

    scene = Scene(chart=chart, metric=metric)

    if data.get("foliation") is not None:
        scene.foliation = _parse_foliation(data["foliation"], chart, "foliation")
    if data.get("foliation_b") is not None:
        scene.foliation_b = _parse_foliation(data["foliation_b"], chart, "foliation_b")

    if data.get("ideal") is not None:
        gens = [_parse(t, cot, "ideal") for t in _array(data["ideal"], "ideal")]
        try:
            scene.ideal = IdealPresentation(cot, gens)
        except FoliatkError as exc:
            raise SceneError(f"ideal: {exc}") from exc

    for key, fol_key in (("submersion", "target_foliation"),
                         ("submersion_b", "target_foliation_b")):
        if data.get(key) is not None:
            sub, target = _parse_submersion(data[key], chart, metric, key)
            setattr(scene, key, sub)
            if data.get(fol_key) is not None:
                setattr(scene, fol_key, _parse_foliation(data[fol_key], target, fol_key))
        elif data.get(fol_key) is not None:
            raise SceneError(f"{fol_key} declared without {key}")

    for name, coords_ in data.get("points", {}).items():
        pt = _point(coords_, f"point {name!r}")
        if len(pt) != chart.dimension:
            raise SceneError(f"point {name!r} has the wrong dimension")
        scene.points[name] = pt

    for name, expr in data.get("candidates", {}).items():
        scene.candidates[name] = _parse(expr, cot, f"candidates.{name}")
    for name, expr in data.get("target_candidates", {}).items():
        if scene.submersion is None:
            raise SceneError("target_candidates declared without a submersion")
        scene.target_candidates[name] = _parse(
            expr, scene.submersion.target.cotangent(), f"target_candidates.{name}"
        )

    if data.get("flow") is not None:
        flow = data["flow"]
        scene.flow = FlowSpec(
            q=tuple(float(c) for c in _point(_require(flow, "q", "flow"), "flow.q")),
            p=tuple(float(c) for c in _point(_require(flow, "p", "flow"), "flow.p")),
            t_end=float(flow.get("t_end", 1.0)),
            dt=float(flow.get("dt", 1e-3)),
        )
        if len(scene.flow.q) != chart.dimension or len(scene.flow.p) != chart.dimension:
            raise SceneError("flow start has the wrong dimension")

    scene.notes = tuple(_array(data.get("notes", []), "notes"))
    return scene
