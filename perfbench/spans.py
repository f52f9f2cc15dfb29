"""In-memory spans around foliatk's public functions, reduced to per-layer metrics.

A traced run wraps each public function listed in ``TARGETS`` at every name
its callers resolve: modules import functions by name (``from .groebner
import module_groebner``), so the wrapper replaces the original in every
loaded ``foliatk`` module that holds it.  Methods are wrapped on their class.
The polynomial layer and other per-term calls stay unwrapped; they run
millions of times per pass and would dominate what is measured.

Spans are ``(layer, start, end, parent)`` tuples kept in a list for the whole
run and reduced only when it ends.  A layer's self time is its span's
duration minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _basis_size(counts, layer, result):
    counts[layer + ".basis_size"] += len(result.generators)


def _rows(counts, layer, result):
    counts[layer + ".rows"] += len(result)


def _member(counts, layer, result):
    counts[layer + ".member"] += result.claim_holds


def _found(counts, layer, result):
    counts[layer + ".found"] += result is not None


def _steps(counts, layer, result):
    counts[layer + ".steps"] += len(result) - 1


def _bytes(counts, layer, result):
    counts[layer + ".bytes"] += len(result.encode("utf-8"))


_SUBMERSION = (
    "check_riemannian", "phi_pi", "pullback_function", "horizontal_lift",
    "pullback_foliation", "poisson_defect", "metric_defect",
    "integrability_check", "morita_span_check",
)

# (module, attribute or Class.method, layer, counter applied to the result)
TARGETS = (
    ("foliatk.scene", "load_scene", "scene.load", None),
    ("foliatk.expressions", "parse_expression", "expressions.parse", None),
    ("foliatk.groebner", "buchberger", "groebner.buchberger", _basis_size),
    ("foliatk.groebner", "module_groebner", "groebner.module_groebner", _basis_size),
    ("foliatk.groebner", "syzygy_basis", "groebner.syzygy_basis", _rows),
    ("foliatk.groebner", "divide_with_cofactors", "groebner.divide", None),
    ("foliatk.groebner", "module_divide", "groebner.divide", None),
    ("foliatk.groebner", "ideal_membership", "groebner.membership", _member),
    ("foliatk.groebner", "module_membership", "groebner.membership", _member),
    ("foliatk.ipoisson", "IdealPresentation.membership", "ipoisson.membership", None),
    ("foliatk.linalg", "solve_coordinates", "linalg.solve", None),
    ("foliatk.linalg", "nullspace", "linalg.nullspace", None),
    ("foliatk.linalg", "EchelonSpan.insert", "linalg.echelon_insert", None),
    ("foliatk.ipoisson", "find_obstruction_point", "ipoisson.obstruction", _found),
    ("foliatk.foliation", "find_module_obstruction", "foliation.obstruction", _found),
    ("foliatk.sampling", "candidate_points", "sampling.candidate_points", None),
    ("foliatk.foliation", "involutivity_check", "foliation.involutivity", None),
    ("foliatk.foliation", "isotropy_algebra", "foliation.isotropy", None),
    ("foliatk.foliation", "module_equal", "foliation.module_equal", None),
    ("foliatk.ipoisson", "srf_check", "ipoisson.srf", None),
    ("foliatk.ipoisson", "poisson_closure_check", "ipoisson.closure", None),
    ("foliatk.ipoisson", "normalizer_check", "ipoisson.normalizer", None),
    ("foliatk.ipoisson", "killing_connection", "ipoisson.killing", None),
    ("foliatk.geometry", "lie_bracket", "geometry.bracket", None),
    ("foliatk.geometry", "canonical_poisson", "geometry.bracket", None),
    *(("foliatk.submersion", name, "submersion", None) for name in _SUBMERSION),
    ("foliatk.dynamics", "compile_evaluator", "dynamics.compile", None),
    ("foliatk.dynamics", "integrate_flow", "dynamics.integrate", _steps),
    ("foliatk.dynamics", "monitor_ideal_preservation", "dynamics.monitor", None),
    ("foliatk.dynamics", "geodesic_orthogonality_check", "dynamics.monitor", None),
    ("foliatk.cli", "run_command", "cli.run_command", None),
    ("foliatk.cli", "render_report", "cli.render", _bytes),
)

# per-layer metric -> (unit, better); the order is the order printed
PER_LAYER = {
    "scene.load.calls": ("count", "lower"),
    "scene.load.self_s": ("s", "lower"),
    "expressions.parse.calls": ("count", "lower"),
    "expressions.parse.self_s": ("s", "lower"),
    "groebner.buchberger.calls": ("count", "lower"),
    "groebner.buchberger.self_s": ("s", "lower"),
    "groebner.buchberger.basis_size": ("count", "lower"),
    "groebner.module_groebner.calls": ("count", "lower"),
    "groebner.module_groebner.self_s": ("s", "lower"),
    "groebner.module_groebner.basis_size": ("count", "lower"),
    "groebner.syzygy_basis.calls": ("count", "lower"),
    "groebner.syzygy_basis.total_s": ("s", "lower"),
    "groebner.syzygy_basis.rows": ("count", "lower"),
    "groebner.divide.calls": ("count", "lower"),
    "groebner.divide.self_s": ("s", "lower"),
    "groebner.membership.calls": ("count", "lower"),
    "groebner.membership.self_s": ("s", "lower"),
    "groebner.membership.member_ratio": ("1", "higher"),
    "ipoisson.membership.calls": ("count", "lower"),
    "ipoisson.membership.self_s": ("s", "lower"),
    "linalg.solve.calls": ("count", "lower"),
    "linalg.solve.self_s": ("s", "lower"),
    "linalg.nullspace.self_s": ("s", "lower"),
    "linalg.echelon_insert.calls": ("count", "lower"),
    "linalg.echelon_insert.self_s": ("s", "lower"),
    "ipoisson.obstruction.calls": ("count", "lower"),
    "ipoisson.obstruction.self_s": ("s", "lower"),
    "ipoisson.obstruction.found_ratio": ("1", "higher"),
    "foliation.obstruction.calls": ("count", "lower"),
    "foliation.obstruction.self_s": ("s", "lower"),
    "foliation.obstruction.found_ratio": ("1", "higher"),
    "sampling.candidate_points.calls": ("count", "lower"),
    "sampling.candidate_points.self_s": ("s", "lower"),
    "foliation.involutivity.self_s": ("s", "lower"),
    "foliation.isotropy.self_s": ("s", "lower"),
    "foliation.module_equal.self_s": ("s", "lower"),
    "ipoisson.srf.self_s": ("s", "lower"),
    "ipoisson.closure.self_s": ("s", "lower"),
    "ipoisson.normalizer.self_s": ("s", "lower"),
    "ipoisson.killing.self_s": ("s", "lower"),
    "geometry.bracket.calls": ("count", "lower"),
    "geometry.bracket.self_s": ("s", "lower"),
    "submersion.calls": ("count", "lower"),
    "submersion.self_s": ("s", "lower"),
    "dynamics.compile.calls": ("count", "lower"),
    "dynamics.compile.self_s": ("s", "lower"),
    "dynamics.integrate.self_s": ("s", "lower"),
    "dynamics.integrate.steps": ("count", "higher"),
    "dynamics.integrate.steps_per_s": ("1/s", "higher"),
    "dynamics.monitor.self_s": ("s", "lower"),
    "cli.run_command.self_s": ("s", "lower"),
    "cli.render.calls": ("count", "lower"),
    "cli.render.self_s": ("s", "lower"),
    "cli.render.bytes": ("B", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}


class Tracer:
    """Collects spans from wrapped functions; single-threaded by design."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack = [-1]

    def wrap(self, fn, layer, counter=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            if counter is not None:
                counter(counts, layer, result)
            return result

        return traced


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target at every name that holds it; restore on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "foliatk" or name.startswith("foliatk."))]
    undo = []
    try:
        for module_name, attr, layer, counter in targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, tracer.wrap(original, layer, counter))
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(original, layer, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapped)
        yield tracer
    finally:
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per layer: ``calls``, ``self_s`` and ``total_s``.

    ``total_s`` sums the durations of spans with no ancestor of the same
    layer, so recursion into a layer is not counted twice.
    """
    children = defaultdict(list)
    for layer, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for idx, (layer, start, end, parent) in enumerate(spans):
        entry = out[layer]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - _covered(children.get(idx, ()), start, end)
        anc = parent
        while anc >= 0 and spans[anc][0] != layer:
            anc = spans[anc][3]
        if anc < 0:
            entry["total_s"] += end - start
    return dict(out)


def per_layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every ``PER_LAYER`` metric from one traced pass; absent layers read 0."""
    times = layer_times(tracer.spans)
    counts = tracer.counts
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        entry = times.get(layer, empty)
        if field in ("calls", "self_s", "total_s"):
            values[name] = entry[field]
        elif field in ("basis_size", "rows"):
            values[name] = ratio(counts[name], entry["calls"])
        elif field == "member_ratio":
            values[name] = ratio(counts[layer + ".member"], entry["calls"])
        elif field == "found_ratio":
            values[name] = ratio(counts[layer + ".found"], entry["calls"])
        elif field in ("steps", "bytes"):
            values[name] = counts[name]
        elif field == "steps_per_s":
            values[name] = ratio(counts[layer + ".steps"], entry["total_s"])
        elif name == "trace.overhead_ratio":
            values[name] = ratio(traced_wall_s, untraced_wall_s)
        else:  # pragma: no cover - PER_LAYER and this dispatch must agree
            raise KeyError(name)
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
