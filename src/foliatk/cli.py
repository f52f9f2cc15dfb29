"""Command-line surface: scene in, certificate-bearing JSON report out.

Exit codes: 0 pass, 1 fail-with-certificate, 2 usage/parse/precondition error,
3 internal fault (an ``InternalCheckError``, or any exception that is not a
``FoliatkError``); 2 and 3 come with an ``error`` report.
Reports are byte-deterministic for a fixed scene, command, and version:
keys are sorted and every double is rendered at 17 significant digits.
Certificates are always serialized, also for passes, so a third party can
re-parse the expressions and re-expand the identity without rerunning any
Groebner computation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Mapping, Sequence
from contextlib import nullcontext
from fractions import Fraction
from json.encoder import encode_basestring

from . import __version__
from .dynamics import START_TOL, FlowState, geodesic_orthogonality_check, monitor_ideal_preservation
from .errors import FoliatkError, InternalCheckError, SceneError, excerpt
from .foliation import involutivity_check, isotropy_algebra, module_equal
from .geometry import OneForm
from .groebner import Certificate, CheckResult, ModuleElement
from .ipoisson import (
    IdealPresentation,
    killing_connection,
    normalizer_check,
    poisson_closure_check,
    reduced_bracket,
    srf_check,
)
from .poly import MonomialOrder, Polynomial
from .scene import Scene, load_scene, parse_coordinate
from .submersion import (
    check_riemannian,
    integrability_check,
    metric_defect,
    morita_span_check,
    phi_pi,
    poisson_defect,
    pullback_foliation,
)

_TOL_DEFAULT = 1e-6

# the value of every flag a command reads when it is not given: ``main``'s
# parser and ``run_command`` both read this mapping
_FLAG_DEFAULTS = {"point": None, "candidate": [], "tol": None, "dt": None,
                  "t_end": None, "order": "block"}


def _f(x: float) -> str:
    return "%.17g" % x


class FlowTrace(Sequence):
    """The samples of a flow monitor, kept as the kernel appended them.

    ``samples`` are ``(t, generator values, energy)`` float tuples, every one
    with as many generator values as the first.  Read as a sequence, sample
    ``i`` is the record ``{"t": _f(t), "generators": [_f(v), ...], "energy":
    _f(e)}``, built on each read; a trace equals a list of those records.
    :func:`render_report` renders a trace as that list, one ``%`` per sample
    with a ``"%.17g"`` slot per float, so no record or string is built.
    """

    __slots__ = ("samples",)

    def __init__(self, samples: Sequence[tuple[float, Sequence[float], float]]):
        self.samples = samples

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self.samples))[i]]
        t, values, e = self.samples[i]
        return {"t": _f(t), "generators": [_f(v) for v in values], "energy": _f(e)}

    def __eq__(self, other) -> bool:  # also makes a trace unhashable, as a list is
        return list(self) == list(other) if isinstance(other, (list, FlowTrace)) else NotImplemented

    def render(self, depth: int) -> str:
        """The trace as ``json.dumps`` indents a list of its records at ``depth``."""
        if not self.samples:
            return "[]"
        pad, inner, deep = ("\n" + "  " * (depth + n) for n in (1, 2, 3))
        width = len(self.samples[0][1])
        slots = "[" + deep + ("," + deep).join(['"%.17g"'] * width) + inner + "]" if width else "[]"
        template = ("{" + inner + '"energy": "%.17g",' + inner + '"generators": ' + slots + ","
                    + inner + '"t": "%.17g"' + pad + "}")
        body = ("," + pad).join([template % (e, *values, t) for t, values, e in self.samples])
        return "[" + pad + body + "\n" + "  " * depth + "]"


def _value_str(obj) -> object:
    if isinstance(obj, ModuleElement):
        return [str(c) for c in obj.components]
    return str(obj)


def _cert_dicts(certs: Sequence[tuple[str, Certificate]]) -> list[dict]:
    """Serialize (claim, certificate) pairs; each generator list is formatted once.

    Lists are keyed by the identity of the generator tuple, which ``certs``
    keeps alive for the whole call.  Cofactors start as one list of ``"0"``
    per generator list; only the nonzero entries of a row are formatted.  A
    remainder that is zero, as it is for every claim that holds, is one
    shared value per generator list, formatted once.
    """
    formatted: dict[int, list] = {}
    out = []
    for claim, cert in certs:
        known = formatted.get(id(cert.generators))
        if known is None:
            known = [[_value_str(g) for g in cert.generators], ["0"] * len(cert.generators), None]
            formatted[id(cert.generators)] = known
        gens, zeros, zero_remainder = known
        cofactors = zeros.copy()
        for i, c in cert.row.items():
            cofactors[i] = str(c)
        holds = cert.claim_holds
        if not holds:
            remainder = _value_str(cert.remainder)
        elif zero_remainder is None:
            remainder = known[2] = _value_str(cert.remainder)
        else:
            remainder = zero_remainder
        out.append({
            "claim": claim,
            "holds": holds,
            "generators": gens,
            "cofactors": cofactors,
            "remainder": remainder,
        })
    return out


def _oneform_dict(form: OneForm) -> list[dict]:
    return [{"num": str(c.num), "den": str(c.den)} for c in form.components]


def _point_str(pt) -> list[str] | None:
    if pt is None:
        return None
    return [str(Fraction(x)) for x in pt]


def _need(scene: Scene, attr: str, command: str):
    value = getattr(scene, attr)
    if value is None:
        raise SceneError(f"{command} needs the scene to declare {attr!r}")
    return value


def _resolve_point(scene: Scene, point: str | None, command: str):
    if point is None:
        if len(scene.points) == 1:
            return next(iter(scene.points.values()))
        raise SceneError(f"{command} needs --point (a scene point name or comma-separated rationals)")
    if point in scene.points:
        return scene.points[point]
    return tuple(parse_coordinate(tok, "--point") for tok in point.split(","))


def _resolve_candidates(pool: Mapping[str, Polynomial], names: Sequence[str],
                        count: int, command: str) -> list[Polynomial]:
    if len(names) < count:
        if count == 1 and len(pool) == 1:
            return [next(iter(pool.values()))]
        raise SceneError(f"{command} needs {count} --candidate name(s)")
    picked = []
    for name in names[:count]:
        if name not in pool:
            raise SceneError(f"candidate {excerpt(name)} not declared in the scene")
        picked.append(pool[name])
    return picked


def _working_ideal(scene: Scene, order: MonomialOrder) -> IdealPresentation:
    ideal = scene.lift_or_explicit_ideal()
    if order.kind == "block":
        return ideal
    return IdealPresentation(ideal.chart, ideal.generators, order)


def _flow_params(scene: Scene, args) -> tuple[FlowState, float, float, float]:
    """Start state, horizon, step and pass threshold of a flow command; a flag
    overrides the scene's value.

    A horizon that is not finite and positive would integrate zero steps, a
    vacuous pass, and a tolerance that is not finite and nonnegative is no
    threshold, so each is an input error.  The step is refused by the
    monitors, which own the step rule (``dynamics._steps``).
    """
    if scene.flow is None:
        raise SceneError("this command needs a 'flow' section in the scene")
    t_end = args.t_end if args.t_end is not None else scene.flow.t_end
    dt = args.dt if args.dt is not None else scene.flow.dt
    tol = args.tol if args.tol is not None else _TOL_DEFAULT
    if not (math.isfinite(t_end) and t_end > 0):
        raise SceneError(f"t_end must be finite and positive, got {t_end!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise SceneError(f"tol must be finite and nonnegative, got {tol!r}")
    return FlowState(scene.flow.q, scene.flow.p, 0.0), t_end, dt, tol


def _check_detail(res: CheckResult, claim, fields, **detail) -> tuple[dict, list]:
    """Detail and certificates of a pass/witness check.

    ``res.certificates`` holds ``(key, Certificate)`` pairs, ``claim(key)``
    names a membership and ``fields(key)`` gives the detail fields naming the
    failing one.  A fail adds the failing certificate, the obstruction point
    and the level at which the remainder refutes the claim.
    """
    certs = [(claim(key), c) for key, c in res.certificates]
    detail["passed"] = res.passed
    if not res.passed:
        key, cert = res.witness
        certs.append((claim(key), cert))
        point = res.obstruction_point
        detail.update(
            fields(key),
            obstruction_point=_point_str(point),
            refutation_level="polynomial: no polynomial certificate exists" if point is None
            else "smooth: remainder nonzero at a common zero of the generators",
        )
    return detail, certs


# ---------------------------------------------------------------------------
# handlers: each returns (detail, certificates), with the certificates as
# (claim, Certificate) pairs; the flow handlers add the monitor and the
# tolerances.  The verdict is detail["passed"], a pass where it is absent.


def _cmd_check_involutive(scene: Scene, args, order):
    fol = _need(scene, "foliation", "check-involutive")
    return _check_detail(involutivity_check(fol),
                         lambda ab: f"[X_{ab[0]}, X_{ab[1]}] in module",
                         lambda ab: {"witness_pair": list(ab)})


def _cmd_check_srf(scene: Scene, args, order):
    fol = _need(scene, "foliation", "check-srf")
    out = srf_check(fol, scene.metric)
    if out.passed:
        res = CheckResult(True, tuple(enumerate(out.certificates)))
        extra = {"lambda": [[str(l) for l in row] for row in out.lam]}
    else:
        res = CheckResult(False, witness=(out.generator_index, out.certificate),
                          obstruction_point=out.obstruction_point)
        extra = {"bracket": str(out.bracket)}
    return _check_detail(res, lambda a: f"{{lift(X_{a}), H_g}} in I_F",
                         lambda a: {"generator_index": a},
                         hamiltonian=str(out.hamiltonian), **extra)


def _cmd_killing_connection(scene: Scene, args, order):
    fol = _need(scene, "foliation", "killing-connection")
    kc = killing_connection(fol, scene.metric)
    detail = {
        "passed": True,
        "lambda": [[str(l) for l in row] for row in kc.lam],
        "omega": [[_oneform_dict(w) for w in row] for row in kc.omega],
        "verified_identity": kc.verified_identity,
    }
    certs = [
        (f"{{lift(X_{a}), H_g}} in I_F", c) for a, c in enumerate(kc.certificates)
    ]
    return detail, certs


def _cmd_lift_ideal(scene: Scene, args, order):
    fol = _need(scene, "foliation", "lift-ideal")
    ideal = fol.lift_presentation
    detail = {"generators": [str(g) for g in ideal.generators],
              "fiber_degree_one": ideal.fiber_graded_linear}
    return detail, []


def _cmd_closure_check(scene: Scene, args, order):
    ideal = _working_ideal(scene, order)
    return _check_detail(poisson_closure_check(ideal),
                         lambda ij: f"{{g_{ij[0]}, g_{ij[1]}}} in ideal",
                         lambda ij: {"witness_pair": list(ij)})


def _cmd_normalizer_check(scene: Scene, args, order):
    ideal = _working_ideal(scene, order)
    (cand,) = _resolve_candidates(scene.candidates, args.candidate, 1, "normalizer-check")
    return _check_detail(normalizer_check(ideal, cand),
                         lambda i: f"{{candidate, g_{i}}} in ideal",
                         lambda i: {"witness_generator": i}, candidate=str(cand))


def _cmd_reduced_bracket(scene: Scene, args, order):
    ideal = _working_ideal(scene, order)
    f, g = _resolve_candidates(scene.candidates, args.candidate, 2, "reduced-bracket")
    rep = reduced_bracket(ideal, f, g)
    return {"representative": str(rep), "first": str(f), "second": str(g)}, []


def _cmd_point_report(scene: Scene, args, order):
    fol = _need(scene, "foliation", "point-report")
    pt = _resolve_point(scene, args.point, "point-report")
    rep = isotropy_algebra(fol, pt)
    consts = rep.structure_constants
    # zero bracket classes share one row, the diagonal's; one list renders them all
    zero_row = consts[0][0] if consts else None
    zeros = ["0"] * rep.isotropy_dim
    detail = {
        "point": _point_str(rep.point),
        "tangent_dim": rep.tangent_dim,
        "fiber_dim": rep.fiber_dim,
        "isotropy_dim": rep.isotropy_dim,
        "isotropy_basis": [[str(c) for c in vec] for vec in rep.isotropy_basis],
        "structure_constants": [
            [zeros if row is zero_row else [str(c) if c else "0" for c in row]
             for row in plane]
            for plane in consts
        ],
    }
    return detail, []


def _cmd_module_equal(scene: Scene, args, order):
    f1 = _need(scene, "foliation", "module-equal")
    f2 = _need(scene, "foliation_b", "module-equal")
    return _check_detail(module_equal(f1, f2),
                         lambda key: f"generator {key[1]} of {key[0]} in the other module",
                         lambda key: {"witness_side": key[0], "witness_generator": key[1]})


def _cmd_check_riemannian(scene: Scene, args, order):
    sub = _need(scene, "submersion", "check-riemannian")
    res = check_riemannian(sub)
    detail = {"passed": res.passed}
    if not res.passed:
        detail.update({"entry": list(res.entry), "defect": str(res.defect)})
    return detail, []


def _cmd_phi_pi(scene: Scene, args, order):
    sub = _need(scene, "submersion", "phi-pi")
    phi = phi_pi(sub)
    detail = {
        "base_components": [str(c) for c in phi.base_components],
        "fiber_components": [str(c) for c in phi.fiber_components],
    }
    return detail, []


def _cmd_pullback(scene: Scene, args, order):
    sub = _need(scene, "submersion", "pullback")
    result = pullback_foliation(sub, scene.target_foliation)
    return {"generators": [[str(c) for c in g.components] for g in result.generators]}, []


def _cmd_poisson_defect(scene: Scene, args, order):
    sub = _need(scene, "submersion", "poisson-defect")
    f, g = _resolve_candidates(scene.target_candidates, args.candidate, 2, "poisson-defect")
    defect, cert = poisson_defect(sub, f, g)
    detail = {"defect": str(defect), "first": str(f), "second": str(g)}
    return detail, [("defect in <p_alpha>", cert)]


def _cmd_metric_defect(scene: Scene, args, order):
    sub = _need(scene, "submersion", "metric-defect")
    defect, cert = metric_defect(sub)
    return {"defect": str(defect)}, [("H_h - H_g o phi in <p_alpha>", cert)]


def _cmd_integrability(scene: Scene, args, order):
    sub = _need(scene, "submersion", "integrability")
    res = integrability_check(sub)
    detail = {"passed": res.passed}
    if not res.passed:
        i, j, defect = res.witness
        detail.update({
            "witness_pair": [i, j],
            "curvature_witness": [str(c) for c in defect.components],
        })
    return detail, []


def _cmd_morita_span(scene: Scene, args, order):
    s1 = _need(scene, "submersion", "morita-span")
    s2 = _need(scene, "submersion_b", "morita-span")
    res = morita_span_check(s1, s2, scene.target_foliation, scene.target_foliation_b)
    return _check_detail(
        res.comparison,
        lambda key: f"generator {key[1]} of {key[0]} pullback in the other",
        lambda key: {"witness_side": key[0], "witness_generator": key[1]},
        left_generators=[[str(c) for c in g.components] for g in res.left_pullback.generators],
        right_generators=[[str(c) for c in g.components] for g in res.right_pullback.generators],
        structural_notes=list(res.notes))


def _flow_detail(report, tol: float, dt: float, t_end: float, **detail):
    """Detail, certificates, monitor and tolerances of a flow command; the
    monitor's ``samples`` are a :class:`FlowTrace` of the kernel's floats."""
    detail["passed"] = report.max_abs_generator <= tol
    monitor = {
        "max_abs_generator": _f(report.max_abs_generator),
        "energy_drift": _f(report.energy_drift),
        "samples": FlowTrace(report.samples),
    }
    tolerances = {"tol": _f(tol), "dt": _f(dt), "t_end": _f(t_end), "start_tol": _f(START_TOL)}
    return detail, [], monitor, tolerances


def _cmd_flow_monitor(scene: Scene, args, order):
    ideal = scene.lift_or_explicit_ideal()
    (ham,) = _resolve_candidates(scene.candidates, args.candidate or ["H"], 1, "flow-monitor")
    start, t_end, dt, tol = _flow_params(scene, args)
    report = monitor_ideal_preservation(ideal, ham, start, t_end, dt)
    return _flow_detail(report, tol, dt, t_end, hamiltonian=str(ham))


def _cmd_geodesic_check(scene: Scene, args, order):
    fol = _need(scene, "foliation", "geodesic-check")
    start, t_end, dt, tol = _flow_params(scene, args)
    report = geodesic_orthogonality_check(fol, scene.metric, start, t_end, dt)
    return _flow_detail(report, tol, dt, t_end)


# commands whose working ideal honors --order; everything else pins the
# fiber-block order its algorithm depends on, or, as the flow commands,
# reads no order at all
_ORDER_COMMANDS = {"closure-check", "normalizer-check", "reduced-bracket"}

_COMMANDS = {
    "check-involutive": _cmd_check_involutive,
    "check-srf": _cmd_check_srf,
    "killing-connection": _cmd_killing_connection,
    "lift-ideal": _cmd_lift_ideal,
    "closure-check": _cmd_closure_check,
    "normalizer-check": _cmd_normalizer_check,
    "reduced-bracket": _cmd_reduced_bracket,
    "point-report": _cmd_point_report,
    "module-equal": _cmd_module_equal,
    "check-riemannian": _cmd_check_riemannian,
    "phi-pi": _cmd_phi_pi,
    "pullback": _cmd_pullback,
    "poisson-defect": _cmd_poisson_defect,
    "metric-defect": _cmd_metric_defect,
    "integrability": _cmd_integrability,
    "morita-span": _cmd_morita_span,
    "flow-monitor": _cmd_flow_monitor,
    "geodesic-check": _cmd_geodesic_check,
}


def run_command(command: str, scene_source, args=None) -> tuple[dict, int]:
    """Dispatch a command against a scene; returns (report, exit_code).

    ``args`` holds the flags; one it lacks takes its value from
    ``_FLAG_DEFAULTS``, and the caller's namespace is not changed."""
    args = argparse.Namespace(**{**_FLAG_DEFAULTS, **vars(args or argparse.Namespace())})
    notes: tuple[str, ...] = ()
    try:
        if command not in _COMMANDS:
            raise SceneError(f"unknown command {command!r}")
        try:
            order = MonomialOrder(args.order)
        except ValueError as exc:
            raise SceneError(str(exc)) from exc
        scene = load_scene(scene_source)
        notes = scene.notes
        detail, certs, *flow = _COMMANDS[command](scene, args, order)
        # formatting can refuse a value no report can print
        cert_dicts = _cert_dicts(certs)
    except Exception as exc:
        # a failed internal check, or an exception the package does not raise
        # on purpose, is a fault of the program, not of the input
        internal = isinstance(exc, InternalCheckError) or not isinstance(exc, FoliatkError)
        return _error_report(command, args.order, exc, notes), 3 if internal else 2
    monitor, tolerances = flow or (None, {})
    passed = detail.get("passed", True)
    report = _assemble(command, "pass" if passed else "fail", detail, cert_dicts,
                       monitor, notes, args.order, tolerances)
    return report, 0 if passed else 1


def _error_report(command: str, order: str, exc: Exception, notes=()) -> dict:
    return _assemble(command, "error", {"message": str(exc), "error_type": type(exc).__name__},
                     [], None, notes, order, {})


def _assemble(command, verdict, detail, certs, monitor, notes, order, tolerances) -> dict:
    """The report; ``order`` is recorded only for the commands that use it."""
    return {
        "command": command,
        "verdict": verdict,
        "detail": detail,
        "certificates": certs,
        "monitor": monitor,
        "scene_notes": list(notes),
        "provenance": {
            "tool": "foliatk",
            "version": __version__,
            "order": order if command in _ORDER_COMMANDS else "block",
            "tolerances": tolerances,
        },
    }


def render_report(report: dict) -> str:
    """The report as JSON text: ``json.dumps(report, sort_keys=True, indent=2,
    ensure_ascii=False, default=list) + "\\n"``, byte for byte.

    Reports hold only dicts with str keys, lists, str, int, bool, None and a
    flow monitor's :class:`FlowTrace`, which renders as the list of its
    records (``default=list``); anything else raises ``TypeError``.  A list
    met again at the same depth (the generator list every certificate of a
    check shares) is rendered once per call, and so is a key set's order.
    """
    return _emit(report, 0, {}) + "\n"


def _emit(obj, depth: int, memo: dict) -> str:
    kind = obj.__class__
    if kind is str:
        return encode_basestring(obj)
    if kind is list:
        if not obj:
            return "[]"
        key = (id(obj), depth)  # the report keeps every list alive, so ids are not reused
        text = memo.get(key)
        if text is None:
            pad = "\n" + "  " * (depth + 1)
            try:  # most lists hold only strings
                body = ("," + pad).join(map(encode_basestring, obj))
            except TypeError:
                body = ("," + pad).join([_emit(x, depth + 1, memo) for x in obj])
            text = memo[key] = f"[{pad}{body}\n{'  ' * depth}]"
        return text
    if kind is dict:
        if not obj:
            return "{}"
        key = (tuple(obj), depth)  # a key set met again, such as every certificate's
        heads = memo.get(key)
        if heads is None:
            pad = "\n" + "  " * (depth + 1)
            # encode_basestring raises TypeError on a key that is not a str
            heads = memo[key] = [(k, f"{',' if n else '{'}{pad}{encode_basestring(k)}: ")
                                 for n, k in enumerate(sorted(obj))]
        parts = []  # one join copies each value's text once, however long
        for k, head in heads:
            parts += head, _emit(obj[k], depth + 1, memo)
        parts.append("\n" + "  " * depth + "}")
        return "".join(parts)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if kind is FlowTrace:
        return obj.render(depth)
    if isinstance(obj, str):  # a str subclass, as json.dumps renders it
        return encode_basestring(obj)
    raise TypeError(f"a report cannot hold {kind.__name__}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="foliatk",
        description="Certificate-producing checks for singular foliations and metrics.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--scene", required=True, help="path to a JSON scene file")
    parser.add_argument("--point", help="scene point name or comma-separated rationals")
    parser.add_argument("--candidate", action="append",
                        help="candidate name (repeat for binary operations)")
    parser.add_argument("--tol", type=float, help="pass threshold for numeric monitors")
    parser.add_argument("--dt", type=float, help="integrator step override")
    parser.add_argument("--t-end", dest="t_end", type=float, help="integration horizon override")
    parser.add_argument("--order", choices=["grevlex", "lex", "block"])
    parser.add_argument("--json-out", help="also write the report to this file")
    parser.set_defaults(**_FLAG_DEFAULTS)
    args = parser.parse_args(argv)

    # opened before the command runs, so a path that cannot be written runs nothing
    try:
        out = open(args.json_out, "wb") if args.json_out else None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        return _to_stdout(_cannot_write(args, exc), 2)
    with out or nullcontext():
        report, code = run_command(args.command, args.scene, args)
        data = _encoded(report)
        if out:
            try:  # written and closed before stdout gets a report
                with out:
                    out.write(data)
            except OSError as exc:  # such as a full disk
                data, code = _cannot_write(args, exc), 2
    return _to_stdout(data, code)


def _to_stdout(data: bytes, code: int) -> int:
    """Write and flush ``data`` to stdout and return ``code``; a stdout that
    cannot take the report (a full disk, a closed pipe) is one line on stderr
    and exit 2, since no verdict reached it."""
    try:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    except OSError as exc:
        try:  # the interpreter flushes stdout again at exit: let that go nowhere
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout with no file descriptor
            pass
        sys.stderr.write(f"foliatk: cannot write the report to stdout: {exc.strerror or exc}\n")
        return 2
    return code


def _encoded(report: dict) -> bytes:
    """The rendered report in UTF-8; a lone surrogate, which a JSON string may
    hold and UTF-8 cannot, is written as its JSON escape ``\\udXXX``."""
    return render_report(report).encode("utf-8", "backslashreplace")


def _cannot_write(args: argparse.Namespace, exc: Exception) -> bytes:
    """The encoded error report of a ``--json-out`` path that cannot be
    written, quoting the path once, as an excerpt."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    exc = type(exc)(f"cannot write {excerpt(args.json_out)}: {reason}")
    return _encoded(_error_report(args.command, args.order, exc))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
