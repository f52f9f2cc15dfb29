"""Independent check of one CLI report against its op's expectations.

An op passes only if its exit code and verdict match, the invariant detail
fields match, every certificate re-expands to the target its claim names and
flow monitors ran more than zero steps with finite drift.  Targets are rebuilt
from the scene file with ``foliatk.poly``, ``foliatk.geometry`` and
``foliatk.expressions`` only; no Groebner code is involved.  Cofactors are not
unique, so certificate bytes are never compared.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from foliatk.expressions import parse_expression
from foliatk.geometry import (
    SymTensor2,
    VectorField,
    canonical_poisson,
    cotangent_lift,
    lie_bracket,
    sym_tensor_lift,
)
from foliatk.poly import Polynomial, VariableSet

_CLAIMS = (
    ("bracket", re.compile(r"\[X_(\d+), X_(\d+)\] in module\Z")),
    ("srf", re.compile(r"\{lift\(X_(\d+)\), H_g\} in I_F\Z")),
    ("closure", re.compile(r"\{g_(\d+), g_(\d+)\} in ideal\Z")),
    ("normalizer", re.compile(r"\{candidate, g_(\d+)\} in ideal\Z")),
    ("module_equal", re.compile(r"generator (\d+) of (left|right) in the other module\Z")),
    ("pullback", re.compile(r"generator (\d+) of (left|right) pullback in the other\Z")),
    ("defect", re.compile(r"(defect|H_h - H_g o phi) in <p_alpha>\Z")),
)


class SceneMath:
    """Expressions of one scene file, parsed once and rebuilt into targets."""

    def __init__(self, data: dict):
        self.data = data
        self.chart = VariableSet(tuple(self.data["chart"]["coordinates"]))
        self.cot = self.chart.cotangent()
        self._parsed: dict = {}

    def parse(self, text: str, cot: bool) -> Polynomial:
        key = (text, cot)
        if key not in self._parsed:
            self._parsed[key] = parse_expression(text, self.cot if cot else self.chart)
        return self._parsed[key]

    def field(self, comps) -> tuple[Polynomial, ...]:
        return tuple(self.parse(c, False) for c in comps)

    def generators(self, key: str) -> list[tuple[Polynomial, ...]]:
        return [self.field(row) for row in self.data[key]]

    @cached_property
    def foliation(self) -> list[tuple[Polynomial, ...]]:
        return self.generators("foliation")

    @cached_property
    def lifts(self) -> list[Polynomial]:
        return [cotangent_lift(VectorField(self.chart, g), self.cot) for g in self.foliation]

    @cached_property
    def working_ideal(self) -> list[Polynomial]:
        if self.data.get("ideal") is not None:
            return [self.parse(t, True) for t in self.data["ideal"]]
        return self.lifts

    @cached_property
    def hamiltonian(self) -> Polynomial:
        rows = self.data["cometric"]
        entries = tuple(tuple(self.parse(str(c), False) for c in row) for row in rows)
        cometric = SymTensor2(self.chart, "contravariant", entries)
        return sym_tensor_lift(cometric, self.cot).scale(Fraction(1, 2))


def _expand(cert: dict, sm: SceneMath, module: bool):
    """Parse generators, cofactors and remainder; return (gens, sum + remainder)."""
    if module:
        gens = [sm.field(g) for g in cert["generators"]]
        rem = sm.field(cert["remainder"])
        acc = list(rem)
        for cof_text, gen in zip(cert["cofactors"], gens, strict=True):
            cof = sm.parse(cof_text, False)
            if cof.is_zero():
                continue
            acc = [a + cof * g for a, g in zip(acc, gen)]
        return gens, rem, tuple(acc)
    gens = [sm.parse(g, True) for g in cert["generators"]]
    rem = sm.parse(cert["remainder"], True)
    acc = rem
    for cof_text, gen in zip(cert["cofactors"], gens, strict=True):
        cof = sm.parse(cof_text, True)
        if not cof.is_zero():
            acc = acc + cof * gen
    return gens, rem, acc


def check_certificate(cert: dict, report: dict, op, sm: SceneMath) -> str | None:
    """None if the certificate re-expands to its claim's target, else why not."""
    claim = cert["claim"]
    for kind, pattern in _CLAIMS:
        m = pattern.match(claim)
        if m:
            break
    else:
        return f"unknown claim {claim!r}"
    detail = report["detail"]
    module = kind in ("bracket", "module_equal", "pullback")
    gens, rem, expanded = _expand(cert, sm, module)
    if kind == "bracket":
        fol = sm.foliation
        a, b = int(m[1]), int(m[2])
        br = lie_bracket(VectorField(sm.chart, fol[a]), VectorField(sm.chart, fol[b]))
        want_gens, target = fol, br.components
    elif kind == "srf":
        lifts = sm.lifts
        want_gens, target = lifts, canonical_poisson(lifts[int(m[1])], sm.hamiltonian)
    elif kind == "closure":
        ideal = sm.working_ideal
        want_gens, target = ideal, canonical_poisson(ideal[int(m[1])], ideal[int(m[2])])
    elif kind == "normalizer":
        cand = sm.parse(sm.data["candidates"][op.candidates[0]], True)
        if sm.parse(detail["candidate"], True) != cand:
            return "reported candidate is not the requested one"
        ideal = sm.working_ideal
        want_gens, target = ideal, canonical_poisson(cand, ideal[int(m[1])])
    elif kind in ("module_equal", "pullback"):
        if kind == "module_equal":
            left, right = sm.foliation, sm.generators("foliation_b")
        else:
            left = [sm.field(g) for g in detail["left_generators"]]
            right = [sm.field(g) for g in detail["right_generators"]]
        src, dst = (left, right) if m[2] == "left" else (right, left)
        want_gens, target = dst, src[int(m[1])]
    else:
        fiber = {Polynomial.variable(sm.cot, name) for name in sm.cot.fiber}
        if any(g not in fiber for g in gens):
            return "defect certificate generators are not momenta"
        want_gens, target = gens, sm.parse(detail["defect"], True)
    if list(gens) != list(want_gens):
        return f"{claim}: generators are not the scene's"
    if expanded != target:
        return f"{claim}: cofactors do not re-expand to the target"
    holds = all(c.is_zero() for c in rem) if module else rem.is_zero()
    if cert["holds"] != holds:
        return f"{claim}: 'holds' disagrees with the remainder"
    return None


def lift_values(data: dict, q, p) -> list[Fraction]:
    """The lifted foliation generators of a scene, evaluated exactly at (q, p)."""
    return [lift.evaluate_seq(tuple(q) + tuple(p)) for lift in SceneMath(data).lifts]


def _check_lift_generators(report: dict, sm: SceneMath) -> str | None:
    gens = [sm.parse(g, True) for g in report["detail"]["generators"]]
    return None if gens == sm.lifts else "lift generators differ from the scene's lifts"


def _check_monitor(report: dict, op) -> str | None:
    mon = report.get("monitor")
    if not mon:
        return "flow report has no monitor"
    steps = op.monitor["steps"]
    samples = mon["samples"]
    want_samples = steps // 10 + 1 + (steps % 10 != 0)
    if steps <= 0 or len(samples) != want_samples:
        return f"flow took {len(samples)} samples, expected {want_samples}"
    drift = float(mon["energy_drift"])
    gen = float(mon["max_abs_generator"])
    if not (math.isfinite(drift) and math.isfinite(gen)):
        return "non-finite drift or generator value"
    t_end = float(report["provenance"]["tolerances"]["t_end"])
    if not math.isclose(float(samples[-1]["t"]), t_end, rel_tol=1e-9):
        return "flow stopped before its horizon"
    return None


def check(op, code: int, text: str, scenes: dict) -> list[str]:
    """Problems with one op's output; empty means the op is correct.

    ``scenes`` caches a :class:`SceneMath` per scene file across calls.
    """
    problems = []
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if code != op.exit:
        problems.append(f"exit {code}, expected {op.exit}")
    if report.get("verdict") != op.verdict:
        problems.append(f"verdict {report.get('verdict')!r}, expected {op.verdict!r}")
    detail = report.get("detail", {})
    for key, want in op.detail.items():
        if detail.get(key) != want:
            problems.append(f"detail.{key} = {detail.get(key)!r}, expected {want!r}")
    if problems:
        return problems
    if op.scene not in scenes:
        scenes[op.scene] = SceneMath(json.loads(Path(op.scene).read_text(encoding="utf-8")))
    sm = scenes[op.scene]
    certs = report["certificates"]
    for cert in certs:
        why = check_certificate(cert, report, op, sm)
        if why:
            problems.append(why)
    if report["verdict"] == "pass" and not all(c["holds"] for c in certs):
        problems.append("pass verdict with a certificate that does not hold")
    if report["verdict"] == "fail" and certs and all(c["holds"] for c in certs):
        problems.append("fail verdict but every certificate holds")
    if op.command == "lift-ideal":
        why = _check_lift_generators(report, sm)
        if why:
            problems.append(why)
    if op.monitor is not None:
        why = _check_monitor(report, op)
        if why:
            problems.append(why)
    return problems
