"""Seeded inputs for the three workloads, written as scene files the program loads.

Each build function writes its scenes under a work directory and returns
the ops of one pass.  An op is one ``foliatk`` CLI call: a command, a scene
file and its flags, together with what its report must show.  The seed picks the ladder's
regular point and the flow start states; the op order is drawn separately by
the runner.  Nothing here imports the program.

Why these workloads:

* ``scenes`` is every valid (scene, command, flags) call over the shipped
  scenes, the traffic users send.  Most calls take milliseconds, so parse,
  scene load and rendering set the median; ``order_2_n3`` and ``order_3_n3``
  set the tail.
* ``ladder`` runs the symbolic commands on order-k modules of growing size,
  where Groebner, syzygy and linear-algebra costs grow faster than the input.
  The origin and a regular point split linear algebra from scene load.
* ``flow`` runs the numeric monitors over tens of thousands of rk4 steps;
  symbolic work is almost nil and rendering handles MB-sized float traces.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_SCENES = HERE / "expected_scenes.json"

LADDER_RUNGS = ((2, 3), (3, 2), (3, 3))
LADDER_NAMES = ("x", "y", "z", "w")
# the order-k module is involutive, its lift ideal Poisson-closed, and the
# Euclidean metric is not compatible with it
LADDER_VERDICTS = {
    "lift-ideal": "pass",
    "check-srf": "fail",
    "check-involutive": "pass",
    "closure-check": "pass",
}
REGULAR_COORDS = tuple(Fraction(v) for v in ("-2", "-1", "-1/2", "1/2", "1", "3/2", "2"))

LIGHT_REPEAT = 4

FLOW_SCENES = ("so3_moment", "rotation_r3", "rotation_srf_r2", "rotation_nonmodule_r2")
FLOW_COMMANDS = ("flow-monitor", "geodesic-check")
FLOW_STEPS = 20_000
FLOW_DT = "1/1000"
START_Q = tuple(Fraction(v) for v in ("-3/2", "-1", "-1/2", "1/2", "1", "3/2"))
START_SCALE = tuple(Fraction(v) for v in ("-1/2", "-1/4", "1/4", "1/2", "1"))


@dataclass(frozen=True)
class Op:
    """One CLI call and the report it must produce."""

    key: str
    scene: str
    command: str
    point: str | None = None
    candidates: tuple[str, ...] = ()
    exit: int = 0
    verdict: str = "pass"
    detail: dict = field(default_factory=dict)
    monitor: dict | None = None
    repeat: int = 1  # runs per pass

    def namespace(self) -> argparse.Namespace:
        """The arguments ``foliatk.cli.main`` would build for this call."""
        return argparse.Namespace(point=self.point, candidate=list(self.candidates),
                                  tol=None, dt=None, t_end=None, order="block",
                                  json_out=None)


def op_key(scene: str, command: str, point=None, candidates=()) -> str:
    flags = [f"--point {point}"] if point else []
    flags += [f"--candidate {c}" for c in candidates]
    return " ".join([scene, command, *flags])


def _write(path: Path, data: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True), encoding="utf-8")
    return str(path)


def build_scenes(workdir: Path, scenes_dir: Path, only=None) -> list[Op]:
    """Copy the shipped scenes; the ops and their reports come from the table
    recorded at the seed commit.  ``only`` limits the scenes (for tests).

    Ops at or below the table's p90 latency run ``LIGHT_REPEAT`` times per
    pass: the few slow ops fill most of a pass, and without the extra
    samples the fastest latency of the op at p90 rests on three samples.
    """
    table = json.loads(EXPECTED_SCENES.read_text(encoding="utf-8"))
    ops = []
    copied: dict[str, str] = {}
    for entry in table:
        scene = entry["scene"]
        if only is not None and scene not in only:
            continue
        if scene not in copied:
            target = workdir / "scenes" / f"{scene}.json"
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(scenes_dir / f"{scene}.json", target)
            copied[scene] = str(target)
        point, cands = entry["point"], tuple(entry["candidates"])
        monitor = None
        if entry["command"] in FLOW_COMMANDS:
            flow = json.loads((scenes_dir / f"{scene}.json").read_text(encoding="utf-8"))["flow"]
            monitor = {"steps": round(flow["t_end"] / flow["dt"])}
        ops.append(Op(op_key(scene, entry["command"], point, cands), copied[scene],
                      entry["command"], point, cands, entry["exit"], entry["verdict"],
                      entry["detail"], monitor, entry["repeat"]))
    return ops


def ladder_scene(n: int, k: int, regular: tuple[Fraction, ...]) -> dict:
    """All degree-k monomials times all coordinate directions on R^n."""
    coords = list(LADDER_NAMES[:n])
    gens = []
    for combo in itertools.combinations_with_replacement(range(n), k):
        mono = "*".join(coords[i] for i in combo)
        for d in range(n):
            comps = ["0"] * n
            comps[d] = mono
            gens.append(comps)
    eye = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return {
        "chart": {"dimension": n, "coordinates": coords},
        "cometric": eye,
        "metric": eye,
        "foliation": gens,
        "points": {"origin": ["0"] * n, "regular": [str(c) for c in regular]},
        "candidates": {"H": " + ".join(f"1/2*p_{c}^2" for c in coords)},
        "notes": [f"order-{k} module on R^{n}, Euclidean metric"],
    }


def build_ladder(workdir: Path, rng, rungs=LADDER_RUNGS) -> list[Op]:
    ops = []
    for n, k in rungs:
        # every coordinate nonzero, so the point is off the singular origin
        regular = tuple(rng.choice(REGULAR_COORDS) for _ in range(n))
        n_gens = n * comb(k + n - 1, n - 1)
        path = _write(workdir / "ladder" / f"order_{k}_n{n}.json", ladder_scene(n, k, regular))
        name = f"ladder_{n}_{k}"
        for command in ("lift-ideal", "check-srf", "check-involutive", "closure-check"):
            verdict = LADDER_VERDICTS[command]
            detail = {"fiber_degree_one": True} if command == "lift-ideal" else {
                "passed": verdict == "pass"}
            ops.append(Op(op_key(name, command), path, command,
                          exit=0 if verdict == "pass" else 1, verdict=verdict,
                          detail=detail))
        ops.append(Op(op_key(name, "point-report", "origin"), path, "point-report", "origin",
                      detail={"tangent_dim": 0, "fiber_dim": n_gens, "isotropy_dim": n_gens}))
        ops.append(Op(op_key(name, "point-report", "regular"), path, "point-report", "regular",
                      detail={"tangent_dim": n, "fiber_dim": n, "isotropy_dim": 0}))
    return ops


def flow_start(data: dict, rng) -> tuple[list[Fraction], list[Fraction]]:
    """A start covector orthogonal to the leaf through q.

    Every flow scene's leaves are orbits of rotations, so a radial covector
    p = s*q is orthogonal; a rotation about the z-axis of R^3 also leaves p_z
    free.  The caller checks the precondition exactly.
    """
    n = data["chart"]["dimension"]
    q = [rng.choice(START_Q) for _ in range(n)]
    s = rng.choice(START_SCALE)
    p = [s * c for c in q]
    if n == 3 and len(data["foliation"]) == 1:
        p[2] = rng.choice(START_SCALE)
    return q, p


def build_flow(workdir: Path, rng, scenes_dir: Path, start_values,
               steps=FLOW_STEPS) -> list[Op]:
    """``start_values(data, q, p)`` returns the lifted generators at the start;
    a start where any is nonzero is rejected before the run."""
    ops = []
    dt = Fraction(FLOW_DT)
    for scene in FLOW_SCENES:
        data = json.loads((scenes_dir / f"{scene}.json").read_text(encoding="utf-8"))
        q, p = flow_start(data, rng)
        if any(start_values(data, q, p)):
            raise ValueError(f"{scene}: seeded start is not orthogonal to its leaf")
        data["flow"] = {"q": [str(c) for c in q], "p": [str(c) for c in p],
                        "t_end": float(steps * dt), "dt": float(dt)}
        path = _write(workdir / "flow" / f"{scene}.json", data)
        for command in FLOW_COMMANDS:
            ops.append(Op(op_key(scene, command), path, command,
                          detail={"passed": True}, monitor={"steps": steps}))
    return ops
