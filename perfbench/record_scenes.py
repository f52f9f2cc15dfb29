"""Record the ``scenes`` workload's expected-report table.

Runs every (scene, command, flags) call over ``scenes/*.json``, keeps the
calls that do not exit 2, and writes their exit code, verdict and the
invariant detail fields to ``expected_scenes.json``.  Each call is also timed
three times: the calls slower than the nearest-rank p90 of the fastest times
run once per pass, the others ``LIGHT_REPEAT`` times.  Run it from the root
of the repository only at a commit whose reports are known to be right:

    python3 perfbench/record_scenes.py
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from foliatk import cli  # noqa: E402
from workloads import EXPECTED_SCENES, LIGHT_REPEAT, Op  # noqa: E402

INVARIANTS = ("passed", "tangent_dim", "fiber_dim", "isotropy_dim", "representative")


def enumerate_scene_calls(scenes_dir: Path, commands) -> list[tuple[str, str, str | None, tuple]]:
    """Every (scene, command, flags) call: default flags, one call per named
    point for point-report, per candidate for normalizer-check and
    flow-monitor, and per unordered candidate pair for the binary commands."""
    calls = []
    for path in sorted(scenes_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        points = list(data.get("points", {}))
        cands = list(data.get("candidates", {}))
        pairs = list(itertools.combinations(cands, 2))
        target_pairs = list(itertools.combinations(data.get("target_candidates", {}), 2))
        for command in sorted(commands):
            if command == "point-report":
                variants = [(p, ()) for p in points]
            elif command in ("normalizer-check", "flow-monitor"):
                variants = [(None, (c,)) for c in cands]
            elif command == "reduced-bracket":
                variants = [(None, pair) for pair in pairs]
            elif command == "poisson-defect":
                variants = [(None, pair) for pair in target_pairs]
            else:
                variants = []
            for point, cand in variants or [(None, ())]:
                calls.append((path.stem, command, point, cand))
    return calls


def _fastest(op, times=3) -> float:
    best = math.inf
    for _ in range(times):
        start = time.perf_counter()
        report, _ = cli.run_command(op.command, op.scene, op.namespace())
        cli.render_report(report)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    table, fastest = [], []
    for scene, command, point, cands in enumerate_scene_calls(ROOT / "scenes", cli._COMMANDS):
        op = Op("", str(ROOT / "scenes" / f"{scene}.json"), command, point, cands)
        report, code = cli.run_command(command, op.scene, op.namespace())
        if code == 2:
            continue
        detail = {k: report["detail"][k] for k in INVARIANTS if k in report["detail"]}
        if command == "lift-ideal":
            detail["generators"] = report["detail"]["generators"]
        table.append({"scene": scene, "command": command, "point": point,
                      "candidates": list(cands), "exit": code,
                      "verdict": report["verdict"], "detail": detail})
        fastest.append(_fastest(op))
    p90 = sorted(fastest)[math.ceil(0.9 * len(fastest)) - 1]
    for entry, seconds in zip(table, fastest):
        entry["repeat"] = LIGHT_REPEAT if seconds <= p90 else 1
    EXPECTED_SCENES.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"{len(table)} calls recorded in {EXPECTED_SCENES}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
