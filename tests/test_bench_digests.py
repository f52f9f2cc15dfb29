"""Report bytes of every benchmark op stay fixed unless a change says why.

``bench_digests.json`` holds, per workload, the sha256 of (op key, exit
code, rendered report) for every op of the ``scenes``, ``ladder`` and
``flow`` benchmark workloads at seed 7, and under ``rungs`` the same for the
origin and regular ``point-report`` of the ladder rungs (4,2), (4,3) and
(3,4).  The ops are built by ``perfbench/workloads.py``, as the benchmark
builds them, and run in process.  A change that alters those bytes on
purpose re-records the manifest and says why in CHANGES.md::

    PYTHONPATH=src python tests/test_bench_digests.py --write
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from foliatk.cli import render_report, run_command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "bench_digests.json"
SEED = 7
POINT_RUNGS = ((4, 2), (4, 3), (3, 4))

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402
from checker import lift_values  # noqa: E402


def _ops(workdir: Path) -> dict:
    scenes = ROOT / "scenes"
    rungs = workloads.build_ladder(workdir / "rungs", random.Random(SEED), POINT_RUNGS)
    return {
        "scenes": workloads.build_scenes(workdir, scenes),
        "ladder": workloads.build_ladder(workdir, random.Random(SEED)),
        "flow": workloads.build_flow(workdir, random.Random(SEED), scenes, lift_values),
        "rungs": [op for op in rungs if op.command == "point-report"],
    }


def _digest(op) -> str:
    report, code = run_command(op.command, op.scene, op.namespace())
    text = f"{op.key}\n{code}\n{render_report(report)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(workdir: Path) -> dict:
    return {workload: {op.key: _digest(op) for op in ops}
            for workload, ops in _ops(workdir).items()}


def test_bench_reports_match_recorded_digests(tmp_path):
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    now = digests(tmp_path)
    assert {w: len(d) for w, d in now.items()} == {w: len(d) for w, d in recorded.items()}
    changed = [f"{w}: {key}" for w, d in now.items() for key, sha in d.items()
               if recorded[w].get(key) != sha]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (re-records {MANIFEST.name})")
    with tempfile.TemporaryDirectory() as work:
        MANIFEST.write_text(json.dumps(digests(Path(work)), indent=1) + "\n", encoding="utf-8")
