"""Report bytes stay fixed unless a change says why.

``report_digests.json`` lists CLI calls over the shipped scenes with the
sha256 of their rendered reports: every symbolic (scene, command, flags) call
of the ``scenes`` benchmark workload, and the three ideal commands that honor
``--order`` again under ``grevlex`` and ``lex``.  A change that alters report
bytes on purpose re-records the digests and says why in CHANGES.md::

    PYTHONPATH=src python tests/test_report_digests.py
"""

import argparse
import hashlib
import json
from pathlib import Path

from foliatk.cli import render_report, run_command

HERE = Path(__file__).resolve().parent
SCENES = HERE.parent / "scenes"
DIGESTS = HERE / "report_digests.json"


def _digest(call: dict) -> str:
    args = argparse.Namespace(point=call["point"], candidate=list(call["candidates"]),
                              tol=None, dt=None, t_end=None, order=call["order"])
    report, _ = run_command(call["command"], SCENES / f"{call['scene']}.json", args)
    return hashlib.sha256(render_report(report).encode("utf-8")).hexdigest()


def _key(call: dict) -> str:
    flags = [f"--point {call['point']}"] if call["point"] else []
    flags += [f"--candidate {c}" for c in call["candidates"]]
    return " ".join([call["scene"], call["command"], *flags, f"--order {call['order']}"])


def test_report_bytes_match_recorded_digests():
    calls = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(calls) == 211
    changed = [_key(c) for c in calls if _digest(c) != c["sha256"]]
    assert changed == []


if __name__ == "__main__":
    calls = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for c in calls:
        c["sha256"] = _digest(c)
    DIGESTS.write_text(json.dumps(calls, indent=1) + "\n", encoding="utf-8")
