"""Report bytes stay fixed unless a change says why: the one byte gate.

``report_digests.json`` holds, per group, the sha256 of (call key, exit
code, rendered report) for every call it pins, each run once per test
session through the ``pinned_reports`` fixture (``conftest.py``), which
``test_render.py`` reads too:

* ``scenes``, ``ladder`` and ``flow``: every op of those benchmark workloads
  at seed 7, built by ``perfbench/workloads.py`` as the benchmark builds them;
* ``rungs``: the origin and regular ``point-report`` of the ladder rungs
  (4,2), (4,3) and (3,4);
* ``orders``: every ``scenes`` op of the three commands that honor
  ``--order``, again under ``grevlex`` and under ``lex``.

This module checks the ``orders`` group; ``test_bench_digests.py`` checks
the four benchmark groups against the same manifest and the same run.

Beside the bytes, the same reports pass a semantic gate, so that a verdict
that flips cannot hide in a re-recorded manifest: ``perfbench/checker.py``
checks every report against its op's exit code, verdict and invariant
details, and re-expands every certificate against a target rebuilt from the
scene.  An ``orders`` report is checked against the op of the same call under
``block``: the same exit code, verdict and ``passed``.

A change that alters those bytes on purpose re-records the manifest and says
why in CHANGES.md::

    PYTHONPATH=src python tests/test_report_digests.py --write

Run as a script without ``--write``, it prints its usage and writes nothing.
"""

import dataclasses
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from foliatk.cli import render_report, run_command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "report_digests.json"
SEED = 7
POINT_RUNGS = ((4, 2), (4, 3), (3, 4))
ORDER_COMMANDS = ("closure-check", "normalizer-check", "reduced-bracket")
ORDERS = ("grevlex", "lex")
BENCH_GROUPS = ("scenes", "ladder", "flow", "rungs")
ORDER_GROUPS = ("orders",)

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402
import checker  # noqa: E402


def pinned_calls(workdir: Path) -> list[tuple]:
    """``(group, key, workloads.Op, arguments)`` of every pinned call, its
    scene files written under ``workdir``; an ``orders`` call carries the op
    of the same call under ``block``."""
    scenes = ROOT / "scenes"
    rungs = workloads.build_ladder(workdir / "rungs", random.Random(SEED), POINT_RUNGS)
    groups = {
        "scenes": workloads.build_scenes(workdir, scenes),
        "ladder": workloads.build_ladder(workdir, random.Random(SEED)),
        "flow": workloads.build_flow(workdir, random.Random(SEED), scenes, checker.lift_values),
        "rungs": [op for op in rungs if op.command == "point-report"],
    }
    calls = [(group, op.key, op, op.namespace()) for group, ops in groups.items() for op in ops]
    for op in groups["scenes"]:
        if op.command in ORDER_COMMANDS:
            for order in ORDERS:
                args = op.namespace()
                args.order = order
                calls.append(("orders", f"{op.key} --order {order}", op, args))
    return calls


def run_pinned(workdir: Path) -> list[tuple]:
    """``(group, key, workloads.Op, exit code, report, rendered report)`` of
    every pinned call, each run and rendered once."""
    pinned = []
    for group, key, op, args in pinned_calls(workdir):
        report, code = run_command(op.command, op.scene, args)
        pinned.append((group, key, op, code, report, render_report(report)))
    return pinned


def digests(pinned) -> dict:
    table: dict = {}
    for group, key, _, code, _, text in pinned:
        data = f"{key}\n{code}\n{text}".encode("utf-8")
        table.setdefault(group, {})[key] = hashlib.sha256(data).hexdigest()
    return table


def changed_digests(pinned, groups) -> list[str]:
    """``group: key`` of every call of ``groups`` whose digest differs from the
    manifest's; the group sizes must match first."""
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    now = digests(pinned)
    assert set(now) == set(recorded)
    assert {g: len(now[g]) for g in groups} == {g: len(recorded[g]) for g in groups}
    return [f"{g}: {key}" for g in groups for key, sha in now[g].items()
            if recorded[g].get(key) != sha]


def test_report_bytes_match_recorded_digests(pinned_reports):
    assert changed_digests(pinned_reports, ORDER_GROUPS) == []


def semantic_problems(pinned, groups) -> list[str]:
    """``group: key: problem`` for every report of ``groups`` that
    ``checker.check`` refuses; an ``orders`` report is held to its ``block``
    op's exit code, verdict and ``passed`` only, since a reduced
    representative is a normal form of its order."""
    scenes: dict = {}
    problems = []
    for group, key, op, code, _, text in pinned:
        if group not in groups:
            continue
        if group == "orders":
            op = dataclasses.replace(op, detail={k: v for k, v in op.detail.items()
                                                 if k == "passed"})
        problems += [f"{group}: {key}: {why}" for why in checker.check(op, code, text, scenes)]
    return problems


def test_every_pinned_benchmark_report_passes_the_checker(pinned_reports):
    assert semantic_problems(pinned_reports, BENCH_GROUPS) == []


def test_every_order_report_keeps_its_block_verdict_and_re_expands(pinned_reports):
    assert sum(group == "orders" for group, *_ in pinned_reports) == 76
    assert semantic_problems(pinned_reports, ORDER_GROUPS) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (re-records {MANIFEST.name})")
    with tempfile.TemporaryDirectory() as work:
        table = digests(run_pinned(Path(work)))
    MANIFEST.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
