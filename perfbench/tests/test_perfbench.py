"""Tests of the benchmark itself: tiny runs, the checker, span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import (  # noqa: E402
    PER_LAYER,
    Tracer,
    _covered,
    installed,
    layer_times,
    per_layer_metrics,
)

cli = run.load_program()

from checker import check, lift_values  # noqa: E402


def _run(ops):
    runner = run.Runner(cli, ops)
    order = list(range(len(ops)))
    random.Random(0).shuffle(order)
    runner.run_pass(order)
    return runner


def test_ladder_smoke(tmp_path):
    ops = workloads.build_ladder(tmp_path, random.Random(3), rungs=((2, 1),))
    assert len(ops) == 6
    runner = _run(ops)
    assert runner.verify() == (0, set())


def test_flow_smoke_and_start_precondition(tmp_path):
    ops = workloads.build_flow(tmp_path, random.Random(5), run.SCENES, lift_values,
                               steps=200)
    assert {op.command for op in ops} == set(workloads.FLOW_COMMANDS)
    runner = _run(ops)
    assert runner.verify() == (0, set())
    report = json.loads(runner.outputs[0][0][1])
    assert len(report["monitor"]["samples"]) == 21


def test_flow_rejects_start_off_the_zero_set(tmp_path):
    with pytest.raises(ValueError):
        workloads.build_flow(tmp_path, random.Random(5), run.SCENES,
                             lambda data, q, p: [1], steps=10)


def test_scenes_smoke(tmp_path):
    only = {"rotation_srf_r2", "so3_moment", "submersion_r3_to_r2", "morita_mismatch_r3",
            "nonclosed_ideal_r2", "killing_band_r2"}
    ops = workloads.build_scenes(tmp_path, run.SCENES, only=only)
    assert {op.key.split()[0] for op in ops} == only
    runner = _run(ops)
    assert runner.verify() == (0, set())


def test_traced_pass_reports_every_layer_and_restores(tmp_path):
    ops = workloads.build_ladder(tmp_path, random.Random(3), rungs=((2, 1),))
    original = cli.run_command
    tracer = Tracer()
    with installed(tracer):
        assert cli.run_command is not original
        runner = _run(ops)
    assert cli.run_command is original
    assert runner.verify() == (0, set())
    metrics = per_layer_metrics(tracer, 2.0, 1.0)
    assert list(metrics) == list(PER_LAYER)
    assert metrics["cli.render.calls"]["value"] == len(ops)
    assert metrics["groebner.module_groebner.calls"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] == 2.0


def _first_output(tmp_path, command):
    ops = workloads.build_ladder(tmp_path, random.Random(3), rungs=((2, 1),))
    op = next(o for o in ops if o.command == command)
    report, code = cli.run_command(op.command, op.scene, op.namespace())
    return op, report, code


def test_checker_accepts_then_flags_a_corrupted_cofactor(tmp_path):
    op, report, code = _first_output(tmp_path, "check-involutive")
    assert check(op, code, cli.render_report(report), {}) == []
    cert = report["certificates"][0]
    cert["cofactors"][0] = f"({cert['cofactors'][0]}) + x"
    problems = check(op, code, cli.render_report(report), {})
    assert any("re-expand" in p for p in problems)


def test_checker_flags_a_flipped_verdict(tmp_path):
    op, report, code = _first_output(tmp_path, "closure-check")
    report["verdict"] = "fail"
    problems = check(op, code, cli.render_report(report), {})
    assert any("verdict" in p for p in problems)


def test_checker_flags_a_wrong_invariant(tmp_path):
    op, report, code = _first_output(tmp_path, "point-report")
    report["detail"]["fiber_dim"] += 1
    assert check(op, code, cli.render_report(report), {})


def test_self_time_on_a_synthetic_nest():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("a", 7.0, 9.0, 0),
    ]
    times = layer_times(spans)
    assert times["a"] == {"calls": 2, "self_s": 4.0 + 2.0, "total_s": 10.0}
    assert times["b"] == {"calls": 2, "self_s": 2.0 + 1.0, "total_s": 4.0}
    assert times["c"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}


def test_covered_merges_and_clips_intervals():
    assert _covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 6.0) == 4.0
    assert _covered([], 0.0, 1.0) == 0.0


def test_benchmark_json_names_what_the_runs_print():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
