"""foliatk benchmark: seeded CLI traffic, checked reports, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload scenes --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each op is one ``foliatk.cli.run_command`` followed by ``render_report``,
exactly as the CLI does, scene load included.  One client sends ops in a
closed loop from this single-threaded process.  A run makes at least three
whole passes over the workload's ops, each in a seeded order, and starts
another pass only while the previous pass's length still fits in
``--seconds``; three passes of the heavier workloads take longer than that.
An op with ``repeat`` above 1 runs that many times in each pass.

Timings are scaled to a reference host speed and then take each op's
fastest latency over the run.  On a shared 2-vCPU host the same op slows by
up to half for seconds at a time and the whole host by more than half for
minutes.  So before an op, at most every ``CAL_EVERY_S``, the run times a
fixed calibration loop that uses no foliatk code, and divides each op's
latency by the mean of the calibrations either side of it, in units of
``CAL_REFERENCE_S``; the minimum over samples spread across the run filters
what the scaling leaves.  The unscaled figures and the median calibration
time are in the metadata.  ``wall_s`` is the sum of the per-op latencies,
each op once at the run's best; the percentiles are over the ops, one value
each.  Set-up is probed in fresh interpreters, four probes before each of the
first three passes, scaled by a calibration taken just before each, and the
median is reported.  Reports are kept and checked after the timed passes, so
checking adds neither to the timings nor to the peak RSS.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates two
untraced passes with two passes that have every layer wrapped (see
``spans.py``) and prints the per-layer metrics of the last traced pass.  The
last line of stdout is the result object; the line before it holds the run's
metadata.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENES = ROOT / "scenes"
WORK = HERE / ".work"
SETUP_PROBES_PER_PASS = 4
MIN_PASSES = 3
TRACE_ROUNDS = 2
CAL_EVERY_S = 0.5
# the reference speed: one calibration loop in 2.5 ms
CAL_REFERENCE_S = 0.0025

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("scenes", "ladder", "flow")


class LayoutError(Exception):
    """The checkout lacks what the benchmark needs."""


def load_program():
    """Import ``foliatk.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "foliatk" / "__init__.py").is_file():
        raise LayoutError(f"no foliatk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from foliatk import cli

    if Path(cli.__file__).resolve().parent != (SRC / "foliatk").resolve():
        raise LayoutError(f"foliatk was imported from {cli.__file__}, not from {SRC}")
    return cli


def build(workload: str, seed: int, workdir: Path):
    """Write the workload's inputs for ``seed`` and return the ops of one pass."""
    import workloads
    from checker import lift_values

    rng = random.Random(seed)
    if workload == "ladder":
        return workloads.build_ladder(workdir, rng)
    if not SCENES.is_dir():
        raise LayoutError(f"the {workload} workload reads {SCENES}, which is missing")
    if workload == "scenes":
        return workloads.build_scenes(workdir, SCENES)
    return workloads.build_flow(workdir, rng, SCENES, lift_values)


def calibration_loop() -> dict:
    """Fixed pure-Python work of the program's kind: products and differences
    of small exact rationals, and dict updates.  It calls no foliatk code, so
    no change to the program can move it."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        x = Fraction(i % 7 + 1, i % 5 + 2) * Fraction(i % 3 + 1, i % 11 + 1)
        acc = x - acc / 3 if i % 50 else Fraction(0)
        table[i % 13, i % 7] = x
    return table


def host_speed() -> float:
    """Seconds one calibration loop takes right now (best of three)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        calibration_loop()
        best = min(best, time.perf_counter() - start)
    return best


def measure_setup(args, probes: int) -> list[tuple[float, float]]:
    """(seconds, host speed) per probe: the time from spawning a fresh
    interpreter to its first op being ready, and the calibration just before.

    Each probe imports the program and builds the workload's inputs, as the
    run itself does, then reports ``ready`` and exits.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(probes):
        speed = host_speed()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append((time.perf_counter() - start, speed))
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
    return times


def pass_order(ops, rng) -> list[int]:
    """Op indices of one pass, each op ``repeat`` times, in a seeded order."""
    order = [i for i, op in enumerate(ops) for _ in range(op.repeat)]
    rng.shuffle(order)
    return order


class Runner:
    """Times ops and keeps each op's distinct outputs for the checker."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        # (op, seconds, output index, index of the last calibration before it)
        self.samples: list[tuple[int, float, int, int]] = []
        self.outputs: list[list[tuple[int, str]]] = [[] for _ in ops]
        self.speeds: list[float] = []
        self._calibrated_at = -math.inf

    def _calibrate(self) -> None:
        self.speeds.append(host_speed())
        self._calibrated_at = time.perf_counter()

    def run_pass(self, order) -> None:
        """Run the ops in ``order``, calibrating at least every ``CAL_EVERY_S``."""
        for i in order:
            op = self.ops[i]
            gc.collect()
            if time.perf_counter() - self._calibrated_at >= CAL_EVERY_S:
                self._calibrate()
            start = time.perf_counter()
            try:
                report, code = self.cli.run_command(op.command, op.scene, op.namespace())
                text = self.cli.render_report(report)
            except Exception:  # a crash is a failed op, not a failed run
                code, text = -1, traceback.format_exc()
            elapsed = time.perf_counter() - start
            seen = self.outputs[i]
            if (code, text) not in seen:
                seen.append((code, text))
            self.samples.append((i, elapsed, seen.index((code, text)), len(self.speeds) - 1))
        self._calibrate()

    def best(self, scaled=True) -> list[float]:
        """Each op's fastest latency over the passes run so far.

        Scaled latencies are at the reference speed: each sample is divided
        by the mean of the calibrations either side of it, in units of
        ``CAL_REFERENCE_S``.
        """
        best = [math.inf] * len(self.ops)
        for i, seconds, _, k in self.samples:
            if scaled:
                seconds *= 2 * CAL_REFERENCE_S / (self.speeds[k] + self.speeds[k + 1])
            best[i] = min(best[i], seconds)
        return best

    def verify(self) -> tuple[int, set[int]]:
        """Check each distinct output once; returns failed samples and failed ops."""
        from checker import check

        bad = set()
        scenes: dict = {}
        for i, outputs in enumerate(self.outputs):
            for j, (code, text) in enumerate(outputs):
                try:
                    problems = check(self.ops[i], code, text, scenes)
                except Exception as exc:  # a malformed report is a failed op
                    problems = [f"checker raised {exc!r}"]
                if problems:
                    bad.add((i, j))
                    print(f"FAILED {self.ops[i].key}: {'; '.join(problems)[:2000]}",
                          file=sys.stderr)
        failed = sum((i, j) in bad for i, _, j, _ in self.samples)
        return failed, {i for i, _ in bad}


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args, ops_per_pass: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "foliatk").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "ops_per_pass": ops_per_pass,
    }


def end_to_end(args, cli, ops) -> tuple[dict, dict, int, int]:
    runner = Runner(cli, ops)
    order_rng = random.Random(f"order:{args.seed}")
    setup = []
    passes = 0
    run_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        if passes < MIN_PASSES:
            # spread over the run, so one slow spell of the machine cannot
            # hold every probe
            setup += measure_setup(args, SETUP_PROBES_PER_PASS)
        runner.run_pass(pass_order(ops, order_rng))
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and (now - run_start) + (now - pass_start) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_start = time.perf_counter()
    failed, failed_ops = runner.verify()
    check_s = time.perf_counter() - check_start

    def timings(best, setup):
        wall = sum(best)
        return {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "ops_per_s": (len(ops) - len(failed_ops)) / wall,
            "op_p50_ms": statistics.median(best) * 1000,
            # nearest rank: an interpolated p90 on scenes mixes the two ops
            # either side of the gap between small and large ops
            "op_p90_ms": sorted(best)[math.ceil(0.9 * len(best)) - 1] * 1000,
        }

    values = timings(runner.best(), [t * CAL_REFERENCE_S / speed for t, speed in setup])
    values["peak_rss_mb"] = peak_rss_mb
    raw = timings(runner.best(scaled=False), [t for t, _ in setup])
    steps = sum(op.monitor["steps"] for i, op in enumerate(ops)
                if op.monitor and i not in failed_ops)
    extra = {
        "passes": passes,
        "check_s": check_s,
        "samples": {"setup_s": len(setup), "op_latency_per_op": f"{passes} x repeat",
                    "wall_s": len(ops), "op_p50_ms": len(ops), "op_p90_ms": len(ops),
                    "host_speed": len(runner.speeds)},
        "fail_ratio": failed / len(runner.samples),
        "unscaled": {**raw, "flow_steps_per_s": steps / raw["wall_s"]},
        "host_speed_s": statistics.median(runner.speeds),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, extra, len(runner.samples), failed


def per_layer(args, cli, ops) -> tuple[dict, dict, int, int]:
    """Alternate untraced and traced passes; layers come from the last traced one.

    The overhead ratio compares per-op best latencies of the two kinds of
    pass, which keeps slow spells of the machine out of it.
    """
    from spans import Tracer, installed, per_layer_metrics

    order = pass_order(ops, random.Random(f"order:{args.seed}"))
    plain, traced = Runner(cli, ops), Runner(cli, ops)
    for _ in range(TRACE_ROUNDS):
        plain.run_pass(order)
        tracer = Tracer()
        with installed(tracer):
            traced.run_pass(order)
    untraced_s, traced_s = sum(plain.best()), sum(traced.best())
    failed = plain.verify()[0] + traced.verify()[0]
    extra = {"passes": TRACE_ROUNDS, "untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
             "spans": len(tracer.spans),
             "samples": {"per_layer": 1, "trace.overhead_ratio": TRACE_ROUNDS}}
    metrics = per_layer_metrics(tracer, traced_s, untraced_s)
    return metrics, extra, len(plain.samples) + len(traced.samples), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        cli = load_program()
        ops = build(args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        measure = per_layer if args.trace else end_to_end
        metrics, extra, attempted, failed = measure(args, cli, ops)
    except LayoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"meta": {**metadata(args, len(ops)), **extra}}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
