import argparse
import errno
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import foliatk
from foliatk import VariableSet, cli, foliation, ipoisson, parse_expression
from foliatk.cli import main, render_report, run_command
from foliatk.errors import InternalCheckError, excerpt

from conftest import MAX_ERROR_MESSAGE, SCENES


ns = argparse.Namespace  # run_command takes every flag a namespace lacks from its defaults


def test_check_srf_on_rotation_scene():
    report, code = run_command("check-srf", SCENES / "rotation_srf_r2.json")
    assert code == 0 and report["verdict"] == "pass"
    assert report["detail"]["lambda"] == [["0"]]


def test_check_srf_on_non_module_scene():
    report, code = run_command("check-srf", SCENES / "rotation_nonmodule_r2.json")
    assert code == 1 and report["verdict"] == "fail"
    (cert,) = report["certificates"]
    assert cert["remainder"] != "0"
    assert report["detail"]["refutation_level"].startswith("polynomial")


def test_poisson_defect_on_submersion_scene():
    report, code = run_command(
        "poisson-defect", SCENES / "submersion_r3_to_r2.json", ns(candidate=["pu", "pv"])
    )
    assert code == 0 and report["verdict"] == "pass"
    assert report["detail"]["defect"] == "p_z"


def test_exit_code_2_on_scene_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "chart": {"coordinates": ["x", "y"]},
        "cometric": [["1", "0"], ["0", "oops"]],
    }))
    report, code = run_command("check-srf", bad)
    assert code == 2 and report["verdict"] == "error"
    assert "oops" in report["detail"]["message"]


def test_exit_code_2_on_missing_section():
    report, code = run_command("check-involutive", SCENES / "nonclosed_ideal_r2.json")
    assert code == 2 and report["verdict"] == "error"


def test_unknown_command_is_a_usage_error():
    report, code = run_command("frobnicate", SCENES / "rotation_srf_r2.json")
    assert code == 2


@pytest.mark.parametrize("fault", [InternalCheckError("a guaranteed identity failed"),
                                   ZeroDivisionError("division by zero")])
def test_internal_faults_are_error_reports_with_exit_3(monkeypatch, capsys, fault):
    def broken(scene, args, order):
        raise fault

    monkeypatch.setitem(cli._COMMANDS, "lift-ideal", broken)
    report, code = run_command("lift-ideal", SCENES / "so3_moment.json")
    assert code == 3 and report["verdict"] == "error"
    assert report["detail"] == {"message": str(fault), "error_type": type(fault).__name__}
    assert main(["lift-ideal", "--scene", str(SCENES / "so3_moment.json")]) == 3
    assert json.loads(capsys.readouterr().out) == report


def test_deterministic_bytes():
    a = render_report(run_command("check-srf", SCENES / "rotation_srf_r2.json")[0])
    b = render_report(run_command("check-srf", SCENES / "rotation_srf_r2.json")[0])
    assert a == b
    a = render_report(run_command("flow-monitor", SCENES / "so3_moment.json",
                                  ns(candidate=["H"]))[0])
    b = render_report(run_command("flow-monitor", SCENES / "so3_moment.json",
                                  ns(candidate=["H"]))[0])
    assert a == b


def test_certificates_reverify_from_report():
    report, _ = run_command("check-srf", SCENES / "killing_band_r2.json")
    cot = VariableSet(("x", "y")).cotangent()
    for cert in report["certificates"]:
        gens = [parse_expression(t, cot) for t in cert["generators"]]
        cofs = [parse_expression(t, cot) for t in cert["cofactors"]]
        remainder = parse_expression(cert["remainder"], cot)
        holds = remainder.is_zero()
        assert holds == cert["holds"]


def test_report_shape_and_provenance():
    report, _ = run_command("lift-ideal", SCENES / "so3_moment.json")
    assert set(report) == {
        "command", "verdict", "detail", "certificates", "monitor",
        "scene_notes", "provenance",
    }
    prov = report["provenance"]
    assert prov["tool"] == "foliatk" and prov["order"] == "block"


def test_order_flag_changes_provenance():
    report, code = run_command(
        "closure-check", SCENES / "so3_moment.json", ns(order="grevlex")
    )
    assert code == 0
    assert report["provenance"]["order"] == "grevlex"


def test_point_report_via_name_and_literal():
    by_name, _ = run_command("point-report", SCENES / "so3_moment.json", ns(point="origin"))
    literal, _ = run_command("point-report", SCENES / "so3_moment.json", ns(point="0,0,0"))
    assert by_name["detail"] == literal["detail"]
    assert by_name["detail"]["fiber_dim"] == 3
    assert by_name["detail"]["isotropy_dim"] == 3


def test_monitor_reports_floats_as_17_digit_strings():
    report, code = run_command("geodesic-check", SCENES / "rotation_r3.json")
    assert code == 0
    monitor = report["monitor"]
    float(monitor["max_abs_generator"])
    assert isinstance(monitor["max_abs_generator"], str)
    assert len(monitor["samples"]) >= 2


def test_main_writes_json_out(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "check-srf", "--scene", str(SCENES / "rotation_srf_r2.json"),
        "--json-out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == stdout
    parsed = json.loads(stdout)
    assert parsed["verdict"] == "pass"


def test_unwritable_json_out_is_an_error_report_and_runs_nothing(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_command", lambda *a: ran.append(a))
    for bad in (tmp_path / "missing" / "report.json", tmp_path):
        code = main(["check-srf", "--scene", str(SCENES / "rotation_srf_r2.json"),
                     "--json-out", str(bad)])
        stdout = capsys.readouterr().out
        report = json.loads(stdout)  # one report, no traceback
        assert code == 2 and report["verdict"] == "error" and not ran
        assert excerpt(str(bad)) in report["detail"]["message"]
    assert not (tmp_path / "missing").exists()


def test_main_exit_code_on_failure(capsys):
    code = main(["integrability", "--scene", str(SCENES / "submersion_r3_to_r2.json")])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["detail"]["curvature_witness"] == ["0", "0", "1"]


def test_scene_notes_passthrough():
    report, _ = run_command("metric-defect", SCENES / "submersion_r3_to_r2.json")
    assert any("corrected" in note for note in report["scene_notes"])
    assert report["detail"]["defect"] == "1/2*p_z^2"


def test_normalizer_check_cli():
    report, code = run_command(
        "normalizer-check", SCENES / "so3_moment.json", ns(candidate=["r2"])
    )
    assert code == 0 and report["verdict"] == "pass"
    report, code = run_command(
        "normalizer-check", SCENES / "nonclosed_ideal_r2.json", ns(candidate=["px"])
    )
    assert code in (0, 1)


def test_reduced_bracket_cli():
    report, code = run_command(
        "reduced-bracket", SCENES / "so3_moment.json", ns(candidate=["r2", "H"])
    )
    assert code == 0
    assert report["detail"]["representative"] == "-2*q1*p_q1 - 2*q2*p_q2 - 2*q3*p_q3"


def test_pullback_cli():
    report, code = run_command("pullback", SCENES / "morita_r3_two_projections.json")
    assert code == 0
    gens = report["detail"]["generators"]
    assert ["0", "1", "0"] in gens and ["0", "0", "1"] in gens


def test_flow_monitor_fail_with_tight_tolerance(tmp_path):
    scene = json.loads((SCENES / "so3_moment.json").read_text())
    scene["flow"] = {"q": [1, 0, 0], "p": [0, 0, 0], "t_end": 1.0, "dt": 0.001}
    scene["candidates"]["drift"] = "p_q2 + q1*q1"
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    report, code = run_command("flow-monitor", path, ns(candidate=["drift"]))
    assert code == 1 and report["verdict"] == "fail"
    assert float(report["monitor"]["max_abs_generator"]) > 1e-6


def test_killing_connection_error_on_refuted_scene():
    report, code = run_command("killing-connection", SCENES / "rotation_nonmodule_r2.json")
    assert code == 2 and report["verdict"] == "error"
    assert "srf_check" in report["detail"]["message"]


def test_module_equal_cli_pass_path():
    report, code = run_command("module-equal", SCENES / "so3_moment.json")
    assert code == 0 and report["verdict"] == "pass"


def test_module_certificates_reverify_from_report():
    from foliatk import ModuleElement

    report, _ = run_command("module-equal", SCENES / "so3_moment.json")
    chart = VariableSet(("q1", "q2", "q3"))

    def as_element(strings):
        return ModuleElement(chart, tuple(parse_expression(s, chart) for s in strings))

    for cert in report["certificates"]:
        gens = [as_element(g) for g in cert["generators"]]
        cofs = [parse_expression(s, chart) for s in cert["cofactors"]]
        remainder = as_element(cert["remainder"])
        acc = remainder
        for c, g in zip(cofs, gens):
            acc = acc + g.scale_by(c)
        # the re-expanded element must lie in the other module's generator span,
        # and the verdict must match the remainder
        assert cert["holds"] == remainder.is_zero()


def test_point_report_accepts_fractional_literals():
    report, code = run_command(
        "point-report", SCENES / "so3_moment.json", ns(point="1/2,0,0")
    )
    assert code == 0
    assert report["detail"]["tangent_dim"] == 2


def test_lift_ideal_cli_matches_so_n_form():
    report, _ = run_command("lift-ideal", SCENES / "so3_moment.json")
    gens = set(report["detail"]["generators"])
    assert gens == {
        "-q2*p_q1 + q1*p_q2",
        "-q3*p_q1 + q1*p_q3",
        "-q3*p_q2 + q2*p_q3",
    }


def test_unknown_order_is_an_error_report():
    report, code = run_command("closure-check", SCENES / "so3_moment.json", ns(order="revlex"))
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    assert "revlex" in report["detail"]["message"]


def test_morita_span_fail_names_the_obstruction_point():
    report, code = run_command("morita-span", SCENES / "morita_mismatch_r3.json")
    assert code == 1
    detail = report["detail"]
    assert (detail["witness_side"], detail["witness_generator"]) == ("right", 0)
    assert detail["obstruction_point"] == ["0", "0", "0"]
    assert detail["refutation_level"].startswith("smooth: ")
    assert [c["holds"] for c in report["certificates"]] == [True, False]


def test_order_flag_ignored_by_block_pinned_commands():
    report, code = run_command(
        "check-srf", SCENES / "rotation_srf_r2.json", ns(order="lex")
    )
    assert code == 0
    assert report["provenance"]["order"] == "block"


@pytest.mark.parametrize("command", ["flow-monitor", "geodesic-check"])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_order_flag_leaves_flow_reports_byte_identical(command, order):
    # a flow reads the generators, never a monomial order
    block, code = run_command(command, SCENES / "so3_moment.json", ns(candidate=["H"]))
    other, other_code = run_command(command, SCENES / "so3_moment.json",
                                    ns(candidate=["H"], order=order))
    assert code == other_code == 0
    assert render_report(other) == render_report(block)


@pytest.mark.parametrize("command", ["flow-monitor", "geodesic-check"])
@pytest.mark.parametrize("flag", ["dt", "t_end"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-3])
def test_flow_step_and_horizon_must_be_finite_and_positive(command, flag, value):
    report, code = run_command(command, SCENES / "so3_moment.json", ns(**{flag: value}))
    assert code == 2 and report["verdict"] == "error"
    # the monitors own the step rule; the horizon is the command's input check
    want = "PreconditionError" if flag == "dt" else "SceneError"
    assert report["detail"]["error_type"] == want
    assert flag in report["detail"]["message"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9])
def test_flow_tolerance_must_be_finite_and_nonnegative(value):
    report, code = run_command("flow-monitor", SCENES / "so3_moment.json", ns(tol=value))
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    assert "tol" in report["detail"]["message"]


def test_zero_tolerance_is_a_real_check():
    report, code = run_command("flow-monitor", SCENES / "so3_moment.json",
                               ns(tol=0.0, t_end=0.01))
    assert code in (0, 1) and report["verdict"] in ("pass", "fail")
    assert len(report["monitor"]["samples"]) > 1


@pytest.mark.parametrize("flag, value", [
    ("--t-end", "nan"), ("--t-end", "inf"), ("--t-end", "0"),
    ("--dt", "nan"), ("--dt", "inf"), ("--dt", "0"), ("--dt", "5"), ("--dt", "0.6"),
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"),
])
def test_cli_rejects_vacuous_flow_flags(flag, value, capsys):
    code = main(["flow-monitor", "--scene", str(SCENES / "so3_moment.json"), flag, value])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["verdict"] == "error"


@pytest.mark.parametrize("command", ["flow-monitor", "geodesic-check"])
@pytest.mark.parametrize("flags", [["--t-end", "1e9"], ["--t-end", "1e300", "--dt", "1e-10"]])
def test_flow_longer_than_the_step_cap_is_refused(command, flags, capsys):
    # 1e12 steps, or more than a float can count: refused before the first
    # step, so the call returns at once
    code = main([command, "--scene", str(SCENES / "so3_moment.json"), *flags])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["verdict"] == "error"
    assert report["detail"]["error_type"] == "PreconditionError"
    assert "MAX_FLOW_STEPS" in report["detail"]["message"]


def test_coefficient_too_large_for_a_float_is_an_error_report():
    scene = json.loads((SCENES / "so3_moment.json").read_text(encoding="utf-8"))
    scene["candidates"]["H"] = "10^400*p_q1^2 + 1/2*p_q2^2"
    report, code = run_command("flow-monitor", json.dumps(scene))
    assert code == 2 and report["detail"]["error_type"] == "PreconditionError"


@pytest.mark.parametrize("candidate", ["2^100000*p_q1", "1/3^9100*p_q1", "9" * 5000 + "*p_q1"],
                         ids=["power", "denominator", "literal"])
def test_coefficient_with_too_many_digits_is_an_error_report(tmp_path, capsys, candidate):
    # a report could not print it: str() refuses ints past sys.get_int_max_str_digits()
    scene = json.loads((SCENES / "so3_moment.json").read_text(encoding="utf-8"))
    scene["candidates"]["big"] = candidate
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene), encoding="utf-8")
    code = main(["normalizer-check", "--scene", str(path), "--candidate", "big"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["verdict"] == "error"
    assert "digits" in report["detail"]["message"]


def _normalizer_check_of(candidate):
    scene = json.loads((SCENES / "so3_moment.json").read_text(encoding="utf-8"))
    scene["candidates"]["deep"] = candidate
    return run_command("normalizer-check", json.dumps(scene), ns(candidate=["deep"]))


@pytest.mark.parametrize("candidate", [
    "(q1+1)^3000", "(q1+q2+1)^5000", "(q1+q2+q3+p_q1)^60",
])
def test_a_short_power_that_expands_past_the_bound_exits_2_at_once(candidate):
    # expanding the last one used to run for more than 30 s; each is refused
    # at its ^ before the product that would pass MAX_TERM_PRODUCTS
    start = time.monotonic()
    report, code = _normalizer_check_of(candidate)
    assert time.monotonic() - start < 1.0
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    assert "term products" in report["detail"]["message"]


def test_parentheses_nested_to_the_limit_parse():
    depth = foliatk.expressions.MAX_NESTING
    report, code = _normalizer_check_of("(" * depth + "p_q1" + ")" * depth)
    assert code in (0, 1) and report["verdict"] in ("pass", "fail")


def test_parentheses_nested_past_the_limit_are_an_error_report():
    # one level more used to exhaust the interpreter stack near 250 levels
    for depth in (foliatk.expressions.MAX_NESTING + 1, 250, 5000):
        report, code = _normalizer_check_of("(" * depth + "p_q1" + ")" * depth)
        assert code == 2 and report["verdict"] == "error"
        # the scene loader names the key whose expression failed to parse
        assert report["detail"]["error_type"] == "SceneError"
        assert report["detail"]["message"].startswith("candidates.deep: parentheses nest")


@pytest.mark.parametrize("candidate, message", [
    ("p_q1 + 1/0", "candidates.deep: zero denominator in '1/0' (at position 7)"),
    ("p_q1^" + "9" * 5000, "candidates.deep: Exceeds the limit"),
], ids=["zero-denominator", "oversized-exponent"])
def test_malformed_literals_are_scene_errors_naming_the_key(candidate, message):
    # both used to escape the parser as ZeroDivisionError or ValueError
    report, code = _normalizer_check_of(candidate)
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    assert report["detail"]["message"].startswith(message)


def test_zero_denominator_in_a_generator_names_the_generator():
    scene = json.loads((SCENES / "rotation_srf_r2.json").read_text(encoding="utf-8"))
    scene["foliation"][0][0] = "1/0"
    report, code = run_command("check-srf", json.dumps(scene))
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    assert report["detail"]["message"].startswith("foliation[0]: zero denominator")


def test_a_long_run_of_unary_minus_signs_parses():
    report, code = _normalizer_check_of("-" * 5001 + "p_q1")
    assert code in (0, 1) and report["verdict"] in ("pass", "fail")


def _module_env() -> dict:
    """The environment with this checkout's package first on ``PYTHONPATH``."""
    src = str(Path(foliatk.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_dash_m_runs_the_cli():
    env = _module_env()
    done = subprocess.run(
        [sys.executable, "-m", "foliatk", "check-srf", "--scene", "scenes/rotation_srf_r2.json"],
        cwd=SCENES.parent, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verdict"] == "pass"


def test_a_fresh_cli_import_loads_every_module_the_tracer_wraps():
    """``perfbench/spans.installed`` reads ``sys.modules`` for each target, so
    ``import foliatk.cli`` alone must load every traced module, and each
    target must resolve: a function on its module, a method on its class."""
    script = (
        "import sys\n"
        "import foliatk.cli\n"
        f"sys.path.insert(0, {str(SCENES.parent / 'perfbench')!r})\n"
        "from spans import TARGETS\n"
        "for module, attr, *_ in TARGETS:\n"
        "    owner = sys.modules.get(module)\n"
        "    assert owner is not None, module + ' is not imported'\n"
        "    if '.' in attr:\n"
        "        cls, meth = attr.split('.')\n"
        "        assert meth in vars(getattr(owner, cls)), module + ':' + attr\n"
        "    else:\n"
        "        assert callable(getattr(owner, attr, None)), module + ':' + attr\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=_module_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("content", [
    None, "not json", b"\xff\xfe",
    # json.loads refuses an integer past the limit on integer-string conversion
    pytest.param('{"chart": {"dimension": ' + "9" * 5000 + "}}", id="5000-digit-integer"),
])
def test_unreadable_scene_path_is_an_error_report(tmp_path, capsys, content):
    path = tmp_path / "scene.json"
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    elif content is not None:
        path.write_bytes(content)
    code = main(["check-srf", "--scene", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["verdict"] == "error"
    assert report["detail"]["error_type"] == "SceneError"
    assert "scene.json" in report["detail"]["message"]


@pytest.fixture
def long_dir(tmp_path):
    """A directory whose path runs past 1,000 characters."""
    path = tmp_path
    while len(str(path)) < 1000:
        path /= "d" * 200
    path.mkdir(parents=True)
    return str(path)


def test_an_os_error_quotes_the_scene_path_once_as_an_excerpt(long_dir):
    report, code = run_command("lift-ideal", long_dir)
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    message = report["detail"]["message"]
    assert message == f"cannot read scene file {excerpt(long_dir)}: {os.strerror(errno.EISDIR)}"
    assert len(message) < 200


def test_an_os_error_quotes_the_json_out_path_once_as_an_excerpt(long_dir, capsys):
    code = main(["lift-ideal", "--scene", str(SCENES / "so3_moment.json"), "--json-out", long_dir])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["detail"]["error_type"] == "IsADirectoryError"
    message = report["detail"]["message"]
    assert message == f"cannot write {excerpt(long_dir)}: {os.strerror(errno.EISDIR)}"
    assert len(message) < 200


def test_a_json_out_path_with_a_nul_byte_is_an_error_report(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_command", lambda *a: ran.append(a))
    path = "a\x00b"
    code = main(["lift-ideal", "--scene", str(SCENES / "so3_moment.json"), "--json-out", path])
    report = json.loads(capsys.readouterr().out)  # one report, no traceback
    assert code == 2 and report["verdict"] == "error" and not ran
    assert report["detail"]["error_type"] == "ValueError"
    assert report["detail"]["message"].startswith(f"cannot write {excerpt(path)}: ")


def _one_report(capsysbinary) -> dict:
    """The one report on stdout, read as strict UTF-8; stderr must be empty."""
    out = capsysbinary.readouterr()
    assert out.err == b""
    return json.loads(out.out.decode("utf-8"))


class _FullWriter(io.BytesIO):
    """A file that takes every write and fails at close, as a full disk does."""

    def close(self):
        if not self.closed:
            super().close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("device", [
    pytest.param(True, id="dev-full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full")),
    pytest.param(False, id="failing-close"),
])
def test_a_json_out_write_that_fails_is_one_error_report(device, tmp_path, monkeypatch,
                                                         capsysbinary):
    path = "/dev/full" if device else str(tmp_path / "report.json")
    if not device:
        monkeypatch.setattr(cli, "open", lambda *a: _FullWriter(), raising=False)
    code = main(["lift-ideal", "--scene", str(SCENES / "rotation_r3.json"), "--json-out", path])
    report = _one_report(capsysbinary)  # the error report alone, no pass report before it
    assert code == 2 and report["verdict"] == "error"
    assert report["detail"]["error_type"] == "OSError"
    assert report["detail"]["message"] == f"cannot write {excerpt(path)}: {os.strerror(errno.ENOSPC)}"


STDOUT_FULL = f"foliatk: cannot write the report to stdout: {os.strerror(errno.ENOSPC)}\n"


class _FullStdout:
    """A stdout on a full device with no file descriptor: the write of the
    report, or the flush after it, fails."""

    def __init__(self, failing):
        self.failing = failing
        self.buffer = self

    def write(self, data):
        self._step("write")

    def flush(self):
        self._step("flush")

    def _step(self, name):
        if name == self.failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        raise io.UnsupportedOperation("fileno")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_stdout_that_cannot_be_written_is_exit_2_and_one_line_on_stderr(failing, monkeypatch,
                                                                          capsys):
    monkeypatch.setattr(sys, "stdout", _FullStdout(failing))
    code = main(["check-srf", "--scene", str(SCENES / "rotation_srf_r2.json")])
    assert code == 2  # not 1: no verdict reached stdout
    assert capsys.readouterr().err == STDOUT_FULL


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_python_dash_m_with_stdout_on_a_full_device_exits_2_without_a_traceback(unbuffered):
    env = _module_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:  # the write fails, else the flush after it
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-m", "foliatk", "check-srf", "--scene", "scenes/rotation_srf_r2.json"],
            cwd=SCENES.parent, env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert (done.returncode, done.stderr) == (2, STDOUT_FULL)


def test_a_lone_surrogate_in_a_note_is_written_as_its_json_escape(tmp_path, capsysbinary):
    data = json.loads((SCENES / "so3_moment.json").read_text(encoding="utf-8"))
    data["notes"] = ["\ud800"]
    scene, out = tmp_path / "scene.json", tmp_path / "report.json"
    scene.write_text(json.dumps(data), encoding="utf-8")
    code = main(["lift-ideal", "--scene", str(scene), "--json-out", str(out)])
    stdout = capsysbinary.readouterr().out
    assert b'"\\ud800"' in stdout and out.read_bytes() == stdout
    report = json.loads(stdout.decode("utf-8"))
    assert code == 0 and report["scene_notes"] == ["\ud800"]


def test_a_lone_surrogate_in_a_key_name_is_echoed_as_its_json_escape(capsysbinary):
    data = json.loads((SCENES / "so3_moment.json").read_text(encoding="utf-8"))
    data["candidates"]["\ud800"] = "p_q1 +"
    code = main(["lift-ideal", "--scene", json.dumps(data)])
    report = _one_report(capsysbinary)
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    assert report["detail"]["message"].startswith("candidates.\ud800: ")


@pytest.mark.parametrize("text", ["[" * 1200 + "]" * 1200, '{"a": ' * 1200 + "0" + "}" * 1200],
                         ids=["arrays", "objects"])
@pytest.mark.parametrize("as_file", [True, False], ids=["path", "json-text"])
def test_a_scene_nested_past_the_recursion_limit_is_a_scene_error(text, as_file, tmp_path,
                                                                  capsysbinary):
    scene = '{"chart": ' + text + "}"
    if as_file:
        path = tmp_path / "scene.json"
        path.write_text(scene, encoding="utf-8")
        scene = str(path)
    code = main(["lift-ideal", "--scene", scene])
    report = _one_report(capsysbinary)
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    assert "recursion" in report["detail"]["message"]


@pytest.mark.parametrize("command", ["normalizer-check", "check-srf"])
def test_a_computed_coefficient_past_the_digit_limit_is_an_error_report(command, tmp_path,
                                                                         capsys):
    """2^10000 has 3,011 digits and parses, but the certificates and brackets
    built from it have coefficients that no report can print."""
    data = json.loads((SCENES / "killing_band_r2.json").read_text(encoding="utf-8"))
    data["foliation"][1][0] = "2^10000"
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main([command, "--scene", str(path), "--candidate", "H"])
    out = capsys.readouterr()
    assert code == 2 and out.err == ""  # one report, no traceback
    report = json.loads(out.out)
    assert report["verdict"] == "error" and report["detail"]["error_type"] == "DigitLimitError"
    assert f"more than {sys.get_int_max_str_digits()} digits" in report["detail"]["message"]


def test_an_error_message_past_the_bound_fails_the_test():
    cli._error_report("lift-ideal", "block", ValueError("x" * MAX_ERROR_MESSAGE))
    with pytest.raises(AssertionError):
        cli._error_report("lift-ideal", "block", ValueError("x" * (MAX_ERROR_MESSAGE + 1)))


def test_unreadable_scene_text_is_quoted_in_a_bounded_excerpt():
    data = json.loads((SCENES / "so3_moment.json").read_text(encoding="utf-8"))
    data["notes"] = ["n" * 6000]
    report, code = run_command("lift-ideal", json.dumps(data)[:-1])  # the last brace dropped
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    message = report["detail"]["message"]
    assert message.startswith("cannot read scene path or JSON text '{")
    assert len(message) < 200


LONG_NAME = "q" + "a" * 4999


def _with_long_name(scene, edit):
    data = json.loads((SCENES / f"{scene}.json").read_text(encoding="utf-8"))
    edit(data)
    return data


@pytest.mark.parametrize("scene, edit, command, candidates", [
    ("so3_moment", lambda d: d["candidates"].update({LONG_NAME: "1/0"}), "lift-ideal", []),
    ("submersion_r3_to_r2", lambda d: d["target_candidates"].update({LONG_NAME: "p_u +"}),
     "lift-ideal", []),
    ("so3_moment", lambda d: d["points"].update({LONG_NAME: ["x", "0", "0"]}), "lift-ideal", []),
    ("so3_moment", lambda d: d["points"].update({LONG_NAME: ["0"]}), "lift-ideal", []),
    ("so3_moment", lambda d: d["chart"].update(coordinates=["q1", "q2", "-" + LONG_NAME]),
     "lift-ideal", []),
    ("so3_moment", lambda d: d["chart"].update(coordinates=["q1", LONG_NAME, LONG_NAME]),
     "lift-ideal", []),
    ("so3_moment", lambda d: None, "normalizer-check", [LONG_NAME]),
], ids=["candidate", "target-candidate", "point-coordinate", "point-dimension",
        "invalid-coordinate", "repeated-coordinate", "undeclared-candidate"])
def test_a_5000_character_key_name_is_quoted_in_a_bounded_message(scene, edit, command,
                                                                   candidates):
    report, code = run_command(command, _with_long_name(scene, edit), ns(candidate=candidates))
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    message = report["detail"]["message"]
    # the name is quoted as an excerpt: its first and last 40 characters
    assert "aaa'...'aaa" in message and len(message) < 200


def test_a_long_missing_scene_path_keeps_its_file_name_in_a_bounded_message(tmp_path):
    report, code = run_command("lift-ideal", str(tmp_path / ("d" * 200) / "scene.json"))
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    message = report["detail"]["message"]
    assert "/scene.json'" in message and len(message) < 200


def test_point_report_refuses_a_non_involutive_module():
    scene = {
        "chart": {"coordinates": ["x", "y"]},
        "cometric": [["1", "0"], ["0", "1"]],
        "foliation": [["0", "x^2"], ["y^2", "0"]],
    }
    report, code = run_command("point-report", scene, ns(point="0,0"))
    assert code == 2 and report["verdict"] == "error"
    assert report["detail"]["error_type"] == "PreconditionError"
    assert "the foliation is not involutive" in report["detail"]["message"]


@pytest.mark.parametrize("scene, path, entry, where", [
    ("rotation_srf_r2", ("sample_points",), ["1", "2", "3"], "scene.sample_points[1]"),
    ("rotation_srf_r2", ("sample_points",), ["1"], "scene.sample_points[1]"),
    ("submersion_r3_to_r2", ("submersion", "target_sample_points"), ["1", "2", "3"],
     "submersion.target_sample_points[1]"),
    ("submersion_r3_to_r2", ("submersion", "target_sample_points"), ["1"],
     "submersion.target_sample_points[1]"),
], ids=["too-long", "too-short", "target-too-long", "target-too-short"])
def test_sample_point_of_the_wrong_dimension_is_a_scene_error(scene, path, entry, where):
    data = json.loads((SCENES / f"{scene}.json").read_text(encoding="utf-8"))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = [["1", "1"], entry]
    report, code = run_command("check-srf", data)
    assert code == 2 and report["verdict"] == "error"
    assert report["detail"]["error_type"] == "SceneError"
    assert report["detail"]["message"].startswith(f"{where} has ")


@pytest.mark.parametrize("key, value", [
    ("target_cometric", [["1", "0"]]),
    ("target_metric", [["1", "0"]]),
    ("target_cometric", [["-1", "0"], ["0", "1"]]),
])
def test_submersion_target_metric_errors_name_the_scene_key(key, value):
    data = json.loads((SCENES / "submersion_r3_to_r2.json").read_text(encoding="utf-8"))
    data["submersion"][key] = value
    data["submersion"]["target_sample_points"] = [["0", "0"]]
    report, code = run_command("check-srf", data)
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    assert report["detail"]["message"].startswith(f"submersion.{key}: ")


@pytest.mark.parametrize("path, value", [
    (("chart", "dimension"), "a"),
    (("points", "origin"), ["1/0", "0", "0"]),
    (("points", "origin"), ["abc", "0", "0"]),
    (("sample_points",), [["1/0", "0", "0"]]),
    (("flow", "q"), ["abc", "0", "0"]),
    (("flow", "dt"), "x"),
    (("foliation",), 5),
    (("chart", "coordinates"), 5),
    (("notes",), 5),
    (("candidates",), ["x"]),
    (("notes",), "abc"),
    (("points", "origin"), "000"),
    (("chart", "coordinates"), "xyz"),
    (("flow", "q"), "100"),
    (("foliation", 0), "000"),
    (("cometric", 0), "100"),
    (("sample_points",), ["000"]),
    (("notes",), ["a note", 1.5]),
    (("notes",), [{"text": "a note"}]),
], ids=["dimension", "point-zero-denominator", "point-not-a-number", "sample-point",
        "flow-q", "flow-dt", "foliation", "coordinates", "notes", "candidates",
        "notes-string", "point-string", "coordinates-string", "flow-q-string",
        "foliation-row-string", "cometric-row-string", "sample-point-string",
        "notes-float", "notes-object"])
def test_malformed_scene_values_are_scene_errors(tmp_path, capsys, path, value):
    data = json.loads((SCENES / "so3_moment.json").read_text(encoding="utf-8"))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(data), encoding="utf-8")
    code = main(["lift-ideal", "--scene", str(scene)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["verdict"] == "error"
    assert report["detail"]["error_type"] == "SceneError"


@pytest.mark.parametrize("scene, command, path, value, where", [
    ("so3_moment", "lift-ideal", ("points", "origin"), ["1e9999999", "0", "0"],
     "points.origin[0]: "),
    ("so3_moment", "lift-ideal", ("sample_points",), [["0", "1e-5000", "0"]],
     "scene.sample_points[0][1]: "),
    ("so3_moment", "flow-monitor", ("flow", "q"), ["1e400", 0, 0], "flow.q[0] "),
    ("so3_moment", "flow-monitor", ("flow", "p"), [0, 0, -1e308 * 10], "flow.p[2]: "),
    ("so3_moment", "lift-ideal", ("chart", "dimension"), 3.7, "chart.dimension "),
    ("so3_moment", "lift-ideal", ("chart", "dimension"), "3", "chart.dimension "),
    ("submersion_r3_to_r2", "check-riemannian", ("submersion", "base_indices"), [0.9, 1.7],
     "submersion.base_indices[0] "),
    ("submersion_r3_to_r2", "check-riemannian", ("submersion", "base_indices"), [True, "0"],
     "submersion.base_indices[0] "),
    ("submersion_r3_to_r2", "check-riemannian", ("submersion", "base_indices"), [0, "1"],
     "submersion.base_indices[1] "),
    ("so3_moment", "flow-monitor", ("flow", "t_end"), True, "flow.t_end: "),
    ("so3_moment", "flow-monitor", ("flow", "dt"), True, "flow.dt: "),
    ("so3_moment", "flow-monitor", ("flow", "dt"), "1e-3x", "flow.dt: "),
    ("so3_moment", "flow-monitor", ("flow", "t_end"), float("inf"), "flow.t_end: "),
    ("so3_moment", "flow-monitor", ("flow", "dt"), "1e400", "flow.dt "),
    ("so3_moment", "flow-monitor", ("flow", "t_end"), 10 ** 5000, "flow.t_end: "),
    ("so3_moment", "lift-ideal", ("points", "origin"), [0, 10 ** 5000, 0], "points.origin[1]: "),
    ("so3_moment", "lift-ideal", ("cometric", 0), ["1", "1", "0"],
     "scene.cometric: matrix not symmetric at (0,1)"),
], ids=["point-exponent", "sample-point-exponent", "flow-q-past-float-range", "flow-p-infinite",
        "dimension-float", "dimension-string", "base-indices-float", "base-indices-bool",
        "base-indices-string", "flow-t-end-bool", "flow-dt-bool", "flow-dt-unreadable",
        "flow-t-end-infinite", "flow-dt-past-float-range", "flow-t-end-5000-digits",
        "point-5000-digits", "cometric-not-symmetric"])
def test_out_of_contract_scene_numbers_are_refused_by_key(scene, command, path, value, where):
    data = json.loads((SCENES / f"{scene}.json").read_text(encoding="utf-8"))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    start = time.perf_counter()
    report, code = run_command(command, data)
    # building Fraction("1e9999999") alone takes seconds
    assert time.perf_counter() - start < 1.0
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    assert report["detail"]["message"].startswith(where)


@pytest.mark.parametrize("point", ["1e5000,0", "0,1e-9999999", "abc,0"])
def test_point_flag_coordinates_are_refused_by_the_flag(capsys, point):
    code = main(["point-report", "--scene", str(SCENES / "rotation_srf_r2.json"),
                 "--point", point])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["detail"]["error_type"] == "SceneError"
    assert report["detail"]["message"].startswith("--point: ")


def test_obstruction_searches_are_looked_up_when_a_check_runs(monkeypatch):
    # the bench's spans replace these module globals by name; a check that
    # bound them earlier would bypass the replacement and go unmeasured
    calls = []
    for module, name in ((ipoisson, "find_obstruction_point"),
                         (foliation, "find_module_obstruction")):
        def counting(*args, _name=name, _search=getattr(module, name)):
            calls.append(_name)
            return _search(*args)
        monkeypatch.setattr(module, name, counting)

    report, code = run_command("closure-check", SCENES / "nonclosed_ideal_r2.json")
    assert code == 1 and calls == ["find_obstruction_point"]
    report, code = run_command("morita-span", SCENES / "morita_mismatch_r3.json")
    assert code == 1 and "find_module_obstruction" in calls


# every valid (scene, command, flags) call over the shipped scenes
SCENE_CALLS = json.loads((SCENES.parent / "perfbench" / "expected_scenes.json")
                         .read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_a_namespace_without_flags_takes_the_flag_defaults(command):
    scene = SCENES / f"{next(c['scene'] for c in SCENE_CALLS if c['command'] == command)}.json"
    want_report, want_code = run_command(command, scene)
    report, code = run_command(command, scene, argparse.Namespace())
    assert code == want_code and render_report(report) == render_report(want_report)


def test_a_namespace_missing_some_flags_is_not_a_fault():
    args = argparse.Namespace(point=None)
    assert run_command("lift-ideal", SCENES / "so3_moment.json", args)[1] == 0
    assert vars(args) == {"point": None}
    args = argparse.Namespace(order="block", candidate=[])
    assert run_command("flow-monitor", SCENES / "so3_moment.json", args)[1] == 0


# scenes with a generator list of two or more entries; order_2_n3 and
# order_3_n3, the slow tail, are left out to keep the budget
SHUFFLED_SCENES = ("killing_band_r2", "nonclosed_ideal_r2", "order_1_n2", "order_1_n3",
                   "order_2_n2", "order_3_n2", "so3_moment")
GENERATOR_LISTS = ("foliation", "foliation_b", "target_foliation", "target_foliation_b", "ideal")
SHUFFLE_BUDGET_S = 0.5


def _outcome(command, scene_text, call):
    args = argparse.Namespace(point=call["point"], candidate=list(call["candidates"]))
    report, code = run_command(command, scene_text, args)
    detail = report["detail"]
    return (code, report["verdict"], detail.get("passed"),
            [detail.get(k) for k in ("tangent_dim", "fiber_dim", "isotropy_dim")])


def test_verdicts_and_point_dimensions_do_not_depend_on_generator_order():
    rng = random.Random(7)
    shuffled = {}
    for name in SHUFFLED_SCENES:
        data = json.loads((SCENES / f"{name}.json").read_text(encoding="utf-8"))
        lists = [data[key] for key in GENERATOR_LISTS if data.get(key)]
        before = json.dumps(lists)
        while json.dumps(lists) == before:  # until some list is out of its order
            for gens in lists:
                rng.shuffle(gens)
        shuffled[name] = json.dumps(data)
    calls = [c for c in SCENE_CALLS if c["scene"] in shuffled]
    start = time.monotonic()
    for call in calls:
        original = (SCENES / f"{call['scene']}.json").read_text(encoding="utf-8")
        assert (_outcome(call["command"], shuffled[call["scene"]], call)
                == _outcome(call["command"], original, call)), call
    elapsed = time.monotonic() - start
    assert len(calls) > 50 and elapsed < SHUFFLE_BUDGET_S, (len(calls), elapsed)
