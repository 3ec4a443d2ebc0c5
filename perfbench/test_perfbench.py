"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_lists_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_prints_every_metric_with_its_unit(name, trace):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(result["metrics"]) == [m for m, _ in expected]
    for metric, unit in expected:
        assert result["metrics"][metric]["unit"] == unit
        assert math.isfinite(result["metrics"][metric]["value"])
        pattern = r"^%s\s+\S+\s+%s\b" % (re.escape(metric), re.escape(unit))
        assert any(re.match(pattern, line) for line in lines), metric
    assert any(line.startswith("environment {") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "analysis",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7, str(tmp_path))
        b = workloads.generate(name, 7, str(tmp_path))
        c = workloads.generate(name, 8, str(tmp_path))
        assert a.requests == b.requests and a.files == b.files
        assert a.requests != c.requests


def _values(reference_key, values):
    return {reference_key: list(values)}


def test_checker_flags_a_perturbed_reference_value():
    ref = _values("efficiency", [0.123456789012, 0.2])
    assert checks.compare_reference(_values("efficiency", [0.123456789012, 0.2]), ref) == []
    # within the refactor tolerance
    assert checks.compare_reference(
        _values("efficiency", [0.123456789012 * (1 + 1e-12), 0.2]), ref) == []
    assert checks.compare_reference(
        _values("efficiency", [0.123456789012 * (1 + 1e-7), 0.2]), ref)
    fit_ref = {"params": [2.0, 5.0], "sigmas": [0.1, 0.2]}
    assert checks.compare_reference(
        {"params": [2.0 + 1e-4, 5.0], "sigmas": [0.1, 0.2]}, fit_ref) == []
    assert checks.compare_reference(
        {"params": [2.0 + 0.01, 5.0], "sigmas": [0.1, 0.2]}, fit_ref)


def _fig3c_request(tmp_path, efficiencies):
    out = str(tmp_path / "fig3c.csv")
    with open(out, "w") as fh:
        fh.write("# scenario: fig3c\nstorage_time_ns,efficiency\n")
        for i, e in enumerate(efficiencies):
            fh.write("%g,%s\n" % (20 * (i + 1), e))
    stdout = "wrote %s (%d rows, config 0, seed 0)\n" % (out, len(efficiencies))
    return workloads.Request("sim", "fig3c", ["sim", "fig3c"], out=out), stdout


def test_checker_flags_a_nan_cell(tmp_path):
    req, stdout = _fig3c_request(tmp_path, ["0.2", "0.1"])
    assert checks.check_sim(req, stdout)[0] == []
    req, stdout = _fig3c_request(tmp_path, ["0.2", "nan"])
    assert checks.check_sim(req, stdout)[0]


def test_run_counts_non_zero_exits_and_exceptions_as_failures(tmp_path):
    req, _ = _fig3c_request(tmp_path, ["0.2"])
    workload = workloads.Workload("kernels", 0, [req], [], {})

    def exits_three(argv):
        return 3

    def raises(argv):
        raise RuntimeError("boom")

    for entry in (exits_three, raises):
        run = harness.Run(workload, entry, None)
        run.run_pass(0)
        assert (run.attempted, run.failed, run.samples) == (1, 1, [[]])


def test_run_scales_latencies_to_nominal_speed(tmp_path):
    req, stdout = _fig3c_request(tmp_path, ["0.2"])
    workload = workloads.Workload("kernels", 0, [req], [], {})

    class HalfSpeed:
        units_for = staticmethod(calibrate.Calibrator.units_for)

        def burst(self, units):
            return 2.0 * calibrate.NOMINAL_UNIT_S

    def entry(argv):
        print(stdout, end="")
        return 0

    run = harness.Run(workload, entry, None, HalfSpeed())
    run.run_pass(0)
    assert run.failed == 0
    assert run.scaled[0][0] == pytest.approx(run.samples[0][0] / 2.0)
    assert run.unit_s == [2.0 * calibrate.NOMINAL_UNIT_S]
