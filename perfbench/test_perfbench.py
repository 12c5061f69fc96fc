"""Self-test of the benchmark: short mode of every workload.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import layers
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == layers.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    result = result_line(
        bench("--workload", workload, "--seed", "5", "--seconds", "1",
              "--trace", trace, "--short")
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace == "0":
        expected = run.END_TO_END
    else:
        expected = [(name, unit) for name, unit, _ in layers.PER_LAYER]
    assert [
        (name, value["unit"]) for name, value in result["metrics"].items()
    ] == expected
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
        if trace == "0":
            assert value["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_a_flipped_lut_bit_raises_fail_frac(workload):
    result = result_line(
        bench("--workload", workload, "--seed", "5", "--seconds", "1",
              "--short", "--corrupt")
    )
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    proc = bench("--workload", "mcnc-fleet", "--seed", "1", "--seconds", "1",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
