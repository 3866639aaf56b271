"""Tiny-size smoke test of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric named in ``BENCHMARK.json`` prints with its
unit on every workload (both modes), that the workload-specific figures
print by name, that the guards repeat for a seed, that tampered outputs
fail the correctness checks, and that
the command fails without printing a result when the program's sources
are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Workload-specific end-to-end figures the report prints by name.
FIGURES = {
    "guidance_dag": {"sim_tasks_per_s": "1/s", "sim_makespan_s": "s"},
    "sensor_stream": {"stream_elements_per_s": "1/s", "sim_window_latency_max_s": "s"},
    "fleet_churn": {"churn_useful_events_per_s": "1/s"},
    "task_pipeline": {
        "rt_tasks_per_s": "1/s",
        "rt_request_p50_ms": "ms",
        "rt_request_p99_ms": "ms",
    },
}


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_per_layer_spec_matches_benchmark_json():
    spec = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert spec == [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run([
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = BENCHMARK["end_to_end" if trace == 0 else "per_layer"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    report = "\n".join(lines[:-1])
    for name, metric in result["metrics"].items():
        assert name in report and metric["unit"] in report
        if trace == 0:
            assert metric["value"] > 0, name
    for name, unit in FIGURES[workload].items():
        assert any(line.startswith(name) and line.endswith(" " + unit) for line in lines), name
    if trace == 1:
        assert "reconciliation:" in report and "tracing overhead:" in report


def _sample(workload_name):
    workload = workloads.WORKLOADS[workload_name]
    inputs = workload.inputs(7, "tiny")
    sample = workload.iterate(inputs)
    assert workload.check(inputs, sample) == []
    return workload, inputs, sample


def test_wrong_reduced_value_fails_the_check():
    workload, requests, sample = _sample("task_pipeline")
    sample.result = list(sample.result)
    sample.result[3] += 1
    assert any("request 3" in p for p in workload.check(requests, sample))


def test_unfinished_guidance_tasks_fail_the_check():
    workload, inputs, sample = _sample("guidance_dag")
    sample.result = dict(sample.result, done=sample.result["done"] - 1)
    assert workload.check(inputs, sample)


def test_unconserved_stream_elements_fail_the_check():
    workload, cfg, sample = _sample("sensor_stream")
    zone = next(iter(sample.result["per_zone"]))
    sample.result["per_zone"][zone]["emitted"] -= 1
    assert any("produced" in p for p in workload.check(cfg, sample))


def test_miscounted_stream_ingestion_fails_the_check():
    workload, cfg, sample = _sample("sensor_stream")
    zone = next(iter(sample.result["per_zone"]))
    sample.result["per_zone"][zone]["stream_events"] += 1
    assert any("ingested" in p for p in workload.check(cfg, sample))


def test_churn_membership_mismatch_fails_the_check():
    workload, cfg, sample = _sample("fleet_churn")
    sample.result["alive_agents"] += 1
    assert workload.check(cfg, sample)


@pytest.mark.parametrize("workload_name", ["sensor_stream", "fleet_churn"])
def test_tampered_digest_fails_the_determinism_check(workload_name):
    """A traced iteration whose zone digest differs from the untraced
    iteration's on the same inputs fails; an equal one passes."""
    workload, inputs, sample = _sample(workload_name)
    (zone, crc), *rest = sample.outcome
    problems = []
    run._iterate(workload, inputs, None, sample.outcome, problems)
    assert problems == []
    run._iterate(workload, inputs, None, ((zone, crc ^ 1), *rest), problems)
    assert any("outcome differs" in p for p in problems)


@pytest.mark.parametrize(
    "workload_name, guard",
    [("guidance_dag", "sim_makespan_s"), ("sensor_stream", "sim_window_latency_max_s")],
)
def test_guards_repeat_for_a_seed(workload_name, guard):
    """Iteration 0's simulated outcome depends on --seed alone."""
    printed = []
    for seconds in ("0.5", "1"):
        proc = _run([
            "--workload", workload_name, "--seed", "11", "--seconds", seconds,
            "--trace", "0", "--scale", "tiny",
        ])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        printed.append([line for line in proc.stdout.splitlines() if line.startswith(guard)])
    assert len(printed[0]) == 1 and printed[0] == printed[1]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        ["--workload", "guidance_dag", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
