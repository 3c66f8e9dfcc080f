"""Smoke test of the benchmark: every workload at its smoke size, outputs checked."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gs2011-transitive", "ml2008-intransitive", "mixed-arity")
TRACED = "mixed-arity"  # composes adjectives and pads meanings even at smoke size


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def start(workload, trace, cwd=ROOT):
    return subprocess.Popen(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
    )


@pytest.fixture(scope="module")
def smoke_runs():
    """All smoke runs at once, so that the test costs the time of the longest."""
    runs = {(w, 0): start(w, 0) for w in WORKLOADS}
    runs[TRACED, 1] = start(TRACED, 1)
    yield runs
    for process in runs.values():
        if process.poll() is None:
            process.kill()
        process.communicate()


def result_of(process):
    out, err = process.communicate(timeout=170)
    assert process.returncode == 0, err
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], err
    assert result["attempted"] > 0 and result["failed"] == 0
    return result


def test_workloads_match_the_spec():
    assert [w["name"] for w in benchmark_spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(smoke_runs, workload):
    metrics = result_of(smoke_runs[workload, 0])["metrics"]
    spec = benchmark_spec()["end_to_end"]
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_smoke_per_layer(smoke_runs):
    metrics = result_of(smoke_runs[TRACED, 1])["metrics"]
    spec = benchmark_spec()["per_layer"]
    assert list(metrics) == [m["name"] for m in spec]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec)
    assert metrics["composition.padded_entries"]["value"] > 0
    assert metrics["composition.compose_adjective_s"]["value"] > 0
    assert metrics["pregroup.reductions_per_sentence"]["value"] > 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    process = start("mixed-arity", 0, cwd=str(tmp_path))
    out, _ = process.communicate(timeout=60)
    assert process.returncode != 0
    assert '"metrics"' not in out
