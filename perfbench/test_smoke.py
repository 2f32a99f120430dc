"""Smoke test of the benchmark itself, at toy scale.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Every workload must emit every metric ``BENCHMARK.json`` names, with
its unit, in both modes; a corrupted output must count as failed; and
without the repository sources the benchmark must refuse to run.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def bench(*arguments, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", str(trace), "--scale", "toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)


def test_corrupted_run_output_counts_as_failed():
    import workloads
    from metrics import Tally
    from repro import api

    workload = workloads.ColdRun(workloads.SCALES["toy"], seed=5)
    result = api.run(workload.scenarios[0])
    tally = Tally()
    tally.record(workload.check(0, result))
    result.protocol_result.allocation[0] += 1
    tally.record(workload.check(0, result))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "allocation sums to" in tally.reasons[0]


def test_corrupted_bound_answer_counts_as_failed():
    import serve_load

    traffic = serve_load.Traffic(serve_load.workloads.SCALES["toy"], seed=5)
    good = {"epsilon": traffic.expected_epsilon}
    assert traffic.check_bound(200, good) == []
    assert traffic.check_bound(200, {"epsilon": traffic.expected_epsilon * 2})
    assert traffic.check_bound(500, good)


def test_a_missing_wrap_target_drops_its_metrics():
    import spans
    from metrics import layer_metrics

    tracer = spans.Tracer()
    targets = tuple(
        (name, module, "no_such_attribute" if name == "graphs.eigsh" else path,
         work)
        for name, module, path, work in spans.TARGETS
    ) + (("gone.module", "repro.no_such_module", "anything", None),)
    tracer.install(targets)
    tracer.uninstall()
    assert tracer.missing == ["graphs.eigsh", "gone.module"]
    metrics = layer_metrics([], tracer.missing, {})
    assert "graphs.eigsh_s" not in metrics
    assert "graphs.eigsh_calls" not in metrics
    assert "graphs.build_s" in metrics


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOAD_NAMES[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
