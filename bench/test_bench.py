"""Checks on the benchmark itself.

    python3 -m pytest bench/test_bench.py

They start traced children, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(CHECKOUT, "src"))
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402
import workloads  # noqa: E402
from looptest import casegen, dsl, testgen  # noqa: E402


def test_inputs_are_the_case_studies():
    for study in (casegen.elevator(3), casegen.pnp(3)):
        assert workloads.read_input(study.name + ".clm") == study.model_text
        assert workloads.read_input(study.name + ".ltl") == study.reqs_text


def test_replay_suite_depends_only_on_the_seed():
    model_text = workloads.read_input("pnp3.clm")
    first = workloads.replay_suite_text(model_text, 7)
    assert first == workloads.replay_suite_text(model_text, 7)
    assert first != workloads.replay_suite_text(model_text, 8)
    suite = dsl.parse_suite(first, dsl.parse_model(model_text))
    assert [c.length for c in suite.cases] == \
        list(workloads.REPLAY_LENGTHS)


def _traced(workload: str, hash_seed: str, tmp_path) -> dict:
    work_dir = tmp_path / f"{workload}-{hash_seed}"
    work_dir.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--work-dir", str(work_dir), "--traced"],
        stdout=subprocess.PIPE, text=True, env=env, check=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_across_runs(workload, tmp_path):
    runs = [_traced(workload, seed, tmp_path) for seed in ("1", "2")]
    counts = [{k: run["layers"][0][k] for k in spans.COUNTS} for run in runs]
    for run in runs:
        assert run["errors"] == [] and run["failed"] == 0
        assert run["info"]["absent"] == []
        assert set(run["layers"][0]) == set(spans.METRICS)
    assert counts[0] == counts[1]
    assert runs[0]["info"]["states_per_depth"] == \
        runs[1]["info"]["states_per_depth"]
    if workload == "elevator3-saturate":
        assert counts[0]["testgen.states"] == 1249
        assert counts[0]["testgen.depth"] == 15
        assert counts[0]["testgen.unreachable"] == 3
    if workload == "pnp3-lazy":
        assert counts[0]["testgen.states"] == 408
        assert counts[0]["testgen.depth"] == 2
        assert counts[0]["testgen.unreachable"] == 0
    if workload == "pnp3-replay":
        assert counts[0]["sim.lassos"] == len(workloads.REPLAY_LENGTHS)


def test_elevator4_saturates_at_the_roadmap_baseline():
    """elevator n=4 at bound 18 (too slow to be a workload on a noisy
    2-core host) reaches the 7,089 states of the ROADMAP baseline."""
    study = casegen.elevator(4)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run(testgen.generate_suite, study.model, study.reqs,
                   testgen.GeneratorConfig(max_len=18))
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    per_depth, depth = spans.explorer_counts(tracer.explorer)
    assert (metrics["testgen.states"], depth) == (7089, 18)
    assert sum(per_depth.values()) == 7089 and len(per_depth) == 19
    assert metrics["testgen.unreachable"] == 4


def test_any_seed_is_gated_by_pins_and_oracle(monkeypatch):
    """A seed past the pinned range replays a pinned suite, and a wrong
    but repeatable evaluator fails both the pins and the oracle."""
    from looptest import runner

    workload = workloads.WORKLOADS["pnp3-replay"]
    seed = 16 * workloads.REPLAY_SUITES + 7
    inputs = workloads.make_inputs(workload, seed)
    want = workloads.expected(workload, seed, workloads.load_pins())
    assert inputs.suite_text == \
        workloads.make_inputs(workload, 7).suite_text
    result = workloads.run_operation(workload, inputs)
    assert workloads.check_result(result, want, inputs.suite_text) == []

    real = runner.eval_on_lasso
    monkeypatch.setattr(runner, "eval_on_lasso",
                        lambda *args: not real(*args))
    result = workloads.run_operation(workload, inputs)
    assert workloads.check_result(result, want, inputs.suite_text)
    problems, _ = workloads.oracle_check(result,
                                         workloads.load_oracles(CHECKOUT))
    assert any("oracle disagrees" in p for p in problems)


def test_missing_target_leaves_its_metrics_out(monkeypatch):
    monkeypatch.delattr(testgen, "BoundedExplorer")
    tracer = spans.Tracer()
    tracer.install()
    try:
        workload = workloads.WORKLOADS["pnp3-replay"]
        tracer.run(workloads.run_operation, workload,
                   workloads.make_inputs(workload, 0))
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert tracer.absent == ["testgen.BoundedExplorer.find"]
    assert "testgen.explore_s" not in metrics
    assert "testgen.states" not in metrics
    assert metrics["sim.lassos"] == len(workloads.REPLAY_LENGTHS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pnp3-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
