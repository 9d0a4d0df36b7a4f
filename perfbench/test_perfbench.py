"""Tests of the benchmark itself, in a seconds-long mode.

Run from the repository root::

    python -m pytest perfbench/test_perfbench.py -q

They drive every workload through the command line (untraced and
traced) for about a second each, check the output contract against
``BENCHMARK.json``, check that a corrupted reply is counted as failed
and that input generation is a pure function of the seed.
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from repro.runtime.workers import WorkerReplica  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def invoke(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_lists_every_workload_with_its_why():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: workload.why for name, workload in wl.WORKLOADS.items()}
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = invoke(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_corrupted_reply_counts_as_failed(monkeypatch):
    workload = wl.WORKLOADS["serve_small"]
    inputs = workload.generate(3)
    state = workload.setup(inputs)
    try:
        expected = workload.reference(state, inputs)
        honest = WorkerReplica.predict
        calls = {"n": 0}

        def corrupt_every_tenth(self, x, rate):
            calls["n"] += 1
            reply = honest(self, x, rate)
            if calls["n"] % 10 == 0:
                reply = (reply + 1) % wl.SMALL_SHAPE[2]
            if calls["n"] % 25 == 0:
                raise RuntimeError("worker fell over")
            return reply

        monkeypatch.setattr(WorkerReplica, "predict", corrupt_every_tenth)
        outcome = workload.drive(state, inputs, expected, 0.5)
    finally:
        workload.teardown(state)
    assert outcome.attempted > 50
    assert 0 < outcome.failed < outcome.attempted
    assert outcome.accuracy == pytest.approx(
        1 - outcome.failed / outcome.attempted)
    assert not run.is_correct("serve_small", [outcome])


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_generation_is_a_pure_function_of_the_seed(workload):
    generate = wl.WORKLOADS[workload].generate
    first, again, other = generate(11), generate(11), generate(12)
    assert pickle.dumps(first) == pickle.dumps(again)
    assert pickle.dumps(first) != pickle.dumps(other)


def test_cascade_reference_matches_incremental_execution():
    workload = wl.WORKLOADS["cascade"]
    inputs = workload.generate(5)
    state = workload.setup(inputs)
    try:
        expected = workload.reference(state, inputs)
        for x, want in zip(inputs["xs"][:4], expected):
            got = state["executor"].run_batch(x).predictions
            np.testing.assert_array_equal(got, want)
    finally:
        workload.teardown(state)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(5000) == 99
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(40) == 50


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = invoke(NAMES[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
