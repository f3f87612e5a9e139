"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q bench/smoke.py

The file name keeps it out of the default test collection: it spawns a few
hundred CLI processes and takes a few minutes.  It runs one short pass of
every workload, traced and untraced, and checks that every metric that
BENCHMARK.json names is printed with its unit; that a deliberately wrong
output counts as a failed request; and that the benchmark refuses to run
without the braidinv sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def bench(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--workload",
                           workload, "--seed", "0", "--seconds", "1",
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(workload, trace):
    result = bench(workload, trace)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    payload = json.loads(lines[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True and payload["failed"] == 0
    assert payload["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in payload["metrics"].items()}
    for m in payload["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        # layer self times, cli included, cover the traced in-process time
        line = next(x for x in lines if x.startswith("traced in-process time"))
        words = line.split()
        in_process, covered = float(words[3]), float(words[-2])
        assert in_process > 0
        assert abs(in_process - covered) <= 2e-6


def _corrupt(out):
    """Change one exact rational: the first p/q becomes p1/q."""
    i = out.index("/")
    return out[:i] + "1" + out[i:]


@pytest.mark.parametrize("workload,kind", [
    ("lift-ladder", "lift"), ("basis-ladder", "basis"),
    ("trace-wide", "trace"), ("readme-session", "qexpand")])
def test_wrong_output_counts_as_failure(workload, kind, tmp_path):
    requests = workloads.build(workload, 0, str(tmp_path))
    request = next(r for r in requests if r.args[0] == kind
                   and "--with-factorials" not in r.args)
    child = run.Child(str(tmp_path))
    _, code, _, out, err = child.run(["-m", "braidinv"] + request.args)
    assert run.judge(request, code, out, err, {}) is None
    reason = run.judge(request, code, _corrupt(out), err, {})
    assert reason is not None and reason.startswith("check failed")
    assert run.judge(request, 1, out, err, {}) is not None
    assert run.judge(request, 0, out, "Traceback (most recent call last)",
                     {}) is not None


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
    assert result.returncode != 0
    assert result.stdout == ""


def test_self_times_subtract_children():
    spans = [("cli.main", 0.0, 10.0, -1), ("kontsevich.Z", 1.0, 4.0, 0),
             ("power_series.mul", 2.0, 3.0, 1), ("render.render_text", 5.0,
                                                 6.0, 0)]
    assert layers.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail(list(range(1, 41))) == (75, 30)
    assert run.tail(list(range(1, 101))) == (90, 90)
    assert run.tail(list(range(1, 21)))[0] == 50
