"""Self-test of the refine benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import checks
from inputs import ROOT, WORKLOADS, import_program


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark as the command in BENCHMARK.json does, from the root of ``cwd``."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, timeout=170, cwd=cwd
    )


def declared(kind: str) -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_emits_every_metric(workload):
    digests = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        # refine and eval per sequence, plus the traced replay: not a count of timing repeats
        assert result["attempted"] == (2 + trace) * WORKLOADS[workload].sequences
        assert set(result["metrics"]) == declared(kind)
        digests[trace] = re.findall(r"output sha256 (\w+)", proc.stdout)
    assert digests[0] and digests[0] == digests[1], "traced replay output differs from the untraced run"


@pytest.fixture(scope="module")
def refined_tiny():
    ts = import_program()
    w = WORKLOADS["long"]
    gt, meta = ts.generate(ts.ScenarioConfig(num_objects=w.tiny_objects, num_frames=w.tiny_frames, seed=5))
    tracker, _ = ts.corrupt(gt, ts.CorruptionConfig(**w.corruption, seed=5))
    refined, summary = ts.refine_detections(tracker, meta)
    assert summary.detections_interpolated > 0
    return ts, tracker, refined


def test_multiset_check_accepts_refine_output(refined_tiny):
    _, tracker, refined = refined_tiny
    assert checks.multiset_violations(tracker, refined) == []


def test_multiset_check_trips_on_deleted_detection(refined_tiny):
    _, tracker, refined = refined_tiny
    problems = checks.multiset_violations(tracker, refined[:7] + refined[8:])
    assert [p.split(":")[0] for p in problems] == ["multiset.missing"]


def test_multiset_check_trips_on_foreign_detection(refined_tiny):
    ts, tracker, refined = refined_tiny
    last = max(refined, key=lambda d: d.frame)
    stray = ts.Detection(last.frame + 5, last.track_id, last.x, last.y, last.w, last.h, 1.0)
    problems = checks.multiset_violations(tracker, refined + [stray])
    assert [p.split(":")[0] for p in problems] == ["multiset.extra"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "long", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
