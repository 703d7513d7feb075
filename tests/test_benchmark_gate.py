"""The benchmark's checks that pass today, run with the test suite: the
self-tests of the tracer and the harness, and one short run of every workload
against its recorded output digests, untraced and traced, so a source change
that breaks a tracer probe or rebinding fails here. The self-test's pinned
per-op counts stay out: they are stale until the benchmark is re-pinned."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes_but_for_the_pinned_counts():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "perfbench/selftest.py",
         "-k", "not traced_op_counts"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 4 passed" in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_runs_and_matches_its_references(tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "_work", "__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "0.1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
