"""tools/bench_pair.py: a run stopped by SIGTERM cleans up after itself."""

import signal
import subprocess
import sys
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# Enters a bench_pair_ temporary directory, as bench_pair.main does for its
# export of the parent, starts a long child as bench_pair.run does, and has
# SIGTERM sent to itself while it waits for that child.
STOPPED_RUN = """
import os, signal, subprocess, sys, tempfile, threading
sys.path.insert(0, sys.argv[1])
import bench_pair
bench_pair.exit_on_sigterm()
with tempfile.TemporaryDirectory(prefix="bench_pair_", dir=sys.argv[2]) as tree:
    print(tree, flush=True)
    threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGTERM)).start()
    subprocess.run([sys.executable, "-c", "import time; time.sleep(60)"], check=True)
"""


def test_sigterm_removes_the_export_and_stops_the_running_benchmark(tmp_path):
    began = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", STOPPED_RUN, str(TOOLS), str(tmp_path)],
        capture_output=True, text=True, timeout=50,
    )
    # the 60 s child was killed, not waited for
    assert time.monotonic() - began < 30
    assert proc.returncode == 128 + signal.SIGTERM, proc.stderr
    tree = Path(proc.stdout.strip())
    assert tree.parent == tmp_path and tree.name.startswith("bench_pair_")
    assert not tree.exists() and list(tmp_path.iterdir()) == []


def test_the_parent_pair_holds_both_runs_and_their_relative_difference():
    sys.path.insert(0, str(TOOLS))
    try:
        import bench_pair
    finally:
        sys.path.remove(str(TOOLS))

    def record(op_p50_s, failed):
        return {"scan": {"failed": failed, "metrics": {"op_p50_s": {"value": op_p50_s}}}}

    metrics = [{"name": "op_p50_s", "better": "lower"}]
    table = bench_pair.same_code_pair(record(0.2, 0), record(0.21, 1), ["scan"], metrics)
    row = table["scan"]["op_p50_s"]
    assert table["scan"]["failed"] == [0, 1]
    assert row["values"] == [0.2, 0.21]
    assert abs(row["relative_difference"] - 0.05) < 1e-12
