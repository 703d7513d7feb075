"""kernel_checks.py under each OpenBLAS kernel this host can emulate, one
subprocess per kernel chosen through OPENBLAS_CORETYPE. The pinned output
digests hold only under the kernel they were recorded with (see README,
"Notes and limitations"); that the compiled step gives the bits of the same
step in numpy must hold under every kernel. A kernel whose process cannot
start, or that OpenBLAS does not take on this host, is skipped."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHECKS = Path(__file__).with_name("kernel_checks.py")


@pytest.mark.parametrize("kernel", ["SkylakeX", "Haswell", "Sandybridge"])
def test_the_compiled_step_keeps_numpys_bits_under_each_openblas_kernel(kernel):
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(ROOT / "src")}
    probe = subprocess.run(
        [sys.executable, "-c", "import kernel_checks; print(kernel_checks.core_name())"],
        cwd=CHECKS.parent, env=env, capture_output=True, text=True, timeout=120,
    )
    if probe.returncode != 0:
        pytest.skip(f"no process starts under OPENBLAS_CORETYPE={kernel}: {probe.stderr[-300:]}")
    core = probe.stdout.strip()
    if core != "unknown" and core.lower() != kernel.lower():
        pytest.skip(f"OpenBLAS runs {core!r} here when asked for {kernel}")
    proc = subprocess.run(
        [sys.executable, str(CHECKS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == core
