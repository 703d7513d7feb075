"""Record the reference output digests that every benchmark op is checked
against: one op per workload and input seed, every output file hashed.

    python3 perfbench/record_references.py [--workload NAME ...]

Rewrite references.json only at a commit whose outputs are known good, and
say why in the change that does so: the north star keeps forecasts
byte-identical unless a change justifies otherwise. Workloads not named keep
their recorded digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy loads
from workloads import INPUT_SEEDS, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, run.SRC)
    import numpy as np

    refs = {"digests": {}}
    if os.path.exists(run.REFERENCES):
        with open(run.REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    work_dir = os.path.join(run.WORK, f"record-{os.getpid()}")
    ec = run.import_econocast()
    try:
        for name in args.workload or list(WORKLOADS):
            workload = WORKLOADS[name]
            digests = {}
            for seed in range(1, INPUT_SEEDS + 1):
                inputs_dir = os.path.join(work_dir, "inputs")
                out_dir = os.path.join(work_dir, "out")
                os.makedirs(inputs_dir, exist_ok=True)
                state = workload.setup(ec, seed, inputs_dir)
                result = workload.run(ec, state, out_dir)
                digests[str(seed)] = workload.digests(ec, out_dir, result)
                shutil.rmtree(out_dir, ignore_errors=True)
                print(f"{name} seed {seed}: {len(digests[str(seed)])} digests", flush=True)
            refs["digests"][name] = digests
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env = run.environment(np)
    refs["recorded_with"] = {k: env[k] for k in ("git_sha", "src_sha256", "python", "numpy", "blas")}
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
