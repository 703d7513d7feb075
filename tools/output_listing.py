"""sha256 listing of every file a fixed set of econocast commands writes.

    python3 tools/output_listing.py [CHECKOUT]

Runs the econocast package under CHECKOUT/src (by default the checkout this
script sits in) in a new temporary directory, one BLAS thread:

- `generate` with its defaults, into `generate/`;
- on two configs, `scan`, `train` and `ensemble`, each into its own
  directory, then `report --locale-comma` over a copy of the ensemble's
  `model/`. The configs are `readme`, the complete config in this
  checkout's README.md (synthetic seed 1, 156 months, the `search` grid and
  20 restarts), and `criterion6`, the 276-month shape of acceptance
  criterion 6 (seed 1, test range 2000-01..2013-12, every input scanned).

Prints one `sha256  path` line per file written and per command's stdout
and stderr (`<directory>.stdout`, `<directory>.stderr`), sorted by path, then
the sha256 of those lines. Two checkouts that print the same last line wrote
the same bytes and messages, and the same warnings, if any.
Standard library only.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CRITERION6 = {
    "schema_version": 1,
    "data": {"synthetic": {"seed": 1, "months": 276, "cycle_period": 12, "noise_scale": 0.1}},
    "test_range": ["2000-01", "2013-12"],
    "train": {"max_epochs": 120, "rng_seed": 1},
    "master_train": {"max_epochs": 60, "rng_seed": 1},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def readme_config() -> dict:
    """The complete example config in this checkout's README.md."""
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("A complete configuration, with every key:", 1)[1]
    return json.loads(block.split("```json\n", 1)[1].split("```", 1)[0])


def main() -> int:
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    src = os.path.join(os.path.abspath(sys.argv[1] if len(sys.argv) == 2 else HERE), "src")
    if not os.path.isdir(os.path.join(src, "econocast")):
        sys.exit(f"no econocast package under {src}")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        root, streams = os.path.join(tmp, "out"), {}  # the configs stay outside root
        os.mkdir(root)

        def run(out, *args):
            cmd = [sys.executable, "-m", "econocast.cli", *args, "--out", out]
            done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
            if done.returncode:
                sys.exit(f"{' '.join(cmd[2:])} exited {done.returncode}: {done.stderr}")
            streams[f"{out}.stdout"], streams[f"{out}.stderr"] = done.stdout, done.stderr

        run("generate", "generate")
        for name, config in (("readme", readme_config()), ("criterion6", CRITERION6)):
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            for command in ("scan", "train", "ensemble"):
                run(f"{name}/{command}", command, "--config", path)
            model = os.path.join(root, name, "report", "model")
            shutil.copytree(os.path.join(root, name, "ensemble", "model"), model)
            run(f"{name}/report", "report", "--config", path, "--locale-comma")
            shutil.rmtree(model)  # listed under ensemble/
        digests = {path: sha256(text.encode()) for path, text in streams.items()}
        for folder, _, files in os.walk(root):
            for file in files:
                path = os.path.join(folder, file)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, root)] = sha256(fh.read())
    listing = "".join(f"{digest}  {path}\n" for path, digest in sorted(digests.items()))
    print(listing, end="")
    print(f"{sha256(listing.encode())}  (sha256 of the {len(digests)} lines above)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
