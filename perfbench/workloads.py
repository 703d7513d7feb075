"""The benchmark's workloads: how each builds its inputs, runs one op and
digests the op's outputs.

An op is one ``econocast`` command run in-process through ``cli.main``, or
one ``search.maximize_sharpe`` call. The program sees only the generated
config, CSV or matrices. Module handles come in as ``ec`` (see
``run.import_econocast``) and every call goes through a module attribute, so
a tracer that rebinds those attributes sees the op's calls.

Why each workload exists:

- ``ensemble``: the headline desk command on the acceptance criterion-6
  shape (276 synthetic months, noise 0.1, train 1992-01..1999-12, test
  2000-01..2013-12, eight presets at 120 epochs, master at 60). Training is
  about 98% of the op. The nine nets come in seven shapes, so a faster
  per-pattern kernel shows here and a same-shape lockstep trainer mostly
  does not.
- ``restarts``: ``search.maximize_sharpe`` with 20 restarts and no target on
  the criterion-9 data (synthetic seed 21, 132 months, noise 0.15), a 9-4-1
  ``network1`` net, 72 training rows, 48 validation rows, 25 epochs. Twenty
  same-shape nets on one dataset: the case a lockstep ``train_many`` targets.
- ``scan``: ``econocast scan`` over a 600-month, 24-input CSV bundle written
  by ``econocast generate`` during set-up. No neural work: its time goes to
  rendering the equity-curve CSVs and to the per-element loops in
  ``metrics``, and each op writes about 4.7 MB in 49 files. An ``mlp``
  change should not move it; a write-path change shows here first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from typing import Dict, Iterable, Optional

# Reference digests exist for input seeds 1..INPUT_SEEDS; any workload seed
# maps onto one of them, so every run can check its outputs byte for byte.
INPUT_SEEDS = 32


def input_seed(seed: int) -> int:
    return 1 + seed % INPUT_SEEDS


class OpFailed(RuntimeError):
    pass


def sha256_file(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
    return path


def _cli(ec, argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ec.cli.main(argv)
    if code != 0:
        raise OpFailed(f"econocast {argv[0]} exited {code}: {err.getvalue().strip()}")


def _file_digests(out_dir: str, names: Optional[Iterable[str]]) -> Dict[str, Optional[str]]:
    """Digest the named files, or every file under ``out_dir`` when ``names``
    is None (used when recording references)."""
    if names is None:
        names = sorted(
            os.path.relpath(os.path.join(root, f), out_dir).replace(os.sep, "/")
            for root, _dirs, files in os.walk(out_dir)
            for f in files
        )
    return {name: sha256_file(os.path.join(out_dir, name)) for name in names}


class Ensemble:
    name = "ensemble"

    def setup(self, ec, seed: int, inputs_dir: str) -> dict:
        config = {
            "schema_version": 1,
            "data": {
                "synthetic": {"seed": seed, "months": 276, "cycle_period": 12, "noise_scale": 0.1}
            },
            "train_range": ["1992-01", "1999-12"],
            "test_range": ["2000-01", "2013-12"],
            "train": {"max_epochs": 120, "rng_seed": 1},
            "master_train": {"max_epochs": 60, "rng_seed": 1},
        }
        return {"config": _write_json(os.path.join(inputs_dir, "ensemble.json"), config)}

    def run(self, ec, state: dict, out_dir: str):
        _cli(ec, ["ensemble", "--config", state["config"], "--out", out_dir])

    def digests(self, ec, out_dir: str, result, names=None):
        return _file_digests(out_dir, names)


class Restarts:
    name = "restarts"

    def setup(self, ec, seed: int, inputs_dir: str) -> dict:
        bundle = ec.timeseries.synthesize_economy(21, 132, 12, 0.15)
        features = ec.presets.preset_features("network1", 12)
        month = ec.timeseries.MonthStamp
        train = ec.preprocess.assemble(
            features, bundle.series, "activity", None, month(1992, 1), month(1997, 12)
        )
        validation = ec.preprocess.assemble(
            features, bundle.series, "activity", None, month(1998, 1), month(2001, 12)
        )
        return {
            "shape": (train.width, 4, 1),
            "train": train,
            "validation": validation,
            "config": ec.mlp.TrainConfig(max_epochs=25, rng_seed=seed),
            "base_seed": seed,
        }

    def run(self, ec, state: dict, out_dir: str):
        return ec.search.maximize_sharpe(
            state["shape"],
            state["train"],
            state["validation"],
            state["config"],
            target_srm=None,
            max_restarts=20,
            base_seed=state["base_seed"],
        )

    def digests(self, ec, out_dir: str, result, names=None):
        text = json.dumps(ec.mlp.expert_to_dict(result.expert), indent=1) + "\n"
        return {
            "best_restart": str(result.best_restart),
            "expert_to_dict.json": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }


class Scan:
    name = "scan"

    def setup(self, ec, seed: int, inputs_dir: str) -> dict:
        data_dir = os.path.join(inputs_dir, "scan-data")
        _cli(ec, ["generate", "--seed", str(seed), "--months", "600", "--out", data_dir])
        config = {
            "schema_version": 1,
            "data": {"csv_path": os.path.join(data_dir, "bundle.csv")},
            "train_range": ["1992-01", "2040-12"],
            "scan": {"max_lag": 12},
        }
        return {"config": _write_json(os.path.join(inputs_dir, "scan.json"), config)}

    def run(self, ec, state: dict, out_dir: str):
        _cli(ec, ["scan", "--config", state["config"], "--out", out_dir])

    def digests(self, ec, out_dir: str, result, names=None):
        return _file_digests(out_dir, names)


WORKLOADS = {w.name: w for w in (Ensemble(), Restarts(), Scan())}
