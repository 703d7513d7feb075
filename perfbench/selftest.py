"""Tests of the benchmark itself (not collected by the repo's test suite):

    python3 -m pytest perfbench/selftest.py

The pinned call counts are the seed program's per-op counts. A tracer that
misses a rebinding fails here instead of reading as a low self time; a
program change that legitimately removes calls updates the pins.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

import run
import tracer as tracing
from workloads import WORKLOADS

sys.path.insert(0, run.SRC)

PINNED = {
    "ensemble": {
        ("mlp.train", "calls"): 9,
        ("mlp.train", "updates"): 97_920,
        ("mlp.predict", "calls"): 60,
        ("mlp.predict", "distinct"): 18,
        ("preprocess.assemble", "calls"): 32,
        ("preprocess.assemble", "distinct"): 16,
    },
    "restarts": {
        ("mlp.train", "calls"): 20,
        ("mlp.train", "updates"): 36_000,
    },
    "scan": {
        ("mlp.train", "calls"): 0,
        ("lagscan.scan", "calls"): 24,
        ("metrics.signals_from_prediction", "calls"): 864,
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_traced_op_counts_and_outputs(name, tmp_path):
    ec = run.import_econocast()
    workload = WORKLOADS[name]
    state = workload.setup(ec, 1, str(tmp_path))
    out_dir = str(tmp_path / "out")
    with tracing.Tracer() as tracer, tracer.op():
        result = workload.run(ec, state, out_dir)
    (per_op,) = tracer.per_op()
    for (fn, stat), expected in PINNED[name].items():
        got = per_op[fn][stat] if fn in per_op else 0
        assert got == expected, f"{name}: {fn}.{stat} = {got}, pinned {expected}"
    reference = run.load_reference(name, 1)
    assert workload.digests(ec, out_dir, result, reference.keys()) == reference


def test_tracer_rebinds_imported_names_and_restores_them():
    ec = run.import_econocast()
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "econocast"]
    before = [dict(vars(m)) for m in modules]
    original = ec.mlp.train
    with tracing.Tracer():
        wrapped = ec.mlp.train
        assert wrapped is not original and wrapped.__wrapped__ is original
        for module in (ec.ensemble, ec.search, ec.cli, sys.modules["econocast"]):
            assert module.train is wrapped
        assert ec.metrics.predict is ec.mlp.predict
        assert ec.lagscan.signals_from_prediction is ec.metrics.signals_from_prediction
    after = [dict(vars(m)) for m in modules]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)


def test_self_time_excludes_child_spans(monkeypatch):
    def inner():
        time.sleep(0.05)

    def outer():
        time.sleep(0.1)
        return fake.a.inner() or 1

    fake = types.ModuleType("fakepkg")
    fake.a = types.ModuleType("fakepkg.a")
    fake.a.__all__ = ["inner", "outer"]
    for fn in (inner, outer):
        fn.__module__ = "fakepkg.a"
        setattr(fake.a, fn.__name__, fn)
    fake.b = types.ModuleType("fakepkg.b")
    fake.b.outer = outer  # as if b did `from .a import outer`
    for mod in (fake, fake.a, fake.b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    with tracing.Tracer("fakepkg", ["a"]) as tracer:
        with tracer.op():
            assert fake.b.outer() == 1
    (per_op,) = tracer.per_op()
    assert per_op["a.outer"]["calls"] == 1 and per_op["a.inner"]["calls"] == 1
    assert 0.1 <= per_op["a.outer"]["self_s"] < 0.15
    assert 0.05 <= per_op["a.inner"]["self_s"] < 0.1
    assert fake.b.outer is outer and fake.a.inner is inner


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
