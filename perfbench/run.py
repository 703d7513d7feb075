"""econocast benchmark.

    python3 perfbench/run.py --workload {ensemble,restarts,scan,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; econocast is imported from ``src/``.
``--seed`` is the workload seed: it picks the workload's inputs (the
synthetic-data seed for ``ensemble`` and ``scan``, the restart ``base_seed``
for ``restarts``) through ``workloads.input_seed``, so the same seed always
gives the same inputs. The program receives only the generated inputs.

One process, closed loop, one op at a time; BLAS/OpenMP pools are pinned to
one thread. With ``--trace 0`` the run times ops for ``--seconds`` and
prints the end-to-end metrics. With ``--trace 1`` untraced and traced ops
alternate for ``--seconds`` and the run prints the per-layer metrics, taken
from the traced ops, and the tracing overhead. Every op's outputs are
checked against the digests in ``references.json``; an op fails on an
exception, a non-zero exit or a missing or different output file. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (environment, op times, spans)
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Must happen before numpy is imported: BLAS sizes its pool at load time.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, input_seed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
OUT = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "references.json")

# Set-up is short, so it is repeated and its median reported.
SETUP_REPEATS = 7

END_TO_END_UNITS = {"op_p50_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> (unit, function, statistic). Self times, call counts and counters
# are per op; the reported value is their median over the traced ops.
FUNCTION_METRICS = {
    "mlp.train.self_s": ("s", "mlp.train", "self_s"),
    "mlp.train.calls": ("count", "mlp.train", "calls"),
    "mlp.train.updates": ("count", "mlp.train", "updates"),
    "mlp.train.diverged": ("count", "mlp.train", "diverged"),
    "mlp.predict.self_s": ("s", "mlp.predict", "self_s"),
    "mlp.predict.calls": ("count", "mlp.predict", "calls"),
    "preprocess.assemble.self_s": ("s", "preprocess.assemble", "self_s"),
    "preprocess.assemble.calls": ("count", "preprocess.assemble", "calls"),
    "preprocess.dominant_cycle.self_s": ("s", "preprocess.dominant_cycle", "self_s"),
    "timeseries.synthesize_economy.self_s": ("s", "timeseries.synthesize_economy", "self_s"),
    "timeseries.parse_csv.self_s": ("s", "timeseries.parse_csv", "self_s"),
    "timeseries.parse_csv.bytes": ("B", "timeseries.parse_csv", "bytes"),
    "metrics.signals_from_prediction.self_s": ("s", "metrics.signals_from_prediction", "self_s"),
    "metrics.signals_from_prediction.calls": ("count", "metrics.signals_from_prediction", "calls"),
    "metrics.hit_rate.self_s": ("s", "metrics.hit_rate", "self_s"),
    "metrics.report.self_s": ("s", "metrics.report", "self_s"),
    "lagscan.scan.self_s": ("s", "lagscan.scan", "self_s"),
    "lagscan.scan.calls": ("count", "lagscan.scan", "calls"),
    "lagscan.scan_curves_csv.self_s": ("s", "lagscan.scan_curves_csv", "self_s"),
    "lagscan.scan_curves_csv.bytes": ("B", "lagscan.scan_curves_csv", "bytes"),
    "search.maximize_sharpe.self_s": ("s", "search.maximize_sharpe", "self_s"),
    "ensemble.train_ensemble.self_s": ("s", "ensemble.train_ensemble", "self_s"),
    "ensemble.save_ensemble.self_s": ("s", "ensemble.save_ensemble", "self_s"),
    "ensemble.save_ensemble.bytes": ("B", "ensemble.save_ensemble", "bytes"),
    "ensemble.predict_ensemble.self_s": ("s", "ensemble.predict_ensemble", "self_s"),
    "cli.main.self_s": ("s", "cli.main", "self_s"),
}
# Distinct work items (network x matrix range, feature set x range, series
# content) over calls; 1.0 means no call repeats an earlier one.
DISTINCT_RATIOS = ("mlp.predict", "preprocess.assemble", "metrics.signals_from_prediction")


def per_layer_units() -> dict:
    units = {f"layer.{layer}.self_s": "s" for layer in tracing.LAYERS}
    units.update({name: spec[0] for name, spec in FUNCTION_METRICS.items()})
    units["mlp.train.us_per_update"] = "us"
    units.update({f"{fn}.distinct_ratio": "ratio" for fn in DISTINCT_RATIOS})
    units["cli.out_bytes"] = "B"
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256() -> str:
    """Digest of every .py file under src/, to identify the program without git."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def import_econocast() -> SimpleNamespace:
    """Import econocast afresh from src/ and return its modules by layer name.

    Earlier imports are dropped first so each set-up repetition pays the
    package's own import; numpy stays loaded, since it cannot be re-imported.
    """
    for name in [n for n in sys.modules if n == "econocast" or n.startswith("econocast.")]:
        del sys.modules[name]
    package = importlib.import_module("econocast")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"econocast was imported from {package.__file__}, not from {SRC}")
    modules = {layer: importlib.import_module(f"econocast.{layer}") for layer in tracing.LAYERS}
    modules["presets"] = importlib.import_module("econocast.presets")
    return SimpleNamespace(**modules)


def load_reference(workload: str, seed: int) -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    return refs["digests"][workload][str(seed)]


def run_op(ec, workload, state, reference, out_dir, clock) -> tuple:
    """Run one op and check its outputs: (seconds, bytes written, failure or None)."""
    failure = None
    started = clock()
    try:
        result = workload.run(ec, state, out_dir)
        elapsed = clock() - started
        got = workload.digests(ec, out_dir, result, reference.keys())
        wrong = sorted(name for name, digest in reference.items() if got[name] != digest)
        if wrong:
            failure = f"outputs differ from reference: {', '.join(wrong[:5])}"
    except Exception as exc:  # an op's failure is counted, not fatal
        elapsed = clock() - started
        failure = f"{type(exc).__name__}: {exc}"
    out_bytes = tracing.tree_bytes(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, out_bytes, failure


def measure(ec, workload, state, reference, seconds, work_dir, calibrator, tracer=None) -> dict:
    """Run ops back to back until ``seconds`` have passed (at least one op),
    sampling the calibration kernel between ops and during them.

    With a tracer, untraced and traced ops alternate, so drift in the
    machine's speed affects both sides of the overhead ratio alike.
    """
    runs = {False: new_run(), True: new_run()}
    deadline = time.perf_counter() + seconds
    calibrator.sample()
    n = 0
    while n < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and n % 2 == 1
        out_dir = os.path.join(work_dir, f"op{n}")
        first_sample = len(calibrator.samples) - 1
        with calibrator.sampling(), tracer if traced else contextlib.nullcontext():
            with tracer.op() if traced else contextlib.nullcontext():
                outcome = run_op(ec, workload, state, reference, out_dir, calibrator.now)
        calibrator.sample()
        elapsed, out_bytes, failure = outcome
        run = runs[traced]
        run["wall_s"].append(elapsed)
        run["times"].append(calibrator.normalized(elapsed, first_sample))
        run["out_bytes"].append(out_bytes)
        if failure is not None:
            run["failures"].append(failure)
        n += 1
    return runs


def new_run() -> dict:
    return {"times": [], "wall_s": [], "out_bytes": [], "failures": []}


def end_to_end(run: dict, setup_times: list) -> dict:
    times = run["times"]
    ok = len(times) - len(run["failures"])
    return {
        "op_p50_s": statistics.median(times),
        "ops_per_s": ok / sum(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: dict, untraced: dict) -> dict:
    per_op = tracer.per_op()
    # Self times get their op's speed normalization, like the op times.
    for op, wall, time_s in zip(per_op, traced["wall_s"], traced["times"]):
        for stats in op.values():
            stats["self_s"] *= time_s / wall

    def med(fn, stat):
        return tracing.median_of(per_op, fn, stat)

    values = {}
    for layer in tracing.LAYERS:
        totals = [
            sum(s["self_s"] for fn, s in op.items() if fn.startswith(layer + "."))
            for op in per_op
        ]
        values[f"layer.{layer}.self_s"] = float(statistics.median(totals))
    for name, (_unit, fn, stat) in FUNCTION_METRICS.items():
        values[name] = med(fn, stat)
    updates = med("mlp.train", "updates")
    values["mlp.train.us_per_update"] = (
        1e6 * med("mlp.train", "self_s") / updates if updates else 0.0
    )
    for fn in DISTINCT_RATIOS:
        calls = med(fn, "calls")
        values[f"{fn}.distinct_ratio"] = med(fn, "distinct") / calls if calls else 1.0
    values["cli.out_bytes"] = float(statistics.median(traced["out_bytes"]))
    values["trace.overhead_ratio"] = statistics.median(traced["times"]) / statistics.median(
        untraced["times"]
    )
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    in_seed = input_seed(seed)
    reference = load_reference(name, in_seed)
    work_dir = os.path.join(WORK, f"{name}-{os.getpid()}")
    inputs_dir = os.path.join(work_dir, "inputs")
    os.makedirs(inputs_dir, exist_ok=True)
    try:
        calibrator = calibration.Calibrator()
        setup_times = []
        calibrator.sample()
        for _ in range(SETUP_REPEATS):
            first_sample = len(calibrator.samples) - 1
            started = calibrator.now()
            ec = import_econocast()
            state = workload.setup(ec, in_seed, inputs_dir)
            elapsed = calibrator.now() - started
            calibrator.sample()
            setup_times.append(calibrator.normalized(elapsed, first_sample))

        record = {"workload": name, "seed": seed, "input_seed": in_seed, "trace": int(trace)}
        # The tracer reads the calibrator's clock, so no span counts the time
        # of a kernel sample taken inside it.
        tracer = tracing.Tracer(clock=calibrator.now) if trace else None
        runs = measure(ec, workload, state, reference, seconds, work_dir, calibrator, tracer)
        if tracer is None:
            metrics, units = end_to_end(runs[False], setup_times), END_TO_END_UNITS
        else:
            metrics, units = per_layer(tracer, runs[True], runs[False]), per_layer_units()
            record["spans"] = tracer.dump()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only if no other run is using it

    attempted = sum(len(r["times"]) for r in runs.values())
    failures = [f for r in runs.values() for f in r["failures"]]
    record.update(
        {
            "attempted": attempted,
            "failed": len(failures),
            "fail_ratio": len(failures) / attempted,
            "failures": failures[:20],
            "op_times_s": {"untraced": runs[False]["times"], "traced": runs[True]["times"]},
            "op_wall_s": {"untraced": runs[False]["wall_s"], "traced": runs[True]["wall_s"]},
            "setup_times_s": setup_times,
            "kernel_samples_s": calibrator.samples,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    )
    return record


def _print_summary(record: dict) -> None:
    wall = [t for ts in record["op_wall_s"].values() for t in ts]
    print(
        f"# workload={record['workload']} seed={record['seed']} input_seed={record['input_seed']} "
        f"trace={record['trace']} ops={record['attempted']} failed={record['failed']} "
        f"fail_ratio={record['fail_ratio']:.4g} wall_op_s(min/p50/max)="
        f"{min(wall):.4g}/{statistics.median(wall):.4g}/{max(wall):.4g}"
    )
    for name, metric in record["metrics"].items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"#   FAILED: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (picks the inputs)")
    parser.add_argument("--seconds", type=float, default=35.0, help="timed phase per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not os.path.isfile(os.path.join(SRC, "econocast", "__init__.py")):
        print(f"error: no econocast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np  # loaded once, before any timed set-up

    env = environment(np)
    print("# env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        record["env"] = env
        _print_summary(record)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
