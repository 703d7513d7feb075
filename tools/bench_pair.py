"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pair.py --parent COMMIT --pr N

Exports COMMIT with ``git archive`` to a temporary directory, then runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
for each workload W in that copy and in the working tree, one after the
other, for S = 1..10, then one more pair of the parent against itself at
S = 1. The workloads W, the run length T and the end-to-end metrics
compared are those that ``BENCHMARK.json`` declares. Each workload
runs in its own process, so its ``peak_rss_mb`` is its own and not the
high-water mark of the workloads run before it in the same process. The
parent goes first on odd seeds and the change first on even ones, so a drift
of the machine over the runs does not favour either side.

Writes ``BENCH_<N>.json`` at the root of the working tree:

- ``parent`` and ``change``: the seed-1 record of each workload, as
  perfbench writes it to ``perfbench/out/<workload>-seed1-trace0.json``;
- ``command`` and ``note``: how the records were made;
- ``pairs``: per workload, the failed ops of each side, and per end-to-end
  metric the value of every run on each side, their median and quartiles,
  and on how many seeds the change was better than the parent;
- ``parent_pair``: per workload, the failed ops and each end-to-end metric
  of the two runs of the parent against itself, and the second's relative
  difference from the first: how far apart the harness reads the same code,
  to set beside each change.

Stopped by Ctrl-C or SIGTERM, it removes the export and stops the benchmark
it is running. Standard library only; run it from anywhere inside the
repository.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List

# The number of pairs, the same for every comparison so that two BENCH files
# measure alike.
PAIRS = 10


def repo_root() -> str:
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True
    )
    return out.stdout.strip()


def exit_on_sigterm() -> None:
    """Make SIGTERM raise SystemExit, as Ctrl-C raises KeyboardInterrupt, so that
    a stopped run unwinds: the temporary export is removed, and subprocess.run
    kills the benchmark it is waiting for."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def export(root: str, commit: str, dest: str) -> None:
    blob = subprocess.run(
        ["git", "-C", root, "archive", "--format=tar", commit], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def command(workload: str, seed: int, seconds: float) -> List[str]:
    return [
        "python3", "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]


def run(tree: str, seed: int, workloads: List[str], seconds: float) -> Dict[str, dict]:
    """One benchmark run in `tree`, a process per workload; the record of each."""
    records = {}
    for name in workloads:
        subprocess.run(
            command(name, seed, seconds), cwd=tree, check=True, stdout=subprocess.DEVNULL
        )
        path = os.path.join(tree, "perfbench", "out", f"{name}-seed{seed}-trace0.json")
        with open(path, encoding="utf-8") as fh:
            records[name] = json.load(fh)
    return records


def summarize(values: List[float]) -> Dict[str, object]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "quartiles": [q1, q3]}


def pair_table(
    runs: Dict[str, List[Dict[str, dict]]], workloads: List[str], metrics: List[dict]
) -> Dict[str, Dict[str, dict]]:
    table: Dict[str, Dict[str, dict]] = {}
    for name in workloads:
        table[name] = {
            "failed": {side: sum(r[name]["failed"] for r in runs[side]) for side in runs}
        }
        for metric in metrics:
            key, lower = metric["name"], metric["better"] == "lower"
            sides = {
                side: [r[name]["metrics"][key]["value"] for r in runs[side]]
                for side in ("parent", "change")
            }
            wins = sum(
                (c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"])
            )
            table[name][key] = {
                "better": metric["better"],
                "parent": summarize(sides["parent"]),
                "change": summarize(sides["change"]),
                "change_wins": wins,
            }
    return table


def same_code_pair(
    first: Dict[str, dict], second: Dict[str, dict], workloads: List[str], metrics: List[dict]
) -> Dict[str, Dict[str, object]]:
    """Per workload, two runs of one tree: their failed ops and, per metric,
    both values and the second's relative difference from the first."""
    table: Dict[str, Dict[str, object]] = {}
    for name in workloads:
        table[name] = {"failed": [first[name]["failed"], second[name]["failed"]]}
        for metric in metrics:
            a, b = (r[name]["metrics"][metric["name"]]["value"] for r in (first, second))
            table[name][metric["name"]] = {
                "values": [a, b], "relative_difference": (b - a) / a if a else None
            }
    return table


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--pr", required=True, help="suffix of the BENCH_<pr>.json written")
    args = parser.parse_args(argv)
    exit_on_sigterm()

    root = repo_root()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds, metrics = benchmark["run_seconds"], benchmark["end_to_end"]
    runs: Dict[str, List[Dict[str, dict]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as parent_tree:
        export(root, args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": root}
        for seed in range(1, PAIRS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run(trees[side], seed, workloads, seconds))
                print(f"seed {seed} {side}: " + ", ".join(
                    f"{name} {runs[side][-1][name]['metrics']['op_p50_s']['value']:.4f} s"
                    for name in workloads
                ), file=sys.stderr)
        # the harness's own spread: the parent against itself, as pair 1 ran it
        same = [run(parent_tree, 1, workloads, seconds) for _ in range(2)]

    table = pair_table(runs, workloads, metrics)
    bench = {
        "parent": runs["parent"][0],
        "change": runs["change"][0],
        "command": " ".join(command("{" + ",".join(workloads) + "}", 1, seconds)),
        "note": (
            f"parent and change hold the seed-1 records from perfbench/out/; parent is "
            f"{args.parent}, run from a git archive export, and change is the working tree, "
            f"whose env.git_sha names the commit it was checked out at, so env.src_sha256 "
            f"tells them apart. pairs holds {PAIRS} pairs of the same "
            f"command with --seed 1..{PAIRS}, the parent first on odd seeds. Each workload "
            f"ran in its own process, so peak_rss_mb is that workload's own; BENCH_7 to "
            f"BENCH_10 ran --workload all in one process, so their peak_rss_mb is not like "
            f"for like with this file's. parent_pair holds one more pair, the parent "
            f"against itself at --seed 1 after the {PAIRS} pairs: a relative difference "
            f"there comes from the harness and the machine, not from the code."
        ),
        "pairs": table,
        "parent_pair": same_code_pair(*same, workloads, metrics),
    }
    out = os.path.join(root, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, rows in table.items():
        failed = rows["failed"]
        print(f"{name}: failed ops, parent {failed['parent']}, change {failed['change']}")
        for key, row in rows.items():
            if key == "failed":
                continue
            p, c = row["parent"], row["change"]
            print(
                f"{name:9s} {key:12s} {p['median']:.4g} [{p['quartiles'][0]:.4g}, "
                f"{p['quartiles'][1]:.4g}] -> {c['median']:.4g} [{c['quartiles'][0]:.4g}, "
                f"{c['quartiles'][1]:.4g}], change better {row['change_wins']}/{PAIRS}"
            )
    for name, rows in bench["parent_pair"].items():
        print(f"{name}: parent against parent, " + ", ".join(
            f"{key} {row['relative_difference']:+.2%}" for key, row in rows.items()
            if key != "failed" and row["relative_difference"] is not None
        ))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
