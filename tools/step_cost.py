"""Wall time of one lockstep training step against one net trained alone.

    python3 tools/step_cost.py

Trains, on random data and with one BLAS thread, the two batch shapes the
benchmark's workloads use, and prints the time per step (one pattern of
every net in the batch) with each net's own time per step for comparison:

- 20 restarts of a 9-4-1 net on one shared 72-row matrix;
- the 8 ensemble subs, widths 8 to 21 with 4 hidden units, 96 rows each;
- the ensemble master, one 8-4-1 net (K = 1) on 96 rows, which makes a third
  of an ensemble's steps.

Each figure is the median of 21 trainings. A batch and the nets it is
compared with train in turn, one training of each per round, so a drift of
a shared machine's speed moves both sides of a ratio alike. Under each
figure it prints the batch's call mix: the numpy calls of one step, counted
by function, as read from the epoch program that train_many compiles (the
update's two calls included). Standard library and numpy only; run it from
anywhere inside the repository.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import collections
import statistics
import sys
import time
from typing import List

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np

from econocast import mlp
from econocast.mlp import TrainConfig, init, train_many
from econocast.preprocess import FeatureMatrix, FeatureSpec
from econocast.timeseries import MonthStamp


def matrix(X: np.ndarray, y: np.ndarray) -> FeatureMatrix:
    specs = tuple(FeatureSpec(f"f{i}") for i in range(X.shape[1]))
    return FeatureMatrix(X, y, MonthStamp(1991, 1), specs)


def us_per_step(cases, steps: int) -> List[float]:
    """Median time per step of each (nets, matrices, configs) case over 21
    rounds, every case trained once per round."""
    times: List[List[float]] = [[] for _ in cases]
    for _ in range(21):
        for case, case_times in zip(cases, times):
            start = time.perf_counter()
            train_many(*case)
            case_times.append(time.perf_counter() - start)
    return [statistics.median(t) / steps * 1e6 for t in times]


def call_mix(case, rows: int) -> str:
    """The numpy calls of one step of the case's (nets, matrices, configs),
    counted by function, from the longest call list train_many runs: one
    epoch of `rows` steps."""
    programs = []
    run = mlp._run

    def spy(calls):
        programs.append(calls)
        run(calls)

    mlp._run = spy
    try:
        train_many(*case)
    finally:
        mlp._run = run
    program = max(programs, key=len)
    counts = collections.Counter(f.__name__ for f, _ in program)
    mix = ", ".join(f"{n // rows} {name}" for name, n in counts.most_common())
    return f"  calls per step: {mix} ({len(program) // rows} in all)"


def main() -> None:
    rng = np.random.default_rng(0)

    shared = matrix(rng.normal(size=(72, 9)), rng.normal(size=72))
    configs = [TrainConfig(max_epochs=25, rng_seed=s) for s in range(20)]
    nets = [init([9, 4, 1], c) for c in configs]
    batch, alone = us_per_step(
        [(nets, [shared] * 20, configs), (nets[:1], [shared], configs[:1])], 25 * 72
    )
    print(
        f"20 restarts, 9-4-1, 72 rows: {batch:.1f} us per step, "
        f"one net alone {alone:.1f} us, ratio {batch / alone:.2f}"
    )
    print(call_mix((nets, [shared] * 20, configs), 72))

    widths = [8, 9, 9, 9, 10, 12, 14, 21]
    matrices = [matrix(rng.normal(size=(96, w)), rng.normal(size=96)) for w in widths]
    configs = [TrainConfig(max_epochs=20, rng_seed=s) for s in range(8)]
    nets = [init([w, 4, 1], c) for w, c in zip(widths, configs)]
    singles = [([n], [m], [c]) for n, m, c in zip(nets, matrices, configs)]
    batch, *each = us_per_step([(nets, matrices, configs), *singles], 20 * 96)
    alone = sum(each) / len(each)
    print(
        f"8 ensemble subs, 96 rows: {batch:.1f} us per step, "
        f"one net alone {alone:.1f} us on average, ratio {batch / alone:.2f}"
    )
    print(call_mix((nets, matrices, configs), 96))

    master = matrix(rng.normal(size=(96, 8)), rng.normal(size=96))
    config = TrainConfig(max_epochs=20, rng_seed=1)
    case = ([init([8, 4, 1], config)], [master], [config])
    (alone,) = us_per_step([case], 20 * 96)
    print(f"ensemble master, 8-4-1, 96 rows: {alone:.1f} us per step")
    print(call_mix(case, 96))


if __name__ == "__main__":
    main()
