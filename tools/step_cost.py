"""Wall time of one pattern update of the compiled training step, for each
net shape the benchmark's workloads train.

    python3 tools/step_cost.py

For each shape, on random data and with one BLAS thread, it times the
compiled `epoch` that mlp.train_many calls once per net and epoch, and
prints the time of one pattern update: the gradient of one row, then the
update of every parameter. Beside it, it prints the time per update of
mlp.train_many on the same net and data, which adds the epoch-end error of
each epoch and the setup of each call. The shapes:

- `restarts`: a 9-4-1 net on 72 rows;
- `ensemble` subs: widths 8, 9, 10, 12, 14 and 21 with 4 hidden units, on 96
  rows; the master is the 8-4-1 net on 96 rows.

Each figure is the median of 21 rounds of 20 epochs. Every shape and both
ways of running it take their turn in each round, so a drift of a shared
machine's speed moves them alike. Standard library and numpy only; run it
from anywhere inside the repository.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np

from econocast import mlp
from econocast.mlp import TrainConfig, init, train_many
from econocast.preprocess import FeatureMatrix, FeatureSpec
from econocast.timeseries import MonthStamp

EPOCHS = 20
SHAPES = [("restarts", 9, 72)] + [("ensemble", width, 96) for width in (8, 9, 10, 12, 14, 21)]


def main() -> None:
    lib = mlp._step_library()
    rng = np.random.default_rng(0)
    config = TrainConfig(max_epochs=EPOCHS, rng_seed=1)
    runs = []
    for _, width, rows in SHAPES:
        X, y = rng.normal(size=(rows, width)), rng.normal(size=rows)
        net = init([width, 4, 1], config)
        buffers = sizes, theta, grad, work = mlp._buffers(net)
        args = (sizes.ctypes.data, 2, theta.ctypes.data, grad.ctypes.data, theta.size,
                X.ctypes.data, y.ctypes.data, rows, config.learning_rate, work.ctypes.data)
        matrix = FeatureMatrix(X, y, MonthStamp(1991, 1),
                               tuple(FeatureSpec(f"f{i}") for i in range(width)))

        def epochs(args=args, buffers=buffers):
            for _ in range(EPOCHS):
                lib.epoch(*args)

        def trained(net=net, matrix=matrix):
            train_many([net], [matrix], [config])

        runs.append((epochs, trained))
    times = [([], []) for _ in runs]
    for _ in range(21):
        for pair, pair_times in zip(runs, times):
            for run, run_times in zip(pair, pair_times):
                start = time.perf_counter()
                run()
                run_times.append(time.perf_counter() - start)
    for (name, width, rows), (epochs, trained) in zip(SHAPES, times):
        step, whole = (statistics.median(t) / (EPOCHS * rows) * 1e6 for t in (epochs, trained))
        print(f"{name}, {width}-4-1, {rows} rows: {step:.3f} us per update in the compiled "
              f"epoch, {whole:.3f} us per update through train_many")


if __name__ == "__main__":
    main()
