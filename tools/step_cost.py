"""Wall time of one pattern update of the compiled training, for each net
shape the benchmark's workloads train.

    python3 tools/step_cost.py

For each shape, on random data and with one BLAS thread, it times three
ways to run the same epochs, and prints each as the time of one pattern
update (the gradient of one row, then the update of every parameter):

- the compiled `epoch` alone, called once per epoch: the update without the
  epoch-end error;
- the compiled `train`, the one call mlp.train_many makes per net: every
  epoch and, after each, the error over every row;
- mlp.train_many itself, which adds the setup of the net's buffers and of
  its result.

The shapes:

- `restarts`: a 9-4-1 net on 72 rows;
- `ensemble` subs: widths 8, 9, 10, 12, 14 and 21 with 4 hidden units, on 96
  rows; the master is the 8-4-1 net on 96 rows.

Each figure is the median of 21 rounds of 20 epochs. Every shape and every
way of running it take their turn in each round, so a drift of a shared
machine's speed moves them alike. Standard library and numpy only; run it
from anywhere inside the repository.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes
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
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.epoch.argtypes = [ptr, i64, ptr, ptr, i64, ptr, ptr, i64, ctypes.c_double, ptr]
    rng = np.random.default_rng(0)
    config = TrainConfig(max_epochs=EPOCHS, rng_seed=1)
    runs = []
    for _, width, rows in SHAPES:
        X, y = rng.normal(size=(rows, width)), rng.normal(size=rows)
        net = init([width, 4, 1], config)
        # The arrays whose addresses the calls take, kept alive with them. The
        # calls train a copy of the net's parameters, which are read-only.
        sizes, grad, work = mlp._buffers(net)
        theta = net.parameters.copy()
        arrays = (sizes, theta, grad, work)
        buf = np.empty(rows * work.size)
        args = (sizes.ctypes.data, 2, theta.ctypes.data, grad.ctypes.data, theta.size,
                X.ctypes.data, y.ctypes.data, rows, config.learning_rate, work.ctypes.data)
        error = ctypes.c_double()
        matrix = FeatureMatrix(X, y, MonthStamp(1991, 1),
                               tuple(FeatureSpec(f"f{i}") for i in range(width)))

        def epochs(args=args, arrays=(*arrays, X, y)):
            for _ in range(EPOCHS):
                lib.epoch(*args)

        def compiled(args=args, arrays=(*arrays, X, y, buf), error=error):
            lib.train(*args, buf.ctypes.data, EPOCHS, 0.0, ctypes.byref(error))

        def trained(net=net, matrix=matrix):
            train_many([net], [matrix], [config])

        runs.append((epochs, compiled, trained))
    times = [tuple([] for _ in run) for run in runs]
    for _ in range(21):
        for run, run_times in zip(runs, times):
            for way, way_times in zip(run, run_times):
                start = time.perf_counter()
                way()
                way_times.append(time.perf_counter() - start)
    for (name, width, rows), shape_times in zip(SHAPES, times):
        step, whole, many = (statistics.median(t) / (EPOCHS * rows) * 1e6 for t in shape_times)
        print(f"{name}, {width}-4-1, {rows} rows: {step:.3f} us per update in the compiled "
              f"epoch, {whole:.3f} us with the error in the compiled train, "
              f"{many:.3f} us through train_many")


if __name__ == "__main__":
    main()
