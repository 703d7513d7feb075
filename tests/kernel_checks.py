"""The compiled training step keeps numpy's bits, checked under whichever
BLAS kernel the process runs (test_blas_kernels.py runs this once per
OpenBLAS kernel):

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/kernel_checks.py

One train_many call trains nets of every product branch of the step, and
each slot must be byte-equal to `oracles.train_alone`, the step written as
per-pattern numpy calls: input width 1 and one hidden unit (the elementwise
products), hidden layers of 3 then 2 and of 1 then 3 (gemv and ddot through
the transposed weights), the shapes the benchmark's workloads train, a net
that diverges and one that stops at its target_error, on 24 rows; and nets
on 1 row and on 300, where the epoch-end error's matmul takes its vector
path and its sum runs past the 128-element block of numpy's pairwise sum.
Byte-equal means the same weights, biases and final error, or divergence
at the same epoch. For each slot that trains, `predict` on its matrix must
be byte-equal to the denormalized first column of `oracles.forward`, numpy's
2-D forward pass.

Prints the OpenBLAS core name it ran under (or "unknown") and exits non-zero
at the first mismatch.
"""

import ctypes
import glob
import os
import sys

import numpy as np

import oracles
from econocast.mlp import Normalizer, TrainConfig, TrainingDiverged, init, predict, train_many
from econocast.preprocess import FeatureMatrix, FeatureSpec
from econocast.timeseries import MonthStamp


def core_name() -> str:
    """The kernel OpenBLAS picked, read from the library bundled with numpy."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


def as_bytes(result) -> tuple:
    if isinstance(result, TrainingDiverged):
        return ("diverged", result.epoch)
    net = result.network
    return tuple(a.tobytes() for a in (*net.weights, *net.biases)) + (result.final_train_error,)


def oracle(net, matrix, config) -> tuple:
    """oracles.train_alone on the matrix as train_many normalizes it."""
    norm = Normalizer.fit(matrix.X, matrix.y)
    X, y = norm.normalize_inputs(matrix.X), norm.normalize_target(matrix.y)
    return oracles.train_alone(net.weights, net.biases, X, y, config.learning_rate,
                               config.max_epochs, config.target_error)


def oracle_bytes(net, matrix, config) -> tuple:
    ws, bs, epoch, error = oracle(net, matrix, config)
    if not np.isfinite(error):
        return ("diverged", epoch)
    return tuple(a.tobytes() for a in (*ws, *bs)) + (error,)


def check(rng: np.random.Generator) -> None:
    cases = [  # (layer sizes, config, scale of the data, rows)
        ([1, 4, 1], TrainConfig(learning_rate=0.1, max_epochs=6, rng_seed=1), 1.0, 24),
        ([5, 1, 1], TrainConfig(learning_rate=0.1, max_epochs=6, rng_seed=2), 1.0, 24),
        ([4, 3, 2, 1], TrainConfig(learning_rate=0.1, max_epochs=6, rng_seed=3), 1.0, 24),
        ([2, 1, 3, 1], TrainConfig(learning_rate=0.1, max_epochs=6, rng_seed=4), 1.0, 24),
        ([9, 4, 1], TrainConfig(max_epochs=6, rng_seed=5), 1.0, 24),
        ([16, 4, 1], TrainConfig(max_epochs=6, rng_seed=6), 1.0, 24),
        ([8, 4, 1], TrainConfig(max_epochs=6, rng_seed=7), 1.0, 24),
        ([3, 4, 1], TrainConfig(learning_rate=1e6, max_epochs=6, rng_seed=8), 5.0, 24),
        ([9, 4, 1], TrainConfig(max_epochs=3, rng_seed=9), 1.0, 1),
        ([9, 4, 1], TrainConfig(max_epochs=3, rng_seed=10), 1.0, 300),
        ([4, 3, 2, 1], TrainConfig(learning_rate=0.1, max_epochs=3, rng_seed=11), 1.0, 300),
    ]
    matrices = []
    for sizes, _, scale, rows in cases:
        X, y = rng.normal(size=(rows, sizes[0])) * scale, rng.normal(size=rows) * scale
        matrices.append(FeatureMatrix(X, y, MonthStamp(2000, 1),
                                      tuple(FeatureSpec(f"f{i}") for i in range(sizes[0]))))
    configs = [config for _, config, _, _ in cases]
    nets = [init(sizes, config) for (sizes, *_), config in zip(cases, configs)]
    # The 9-4-1 net again, with the error of its third epoch as its target.
    *_, third = oracle(nets[4], matrices[4], TrainConfig(max_epochs=3, rng_seed=5))
    nets.append(nets[4])
    matrices.append(matrices[4])
    configs.append(TrainConfig(max_epochs=12, target_error=third, rng_seed=5))

    want = [oracle_bytes(*slot) for slot in zip(nets, matrices, configs)]
    results = train_many(nets, matrices, configs)
    for i, (g, w) in enumerate(zip(map(as_bytes, results), want)):
        assert g == w, ("train_many differs from the numpy step", [n.layer_sizes for n in nets][i])
    for result, matrix in zip(results, matrices):
        if isinstance(result, TrainingDiverged):
            continue
        net, norm = result.network, result.normalizer
        out = oracles.forward(net.weights, net.biases, norm.normalize_inputs(matrix.X))
        want_values = norm.denormalize_target(out[:, 0])
        assert predict(result, matrix).values.tobytes() == want_values.tobytes(), (
            "predict differs from the numpy forward pass", net.layer_sizes)
    assert want[7][0] == "diverged", want[7]
    assert oracle(nets[-1], matrices[-1], configs[-1])[2] <= 3 < configs[-1].max_epochs


def main() -> int:
    print(core_name())
    check(np.random.default_rng(23))
    return 0


if __name__ == "__main__":
    sys.exit(main())
