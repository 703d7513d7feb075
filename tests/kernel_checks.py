"""The bit-level properties that the lockstep trainer's call mix rests on,
checked under whichever BLAS kernel the process runs (test_blas_kernels.py
runs this once per OpenBLAS kernel):

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/kernel_checks.py

1. A product of one net through np.dot on 2-D and 1-D views gives the bits of
   the same net's product inside a stacked np.matmul over three nets, for
   n = 1..32 inputs and H = 1..5 outputs, with the weights a strided view of
   a wider stack or contiguous. So does an elementwise np.multiply for
   n = 1, and the transposed product of the backward pass on contiguous
   weights (only the first layer is padded, and the backward pass takes no
   product through it).
2. train_many gives each net the bytes of training it alone, for batches with
   one-net and multi-net width groups, hidden layers of 2, 3 and 4 units and
   of 3 then 2. Alone, a net is a one-net batch, whose products all go
   through np.dot or np.multiply.

Prints the OpenBLAS core name it ran under (or "unknown") and exits non-zero
at the first mismatch.
"""

import ctypes
import glob
import json
import os
import sys

import numpy as np

from econocast.mlp import TrainConfig, TrainingDiverged, expert_to_dict, init, train, train_many
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


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_products(rng: np.random.Generator) -> None:
    for n in range(1, 33):
        for h in range(1, 6):
            for wide in (n + 3, n):  # a strided view of a wider stack, then contiguous
                w = rng.normal(size=(3, h, wide))[:, :, :n]
                x = rng.normal(size=(3, n))
                stacked = np.matmul(w, x[:, :, None])
                for i in range(3):
                    alone = np.dot(w[i], x[i], np.empty(h))
                    assert same_bits(alone, stacked[i, :, 0]), ("dot", n, h, wide)
                    if n == 1:
                        alone = np.multiply(w[i], x[i])
                        assert same_bits(alone, stacked[i]), ("multiply", h, wide)
                if wide != n:
                    continue
                # the backward pass, through a layer past the first, whose
                # weights are never padded: the transposed contiguous weights
                # times a delta of length h
                d = rng.normal(size=(3, h))
                stacked = np.matmul(w.swapaxes(-1, -2), d[:, :, None])
                for i in range(3):
                    alone = np.dot(w[i].T, d[i], np.empty(n))
                    assert same_bits(alone, stacked[i, :, 0]), ("dot.T", n, h, wide)


def as_bytes(result: object) -> object:
    if isinstance(result, TrainingDiverged):
        return ("diverged", result.epoch)
    return json.dumps(expert_to_dict(result))


def check_batches(rng: np.random.Generator) -> None:
    # width groups 2 | 3 3 | 5 | 7 7 7 | 11: one-net and multi-net groups
    widths = [7, 3, 11, 2, 7, 3, 5, 7]
    rows = 24
    matrices = [
        FeatureMatrix(rng.normal(size=(rows, w)), rng.normal(size=rows), MonthStamp(2000, 1),
                      tuple(FeatureSpec(f"f{i}") for i in range(w)))
        for w in widths
    ]
    for hidden in ((2,), (3,), (4,), (3, 2)):
        configs = [TrainConfig(learning_rate=0.1, max_epochs=4, rng_seed=s) for s in range(8)]
        nets = [init([w, *hidden, 1], c) for w, c in zip(widths, configs)]
        alone = []
        for net, m, c in zip(nets, matrices, configs):
            try:
                alone.append(as_bytes(train(net, m, c)))
            except TrainingDiverged as exc:
                alone.append(as_bytes(exc))
        batch = [as_bytes(r) for r in train_many(nets, matrices, configs)]
        assert batch == alone, ("train_many", hidden)


def main() -> int:
    print(core_name())
    rng = np.random.default_rng(23)
    check_products(rng)
    check_batches(rng)
    return 0


if __name__ == "__main__":
    sys.exit(main())
