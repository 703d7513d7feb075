"""Multi-layer perceptron with supervised online gradient training.

Hidden layers are logistic and the output layer is linear, the one kind of
net every command trains. Training runs per-pattern (stochastic) weight
updates in fixed row order for exact reproducibility, minimizing the
half-sum-of-squares error.

Training is compiled C, `_step.c` beside this file, one call per net:
`train` runs epochs, each the gradient of each pattern in row order and
after each its update, p = p - eta * g, on the net's parameters in one flat
buffer, and after each epoch the mean squared error over every row. It
makes the operations numpy makes, in the same order, so its bits are
numpy's. In an epoch each product is the BLAS call numpy's dot makes for a
lone pattern (an elementwise multiply where the contraction has length one,
ddot for a single output row, dgemv otherwise, with numpy's order and
transpose), called through numpy's own BLAS, and the logistic,
max(e, sign(z)) / (1 + e) with e = exp(-|z|), runs numpy's own float64 exp
loop. The slope is delta * (a * (1 - a)), and no multiply-add is fused. The
error is the 2-D forward pass and np.mean of the squared errors, run
through numpy's own float64 matmul, exp and add loops, read from their
ufuncs' loop tables. `_forward` is that pass in numpy, which `predict` runs.

The library is built at the first training, never at import, with the
system's `cc`, into `$XDG_CACHE_HOME/econocast` (or `~/.cache/econocast`),
named by the sha256 of the source, the compile command and numpy's version;
where that directory cannot be written, into a private temporary directory,
removed once the library is loaded.
Without `cc`, or without one of the BLAS entry points numpy is known to
link, training fails with a message that names what is missing.

`train_many` trains each net alone. Each normalizer, with the normalized
inputs and targets, is computed once per distinct matrix object.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import numbers
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .artifacts import REQUIRED, JsonObject, is_number, read_json
from .artifacts import sizes as checked_sizes
from .preprocess import FeatureMatrix, FeatureSpec
from .timeseries import MonthStamp, TimeSeries, range_to_json, read_range

__all__ = [
    "TrainingDiverged",
    "TrainConfig",
    "MlpNetwork",
    "Normalizer",
    "TrainedExpert",
    "init",
    "gradients",
    "train",
    "train_many",
    "predict",
    "error_percent",
    "expert_to_dict",
    "expert_from_dict",
    "load_expert",
]

class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the epoch at which it happened."""

    def __init__(self, epoch: int, message: str | None = None):
        super().__init__(message or f"training diverged at epoch {epoch} (non-finite loss)")
        self.epoch = epoch


def _logistic(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Overwrite z with its logistic and return it; e is scratch of z's shape.

    1 / (1 + e) for z >= 0 and e / (1 + e) below, with e = exp(-|z|), which
    never overflows. The numerator max(e, sign(z)) is 1 for z >= 0 (as e <= 1
    there) and e below; one call cheaper than np.where on a comparison.
    copysign(z, -1) is -|z| bit for bit, in one call. The max is np.fmax,
    which takes its output positionally (np.maximum warns on that). The two
    differ only where an operand is NaN, and e and sign(z) are NaN together,
    so both give NaN there, at most with another sign bit, which no output
    shows: a NaN loss stops the net as diverged, and text prints a NaN
    without its sign. _step.c computes the same."""
    np.copysign(z, -1.0, e)
    np.exp(e, e)
    np.sign(z, z)
    np.fmax(e, z, z)
    np.add(e, 1.0, e)
    np.divide(z, e, z)
    return z


_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_step.c")

# The names numpy builds give cblas_dgemv and cblas_ddot, with the C type of
# their integer arguments: scipy-openblas64 (numpy's wheels), then others.
_BLAS_NAMES = (
    ("scipy_cblas_{}64_", "int64_t"),
    ("cblas_{}64_", "int64_t"),
    ("scipy_cblas_{}", "int"),
    ("cblas_{}", "int"),
)


def _numpy_blas() -> Tuple[object, object, str]:
    """The cblas_dgemv and cblas_ddot that numpy's dot calls, and the C type
    of their integers, looked up through the handle of numpy's core module,
    which links its BLAS."""
    core = (sys.modules.get("numpy._core._multiarray_umath")
            or sys.modules["numpy.core._multiarray_umath"])
    handle = ctypes.CDLL(core.__file__)
    for pattern, int_type in _BLAS_NAMES:
        names = [pattern.format(f) for f in ("dgemv", "ddot")]
        if all(hasattr(handle, name) for name in names):
            return getattr(handle, names[0]), getattr(handle, names[1]), int_type
    names = ", ".join(pattern.format("dgemv") for pattern, _ in _BLAS_NAMES)
    raise RuntimeError(f"training needs numpy's BLAS, and {core.__file__} links none of {names}")


def _build(flags: List[str], directory: str, path: str) -> None:
    """Compile _step.c into path, through a temporary file in directory."""
    import subprocess  # only to build: a command that trains nothing never loads it

    compiler = shutil.which("cc")
    if compiler is None:
        raise RuntimeError("training builds its step from C source at first use, "
                           "and no C compiler `cc` is on PATH")
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        run = subprocess.run([compiler, *flags, "-o", tmp, _SOURCE, "-lm"],
                             capture_output=True, text=True)
        if run.returncode:
            raise RuntimeError(f"cc failed to build {_SOURCE}:\n{run.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.lru_cache(maxsize=None)
def _step_library() -> ctypes.CDLL:
    """_step.c, built once per source, compile command and numpy version,
    loaded and bound to numpy's BLAS and its exp, matmul and add loops."""
    import sysconfig  # only to train: a command that trains nothing never loads it

    gemv, dot, int_type = _numpy_blas()
    flags = ["-O2", "-ffp-contract=off", "-shared", "-fPIC", f"-DBLAS_INT={int_type}",
             "-I" + sysconfig.get_paths()["include"], "-I" + np.get_include()]
    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read())
    key.update("\0".join([*flags, np.__version__]).encode())
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
                         "econocast")
    path = os.path.join(cache, key.hexdigest() + ".so")
    with contextlib.ExitStack() as stack:
        if not os.path.exists(path):
            try:
                os.makedirs(cache, mode=0o700, exist_ok=True)
                _build(flags, cache, path)
            except OSError:
                # Removed once the library is loaded, which stays mapped.
                private = stack.enter_context(tempfile.TemporaryDirectory(prefix="econocast-"))
                path = os.path.join(private, os.path.basename(path))
                _build(flags, private, path)
        lib = ctypes.CDLL(path)
    ufuncs = (np.exp, np.matmul, np.add)
    lib.bind.argtypes = [ctypes.c_void_p, ctypes.c_void_p] + [ctypes.py_object] * len(ufuncs)
    missing = lib.bind(gemv, dot, *ufuncs)
    if missing:
        raise RuntimeError(f"np.{ufuncs[missing - 1].__name__} has no float64 loop to train with")
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    lib.gradient.argtypes = [ptr, i64, ptr, ptr, ptr, ptr, ptr]
    lib.gradient.restype = None
    lib.train.argtypes = [ptr, i64, ptr, ptr, i64, ptr, ptr, i64, f64, ptr, ptr, i64, f64, ptr]
    lib.train.restype = i64
    return lib


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the online training loop."""

    learning_rate: float = 0.05
    init_weight_bound: float = 0.3
    max_epochs: int = 5000
    target_error: float = 0.0
    rng_seed: int = 1

    def __post_init__(self) -> None:
        for name in ("max_epochs", "rng_seed"):
            if not is_number(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        # target_error may be inf: every finite loss reaches it, so one epoch trains.
        # Finite means a float can hold it: math.isfinite raises on an int above that.
        for name, want in (
            ("learning_rate", "a finite number"),
            ("init_weight_bound", "a finite number"),
            ("target_error", "a finite number or inf"),
        ):
            value = getattr(self, name)
            finite = is_number(value, numbers.Real) and abs(value) <= sys.float_info.max
            if not (finite or name == "target_error" and value == math.inf):
                raise ValueError(f"{name} must be {want}, got {value!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        # rng.uniform(-b, b) draws only while 2b is finite, and never from b = -0.0
        bound = self.init_weight_bound
        if math.copysign(1, bound) < 0 or bound > sys.float_info.max / 2:
            raise ValueError(f"init_weight_bound must be in [0, {sys.float_info.max / 2!r}] "
                             f"and not -0.0, got {bound!r}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.target_error < 0:
            raise ValueError("target_error must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


@dataclass(frozen=True)
class MlpNetwork:
    """Layered weights/biases; weights[l] maps layer l activations to layer l+1.
    Every layer but the last is logistic; the last is linear."""

    layer_sizes: Tuple[int, ...]
    weights: Tuple[np.ndarray, ...]
    biases: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        sizes = checked_sizes("layer_sizes", self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError(f"bad layer sizes {sizes}")
        ws, bs = [], []
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.array(w, dtype=float)
            b = np.array(b, dtype=float)
            if w.shape != (sizes[l + 1], sizes[l]) or b.shape != (sizes[l + 1],):
                raise ValueError(f"layer {l} parameter shapes do not chain with sizes {sizes}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("parameters must be finite")
            w.flags.writeable = False
            b.flags.writeable = False
            ws.append(w)
            bs.append(b)
        if len(ws) != len(sizes) - 1:
            raise ValueError("one weight matrix per layer transition required")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "biases", tuple(bs))

    @property
    def n_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_out(self) -> int:
        return self.layer_sizes[-1]


def init(layer_sizes: Sequence[int], config: TrainConfig) -> MlpNetwork:
    """Draw every weight and bias uniformly from [-bound, +bound], seeded."""
    sizes = checked_sizes("layer_sizes", layer_sizes)
    if len(sizes) < 3:
        raise ValueError("at least one hidden layer is required")
    rng = np.random.default_rng(config.rng_seed)
    b = config.init_weight_bound
    weights, biases = [], []
    for l in range(len(sizes) - 1):
        weights.append(rng.uniform(-b, b, size=(sizes[l + 1], sizes[l])))
        biases.append(rng.uniform(-b, b, size=sizes[l + 1]))
    return MlpNetwork(sizes, tuple(weights), tuple(biases))


def _forward(ws: Sequence[np.ndarray], bs: Sequence[np.ndarray], X: np.ndarray) -> np.ndarray:
    """Outputs (n, n_out) of the net with these weights and biases for every
    row of X (n, in)."""
    a = X
    for l, (w, b) in enumerate(zip(ws, bs)):
        a = a @ w.T + b
        if l < len(ws) - 1:
            _logistic(a, np.empty_like(a))
    return a


def _buffers(net: MlpNetwork) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(sizes, theta, grad, work) as _step.c takes a net: its layer sizes as
    int64, its parameters in one flat buffer (per layer the weights in row
    order, then the biases), a gradient buffer of that layout, and scratch
    for each layer's activation and its logistic."""
    theta = np.concatenate([a.ravel() for layer in zip(net.weights, net.biases) for a in layer])
    return (np.array(net.layer_sizes, dtype=np.int64), theta, np.zeros_like(theta),
            np.zeros(2 * sum(net.layer_sizes[1:])))


def _layers(buffer: np.ndarray, sizes: Sequence[int]) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Views of a flat buffer laid out as _buffers lays out theta: the
    weights and the biases of each layer."""
    ws, bs, start = [], [], 0
    for n, m in zip(sizes, sizes[1:]):
        ws.append(buffer[start : start + m * n].reshape(m, n))
        bs.append(buffer[start + m * n : start + m * n + m])
        start += m * n + m
    return ws, bs


def gradients(
    net: MlpNetwork, x: Sequence[float], target: Sequence[float]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Exact gradient of E = 1/2 * sum((out - target)^2) for one pattern,
    via reverse accumulation: the compiled step that training runs, without
    the update. Returns (dWs, dbs) matching net layout."""
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    if x.shape != (net.n_in,) or target.shape != (net.n_out,):
        raise ValueError("input/target dimensions do not match the network")
    x, target = np.ascontiguousarray(x), np.ascontiguousarray(target)
    sizes, theta, grad, work = _buffers(net)
    _step_library().gradient(sizes.ctypes.data, len(sizes) - 1, theta.ctypes.data,
                             x.ctypes.data, target.ctypes.data, grad.ctypes.data, work.ctypes.data)
    return _layers(grad, net.layer_sizes)


@dataclass(frozen=True)
class Normalizer:
    """Per-column affine maps fitted on training rows only: inputs and target
    are standardized."""

    input_shift: np.ndarray
    input_scale: np.ndarray
    target_shift: float
    target_scale: float

    def __post_init__(self) -> None:
        shift = np.array(self.input_shift, dtype=float)
        scale = np.array(self.input_scale, dtype=float)
        if shift.shape != scale.shape or shift.ndim != 1:
            raise ValueError("inconsistent normalizer shapes")
        if not np.all(scale > 0) or self.target_scale <= 0:
            raise ValueError("normalizer scales must be > 0")
        shift.flags.writeable = False
        scale.flags.writeable = False
        object.__setattr__(self, "input_shift", shift)
        object.__setattr__(self, "input_scale", scale)

    @classmethod
    def fit(cls, X: np.ndarray, y: np.ndarray) -> "Normalizer":
        scale = X.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        return cls(X.mean(axis=0), scale, float(y.mean()), float(y.std()) or 1.0)

    def normalize_inputs(self, X: np.ndarray) -> np.ndarray:
        return (X - self.input_shift) / self.input_scale

    def normalize_target(self, y: np.ndarray) -> np.ndarray:
        return (y - self.target_shift) / self.target_scale

    def denormalize_target(self, y: np.ndarray) -> np.ndarray:
        return y * self.target_scale + self.target_shift


@dataclass(frozen=True)
class TrainedExpert:
    """A trained network plus everything needed to reproduce its predictions."""

    network: MlpNetwork
    normalizer: Normalizer
    features: Tuple[FeatureSpec, ...]
    train_range: Tuple[MonthStamp, MonthStamp]
    final_train_error: float
    rng_seed: int
    test_range: Tuple[MonthStamp, MonthStamp] | None = None


def _train(
    lib: ctypes.CDLL,
    net: MlpNetwork,
    matrix: FeatureMatrix,
    config: TrainConfig,
    fit: Tuple[Normalizer, np.ndarray, np.ndarray],
) -> TrainedExpert | TrainingDiverged:
    """One net of train_many, given the normalizer of its matrix with the
    normalized inputs and targets, C-contiguous."""
    norm, X, y = fit
    sizes, theta, grad, work = _buffers(net)
    buf = np.empty(len(y) * work.size)
    error = ctypes.c_double()
    # No net runs 2**63 epochs, so a larger max_epochs is that one.
    epochs = lib.train(sizes.ctypes.data, len(sizes) - 1, theta.ctypes.data, grad.ctypes.data,
                       theta.size, X.ctypes.data, y.ctypes.data, len(y),
                       float(config.learning_rate), work.ctypes.data, buf.ctypes.data,
                       min(int(config.max_epochs), 2**63 - 1), float(config.target_error),
                       ctypes.byref(error))
    error = error.value
    if not math.isfinite(error):
        return TrainingDiverged(epochs)
    ws, bs = _layers(theta, net.layer_sizes)
    return TrainedExpert(
        network=MlpNetwork(net.layer_sizes, tuple(ws), tuple(bs)),
        normalizer=norm,
        features=matrix.specs,
        train_range=(matrix.start, matrix.end),
        final_train_error=error,
        rng_seed=config.rng_seed,
    )


def train_many(
    nets: Sequence[MlpNetwork],
    matrices: Sequence[FeatureMatrix],
    configs: Sequence[TrainConfig],
) -> List[TrainedExpert | TrainingDiverged]:
    """Train each net on its matrix with its config; one slot per net.

    Each net gets the normalizer fitted on its matrix; nets given one matrix
    object share one normalizer, fitted once. Online gradient descent: one
    update per pattern, fixed order, one full pass per epoch. A net stops
    once its epoch-end mean squared error (normalized space) reaches
    target_error, or at max_epochs; a net whose error turns non-finite stops
    too and its slot holds TrainingDiverged. Each net trains alone, so its
    result is the same whatever the other nets of the call."""
    if not nets or not len(nets) == len(matrices) == len(configs):
        raise ValueError(
            f"need one matrix and one config per net, got {len(nets)} nets, "
            f"{len(matrices)} matrices and {len(configs)} configs"
        )
    fits: Dict[int, Tuple[Normalizer, np.ndarray, np.ndarray]] = {}
    for i, (net, matrix) in enumerate(zip(nets, matrices)):
        if net.n_in != matrix.width:
            raise ValueError(f"net {i} expects {net.n_in} inputs, its matrix has {matrix.width}")
        if net.n_out != 1:
            raise ValueError("time-series experts have a single output")
        if id(matrix) not in fits:
            norm = Normalizer.fit(matrix.X, matrix.y)
            fits[id(matrix)] = (norm, np.ascontiguousarray(norm.normalize_inputs(matrix.X)),
                                np.ascontiguousarray(norm.normalize_target(matrix.y)))
    lib = _step_library()
    return [
        _train(lib, net, matrix, config, fits[id(matrix)])
        for net, matrix, config in zip(nets, matrices, configs)
    ]


def train(net: MlpNetwork, matrix: FeatureMatrix, config: TrainConfig) -> TrainedExpert:
    """One net through train_many; raises TrainingDiverged if it diverges."""
    (result,) = train_many([net], [matrix], [config])
    if isinstance(result, TrainingDiverged):
        raise result
    return result


def predict(expert: TrainedExpert, matrix: FeatureMatrix) -> TimeSeries:
    """Row-wise normalized forward pass, denormalized and dated by the matrix."""
    if matrix.specs != expert.features:
        raise ValueError("matrix columns do not match the expert's features")
    net = expert.network
    out = _forward(net.weights, net.biases, expert.normalizer.normalize_inputs(matrix.X))
    return TimeSeries(matrix.start, expert.normalizer.denormalize_target(out[:, 0]))


def error_percent(predicted: TimeSeries, matrix: FeatureMatrix) -> float:
    """100 * mean(|prediction - target|) / mean(|target|) over the matrix rows,
    given a prediction of those rows (see predict)."""
    if predicted.start != matrix.start or len(predicted) != matrix.rows:
        raise ValueError("the prediction does not cover the matrix rows")
    denom = float(np.mean(np.abs(matrix.y)))
    if denom == 0:
        raise ValueError("error percentage undefined for an all-zero target")
    return 100.0 * float(np.mean(np.abs(predicted.values - matrix.y))) / denom


# ---------------------------------------------------------------------------
# Serialization (JSON, bit-exact round trip)
# ---------------------------------------------------------------------------


def expert_to_dict(expert: TrainedExpert) -> Dict[str, object]:
    net = expert.network
    return {
        "layer_sizes": list(net.layer_sizes),
        "hidden_activation": "logistic",
        "output_activation": "linear",
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "normalizer": {
            "input_shift": expert.normalizer.input_shift.tolist(),
            "input_scale": expert.normalizer.input_scale.tolist(),
            "target_shift": expert.normalizer.target_shift,
            "target_scale": expert.normalizer.target_scale,
        },
        "features": [spec.to_dict() for spec in expert.features],
        "train_range": range_to_json(expert.train_range),
        "test_range": range_to_json(expert.test_range) if expert.test_range else None,
        "final_train_error": expert.final_train_error,
        "rng_seed": expert.rng_seed,
    }


def _is_ints(value: Sequence[object]) -> bool:
    return all(type(v) is int for v in value)


def _is_numbers(value: Sequence[object]) -> bool:
    return all(type(v) is int or type(v) is float and math.isfinite(v) for v in value)


def _is_vectors(value: Sequence[object]) -> bool:
    return all(type(v) is list and _is_numbers(v) for v in value)


def _is_matrices(value: Sequence[object]) -> bool:
    return all(type(v) is list and _is_vectors(v) for v in value)


def expert_from_dict(data: object, path: str = "expert") -> TrainedExpert:
    """Inverse of expert_to_dict; errors name the key's path under `path`."""
    obj = JsonObject(data, path)
    sizes = obj.get("layer_sizes", REQUIRED, (list,), _is_ints, "a list of integers")
    # The one kind of net there is, written into every expert file.
    obj.get("hidden_activation", REQUIRED, (str,), "logistic".__eq__, "'logistic'")
    obj.get("output_activation", REQUIRED, (str,), "linear".__eq__, "'linear'")
    finite = "of finite numbers"
    weights = obj.get("weights", REQUIRED, (list,), _is_matrices, f"a list of matrices {finite}")
    biases = obj.get("biases", REQUIRED, (list,), _is_vectors, f"a list of vectors {finite}")
    nd = obj.section("normalizer", REQUIRED)
    shift = nd.get("input_shift", REQUIRED, (list,), _is_numbers, f"a list {finite}")
    scale = nd.get("input_scale", REQUIRED, (list,), _is_numbers, f"a list {finite}")
    target_shift = nd.get("target_shift", REQUIRED, (float, int))
    target_scale = nd.get("target_scale", REQUIRED, (float, int))
    nd.close()
    features = obj.get("features", REQUIRED, (list,))
    train_range = read_range(obj, "train_range")
    test_range = read_range(obj, "test_range", None)
    final_train_error = obj.get("final_train_error", REQUIRED, (float, int))
    rng_seed = obj.get("rng_seed", REQUIRED, (int,))
    obj.close()
    specs = tuple(FeatureSpec.from_dict(f, f"{path}.features[{i}]") for i, f in enumerate(features))
    try:
        net = MlpNetwork(
            sizes,
            tuple(np.array(w, dtype=float) for w in weights),
            tuple(np.array(b, dtype=float) for b in biases),
        )
        norm = Normalizer(
            np.array(shift, dtype=float),
            np.array(scale, dtype=float),
            float(target_shift),
            float(target_scale),
        )
        if not net.n_in == len(norm.input_shift) == len(specs):
            raise ValueError(
                f"{net.n_in} inputs, {len(norm.input_shift)} normalizer columns "
                f"and {len(specs)} features do not match"
            )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return TrainedExpert(
        network=net,
        normalizer=norm,
        features=specs,
        train_range=train_range,
        final_train_error=float(final_train_error),
        rng_seed=rng_seed,
        test_range=test_range,
    )


def load_expert(path: str) -> TrainedExpert:
    return expert_from_dict(read_json(path), path)
