"""Multi-layer perceptron with supervised online gradient training.

Hidden layers are logistic; the output layer is logistic or linear. Training
runs per-pattern (stochastic) weight updates in fixed row order for exact
reproducibility, minimizing the half-sum-of-squares error.

`train_many` is the one training loop. It steps K same-shape nets through
the patterns in lockstep, their weights stacked (K, out, in) and their
activations kept as (K, n, 1) columns, so every contraction is one batched
matmul. numpy runs that matmul as the same BLAS call per net that a lone net
would make, so each net's weights are bit-identical to training it alone,
whatever K and wherever it sits in the batch. `train` is the K = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .artifacts import REQUIRED, JsonObject, read_json, write_json
from .preprocess import FeatureMatrix, FeatureSpec
from .timeseries import MonthStamp, TimeSeries, range_to_json, read_range

__all__ = [
    "ACTIVATIONS",
    "TrainingDiverged",
    "TrainConfig",
    "MlpNetwork",
    "Normalizer",
    "TrainedExpert",
    "init",
    "forward",
    "gradients",
    "train",
    "train_many",
    "predict",
    "error_percent",
    "expert_to_dict",
    "expert_from_dict",
    "save_expert",
    "load_expert",
]

ACTIVATIONS = ("logistic", "linear")


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the epoch at which it happened."""

    def __init__(self, epoch: int, message: str | None = None):
        super().__init__(message or f"training diverged at epoch {epoch} (non-finite loss)")
        self.epoch = epoch


def _logistic(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e) for z >= 0 and e / (1 + e) below, with e = exp(-|z|), which
    # never overflows. The numerator max(e, sign(z)) is 1 for z >= 0 (as e <= 1
    # there) and e below; one call cheaper than np.where on a comparison.
    e = np.exp(-np.abs(z))
    return np.maximum(e, np.sign(z)) / (1.0 + e)


def _activate(kind: str, z: np.ndarray) -> np.ndarray:
    return _logistic(z) if kind == "logistic" else z


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the online training loop."""

    learning_rate: float = 0.05
    init_weight_bound: float = 0.3
    max_epochs: int = 5000
    target_error: float = 0.0
    rng_seed: int = 1

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.init_weight_bound < 0:
            raise ValueError("init_weight_bound must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.target_error < 0:
            raise ValueError("target_error must be >= 0")


@dataclass(frozen=True)
class MlpNetwork:
    """Layered weights/biases; weights[l] maps layer l activations to layer l+1."""

    layer_sizes: Tuple[int, ...]
    weights: Tuple[np.ndarray, ...]
    biases: Tuple[np.ndarray, ...]
    hidden_activation: str = "logistic"
    output_activation: str = "linear"

    def __post_init__(self) -> None:
        sizes = tuple(int(n) for n in self.layer_sizes)
        if len(sizes) < 2 or any(n < 1 for n in sizes):
            raise ValueError(f"bad layer sizes {sizes}")
        if self.hidden_activation not in ACTIVATIONS or self.output_activation not in ACTIVATIONS:
            raise ValueError("unknown activation kind")
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


def init(
    layer_sizes: Sequence[int],
    config: TrainConfig,
    hidden_activation: str = "logistic",
    output_activation: str = "linear",
) -> MlpNetwork:
    """Draw every weight and bias uniformly from [-bound, +bound], seeded."""
    sizes = tuple(int(n) for n in layer_sizes)
    if len(sizes) < 3:
        raise ValueError("at least one hidden layer is required")
    rng = np.random.default_rng(config.rng_seed)
    b = config.init_weight_bound
    weights, biases = [], []
    for l in range(len(sizes) - 1):
        weights.append(rng.uniform(-b, b, size=(sizes[l + 1], sizes[l])))
        biases.append(rng.uniform(-b, b, size=sizes[l + 1]))
    return MlpNetwork(sizes, tuple(weights), tuple(biases), hidden_activation, output_activation)


def _layer_kinds(net: MlpNetwork) -> List[str]:
    n_layers = len(net.weights)
    return [net.hidden_activation] * (n_layers - 1) + [net.output_activation]


def forward(net: MlpNetwork, x: Sequence[float]) -> np.ndarray:
    """Single forward pass; input length must equal the input layer size."""
    a = np.asarray(x, dtype=float)
    if a.shape != (net.n_in,):
        raise ValueError(f"input length {a.shape} does not match n_in {net.n_in}")
    for kind, w, b in zip(_layer_kinds(net), net.weights, net.biases):
        a = _activate(kind, w @ a + b)
    return a


def _forward_batch(
    kinds: Sequence[str], ws: Sequence[np.ndarray], bs: Sequence[np.ndarray], X: np.ndarray
) -> np.ndarray:
    """Outputs for every row of X, one row per pattern. Biases are rows:
    (out,), or (K, 1, out) beside weights stacked (K, out, in) over K nets,
    which gives (K, n, n_out)."""
    a = X
    for kind, w, b in zip(kinds, ws, bs):
        a = _activate(kind, a @ w.swapaxes(-1, -2) + b)
    return a


def _backprop(
    kinds: Sequence[str],
    ws: Sequence[np.ndarray],
    bs: Sequence[np.ndarray],
    x: np.ndarray,
    target: object,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Gradient of E = 1/2 * sum((out - target)^2) for one pattern by reverse
    accumulation, in column layout: x is (in, 1), each weight (out, in) and
    bias (out, 1), or all of them stacked over K nets as (K, ...). Every
    delta comes from the weights as passed in, so a caller may update them in
    place once this returns."""
    acts = [x]
    for kind, w, b in zip(kinds, ws, bs):
        acts.append(_activate(kind, w @ acts[-1] + b))
    delta = acts[-1] - target
    dws: List[np.ndarray] = [None] * len(ws)  # type: ignore[list-item]
    dbs: List[np.ndarray] = [None] * len(ws)  # type: ignore[list-item]
    for l in range(len(ws) - 1, -1, -1):
        if kinds[l] == "logistic":
            # The logistic slope expressed through the activation itself.
            delta = delta * (acts[l + 1] * (1.0 - acts[l + 1]))
        dws[l] = delta * acts[l].swapaxes(-1, -2)
        dbs[l] = delta
        if l > 0:
            delta = ws[l].swapaxes(-1, -2) @ delta
    return dws, dbs


def gradients(
    net: MlpNetwork, x: Sequence[float], target: Sequence[float]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Exact gradient of E = 1/2 * sum((out - target)^2) for one pattern,
    via reverse accumulation. Returns (dWs, dbs) matching net layout."""
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    if x.shape != (net.n_in,) or target.shape != (net.n_out,):
        raise ValueError("input/target dimensions do not match the network")
    bs = [b[:, None] for b in net.biases]
    dws, dbs = _backprop(_layer_kinds(net), net.weights, bs, x[:, None], target[:, None])
    return dws, [db[:, 0] for db in dbs]


@dataclass(frozen=True)
class Normalizer:
    """Per-column affine maps fitted on training rows only.

    Inputs are standardized; the target is standardized for a linear output
    unit and mapped into [0.1, 0.9] for a logistic one.
    """

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
    def fit(cls, X: np.ndarray, y: np.ndarray, output_activation: str) -> "Normalizer":
        shift = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        if output_activation == "logistic":
            lo, hi = float(y.min()), float(y.max())
            span = hi - lo
            t_scale = span / 0.8 if span > 0 else 1.0
            t_shift = lo - 0.1 * t_scale
        else:
            t_shift = float(y.mean())
            t_scale = float(y.std()) or 1.0
        return cls(shift, scale, t_shift, t_scale)

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


def _check_batch(
    nets: Sequence[MlpNetwork], matrix: FeatureMatrix, configs: Sequence[TrainConfig]
) -> None:
    if not nets or len(nets) != len(configs):
        raise ValueError(f"need one config per net, got {len(nets)} nets, {len(configs)} configs")
    first = nets[0]
    layout = (first.layer_sizes, first.hidden_activation, first.output_activation)
    if any((n.layer_sizes, n.hidden_activation, n.output_activation) != layout for n in nets):
        raise ValueError("nets trained together must share layer sizes and activations")
    if any(replace(c, rng_seed=configs[0].rng_seed) != configs[0] for c in configs):
        raise ValueError("configs trained together may differ only in rng_seed")
    if first.n_in != matrix.width:
        raise ValueError(f"network expects {first.n_in} inputs, matrix has {matrix.width}")
    if first.n_out != 1:
        raise ValueError("time-series experts have a single output")


def train_many(
    nets: Sequence[MlpNetwork], matrix: FeatureMatrix, configs: Sequence[TrainConfig]
) -> List[TrainedExpert | TrainingDiverged]:
    """Train K same-shape nets on one matrix in lockstep, one slot per net.

    Online gradient descent: one update per pattern, fixed order, one full
    pass per epoch. The K nets are stacked (K, out, in), so each step is one
    batched matmul for all of them. A net stops once its epoch-end mean
    squared error (normalized space) reaches target_error, or at max_epochs;
    a net whose error turns non-finite stops too and its slot holds
    TrainingDiverged. Either way it leaves the batch with its weights frozen
    and the others go on. Each net's result is bit-identical to training it
    alone, whatever K and wherever it sits in the batch."""
    _check_batch(nets, matrix, configs)
    first, config = nets[0], configs[0]
    norm = Normalizer.fit(matrix.X, matrix.y, first.output_activation)
    Xn = norm.normalize_inputs(matrix.X)
    yn = norm.normalize_target(matrix.y)
    columns = Xn[:, :, None]

    kinds = _layer_kinds(first)
    ws = [np.stack(layer) for layer in zip(*(net.weights for net in nets))]
    bs = [np.stack(layer)[:, :, None] for layer in zip(*(net.biases for net in nets))]
    eta = config.learning_rate
    active = list(range(len(nets)))  # slot of each batch position
    results: List[TrainedExpert | TrainingDiverged] = [None] * len(nets)  # type: ignore[list-item]

    def finish(i: int, final_error: float) -> TrainedExpert:
        net = MlpNetwork(
            first.layer_sizes,
            tuple(w[i] for w in ws),
            tuple(b[i, :, 0] for b in bs),
            first.hidden_activation,
            first.output_activation,
        )
        return TrainedExpert(
            network=net,
            normalizer=norm,
            features=matrix.specs,
            train_range=(matrix.start, matrix.end),
            final_train_error=final_error,
            rng_seed=configs[active[i]].rng_seed,
        )

    # Overflow inside an epoch is how divergence manifests; it is detected at
    # the epoch-end error check rather than warned about per operation.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            for p in range(matrix.rows):
                dws, dbs = _backprop(kinds, ws, bs, columns[p], yn[p])
                for w, b, dw, db in zip(ws, bs, dws, dbs):
                    w -= eta * dw
                    b -= eta * db
            out = _forward_batch(kinds, ws, [b.swapaxes(1, 2) for b in bs], Xn)
            keep = []
            for i, slot in enumerate(active):
                error = float(np.mean((out[i, :, 0] - yn) ** 2))
                if not np.isfinite(error):
                    results[slot] = TrainingDiverged(epoch)
                elif error <= config.target_error or epoch == config.max_epochs:
                    results[slot] = finish(i, error)
                else:
                    keep.append(i)
            if len(keep) < len(active):
                if not keep:
                    break
                ws = [w[keep] for w in ws]
                bs = [b[keep] for b in bs]
                active = [active[i] for i in keep]
    return results


def train(net: MlpNetwork, matrix: FeatureMatrix, config: TrainConfig) -> TrainedExpert:
    """One net through train_many; raises TrainingDiverged if it diverges."""
    (result,) = train_many([net], matrix, [config])
    if isinstance(result, TrainingDiverged):
        raise result
    return result


def predict(expert: TrainedExpert, matrix: FeatureMatrix) -> TimeSeries:
    """Row-wise normalized forward pass, denormalized and dated by the matrix."""
    if matrix.specs != expert.features:
        raise ValueError("matrix columns do not match the expert's features")
    net = expert.network
    out = _forward_batch(
        _layer_kinds(net), net.weights, net.biases, expert.normalizer.normalize_inputs(matrix.X)
    )
    return TimeSeries(matrix.start, expert.normalizer.denormalize_target(out[:, 0]))


def error_percent(expert: TrainedExpert, matrix: FeatureMatrix) -> float:
    """100 * mean(|prediction - target|) / mean(|target|) over the matrix rows."""
    denom = float(np.mean(np.abs(matrix.y)))
    if denom == 0:
        raise ValueError("error percentage undefined for an all-zero target")
    preds = predict(expert, matrix).values
    return 100.0 * float(np.mean(np.abs(preds - matrix.y))) / denom


# ---------------------------------------------------------------------------
# Serialization (JSON, bit-exact round trip)
# ---------------------------------------------------------------------------


def expert_to_dict(expert: TrainedExpert) -> Dict[str, object]:
    net = expert.network
    return {
        "layer_sizes": list(net.layer_sizes),
        "hidden_activation": net.hidden_activation,
        "output_activation": net.output_activation,
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
    return all(type(v) in (int, float) for v in value)


def _is_vectors(value: Sequence[object]) -> bool:
    return all(type(v) is list and _is_numbers(v) for v in value)


def _is_matrices(value: Sequence[object]) -> bool:
    return all(type(v) is list and _is_vectors(v) for v in value)


def expert_from_dict(data: object, path: str = "expert") -> TrainedExpert:
    """Inverse of expert_to_dict; errors name the key's path under `path`."""
    obj = JsonObject(data, path)
    sizes = obj.get("layer_sizes", REQUIRED, (list,), _is_ints, "a list of integers")
    kind = "'logistic' or 'linear'"
    hidden = obj.get("hidden_activation", REQUIRED, (str,), ACTIVATIONS.__contains__, kind)
    output = obj.get("output_activation", REQUIRED, (str,), ACTIVATIONS.__contains__, kind)
    weights = obj.get("weights", REQUIRED, (list,), _is_matrices, "a list of matrices")
    biases = obj.get("biases", REQUIRED, (list,), _is_vectors, "a list of vectors")
    nd = obj.section("normalizer", REQUIRED)
    shift = nd.get("input_shift", REQUIRED, (list,), _is_numbers, "a list of numbers")
    scale = nd.get("input_scale", REQUIRED, (list,), _is_numbers, "a list of numbers")
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
            hidden,
            output,
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


def save_expert(expert: TrainedExpert, path: str) -> None:
    write_json(path, expert_to_dict(expert))


def load_expert(path: str) -> TrainedExpert:
    return expert_from_dict(read_json(path), path)
