"""Multi-layer perceptron with supervised online gradient training.

Hidden layers are logistic; the output layer is logistic or linear. Training
runs per-pattern (stochastic) weight updates in fixed row order for exact
reproducibility, minimizing the half-sum-of-squares error.

`train_many` is the one training loop. It steps K nets through the patterns
in lockstep, one feature matrix per net, all with the same number of rows.
The nets share their hidden and output layers but may differ in input width.
Their weights are stacked (K, out, in) and their activations kept as
(K, n, 1) columns, so a contraction is one batched matmul, which numpy runs
as the same BLAS call per net that a lone net would make. The first layer is
the exception: it is held zero-padded to the widest input, with the nets
sorted by width, and its product runs once per run of equal widths, on views
of the unpadded width. A padded product is not bit-identical: a BLAS dot
product sums in another order once its length changes (with OpenBLAS on x86,
padding keeps the bits only for widths that are multiples of 4). So each
net's weights are bit-identical to training it alone, whatever K, its
neighbours' widths and its place in the batch. `train` is the K = 1 case.
"""

from __future__ import annotations

import itertools
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


# (start, stop, width) of each run of equal input widths in a batch sorted by
# width, or None when one width spans the batch.
_WidthGroups = List[Tuple[int, int, int]] | None


def _width_groups(widths: Sequence[int]) -> _WidthGroups:
    groups, start = [], 0
    for width, run in itertools.groupby(widths):
        stop = start + len(list(run))
        groups.append((start, stop, width))
        start = stop
    return groups if len(groups) > 1 else None


def forward(net: MlpNetwork, x: Sequence[float]) -> np.ndarray:
    """Single forward pass; input length must equal the input layer size."""
    a = np.asarray(x, dtype=float)
    if a.shape != (net.n_in,):
        raise ValueError(f"input length {a.shape} does not match n_in {net.n_in}")
    for kind, w, b in zip(_layer_kinds(net), net.weights, net.biases):
        a = _activate(kind, w @ a + b)
    return a


def _forward_batch(
    kinds: Sequence[str],
    ws: Sequence[np.ndarray],
    bs: Sequence[np.ndarray],
    X: np.ndarray,
    groups: _WidthGroups = None,
) -> np.ndarray:
    """Outputs for every row of X, one row per pattern. Biases are rows:
    (out,), or (K, 1, out) beside weights stacked (K, out, in) over K nets,
    which gives (K, n, n_out). X is (n, in) for every net, or (K, n, in)
    with the first layer's product taken per width group (see _width_groups)."""
    a = X
    for l, (kind, w, b) in enumerate(zip(kinds, ws, bs)):
        if l == 0 and groups is not None:
            z = np.concatenate(
                [a[i:j, :, :n] @ w[i:j, :, :n].swapaxes(-1, -2) for i, j, n in groups]
            )
        else:
            z = a @ w.swapaxes(-1, -2)
        a = _activate(kind, z + b)
    return a


def _backprop(
    kinds: Sequence[str],
    ws: Sequence[np.ndarray],
    bs: Sequence[np.ndarray],
    x: np.ndarray,
    target: object,
    groups: _WidthGroups = None,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Gradient of E = 1/2 * sum((out - target)^2) for one pattern by reverse
    accumulation, in column layout: x is (in, 1), each weight (out, in) and
    bias (out, 1), or all of them stacked over K nets as (K, ...), where x may
    stay one (in, 1) column for all nets or be (K, in, 1) with the first
    layer's product taken per width group. Every delta comes from the weights
    as passed in, so a caller may update them in place once this returns."""
    w0 = ws[0]
    if groups is None:
        z = w0 @ x
    else:
        z = np.concatenate([w0[i:j, :, :n] @ x[i:j, :n] for i, j, n in groups])
    acts = [x, _activate(kinds[0], z + bs[0])]
    for kind, w, b in zip(kinds[1:], ws[1:], bs[1:]):
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
    nets: Sequence[MlpNetwork],
    matrices: Sequence[FeatureMatrix],
    configs: Sequence[TrainConfig],
) -> None:
    if not nets or not len(nets) == len(matrices) == len(configs):
        raise ValueError(
            f"need one matrix and one config per net, got {len(nets)} nets, "
            f"{len(matrices)} matrices and {len(configs)} configs"
        )
    first = nets[0]
    layout = (first.layer_sizes[1:], first.hidden_activation, first.output_activation)
    if any((n.layer_sizes[1:], n.hidden_activation, n.output_activation) != layout for n in nets):
        raise ValueError(
            "nets trained together must share hidden and output layers and activations"
        )
    if any(replace(c, rng_seed=configs[0].rng_seed) != configs[0] for c in configs):
        raise ValueError("configs trained together may differ only in rng_seed")
    for i, (net, matrix) in enumerate(zip(nets, matrices)):
        if net.n_in != matrix.width:
            raise ValueError(f"net {i} expects {net.n_in} inputs, its matrix has {matrix.width}")
        if matrix.rows != matrices[0].rows:
            raise ValueError(
                f"matrices trained together need equal rows, net {i} has {matrix.rows}, "
                f"net 0 has {matrices[0].rows}"
            )
    if first.n_out != 1:
        raise ValueError("time-series experts have a single output")


def _step_views(X: np.ndarray, Y: np.ndarray, shared: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Per-pattern input columns and targets: [p] gives (in, 1) and a scalar
    for a matrix shared by all nets, (K, in, 1) and (K, 1, 1) otherwise."""
    if shared:
        return X[:, :, None], Y[0]
    return X.transpose(1, 0, 2)[:, :, :, None], Y.T[:, :, None, None]


def train_many(
    nets: Sequence[MlpNetwork],
    matrices: Sequence[FeatureMatrix],
    configs: Sequence[TrainConfig],
) -> List[TrainedExpert | TrainingDiverged]:
    """Train K nets in lockstep, each on its own matrix; one slot per net.

    The matrices must have equal row counts, the nets equal hidden and output
    layers, and the configs may differ only in rng_seed. Each net gets its own
    normalizer, fitted on its matrix; a matrix passed for every net is
    normalized once and shared. Online gradient descent: one update per
    pattern, fixed order, one full pass per epoch. A net stops once its
    epoch-end mean squared error (normalized space) reaches target_error, or
    at max_epochs; a net whose error turns non-finite stops too and its slot
    holds TrainingDiverged. Either way it leaves the batch with its weights
    frozen and the others go on. Each net's result is bit-identical to
    training it alone, whatever K, its neighbours and its place in the batch."""
    _check_batch(nets, matrices, configs)
    first, config = nets[0], configs[0]
    K, rows = len(nets), matrices[0].rows
    active = sorted(range(K), key=lambda slot: nets[slot].n_in)  # slot of each batch position
    widths = [nets[slot].n_in for slot in active]
    groups = _width_groups(widths)
    shared = all(m is matrices[0] for m in matrices)
    if shared:
        norms = [Normalizer.fit(matrices[0].X, matrices[0].y, first.output_activation)] * K
        X = norms[0].normalize_inputs(matrices[0].X)
        Y = np.broadcast_to(norms[0].normalize_target(matrices[0].y), (K, rows))
    else:
        norms = [Normalizer.fit(m.X, m.y, first.output_activation) for m in matrices]
        X = np.zeros((K, rows, widths[-1]))
        for pos, slot in enumerate(active):
            X[pos, :, : widths[pos]] = norms[slot].normalize_inputs(matrices[slot].X)
        Y = np.stack([norms[slot].normalize_target(matrices[slot].y) for slot in active])
    columns, targets = _step_views(X, Y, shared)

    kinds = _layer_kinds(first)
    ws = [np.zeros((K, first.layer_sizes[1], widths[-1]))]
    for pos, slot in enumerate(active):
        ws[0][pos, :, : widths[pos]] = nets[slot].weights[0]
    ws += [np.stack([nets[slot].weights[l] for slot in active]) for l in range(1, len(kinds))]
    bs = [
        np.stack([nets[slot].biases[l] for slot in active])[:, :, None] for l in range(len(kinds))
    ]
    eta = config.learning_rate
    results: List[TrainedExpert | TrainingDiverged] = [None] * K  # type: ignore[list-item]

    def finish(pos: int, final_error: float) -> TrainedExpert:
        slot, width = active[pos], widths[pos]
        net = MlpNetwork(
            (width, *first.layer_sizes[1:]),
            (ws[0][pos, :, :width], *(w[pos] for w in ws[1:])),
            tuple(b[pos, :, 0] for b in bs),
            first.hidden_activation,
            first.output_activation,
        )
        matrix = matrices[slot]
        return TrainedExpert(
            network=net,
            normalizer=norms[slot],
            features=matrix.specs,
            train_range=(matrix.start, matrix.end),
            final_train_error=final_error,
            rng_seed=configs[slot].rng_seed,
        )

    # Overflow inside an epoch is how divergence manifests; it is detected at
    # the epoch-end error check rather than warned about per operation.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            for p in range(rows):
                dws, dbs = _backprop(kinds, ws, bs, columns[p], targets[p], groups)
                for w, b, dw, db in zip(ws, bs, dws, dbs):
                    w -= eta * dw
                    b -= eta * db
            out = _forward_batch(kinds, ws, [b.swapaxes(1, 2) for b in bs], X, groups)
            keep = []
            for pos, slot in enumerate(active):
                error = float(np.mean((out[pos, :, 0] - Y[pos]) ** 2))
                if not np.isfinite(error):
                    results[slot] = TrainingDiverged(epoch)
                elif error <= config.target_error or epoch == config.max_epochs:
                    results[slot] = finish(pos, error)
                else:
                    keep.append(pos)
            if len(keep) < len(active):
                if not keep:
                    break
                # Compact the stacks. The padding is trimmed to the widest net
                # left, so a single width group left spans the whole first layer.
                active = [active[pos] for pos in keep]
                widths = [widths[pos] for pos in keep]
                groups = _width_groups(widths)
                w0 = np.ascontiguousarray(ws[0][keep, :, : widths[-1]])
                ws = [w0] + [w[keep] for w in ws[1:]]
                bs = [b[keep] for b in bs]
                Y = Y[keep]
                if not shared:
                    X = np.ascontiguousarray(X[keep, :, : widths[-1]])
                columns, targets = _step_views(X, Y, shared)
    return results


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
    out = _forward_batch(
        _layer_kinds(net), net.weights, net.biases, expert.normalizer.normalize_inputs(matrix.X)
    )
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
