"""Multi-layer perceptron with supervised online gradient training.

Hidden layers are logistic and the output layer is linear, the one kind of
net every command trains. Training runs per-pattern (stochastic) weight
updates in fixed row order for exact reproducibility, minimizing the
half-sum-of-squares error.

`train_many` is the one training loop. It takes any nets, one feature matrix
and one config per net, and sorts them into lockstep batches: the nets of a
batch share their hidden and output layers, their row count and their config
up to rng_seed, and may differ in input width. Each normalizer, with the
normalized inputs and targets, is computed once per distinct matrix object.
A batch steps its K nets through the patterns together. Their weights are
stacked (K, out, in) and their activations kept as (K, n, 1) columns, so a
contraction is one call for all K nets, at the cheapest numpy entry that
makes the same IEEE operations in the same order: a batched matmul, which numpy runs as the same
BLAS call per net that a lone net would make; np.dot on 2-D and 1-D views
where the stack holds one net, which reaches that same BLAS call; and an
elementwise multiply where the contraction has length one, as through an
output layer of one unit. The first layer is the exception: it is held
zero-padded to the widest input, with the nets sorted by width, and its
product runs once per run of equal widths, on views of the unpadded width. A
padded product is not bit-identical: a BLAS dot product sums in another
order once its length changes (with OpenBLAS on x86, padding keeps the bits
only for widths that are multiples of 4). So each net's weights are
bit-identical to training it alone, whatever K, its neighbours' widths and
its place in the batch. `train` is the K = 1 case.

A batch is laid out in one place: _Lockstep builds itself from its nets, and
a step creates no array at the Python level (np.dot copies a strided one-net
weight view inside numpy). Every weight and bias of the batch lives in one
flat buffer `theta`, the pattern's gradient in a second buffer `grad` of the
same layout, and the stacked weights and biases are views into them, so the
update for a pattern is two calls: grad *= eta, then theta -= grad. The
buffers are allocated once per batch, and so is the step: each pattern's is
compiled to a flat list of prebound (numpy function, arguments) calls,
outputs positional and the constants 1, -1 and eta arrays of their operand's
size (the scalars' bits, without a conversion per call), and an epoch runs
all patterns' calls as one loop. Which function each product calls, and the
views it takes, are decided once per batch. When nets leave a batch, the
rest go on in a new batch that _Lockstep builds, and compiles, from them as
they stand. The step keeps the operations and their order that fix the bits:
the same BLAS products, the logistic as max(e, sign(z)) / (1 + e) with
e = exp(-|z|), the slope as delta * (a * (1 - a)) and the update as
eta * dw, then a subtraction. `gradients` runs the same calls for one net,
without the update.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

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


# One call of a compiled step: a numpy function and its arguments, outputs last.
_Call = Tuple[Callable[..., object], Tuple[object, ...]]


def _run(calls: Sequence[_Call]) -> None:
    for f, args in calls:
        f(*args)


def _logistic_calls(z: np.ndarray, e: np.ndarray, minus_one: object, one: object) -> List[_Call]:
    """The calls that overwrite z with its logistic; e is scratch of z's shape.

    1 / (1 + e) for z >= 0 and e / (1 + e) below, with e = exp(-|z|), which
    never overflows. The numerator max(e, sign(z)) is 1 for z >= 0 (as e <= 1
    there) and e below; one call cheaper than np.where on a comparison.
    copysign(z, -1) is -|z| bit for bit, in one call. The max is np.fmax,
    the cheaper call, which takes its output positionally (np.maximum warns
    on that). The two differ only where an operand is NaN, and e and sign(z)
    are NaN together, so both give NaN there, at most with another sign bit,
    which no output shows: a NaN loss stops the net as diverged, and text
    prints a NaN without its sign."""
    return [
        (np.copysign, (z, minus_one, e)),
        (np.exp, (e, e)),
        (np.sign, (z, z)),
        (np.fmax, (e, z, z)),
        (np.add, (e, one, e)),
        (np.divide, (z, e, z)),
    ]


def _logistic(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Overwrite z with its logistic and return it; e is scratch of z's shape."""
    _run(_logistic_calls(z, e, -1.0, 1.0))
    return z


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


# (start, stop, width) of each run of equal input widths in a batch sorted by width.
_WidthGroups = List[Tuple[int, int, int]]


def _width_groups(widths: Sequence[int]) -> _WidthGroups:
    groups, start = [], 0
    for width, run in itertools.groupby(widths):
        stop = start + len(list(run))
        groups.append((start, stop, width))
        start = stop
    return groups


def _forward_batch(
    ws: Sequence[np.ndarray],
    bs: Sequence[np.ndarray],
    X: np.ndarray,
    groups: _WidthGroups | None = None,
) -> np.ndarray:
    """Outputs for every row of X, one row per pattern. Biases are rows:
    (out,), or (K, 1, out) beside weights stacked (K, out, in) over K nets,
    which gives (K, n, n_out). X is (n, in) for every net, or (K, n, in)
    with the first layer's product taken per width group (see _width_groups)."""
    a = X
    for l, (w, b) in enumerate(zip(ws, bs)):
        if l == 0 and groups is not None:
            z = np.concatenate(
                [a[i:j, :, :n] @ w[i:j, :, :n].swapaxes(-1, -2) for i, j, n in groups]
            )
        else:
            z = a @ w.swapaxes(-1, -2)
        a = z + b
        if l < len(ws) - 1:
            _logistic(a, np.empty_like(a))
    return a


class _Lockstep:
    """One lockstep batch: the parameters of K nets, their gradient for one
    pattern, and the buffers of a step, all allocated once, from the nets.

    `_Lockstep(nets)` takes nets equal in everything but input width, sorted
    by it, and is the one place a batch is laid out. Every weight and bias
    lives in one flat buffer `theta`: per layer the (K, out, in) weights, then
    the (K, out, 1) biases, the first layer's weights zero-padded to the
    widest input. `grad` has the same layout, so an update is two calls on the
    whole buffer. `ws`, `bs`, `dws` and `dbs` are views into them.
    `net(pos)` cuts one net back out; when nets leave a batch, the nets left
    are cut out that way and a new batch is built from them. `step` compiles
    one pattern's gradient into calls that write every activation, delta and
    gradient into these buffers: the bias, logistic, slope and delta
    arithmetic on flat 1-D views of the (K, n, 1) columns, each delta straight
    into its bias gradient, each outer product straight into its weight
    gradient. Only the first layer's products, the output delta and the first
    layer's weight gradient read the pattern; every other call is built once
    per batch and shared by all patterns' lists."""

    def __init__(self, nets: Sequence[MlpNetwork]) -> None:
        like = self.like = nets[0]
        self.widths = [net.n_in for net in nets]
        K, sizes = len(nets), (self.widths[-1], *like.layer_sizes[1:])
        shapes = [
            shape
            for n_in, n_out in zip(sizes, sizes[1:])
            for shape in ((K, n_out, n_in), (K, n_out, 1))
        ]
        self.theta = np.zeros(sum(math.prod(shape) for shape in shapes))
        self.grad = np.empty_like(self.theta)
        params, grads = _split(self.theta, shapes), _split(self.grad, shapes)
        self.ws, self.bs = params[0::2], params[1::2]
        self.dws, self.dbs = grads[0::2], grads[1::2]
        for pos, net in enumerate(nets):
            for w, b, net_w, net_b in zip(self.ws, self.bs, net.weights, net.biases):
                w[pos, :, : net_w.shape[1]] = net_w
                b[pos, :, 0] = net_b
        self.groups = _width_groups(self.widths)
        self.acts = [np.empty(b.shape) for b in self.bs]
        # (function, weights, output, input index) of each first-layer
        # product, one per width group; x[index] cuts its operand from the
        # pattern's (K, in) inputs x.
        self.first = []
        for i, j, n in self.groups:
            f, w, z = _product(self.ws[0][i:j, :, :n], self.acts[0][i:j])
            cut = (i, slice(n)) if f is np.dot else (slice(i, j), slice(n), None)
            self.first.append((f, w, z, cut))
        # A one-net batch takes its outer products as 2-D broadcasts. The
        # first layer's is (delta, x[row], gradient), x[row] the pattern's
        # inputs as a row.
        self.outer = (lambda v: v[0]) if K == 1 else (lambda v: v)
        self.row = () if K == 1 else (slice(None), None)
        self.delta, self.dw = self.outer(self.dbs[0]), self.outer(self.dws[0])
        self.bias_rows = [b.swapaxes(-1, -2) for b in self.bs]
        self.out, self.out_delta = self.acts[-1].reshape(-1), self.dbs[-1].reshape(-1)
        self.forward, self.backward = self._shared_calls()

    def net(self, pos: int) -> MlpNetwork:
        """The net at batch position pos, with its weights as they stand."""
        width, like = self.widths[pos], self.like
        return MlpNetwork(
            (width, *like.layer_sizes[1:]),
            (self.ws[0][pos, :, :width], *(w[pos] for w in self.ws[1:])),
            tuple(b[pos, :, 0] for b in self.bs),
        )

    def _shared_calls(self) -> Tuple[List[_Call], List[_Call]]:
        """The pattern-free calls of a step: the forward pass after the first
        layer's products, and the backward pass down to the first layer's
        weight gradient. They work on flat 1-D views of the (K, out, 1)
        columns: a, the pre-activation overwritten by the activation (the
        logistic, except at the linear output), and delta, dE/dz, which is
        also the bias gradient."""
        forward: List[_Call] = []
        backward: List[_Call] = []
        for l in range(len(self.acts)):
            a, b, delta = (v.reshape(-1) for v in (self.acts[l], self.bs[l], self.dbs[l]))
            if l:
                forward.append(_column_product(self.ws[l], self.acts[l - 1], self.acts[l]))
            forward.append((np.add, (a, b, a)))
            layer: List[_Call] = []
            if l < len(self.acts) - 1:
                scratch, one = np.empty(a.size), np.ones(a.size)  # for the logistic and its slope
                forward += _logistic_calls(a, scratch, np.full(a.size, -1.0), one)
                # The logistic slope expressed through the activation itself.
                layer += [
                    (np.subtract, (one, a, scratch)),
                    (np.multiply, (a, scratch, scratch)),
                    (np.multiply, (delta, scratch, delta)),
                ]
            if l:
                x_row = self.acts[l - 1].swapaxes(-1, -2)
                w_t = self.ws[l].swapaxes(-1, -2)
                layer += [
                    (np.multiply, tuple(map(self.outer, (self.dbs[l], x_row, self.dws[l])))),
                    _column_product(w_t, self.dbs[l], self.dbs[l - 1]),
                ]
            backward[:0] = layer  # the backward pass runs from the last layer
        return forward, backward

    def step(self, x: np.ndarray, target: object) -> List[_Call]:
        """The calls that write into `grad` the gradient of
        E = 1/2 * sum((out - target)^2) for one pattern, by reverse
        accumulation. `x` holds the input as (K, in) rows, zero-padded to the
        widest, and `target` one value per net and output. Every delta comes
        from the weights in `theta`, so they may be updated once the calls
        have run. The calls hold one view of x per width group and one row."""
        return [
            *((f, (w, x[cut], z)) for f, w, z, cut in self.first),
            *self.forward,
            (np.subtract, (self.out, target, self.out_delta)),
            *self.backward,
            (np.multiply, (self.delta, x[self.row], self.dw)),
        ]


def _product(
    w: np.ndarray, out: np.ndarray
) -> Tuple[Callable[..., object], np.ndarray, np.ndarray]:
    """The cheapest numpy function that writes w @ x into out, with the views
    of w and out it takes, for weights stacked (k, m, n) over k nets and out
    the (k, m, 1) columns. A contraction of length one (n = 1) is an
    elementwise np.multiply of w by the (k, 1, 1) x; one net's product is
    np.dot on w as (m, n) and x and out as 1-D; any other is np.matmul on the
    stacks. np.dot and np.matmul make the same BLAS call (gemv, or a dot for
    m = 1) for one net, so they give the same bits. A BLAS sum of one product
    starts from +0, so np.multiply differs only by giving -0 for a zero
    product where BLAS gives +0. The sign is lost in the bias addition or
    update that follows unless the other operand is a -0.0 bias or weight,
    which init never draws and an update never makes."""
    if w.shape[2] == 1:
        return np.multiply, w, out
    if len(w) == 1:
        return np.dot, w[0], out[0, :, 0]
    return np.matmul, w, out


def _column_product(w: np.ndarray, x: np.ndarray, out: np.ndarray) -> _Call:
    """The call of _product for x given as (k, n, 1) columns."""
    f, w, out = _product(w, out)
    return f, (w, x[0, :, 0] if f is np.dot else x, out)


def _split(buffer: np.ndarray, shapes: Sequence[Tuple[int, ...]]) -> List[np.ndarray]:
    """Consecutive views of buffer with the given shapes."""
    ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
    return [part.reshape(shape) for part, shape in zip(np.split(buffer, ends[:-1]), shapes)]


def gradients(
    net: MlpNetwork, x: Sequence[float], target: Sequence[float]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Exact gradient of E = 1/2 * sum((out - target)^2) for one pattern,
    via reverse accumulation. Returns (dWs, dbs) matching net layout."""
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    if x.shape != (net.n_in,) or target.shape != (net.n_out,):
        raise ValueError("input/target dimensions do not match the network")
    step = _Lockstep([net])
    _run(step.step(x[None], target))
    return [dw[0] for dw in step.dws], [db[0, :, 0] for db in step.dbs]


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


def _train_lockstep(
    nets: Sequence[MlpNetwork],
    matrices: Sequence[FeatureMatrix],
    configs: Sequence[TrainConfig],
    fits: Sequence[Tuple[Normalizer, np.ndarray, np.ndarray]],
) -> List[TrainedExpert | TrainingDiverged]:
    """train_many for one lockstep batch: nets with equal hidden and output
    layers, matrices with equal rows, configs equal up to rng_seed, and the
    normalizer of each net's matrix with its normalized inputs and targets.
    When nets leave, the rest go on in a new batch built from them as they
    stand, its padding trimmed to the widest of them."""
    config = configs[0]
    results: List[TrainedExpert | TrainingDiverged] = [None] * len(nets)  # type: ignore[list-item]
    slots = sorted(range(len(nets)), key=lambda slot: nets[slot].n_in)  # slot of each position
    batch, epoch = [nets[slot] for slot in slots], 0
    # Overflow inside an epoch is how divergence manifests; it is detected at
    # the epoch-end error check rather than warned about per operation.
    with np.errstate(over="ignore", invalid="ignore"):
        while batch:
            step = _Lockstep(batch)
            X = np.zeros((len(batch), matrices[0].rows, step.widths[-1]))
            for pos, (slot, width) in enumerate(zip(slots, step.widths)):
                X[pos, :, :width] = fits[slot][1]
            Y = np.stack([fits[slot][2] for slot in slots])
            eta, grad, theta = np.full(step.grad.size, config.learning_rate), step.grad, step.theta
            update = [(np.multiply, (grad, eta, grad)), (np.subtract, (theta, grad, theta))]
            # One epoch: each pattern's step, then its update, in row order.
            program: List[_Call] = []
            for x, target in zip(X.transpose(1, 0, 2), np.ascontiguousarray(Y.T)):
                program += step.step(x, target) + update
            for epoch in range(epoch + 1, config.max_epochs + 1):
                _run(program)
                out = _forward_batch(step.ws, step.bias_rows, X, step.groups)
                errors = np.mean((out[:, :, 0] - Y) ** 2, axis=1)  # each row's own 1-D bits
                # Walk the nets only in an epoch where one leaves: its error is
                # non-finite (NaN fails both tests), reached target_error, or
                # it is the last epoch.
                low, high = errors.min(), errors.max()
                if epoch < config.max_epochs and low > config.target_error and high < np.inf:
                    continue
                keep = []
                for pos, (slot, error) in enumerate(zip(slots, errors.tolist())):
                    if not np.isfinite(error):
                        results[slot] = TrainingDiverged(epoch)
                    elif error <= config.target_error or epoch == config.max_epochs:
                        matrix = matrices[slot]
                        results[slot] = TrainedExpert(
                            network=step.net(pos),
                            normalizer=fits[slot][0],
                            features=matrix.specs,
                            train_range=(matrix.start, matrix.end),
                            final_train_error=error,
                            rng_seed=configs[slot].rng_seed,
                        )
                    else:
                        keep.append(pos)
                break
            slots = [slots[pos] for pos in keep]
            batch = [step.net(pos) for pos in keep]
    return results


def train_many(
    nets: Sequence[MlpNetwork],
    matrices: Sequence[FeatureMatrix],
    configs: Sequence[TrainConfig],
) -> List[TrainedExpert | TrainingDiverged]:
    """Train each net on its matrix with its config; one slot per net.

    The nets are sorted into lockstep batches: those with equal hidden and
    output layers, equal matrix rows and configs equal up to rng_seed train
    together, whatever their input widths. Each net gets the normalizer
    fitted on its matrix; nets given one matrix object share one normalizer,
    fitted once. Online gradient descent: one update per pattern, fixed
    order, one full pass per epoch. A net stops once its epoch-end mean
    squared error (normalized space) reaches target_error, or at max_epochs;
    a net whose error turns non-finite stops too and its slot holds
    TrainingDiverged. Either way it leaves its batch with its weights frozen
    and the others go on. Each net's result is bit-identical to training it
    alone, whatever its neighbours and its place in the call. Every net is
    logistic with a linear output, so activations play no part in a batch."""
    if not nets or not len(nets) == len(matrices) == len(configs):
        raise ValueError(
            f"need one matrix and one config per net, got {len(nets)} nets, "
            f"{len(matrices)} matrices and {len(configs)} configs"
        )
    normalized: Dict[int, Tuple[Normalizer, np.ndarray, np.ndarray]] = {}
    fits, batches = [], {}
    for i, (net, matrix, config) in enumerate(zip(nets, matrices, configs)):
        if net.n_in != matrix.width:
            raise ValueError(f"net {i} expects {net.n_in} inputs, its matrix has {matrix.width}")
        if net.n_out != 1:
            raise ValueError("time-series experts have a single output")
        key = id(matrix)
        if key not in normalized:
            norm = Normalizer.fit(matrix.X, matrix.y)
            normalized[key] = norm, norm.normalize_inputs(matrix.X), norm.normalize_target(matrix.y)
        fits.append(normalized[key])
        layout = (net.layer_sizes[1:], matrix.rows)
        batches.setdefault((layout, replace(config, rng_seed=0)), []).append(i)
    results: List[TrainedExpert | TrainingDiverged] = [None] * len(nets)  # type: ignore[list-item]
    for slots in batches.values():
        batch = [[seq[slot] for slot in slots] for seq in (nets, matrices, configs, fits)]
        for slot, result in zip(slots, _train_lockstep(*batch)):
            results[slot] = result
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
    out = _forward_batch(net.weights, net.biases, expert.normalizer.normalize_inputs(matrix.X))
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
