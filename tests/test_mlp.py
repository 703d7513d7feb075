import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from econocast import mlp
from econocast.mlp import (
    MlpNetwork,
    Normalizer,
    TrainConfig,
    TrainedExpert,
    TrainingDiverged,
    error_percent,
    expert_from_dict,
    expert_to_dict,
    gradients,
    init,
    load_expert,
    predict,
    train,
    train_many,
)
from econocast.artifacts import json_text
from econocast.preprocess import FeatureMatrix, FeatureSpec
from econocast.timeseries import MonthStamp, TimeSeries

START = MonthStamp(1991, 1)


def matrix_from_arrays(X, y, names=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    names = names or [f"f{i}" for i in range(X.shape[1])]
    specs = tuple(FeatureSpec(n) for n in names)
    return FeatureMatrix(X, np.asarray(y, dtype=float), START, specs)


# ---------------------------------------------------------------------------
# TrainConfig
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "field, value, want",
    [
        # no loss reaches a nan target, so training could not stop early
        ("target_error", float("nan"), "a finite number or inf"),
        ("target_error", float("-inf"), "a finite number or inf"),
        # numpy's uniform overflows on an infinite bound
        ("init_weight_bound", float("inf"), "a finite number"),
        # every loss would be nan, read as divergence
        ("learning_rate", float("nan"), "a finite number"),
        ("learning_rate", float("inf"), "a finite number"),
        ("learning_rate", "0.1", "a finite number"),
        ("learning_rate", True, "a finite number"),
        # too large for a float: numpy failed to cast it in the first update
        ("learning_rate", 10**400, "a finite number"),
        # epochs and seeds are counted and seeded with integers
        ("max_epochs", 2.5, "an integer"),
        ("rng_seed", 1.5, "an integer"),
        ("rng_seed", None, "an integer"),
        # True would train one epoch
        ("max_epochs", True, "an integer"),
    ],
)
def test_train_config_rejects_values_that_are_not_finite_numbers_of_its_type(field, value, want):
    with pytest.raises(ValueError) as err:
        TrainConfig(**{field: value})
    assert str(err.value) == f"{field} must be {want}, got {value!r}"


def test_train_config_keeps_numpy_and_int_values_and_an_infinite_target():
    cfg = TrainConfig(
        learning_rate=1, init_weight_bound=np.float64(0.2), max_epochs=np.int64(3),
        target_error=float("inf"), rng_seed=np.int32(4),
    )
    assert type(cfg.learning_rate) is int and type(cfg.max_epochs) is np.int64
    assert cfg.target_error == float("inf") and cfg.rng_seed == 4
    with pytest.raises(ValueError, match="^learning_rate must be > 0$"):
        TrainConfig(learning_rate=0)
    # numpy's default_rng would reject it without naming the field
    with pytest.raises(ValueError, match="^rng_seed must be >= 0$"):
        TrainConfig(rng_seed=-1)


@pytest.mark.parametrize("bound", [1e308, np.nextafter(sys.float_info.max / 2, np.inf), -0.0, -1])
def test_train_config_rejects_a_weight_bound_init_cannot_draw_from(bound):
    # -0.0 passes `< 0`, and numpy's uniform(0.0, -0.0) raises "high - low < 0"
    want = rf"^init_weight_bound must be in \[0, {re.escape(repr(sys.float_info.max / 2))}\] "
    with pytest.raises(ValueError, match=want + r"and not -0\.0, got "):
        TrainConfig(init_weight_bound=bound)


def test_the_largest_weight_bound_init_can_draw_from_is_accepted():
    net = init([2, 3, 1], TrainConfig(init_weight_bound=sys.float_info.max / 2))
    assert all(np.all(np.isfinite(w)) for w in net.weights)
    assert init([2, 3, 1], TrainConfig(init_weight_bound=0.0)).weights[0].tolist() == [[0.0, 0.0]] * 3


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_init_deterministic_per_seed():
    cfg = TrainConfig(rng_seed=42)
    a = init([3, 5, 1], cfg)
    b = init([3, 5, 1], cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


def test_init_zero_bound_gives_zero_parameters():
    net = init([2, 3, 1], TrainConfig(init_weight_bound=0.0))
    assert all(np.all(w == 0) for w in net.weights)
    assert all(np.all(b == 0) for b in net.biases)


def test_init_bound_respected():
    net = init([4, 8, 2], TrainConfig(init_weight_bound=0.5, rng_seed=9))
    for arr in (*net.weights, *net.biases):
        assert np.all(arr >= -0.5) and np.all(arr <= 0.5)


def test_init_requires_hidden_layer():
    with pytest.raises(ValueError):
        init([3, 1], TrainConfig())


@pytest.mark.parametrize("sizes", [[2.5, 3, 1], [True, 3, 1], [2, 3.0, 1], [0, 3, 1], ["2", 3, 1]])
def test_init_rejects_layer_sizes_that_are_not_integers_ge_1(sizes):
    # not truncated through int(): [2.5, 3, 1] built a 2-3-1 net, [True, 3, 1] a 1-3-1 net
    with pytest.raises(ValueError) as err:
        init(sizes, TrainConfig())
    assert str(err.value) == f"layer_sizes must be a non-empty list of integers >= 1, got {sizes!r}"


@pytest.mark.parametrize(
    "sizes, w_shape", [((2.5, 1), (1, 2)), ((True, 1), (1, 1)), ((2, 1.9), (1, 2))]
)
def test_network_rejects_layer_sizes_that_are_not_integers(sizes, w_shape):
    # the weights have the shape the truncated sizes would give
    with pytest.raises(ValueError, match=r"^layer_sizes must be a non-empty list of integers"):
        MlpNetwork(sizes, (np.zeros(w_shape),), (np.zeros(w_shape[0]),))


def test_init_takes_numpy_integer_sizes():
    net = init([np.int64(2), np.int32(3), 1], TrainConfig(rng_seed=4))
    assert net.layer_sizes == (2, 3, 1) and all(type(n) is int for n in net.layer_sizes)
    plain = init([2, 3, 1], TrainConfig(rng_seed=4))
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, plain.weights))


# ---------------------------------------------------------------------------
# the forward pass, through predict
# ---------------------------------------------------------------------------

def raw_outputs(net, X):
    """predict through an identity Normalizer (shift 0, scale 1): the net's
    own output for each row of X."""
    m = matrix_from_arrays(X, np.zeros(len(X)))
    identity = Normalizer(np.zeros(m.width), np.ones(m.width), 0.0, 1.0)
    return predict(TrainedExpert(net, identity, m.specs, (START, START), 0.0, 0), m).values


def test_forward_hand_computed_1_2_1():
    w1 = np.array([[0.5], [-1.0]])
    b1 = np.array([0.1, 0.2])
    w2 = np.array([[2.0, -0.5]])
    b2 = np.array([0.3])
    net = MlpNetwork((1, 2, 1), (w1, w2), (b1, b2))
    x = 0.8
    h1 = 1.0 / (1.0 + np.exp(-(0.5 * x + 0.1)))
    h2 = 1.0 / (1.0 + np.exp(-(-1.0 * x + 0.2)))
    expected = 2.0 * h1 - 0.5 * h2 + 0.3
    assert abs(raw_outputs(net, [[x]])[0] - expected) < 1e-6


def test_logistic_takes_the_exact_branch_for_each_sign():
    # 1 / (1 + e) for z >= 0 and e / (1 + e) below, e = exp(-|z|), bit for bit,
    # through a 1-1-1 net whose weights 1 and biases -0.0 pass each z to the
    # hidden logistic and its output on unchanged. An input of +-1e300 times
    # a weight of 1e300 gives z = +-inf. A NaN z cannot come from the finite
    # rows of a matrix; kernel_checks.py's diverging net covers it.
    z = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-17, -1e-17, 0.3, -0.3, 40.0, -40.0,
                  800.0, -800.0, np.inf, -np.inf])
    e = np.exp(-np.abs(z))
    want = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def net(weight):
        return MlpNetwork((1, 1, 1), (np.full((1, 1), weight), np.ones((1, 1))),
                          (np.full(1, -0.0), np.full(1, -0.0)))

    got = np.concatenate([raw_outputs(net(1.0), z[:-2, None]),
                          raw_outputs(net(1e300), [[1e300], [-1e300]])])
    assert got.tobytes() == want.tobytes()


def test_forward_dimension_mismatch():
    net = init([3, 4, 1], TrainConfig())
    expert = TrainedExpert(net, Normalizer(np.zeros(3), np.ones(3), 0.0, 1.0),
                           matrix_from_arrays(np.zeros((1, 3)), [0.0]).specs, (START, START), 0.0, 0)
    with pytest.raises(ValueError, match="matrix columns do not match the expert's features"):
        predict(expert, matrix_from_arrays([[1.0, 2.0]], [0.0]))


def test_predict_rejects_a_net_wider_than_its_features():
    # The features and the normalizer match the 2-column matrix, the net takes
    # 3 inputs: the compiled pass would read past the end of each row.
    m = matrix_from_arrays([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])
    identity = Normalizer(np.zeros(2), np.ones(2), 0.0, 1.0)
    expert = TrainedExpert(init([3, 4, 1], TrainConfig()), identity, m.specs, (START, START), 0.0, 0)
    with pytest.raises(ValueError, match="^the matrix has 2 columns, the net 3 inputs$"):
        predict(expert, m)


def test_network_weights_and_biases_are_views_of_its_one_read_only_buffer():
    net = init([3, 4, 2, 1], TrainConfig(rng_seed=2))
    layers = [a.ravel() for pair in zip(net.weights, net.biases) for a in pair]
    assert net.parameters.tobytes() == np.concatenate(layers).tobytes()
    assert all(a.base is net.parameters for a in (*net.weights, *net.biases))
    assert not any(a.flags.writeable for a in (net.parameters, *net.weights, *net.biases))


def test_network_rejects_more_weight_matrices_than_layer_transitions():
    # The count is checked before any shape: an extra matrix raised IndexError.
    with pytest.raises(ValueError, match="^one weight matrix per layer transition required$"):
        MlpNetwork((2, 1), (np.zeros((1, 2)), np.zeros((1, 1))), (np.zeros(1), np.zeros(1)))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradients_zero_at_exact_fit():
    net = MlpNetwork(
        (1, 1, 1),
        (np.array([[1.0]]), np.array([[1.0]])),
        (np.zeros(1), np.zeros(1)),
    )
    y = raw_outputs(net, [[0.7]])
    dws, dbs = gradients(net, [0.7], y)
    assert all(np.allclose(g, 0.0) for g in dws + dbs)


def test_gradients_one_hidden_unit_hand_formula():
    w = 0.4
    b = -0.2
    net = MlpNetwork(
        (1, 1, 1),
        (np.array([[w]]), np.array([[1.0]])),
        (np.array([b]), np.zeros(1)),
    )
    x, y = 1.3, 0.9
    dws, dbs = gradients(net, [x], [y])
    h = 1.0 / (1.0 + np.exp(-(w * x + b)))
    residual = h - y  # the output unit is linear, with weight 1 and bias 0
    assert abs(dws[1][0, 0] - residual * h) < 1e-12
    assert abs(dbs[1][0] - residual) < 1e-12
    assert abs(dws[0][0, 0] - residual * h * (1 - h) * x) < 1e-12
    assert abs(dbs[0][0] - residual * h * (1 - h)) < 1e-12


def _finite_difference(net, x, y, eps=1e-5):
    """Central finite differences of the half-sum-of-squares error."""

    def loss(ws, bs):
        a = np.asarray(x, dtype=float)
        for l, (w, b) in enumerate(zip(ws, bs)):
            z = w @ a + b
            a = 1.0 / (1.0 + np.exp(-z)) if l < len(ws) - 1 else z
        return 0.5 * float(np.sum((a - np.asarray(y)) ** 2))

    fd_ws, fd_bs = [], []
    ws = [w.copy() for w in net.weights]
    bs = [b.copy() for b in net.biases]
    for l, w in enumerate(ws):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + eps
            hi = loss(ws, bs)
            w[idx] = orig - eps
            lo = loss(ws, bs)
            w[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
        fd_ws.append(g)
    for l, b in enumerate(bs):
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + eps
            hi = loss(ws, bs)
            b[idx] = orig - eps
            lo = loss(ws, bs)
            b[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
        fd_bs.append(g)
    return fd_ws, fd_bs


def test_gradients_match_finite_differences_3_5_2():
    rng = np.random.default_rng(11)
    cfg = TrainConfig(init_weight_bound=0.7, rng_seed=5)
    net = init([3, 5, 2], cfg)
    x = rng.normal(size=3)
    y = rng.normal(size=2)
    dws, dbs = gradients(net, x, y)
    fd_ws, fd_bs = _finite_difference(net, x, y)
    for g, fd in zip(dws + dbs, fd_ws + fd_bs):
        assert np.all(np.abs(g - fd) <= 1e-6 * (1.0 + np.abs(fd)))


@pytest.mark.parametrize("sizes", [[3, 5, 2], [3, 4, 2, 1]])
def test_gradients_match_the_loop_oracle(sizes):
    # gradients() runs the training step, so this checks that step against an
    # implementation that shares no code with it.
    rng = np.random.default_rng(17)
    cfg = TrainConfig(init_weight_bound=0.7, rng_seed=6)
    net = init(sizes, cfg)
    x = rng.normal(size=sizes[0])
    y = rng.normal(size=sizes[-1])
    dws, dbs = gradients(net, x, y)
    weights = [w.tolist() for w in net.weights]
    biases = [b.tolist() for b in net.biases]
    want_ws, want_bs = oracles.gradients(weights, biases, x.tolist(), y.tolist())
    for got, want in zip(dws + dbs, want_ws + want_bs):
        want = np.array(want)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


# ---------------------------------------------------------------------------
# train / predict / error_percent
# ---------------------------------------------------------------------------

def test_train_stops_after_one_epoch_with_infinite_target():
    rng = np.random.default_rng(0)
    m = matrix_from_arrays(rng.normal(size=(10, 2)), rng.normal(size=10))
    cfg = TrainConfig(max_epochs=500, target_error=float("inf"), rng_seed=3)
    expert = train(init([2, 3, 1], cfg), m, cfg)
    assert np.isfinite(expert.final_train_error)


@pytest.mark.parametrize("rows", [1, 129, 8193])
@pytest.mark.parametrize("sizes", [[1, 1, 1], [9, 4, 1], [4, 3, 2, 1]])
def test_final_train_error_is_the_numpy_forward_pass_error_of_the_trained_net(sizes, rows):
    # The compiled error runs np.matmul's and np.add's own loops. 129 rows
    # pass the 128-element block of numpy's pairwise sum, and 8193 rows the
    # 8192 elements of numpy's ufunc buffer.
    rng = np.random.default_rng(rows)
    m = matrix_from_arrays(rng.normal(size=(rows, sizes[0])), rng.normal(size=rows))
    cfg = TrainConfig(max_epochs=1, rng_seed=3)
    expert = train(init(sizes, cfg), m, cfg)
    net, norm = expert.network, expert.normalizer
    out = oracles.forward(net.weights, net.biases, norm.normalize_inputs(m.X))[:, 0]
    assert expert.final_train_error == float(np.mean((out - norm.normalize_target(m.y)) ** 2))


@pytest.mark.parametrize("rows", [1, 2])
def test_one_epoch_of_train_replays_gradients(rows):
    # Each pattern moves the weights by exactly -eta * gradients() at the
    # current weights on the normalized row, so the gradient oracle checks
    # the step that trains.
    rng = np.random.default_rng(5)
    m = matrix_from_arrays(rng.normal(size=(rows, 3)), rng.normal(size=rows))
    cfg = TrainConfig(learning_rate=0.3, max_epochs=1, rng_seed=4)
    net = init([3, 4, 2, 1], cfg)
    expert = train(net, m, cfg)
    Xn = expert.normalizer.normalize_inputs(m.X)
    yn = expert.normalizer.normalize_target(m.y)
    eta = cfg.learning_rate
    for p in range(rows):
        dws, dbs = gradients(net, Xn[p], yn[p : p + 1])
        net = MlpNetwork(
            net.layer_sizes,
            tuple(w - eta * dw for w, dw in zip(net.weights, dws)),
            tuple(b - eta * db for b, db in zip(net.biases, dbs)),
        )
    for got, want in zip(expert.network.weights + expert.network.biases, net.weights + net.biases):
        assert np.array_equal(got, want)


def test_train_is_deterministic():
    rng = np.random.default_rng(1)
    m = matrix_from_arrays(rng.normal(size=(20, 2)), rng.normal(size=20))
    cfg = TrainConfig(max_epochs=30, rng_seed=8)
    a = train(init([2, 4, 1], cfg), m, cfg)
    b = train(init([2, 4, 1], cfg), m, cfg)
    assert a.final_train_error == b.final_train_error
    for wa, wb in zip(a.network.weights, b.network.weights):
        assert np.array_equal(wa, wb)


def test_train_xor_within_ten_seeds():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    y = np.array([0.0, 1.0, 1.0, 0.0])
    m = matrix_from_arrays(X, y)
    best = np.inf
    for seed in range(10):
        cfg = TrainConfig(learning_rate=0.5, max_epochs=20000, rng_seed=seed)
        expert = train(init([2, 2, 1], cfg), m, cfg)
        preds = predict(expert, m).values
        mse = float(np.mean((preds - y) ** 2))
        best = min(best, mse)
        if best < 0.05:
            break
    assert best < 0.05


def test_train_divergence_reports_epoch():
    rng = np.random.default_rng(2)
    m = matrix_from_arrays(rng.normal(size=(12, 2)) * 5, rng.normal(size=12) * 5)
    cfg = TrainConfig(learning_rate=1e6, max_epochs=50, rng_seed=1)
    with pytest.raises(TrainingDiverged) as err:
        train(init([2, 4, 1], cfg), m, cfg)
    assert err.value.epoch >= 1


# ---------------------------------------------------------------------------
# train_many
# ---------------------------------------------------------------------------

def _bytes(result):
    if isinstance(result, TrainingDiverged):
        return ("diverged", result.epoch)
    return json.dumps(expert_to_dict(result))


def _solo(net, m, cfg):
    try:
        return _bytes(train(net, m, cfg))
    except TrainingDiverged as exc:
        return _bytes(exc)


@st.composite
def same_layout_nets(draw, rng):
    """(nets, matrices, configs) of 1..6 nets with the same hidden and output
    layers, rows and config up to seed, and one matrix shared by every net,
    or one matrix per net with input widths drawn from 1..6."""
    hidden = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    rows = draw(st.integers(2, 12))
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([0.05, 0.3, 1.0])), max_epochs=draw(st.integers(1, 8))
    )
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        n_in = draw(st.integers(1, 4))
        shared = matrix_from_arrays(rng.normal(size=(rows, n_in)), rng.normal(size=rows))
        matrices = [shared] * len(seeds)
    else:
        widths = draw(st.lists(st.integers(1, 6), min_size=len(seeds), max_size=len(seeds)))
        matrices = [
            matrix_from_arrays(rng.normal(size=(rows, w)), rng.normal(size=rows)) for w in widths
        ]
    configs = [replace(cfg, rng_seed=seed) for seed in seeds]
    nets = [init([m.width, *hidden, 1], c) for m, c in zip(matrices, configs)]
    # A target between the nets' final errors stops them at different epochs.
    finals = []
    for net, m, c in zip(nets, matrices, configs):
        try:
            finals.append(train(net, m, c).final_train_error)
        except TrainingDiverged:
            pass
    target = draw(st.floats(min(finals), max(finals))) if finals else 0.0
    return nets, matrices, [replace(c, target_error=target) for c in configs]


@st.composite
def train_many_calls(draw):
    """(nets, matrices, configs) for one train_many call of 1..2 groups of
    same_layout_nets, their nets interleaved."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    batches = draw(st.lists(same_layout_nets(rng), min_size=1, max_size=2))
    slots = [(b, i) for b, batch in enumerate(batches) for i in range(len(batch[0]))]
    order = draw(st.permutations(slots))
    return tuple([batches[b][part][i] for b, i in order] for part in range(3))


@settings(max_examples=60, deadline=None)
@given(train_many_calls(), st.randoms())
def test_train_many_slot_equals_training_alone_in_any_order(batch, random):
    nets, matrices, configs = batch
    solo = [_solo(*args) for args in zip(nets, matrices, configs)]
    assert [_bytes(r) for r in train_many(nets, matrices, configs)] == solo
    order = list(range(len(nets)))
    random.shuffle(order)
    shuffled = train_many(*([seq[i] for i in order] for seq in (nets, matrices, configs)))
    assert [_bytes(r) for r in shuffled] == [solo[i] for i in order]


def test_train_many_mixed_widths_2_to_24_each_equal_training_alone():
    # Every input width from 2 to 24 in one call, each slot equal to
    # training its net alone.
    rng = np.random.default_rng(6)
    rows = 20
    matrices = [
        matrix_from_arrays(rng.normal(size=(rows, w)), rng.normal(size=rows)) for w in range(2, 25)
    ]
    configs = [TrainConfig(learning_rate=0.1, max_epochs=4, rng_seed=s) for s in range(23)]
    nets = [init([m.width, 5, 3, 1], c) for m, c in zip(matrices, configs)]
    solo = [_solo(*args) for args in zip(nets, matrices, configs)]
    assert [_bytes(r) for r in train_many(nets, matrices, configs)] == solo


def test_train_many_stops_each_net_at_its_own_epoch():
    rng = np.random.default_rng(3)
    m = matrix_from_arrays(rng.normal(size=(16, 2)), rng.normal(size=16))
    target = 0.9
    configs = [
        TrainConfig(learning_rate=0.1, max_epochs=12, target_error=target, rng_seed=s)
        for s in range(6)
    ]
    nets = [init([2, 3, 1], c) for c in configs]
    stops = []
    for net, cfg, result in zip(nets, configs, train_many(nets, [m] * 6, configs)):
        # The net stops after the first epoch whose error reaches the target.
        for epochs in range(1, cfg.max_epochs + 1):
            ran = train(net, m, replace(cfg, max_epochs=epochs, target_error=0.0))
            if ran.final_train_error <= target:
                break
        assert _bytes(result) == _bytes(ran)
        stops.append((epochs, ran.final_train_error <= target))
    assert stops == [(7, True), (12, True), (9, True), (12, False), (12, False), (10, True)]


@pytest.mark.parametrize("widths", [(3, 3, 3), (3, 7, 2, 5, 3)])
def test_train_many_diverged_net_leaves_the_others_untouched(widths):
    # (3, 3, 3) shares one matrix; otherwise each net has its own, and the
    # diverging net is the widest, alone in its width group.
    rng = np.random.default_rng(4)
    if len(set(widths)) == 1:
        matrices = [matrix_from_arrays(rng.normal(size=(10, 3)), rng.normal(size=10))] * 3
    else:
        matrices = [
            matrix_from_arrays(rng.normal(size=(10, w)), rng.normal(size=10)) for w in widths
        ]
    configs = [TrainConfig(max_epochs=15, rng_seed=s) for s in range(1, len(widths) + 1)]
    nets = [init([w, 4, 1], c) for w, c in zip(widths, configs)]
    huge = MlpNetwork(
        (widths[1], 4, 1),
        (np.full((4, widths[1]), 1e200), np.full((1, 4), 1e200)),
        (np.zeros(4), np.zeros(1)),
    )
    nets[1] = huge
    results = train_many(nets, matrices, configs)
    assert isinstance(results[1], TrainingDiverged) and results[1].epoch == 1
    with pytest.raises(TrainingDiverged):
        train(huge, matrices[1], configs[1])
    for i in (0, *range(2, len(widths))):
        assert _bytes(results[i]) == _solo(nets[i], matrices[i], configs[i])


def test_train_many_rejects_mismatched_batches():
    rng = np.random.default_rng(5)
    m = matrix_from_arrays(rng.normal(size=(6, 2)), rng.normal(size=6))
    m3 = matrix_from_arrays(rng.normal(size=(6, 3)), rng.normal(size=6))
    cfg = TrainConfig(max_epochs=2)
    net = init([2, 3, 1], cfg)
    bad_calls = [
        ([], [], []),
        ([net, net], [m, m], [cfg]),
        ([net, net], [m], [cfg, cfg]),
        ([net, init([3, 4, 1], cfg)], [m, m], [cfg, cfg]),
        ([init([3, 3, 1], cfg)], [m], [cfg]),
        ([net, init([3, 3, 1], cfg)], [m3, m], [cfg, cfg]),
        ([net, init([2, 3, 2], cfg)], [m, m], [cfg, cfg]),
    ]
    for nets, matrices, configs in bad_calls:
        with pytest.raises(ValueError):
            train_many(nets, matrices, configs)


def test_train_many_trains_any_mix_each_net_alone(monkeypatch):
    rng = np.random.default_rng(5)
    m = matrix_from_arrays(rng.normal(size=(6, 2)), rng.normal(size=6))
    m3 = matrix_from_arrays(rng.normal(size=(6, 3)), rng.normal(size=6))
    short = matrix_from_arrays(rng.normal(size=(5, 2)), rng.normal(size=5))
    cfg = TrainConfig(max_epochs=2)
    calls = [  # (net shape, matrix, config) of each slot
        ([2, 3, 1], m, cfg),
        ([2, 4, 1], m, cfg),  # other hidden layers
        ([3, 3, 3, 1], m3, cfg),
        ([2, 3, 1], short, cfg),  # other rows
        ([2, 3, 1], m, replace(cfg, learning_rate=0.1)),
        ([2, 3, 1], m, replace(cfg, max_epochs=3)),
        ([3, 3, 1], m3, replace(cfg, target_error=0.5)),
        ([3, 3, 1], m3, replace(cfg, rng_seed=9)),
        ([2, 4, 1], m, replace(cfg, rng_seed=9)),
    ]
    nets = [init(shape, c) for shape, _, c in calls]
    matrices = [matrix for _, matrix, _ in calls]
    configs = [c for _, _, c in calls]
    trained = []

    def spy(lib, net, *rest):
        trained.append(next(i for i, n in enumerate(nets) if n is net))
        return train_one(lib, net, *rest)

    train_one = mlp._train
    monkeypatch.setattr(mlp, "_train", spy)
    results = train_many(nets, matrices, configs)
    assert trained == list(range(len(nets)))  # one training per net, in slot order
    assert [_bytes(r) for r in results] == [_solo(*args) for args in zip(nets, matrices, configs)]
    # One normalizer per matrix object.
    assert all(results[i].normalizer is results[0].normalizer for i in (1, 4, 5, 8))
    assert results[3].normalizer is not results[0].normalizer
    assert results[2].normalizer is results[6].normalizer is results[7].normalizer


def _golden_batch(case):
    """(nets, matrices, configs) of the fixed batches whose results are pinned
    in GOLDEN_TRAIN_MANY."""
    rng = np.random.default_rng(9)
    if case == "restarts":
        # One shared matrix, twenty 9-4-1 restarts.
        m = matrix_from_arrays(rng.normal(size=(48, 9)), rng.normal(size=48))
        configs = [TrainConfig(max_epochs=5, rng_seed=s) for s in range(1, 21)]
        return [init([9, 4, 1], c) for c in configs], [m] * 20, configs
    if case == "ensemble_subs":
        # The eight sub-network widths, handed over out of width order.
        widths = [21, 8, 9, 14, 9, 10, 12, 9]
        matrices = [
            matrix_from_arrays(rng.normal(size=(48, w)), rng.normal(size=48)) for w in widths
        ]
        configs = [TrainConfig(max_epochs=5, rng_seed=s) for s in range(1, 9)]
        return [init([w, 4, 1], c) for w, c in zip(widths, configs)], matrices, configs
    # "compaction": the nets reach the target at epochs 11, 6, 6, never (12),
    # 8 and 8, and the huge one diverges at epoch 1. The name is that of the
    # lockstep batcher these digests were recorded with, which rebuilt its
    # batch after epochs 1, 6, 8 and 11.
    widths = [4, 2, 7, 3, 5, 3]
    matrices = [matrix_from_arrays(rng.normal(size=(16, w)), rng.normal(size=16)) for w in widths]
    configs = [
        TrainConfig(learning_rate=0.1, max_epochs=12, target_error=0.968, rng_seed=s)
        for s in range(30, 36)
    ]
    nets = [init([w, 3, 1], c) for w, c in zip(widths, configs)]
    huge = MlpNetwork(
        (3, 3, 1), (np.full((3, 3), 1e200), np.full((1, 3), 1e200)), (np.zeros(3), np.zeros(1))
    )
    matrices.append(matrix_from_arrays(rng.normal(size=(16, 3)), rng.normal(size=16)))
    configs.append(replace(configs[0], rng_seed=36))
    return nets + [huge], matrices, configs


def _golden_digest(result):
    if isinstance(result, TrainingDiverged):
        return f"diverged at epoch {result.epoch}"
    return hashlib.sha256(json.dumps(expert_to_dict(result)).encode()).hexdigest()


# sha256 of each slot's expert_to_dict JSON (or its divergence epoch) for the
# batches of _golden_batch, recorded with the per-pattern loop that allocated
# fresh activation, delta and gradient arrays on every step (numpy 2.4.6 with
# OpenBLAS 0.3.31; another BLAS build may sum a product in another order).
GOLDEN_TRAIN_MANY = {
    "compaction": [
        "2b271fee2e08a4de261f45d8b061d46f73d893f5aefd7c63b09e6685cce88fe6",
        "476f40d3db8171c5b16601c8c4b94747c8a1bd7bc7109b9b28dfa69fcd4b74e3",
        "b1795e8c37d112e8a2995f88c6217a67b5dfa912ef62371849d5b36c44daabc9",
        "7fbfd10f0519411f08e5012854f60b159d02542c26761962b840d9a2c9e658ca",
        "c393826354aa12d8c249caf1eb74eb4242e4d01c90f825cac7986dda0f62e2bc",
        "1b0ca1ed876dcb7dcefed880e943d7484fbca68bdf89e0e655a0b65e13711644",
        "diverged at epoch 1",
    ],
    "ensemble_subs": [
        "e502b693bd1ca9a9948c96714c61158a79d8e46d41703c7f6c4e701a9e3dda1f",
        "d8b6ba7359fb3cf17f6de6cebc2b3bec0eb7cda7c5bbe55a28b2701add6496f3",
        "fc278fe6810c0ed94ce7b534cffa3c060cfe02cea117e7269c2c7088c8199e97",
        "e602c6c3bc82fc89974188a0749fdf8fe001c1e553d72715825b8e4b59da5b00",
        "4874bbe5a4ceff9cc23b0bf058efae4ecf9af053f6a13d9830bce2ecca3f24f4",
        "9d198d2824337dee2d66a23645f8ffa1b9bb6c55b5909cc9f6876b007458d5a1",
        "09b461bc5d29b2e5df43eeb13be9adeb7ee545d1184c3e2a9373b24273ea6618",
        "c2f57a148decb8c3ee4957754e1ba468c7b6df4a142b115c719488ecec940081",
    ],
    "restarts": [
        "e461bf0aa238d368508ec0b4f72701ce72776100fc99ae9a3062cc7f9e7f3c8e",
        "7bbbe852e934bc6ff78411298eddaea7afcfdf0f382be578262f724f06543c83",
        "e030a694416599f2399975019de26561ec0a474b81bdf5043516bcf62f665a74",
        "1546651b5416f0dd8fc918fad379a2a16bb021abb20e9116241e62a415ea9ba1",
        "e55894e4a0ab8ec62e1d0b7f8c07675821cbdb346675aed423c7c6fa63ec90fb",
        "184372f5d663286c23c6758c976bc3d838ac91b26188668d0a48a88308e58604",
        "c01bcff761437b4a8b77f9844477c11c921a269a87d05bb3edbd03ae52af5e3a",
        "105e6ecd3fee62c35472a7958d2ae5415d42e0d5b8a7e500fb6e7b19feb4705d",
        "4191659f4e8c1d61e6511c1fa0a5a0d66bb700ce541950b7265e75c1ac8f6990",
        "b1cd3469f0d61b1a473b1b68774b1ba937fc03ec7e872710a558190ad2d0fafc",
        "1a1d00735e9630e5e269c30a218337332442849ada138db86d9b4f80d9a6b3d0",
        "2dae7bca37aac5e482f2f2256c4c1bf9492426afd6d817f0574ce1637db7459d",
        "273e7bcdd281a8b189a766e49dfa579cbcc55d0c76fb32e777b3cc33954098be",
        "43add91a8d6829b9caabe60e7af9673ac53d7672df257cdb54f41d7660a013d1",
        "7d04f5e5c4876a6b7af77885595d0c8d694cbb74eb1b191e6eaade5e61cf27fa",
        "65fe80628ded12ea52d4a9a035cb94df516ac7e89251b18017ce19894ff0ae2b",
        "4aa663164944b0fe02912bad682cbd70f0a91a2db6113966b4a2affd07ca1d87",
        "43cbe1b100fa292d763b1de9665be6cc52b166a48a04db4cd63577dccb7d2182",
        "22d3945860f7ed503b710309474de24a5745c45a098780df4f0a793b24f13874",
        "f3e402d6ef3f216e2adf33e7d3d5dbcd1a01cc37befac6e9864e6b4fb4ad14ff",
    ],
}


# The epochs each net of the batches of _golden_batch runs, in slot order: what
# the one compiled train call train_many makes for it returns.
GOLDEN_EPOCHS = {
    "compaction": [11, 6, 6, 12, 8, 8, 1],
    "ensemble_subs": [5] * 8,
    "restarts": [5] * 20,
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TRAIN_MANY))
def test_train_many_matches_the_pinned_digests(case, monkeypatch):
    epochs = []

    class Counting:
        def __init__(self, lib):
            self.lib = lib

        def train(self, *args):
            epochs.append(self.lib.train(*args))
            return epochs[-1]

    def spy(lib, *rest):
        return train_one(Counting(lib), *rest)

    train_one = mlp._train
    monkeypatch.setattr(mlp, "_train", spy)
    assert [_golden_digest(r) for r in train_many(*_golden_batch(case))] == GOLDEN_TRAIN_MANY[case]
    assert epochs == GOLDEN_EPOCHS[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_TRAIN_MANY))
def test_training_raises_no_warning(case):
    # A deprecated numpy call on the hot path warns on every step; here it
    # fails instead of silently costing time. A diverging net overflows in
    # compiled code, which raises no Python warning.
    net = init([3, 4, 2, 1], TrainConfig())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train_many(*_golden_batch(case))
        gradients(net, [0.5, -1.0, 2.0], [0.3])


def test_after_a_diverging_net_numpy_raises_no_warning():
    # The compiled epoch leaves the overflow flags of a diverging net raised;
    # numpy clears them before each operation that checks them.
    m = matrix_from_arrays(np.random.default_rng(2).normal(size=(6, 3)), np.arange(6.0))
    huge = MlpNetwork((3, 3, 1), (np.full((3, 3), 1e200), np.full((1, 3), 1e200)),
                      (np.zeros(3), np.zeros(1)))
    (result,) = train_many([huge], [m], [TrainConfig(max_epochs=3)])
    assert isinstance(result, TrainingDiverged) and result.epoch == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.ones(3) * 2.0
        np.float64(2.0) / 3.0
        np.ones(3).astype(np.float32)
        np.mean(np.ones(4))


# ---------------------------------------------------------------------------
# the library of the compiled step
# ---------------------------------------------------------------------------

@pytest.fixture
def cache(tmp_path, monkeypatch):
    """The directory _step_library builds into, under an empty XDG_CACHE_HOME."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "econocast"


def test_building_the_step_without_a_compiler_names_cc(cache, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    with pytest.raises(RuntimeError, match="no C compiler `cc` is on PATH"):
        mlp._step_library.__wrapped__()
    assert not any(cache.iterdir())


def test_an_unwritable_cache_builds_the_step_in_a_private_temporary_directory(
    tmp_path, monkeypatch
):
    not_a_directory = tmp_path / "xdg"
    not_a_directory.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_directory))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    rng = np.random.default_rng(6)
    m = matrix_from_arrays(rng.normal(size=(8, 3)), rng.normal(size=8))
    cfg = TrainConfig(max_epochs=3)
    want = _bytes(train(init([3, 4, 1], cfg), m, cfg))
    real_build, modes = mlp._build, []

    def build(flags, directory, path):
        # The directory lives only until the load, so its mode is read while it exists.
        modes.append(os.stat(directory).st_mode)
        real_build(flags, directory, path)

    monkeypatch.setattr(mlp, "_build", build)
    lib = mlp._step_library.__wrapped__()
    built = Path(lib._name)
    assert built.parent.parent == tmp_path / "tmp" and built.parent.name.startswith("econocast-")
    assert len(modes) == 1 and modes[0] & 0o077 == 0
    # The directory is removed once the library is loaded, which still trains.
    assert not any((tmp_path / "tmp").iterdir())
    monkeypatch.setattr(mlp, "_step_library", lambda: lib)
    assert _bytes(train(init([3, 4, 1], cfg), m, cfg)) == want


@pytest.mark.parametrize("name", ["exp", "matmul", "add"])
def test_binding_the_step_names_the_ufunc_with_no_float64_loop(name, cache, monkeypatch):
    monkeypatch.setattr(np, name, np.bitwise_and)
    with pytest.raises(RuntimeError, match="^np.bitwise_and has no float64 loop to train with$"):
        mlp._step_library.__wrapped__()


@pytest.mark.parametrize("writable", ["directory", "library"])
def test_a_cache_another_user_can_write_is_not_loaded(writable, tmp_path, monkeypatch):
    # Not a library, at the name the library is cached under, in a new cache:
    # loading a path already loaded would reuse its mapping.
    name = Path(mlp._step_library()._name).name
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "econocast"
    cache.mkdir()
    planted = cache / name
    planted.write_bytes(b"not a library")
    (cache if writable == "directory" else planted).chmod(0o777)
    lib = mlp._step_library.__wrapped__()
    assert Path(lib._name) != planted and planted.read_bytes() == b"not a library"
    rng = np.random.default_rng(6)
    m = matrix_from_arrays(rng.normal(size=(8, 3)), rng.normal(size=8))
    cfg = TrainConfig(max_epochs=3)
    want = _bytes(train(init([3, 4, 1], cfg), m, cfg))
    monkeypatch.setattr(mlp, "_step_library", lambda: lib)
    assert _bytes(train(init([3, 4, 1], cfg), m, cfg)) == want


def test_a_second_load_of_the_step_hits_the_cache_and_starts_no_compiler(
    cache, tmp_path, monkeypatch
):
    first = Path(mlp._step_library.__wrapped__()._name)
    assert [p.name for p in cache.iterdir()] == [first.name] and first.parent == cache
    assert cache.stat().st_mode & 0o777 == 0o700

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"a compiler ran: {args}")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    assert Path(mlp._step_library.__wrapped__()._name) == first


def test_error_decreases_with_more_epochs_on_sine():
    x = (np.arange(64) / 64.0).reshape(-1, 1)
    y = np.sin(2 * np.pi * x[:, 0])
    m = matrix_from_arrays(x, y)
    short = train(init([1, 16, 1], TrainConfig(max_epochs=1)), m, TrainConfig(max_epochs=1))
    longer = train(init([1, 16, 1], TrainConfig(max_epochs=200)), m, TrainConfig(max_epochs=200))
    assert longer.final_train_error <= short.final_train_error


def test_predict_reproduces_final_train_error():
    rng = np.random.default_rng(4)
    m = matrix_from_arrays(rng.normal(size=(15, 3)), rng.normal(size=15) * 2 + 5)
    cfg = TrainConfig(max_epochs=40, rng_seed=2)
    expert = train(init([3, 4, 1], cfg), m, cfg)
    preds = predict(expert, m).values
    normalized = expert.normalizer.normalize_target(preds)
    target_n = expert.normalizer.normalize_target(m.y)
    assert abs(float(np.mean((normalized - target_n) ** 2)) - expert.final_train_error) < 1e-12


def test_predict_constant_network_and_row_order_invariance():
    rng = np.random.default_rng(5)
    m = matrix_from_arrays(rng.normal(size=(10, 2)), rng.normal(size=10))
    cfg = TrainConfig(max_epochs=5, rng_seed=7)
    expert = train(init([2, 3, 1], cfg), m, cfg)
    full = predict(expert, m).values
    # row-wise evaluation: any sub-block of rows predicts identically
    for i in range(0, 10, 3):
        rows = slice(i, min(i + 3, 10))
        sub = FeatureMatrix(m.X[rows], m.y[rows], START.plus(i), m.specs)
        assert np.array_equal(predict(expert, sub).values, full[rows])


def test_predict_feature_mismatch():
    rng = np.random.default_rng(6)
    m = matrix_from_arrays(rng.normal(size=(8, 2)), rng.normal(size=8))
    cfg = TrainConfig(max_epochs=2)
    expert = train(init([2, 3, 1], cfg), m, cfg)
    other = matrix_from_arrays(m.X, m.y, names=["x", "y"])
    with pytest.raises(ValueError):
        predict(expert, other)


def _constant(value, n=6):
    """A prediction of n rows from START, each `value`."""
    return TimeSeries(START, np.full(n, float(value)))


def test_error_percent_hand_values():
    n = 8
    m = matrix_from_arrays(np.zeros((n, 1)), np.full(n, 50.0))
    assert abs(error_percent(_constant(55.0, n), m) - 10.0) < 1e-9  # uniformly 10% above
    assert abs(error_percent(_constant(0.0, n), m) - 100.0) < 1e-9
    assert error_percent(_constant(50.0, n), m) == 0.0


def test_error_percent_rejects_a_prediction_of_other_rows():
    m = matrix_from_arrays(np.zeros((6, 1)), np.full(6, 5.0))
    predicted = _constant(5.0)
    shifted = FeatureMatrix(m.X, m.y, START.plus(1), m.specs)
    shorter = FeatureMatrix(m.X[1:], m.y[1:], START, m.specs)
    for other in (shifted, shorter):
        with pytest.raises(ValueError, match="does not cover"):
            error_percent(predicted, other)
    assert error_percent(predicted, m) == 0.0


def test_error_percent_all_zero_target():
    zero = matrix_from_arrays(np.zeros((6, 1)), np.zeros(6))
    with pytest.raises(ValueError):
        error_percent(_constant(0.0), zero)


# ---------------------------------------------------------------------------
# Normalizer
# ---------------------------------------------------------------------------

def test_normalizer_round_trip():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 4)) * 100 + 7
    y = rng.normal(size=30) * 50 - 3
    norm = Normalizer.fit(X, y)
    assert np.all(np.abs(norm.denormalize_target(norm.normalize_target(y)) - y) < 1e-12)
    back = norm.normalize_inputs(X) * norm.input_scale + norm.input_shift
    assert np.all(np.abs(back - X) < 1e-9)


def test_normalizer_constant_column_scale_positive():
    X = np.ones((10, 2))
    norm = Normalizer.fit(X, np.ones(10))
    assert np.all(norm.input_scale > 0) and norm.target_scale > 0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_expert_json_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    m = matrix_from_arrays(rng.normal(size=(20, 3)), rng.normal(size=20) * 10 + 100)
    cfg = TrainConfig(max_epochs=25, rng_seed=13)
    expert = train(init([3, 5, 1], cfg), m, cfg)
    blob = json.dumps(expert_to_dict(expert))
    clone = expert_from_dict(json.loads(blob))
    assert np.array_equal(predict(clone, m).values, predict(expert, m).values)
    assert clone.final_train_error == expert.final_train_error
    assert clone.features == expert.features
    assert clone.train_range == expert.train_range
    path = tmp_path / "expert.json"
    path.write_text(json_text(expert_to_dict(expert)))
    assert path.read_bytes() == (json.dumps(expert_to_dict(expert), indent=1) + "\n").encode()
    assert expert_to_dict(load_expert(str(path))) == expert_to_dict(expert)


@pytest.mark.parametrize(
    "where, value, named",
    [
        (("normalizer", "input_shift", 0), float("nan"),
         "normalizer.input_shift must be a list of finite numbers"),
        (("normalizer", "input_scale", 2), float("inf"),
         "normalizer.input_scale must be a list of finite numbers"),
        (("weights", 0, 1, 2), float("nan"), "weights must be a list of matrices of finite numbers"),
        (("biases", 1, 0), float("-inf"), "biases must be a list of vectors of finite numbers"),
    ],
)
def test_expert_from_dict_rejects_non_finite_numbers_in_lists(where, value, named):
    # json reads NaN and Infinity as floats; an input_shift holding NaN used to
    # load and predict NaN for every row
    m = matrix_from_arrays(np.random.default_rng(3).normal(size=(8, 3)), np.arange(8.0))
    cfg = TrainConfig(max_epochs=2, rng_seed=5)
    data = expert_to_dict(train(init([3, 2, 1], cfg), m, cfg))
    *path, last = where
    target = data
    for key in path:
        target = target[key]
    target[last] = value
    with pytest.raises(ValueError) as err:
        expert_from_dict(json.loads(json.dumps(data)))
    assert str(err.value).startswith(f"expert.{named}, got ")


@pytest.mark.parametrize("key, value", [("output_activation", "logistic"),
                                        ("hidden_activation", "linear")])
def test_expert_from_dict_takes_only_the_one_kind_of_net(key, value):
    # Every net is logistic with a linear output; an expert file of another
    # kind would predict with the wrong activations, so it does not load.
    m = matrix_from_arrays(np.random.default_rng(3).normal(size=(8, 3)), np.arange(8.0))
    cfg = TrainConfig(max_epochs=2, rng_seed=5)
    data = expert_to_dict(train(init([3, 2, 1], cfg), m, cfg))
    assert (data["hidden_activation"], data["output_activation"]) == ("logistic", "linear")
    data[key] = value
    with pytest.raises(ValueError) as err:
        expert_from_dict(data)
    want = "'linear'" if key == "output_activation" else "'logistic'"
    assert str(err.value) == f"expert.{key} must be {want}, got {value!r}"
