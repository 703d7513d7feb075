import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from econocast.mlp import (
    MlpNetwork,
    Normalizer,
    TrainConfig,
    TrainedExpert,
    TrainingDiverged,
    error_percent,
    expert_from_dict,
    expert_to_dict,
    forward,
    gradients,
    init,
    load_expert,
    predict,
    save_expert,
    train,
    train_many,
    _logistic,
)
from econocast.preprocess import FeatureMatrix, FeatureSpec
from econocast.timeseries import MonthStamp

START = MonthStamp(1991, 1)


def matrix_from_arrays(X, y, names=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    names = names or [f"f{i}" for i in range(X.shape[1])]
    specs = tuple(FeatureSpec(n) for n in names)
    return FeatureMatrix(X, np.asarray(y, dtype=float), START, specs, "target")


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


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_identity_linear_layer():
    net = MlpNetwork(
        (2, 2, 2),
        (np.eye(2), np.eye(2)),
        (np.zeros(2), np.zeros(2)),
        hidden_activation="linear",
        output_activation="linear",
    )
    out = forward(net, [3.0, -1.5])
    assert np.allclose(out, [3.0, -1.5])


def test_forward_logistic_of_zero_is_half():
    net = MlpNetwork(
        (1, 1, 1),
        (np.zeros((1, 1)), np.zeros((1, 1))),
        (np.zeros(1), np.zeros(1)),
        output_activation="logistic",
    )
    out = forward(net, [7.0])
    # hidden logistic(0) = 0.5, output logistic(0*0.5 + 0) = 0.5
    assert np.allclose(out, [0.5])


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
    assert abs(forward(net, [x])[0] - expected) < 1e-6


def test_logistic_takes_the_exact_branch_for_each_sign():
    # 1 / (1 + e) for z >= 0 and e / (1 + e) below, e = exp(-|z|), bit for bit.
    z = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-17, -1e-17, 0.3, -0.3, 40.0, -40.0,
                  800.0, -800.0, np.inf, -np.inf, np.nan])
    e = np.exp(-np.abs(z))
    want = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    got = _logistic(z)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[-1]) and np.all(np.isfinite(got[:-1]))


def test_forward_dimension_mismatch():
    net = init([3, 4, 1], TrainConfig())
    with pytest.raises(ValueError):
        forward(net, [1.0, 2.0])


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradients_zero_at_exact_fit():
    net = MlpNetwork(
        (1, 1, 1),
        (np.array([[1.0]]), np.array([[1.0]])),
        (np.zeros(1), np.zeros(1)),
        hidden_activation="linear",
        output_activation="linear",
    )
    y = forward(net, [0.7])
    dws, dbs = gradients(net, [0.7], y)
    assert all(np.allclose(g, 0.0) for g in dws + dbs)


def test_gradients_single_linear_unit_hand_formula():
    w = 0.4
    b = -0.2
    net = MlpNetwork(
        (1, 1, 1),
        (np.array([[w]]), np.array([[1.0]])),
        (np.array([b]), np.zeros(1)),
        hidden_activation="linear",
        output_activation="linear",
    )
    x, y = 1.3, 0.9
    dws, dbs = gradients(net, [x], [y])
    residual = (w * x + b) - y
    assert abs(dws[0][0, 0] - residual * x) < 1e-12
    assert abs(dbs[0][0] - residual) < 1e-12


def _finite_difference(net, x, y, eps=1e-5):
    """Central finite differences of the half-sum-of-squares error."""

    def loss(ws, bs):
        a = np.asarray(x, dtype=float)
        kinds = ["logistic"] * (len(ws) - 1) + [net.output_activation]
        for kind, w, b in zip(kinds, ws, bs):
            z = w @ a + b
            a = 1.0 / (1.0 + np.exp(-z)) if kind == "logistic" else z
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
    net = init([3, 5, 2], cfg, output_activation="linear")
    x = rng.normal(size=3)
    y = rng.normal(size=2)
    dws, dbs = gradients(net, x, y)
    fd_ws, fd_bs = _finite_difference(net, x, y)
    for g, fd in zip(dws + dbs, fd_ws + fd_bs):
        assert np.all(np.abs(g - fd) <= 1e-6 * (1.0 + np.abs(fd)))


# ---------------------------------------------------------------------------
# train / predict / error_percent
# ---------------------------------------------------------------------------

def test_train_stops_after_one_epoch_with_infinite_target():
    rng = np.random.default_rng(0)
    m = matrix_from_arrays(rng.normal(size=(10, 2)), rng.normal(size=10))
    cfg = TrainConfig(max_epochs=500, target_error=float("inf"), rng_seed=3)
    expert = train(init([2, 3, 1], cfg), m, cfg)
    assert np.isfinite(expert.final_train_error)


@pytest.mark.parametrize("output_activation", ["linear", "logistic"])
@pytest.mark.parametrize("rows", [1, 2])
def test_one_epoch_of_train_replays_gradients(rows, output_activation):
    # Each pattern moves the weights by exactly -eta * gradients() at the
    # current weights on the normalized row, so the gradient oracle checks
    # the step that trains.
    rng = np.random.default_rng(5)
    m = matrix_from_arrays(rng.normal(size=(rows, 3)), rng.normal(size=rows))
    cfg = TrainConfig(learning_rate=0.3, max_epochs=1, rng_seed=4)
    net = init([3, 4, 2, 1], cfg, output_activation=output_activation)
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
            net.hidden_activation,
            net.output_activation,
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
def lockstep_batches(draw):
    """(nets, matrices, configs) for one lockstep batch of 1..6 nets with the
    same hidden and output layers: one matrix shared by every net, or one
    matrix per net with input widths drawn from 1..6, all with equal rows."""
    hidden = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    output = draw(st.sampled_from(["linear", "logistic"]))
    rows = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
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
    nets = [
        init([m.width, *hidden, 1], c, output_activation=output) for m, c in zip(matrices, configs)
    ]
    # A target between the nets' final errors stops them at different epochs.
    finals = []
    for net, m, c in zip(nets, matrices, configs):
        try:
            finals.append(train(net, m, c).final_train_error)
        except TrainingDiverged:
            pass
    target = draw(st.floats(min(finals), max(finals))) if finals else 0.0
    return nets, matrices, [replace(c, target_error=target) for c in configs]


@settings(max_examples=60, deadline=None)
@given(lockstep_batches(), st.randoms())
def test_train_many_slot_equals_training_alone_in_any_order(batch, random):
    nets, matrices, configs = batch
    solo = [_solo(*args) for args in zip(nets, matrices, configs)]
    assert [_bytes(r) for r in train_many(nets, matrices, configs)] == solo
    order = list(range(len(nets)))
    random.shuffle(order)
    shuffled = train_many(*([seq[i] for i in order] for seq in (nets, matrices, configs)))
    assert [_bytes(r) for r in shuffled] == [solo[i] for i in order]


def test_train_many_mixed_widths_2_to_24_each_equal_training_alone():
    # Zero-padding every net to the widest input changes the BLAS summation
    # for most widths, so this batch fails unless each width runs unpadded.
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
    short = matrix_from_arrays(rng.normal(size=(5, 2)), rng.normal(size=5))
    cfg = TrainConfig(max_epochs=2)
    net = init([2, 3, 1], cfg)
    bad_batches = [
        ([], [], []),
        ([net, net], [m, m], [cfg]),
        ([net, net], [m], [cfg, cfg]),
        ([net, net], [m, short], [cfg, cfg]),
        ([net, init([2, 4, 1], cfg)], [m, m], [cfg, cfg]),
        ([net, init([3, 4, 1], cfg)], [m, m3], [cfg, cfg]),
        ([net, init([3, 3, 3, 1], cfg)], [m, m3], [cfg, cfg]),
        ([net, init([2, 3, 1], cfg, output_activation="logistic")], [m, m], [cfg, cfg]),
        ([net, net], [m, m], [cfg, replace(cfg, learning_rate=0.1)]),
        ([net, net], [m, m], [cfg, replace(cfg, max_epochs=3)]),
        ([net, init([3, 3, 1], cfg)], [m, m3], [cfg, replace(cfg, target_error=0.5)]),
        ([init([3, 3, 1], cfg)], [m], [cfg]),
        ([net, init([3, 3, 1], cfg)], [m3, m], [cfg, cfg]),
    ]
    for nets, matrices, configs in bad_batches:
        with pytest.raises(ValueError):
            train_many(nets, matrices, configs)
    train_many([net, net], [m, m], [cfg, replace(cfg, rng_seed=9)])
    train_many([net, init([3, 3, 1], cfg)], [m, m3], [cfg, replace(cfg, rng_seed=9)])


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
        sub = FeatureMatrix(m.X[rows], m.y[rows], START.plus(i), m.specs, "target")
        assert np.array_equal(predict(expert, sub).values, full[rows])


def test_predict_feature_mismatch():
    rng = np.random.default_rng(6)
    m = matrix_from_arrays(rng.normal(size=(8, 2)), rng.normal(size=8))
    cfg = TrainConfig(max_epochs=2)
    expert = train(init([2, 3, 1], cfg), m, cfg)
    other = matrix_from_arrays(m.X, m.y, names=["x", "y"])
    with pytest.raises(ValueError):
        predict(expert, other)


def _constant_prediction_expert(value, n=6):
    """Expert whose denormalized output is always `value`."""
    X = np.zeros((n, 1))
    y = np.full(n, value)
    m = matrix_from_arrays(X, y)
    net = MlpNetwork(
        (1, 1, 1),
        (np.zeros((1, 1)), np.zeros((1, 1))),
        (np.zeros(1), np.zeros(1)),
        output_activation="linear",
    )
    norm = Normalizer(np.zeros(1), np.ones(1), float(value), 1.0)
    return (
        TrainedExpert(net, norm, m.specs, (m.start, m.end), 0.0, 0),
        m,
    )


def test_error_percent_hand_values():
    n = 8
    target = np.full(n, 50.0)
    X = np.zeros((n, 1))
    m = matrix_from_arrays(X, target)
    expert, _ = _constant_prediction_expert(55.0, n)
    m = FeatureMatrix(m.X, target, START, expert.features, "target")
    assert abs(error_percent(predict(expert, m), m) - 10.0) < 1e-9  # uniformly 10% above

    zero_expert, _ = _constant_prediction_expert(0.0, n)
    m0 = FeatureMatrix(m.X, target, START, zero_expert.features, "target")
    assert abs(error_percent(predict(zero_expert, m0), m0) - 100.0) < 1e-9

    perfect, _ = _constant_prediction_expert(50.0, n)
    mp = FeatureMatrix(m.X, target, START, perfect.features, "target")
    assert error_percent(predict(perfect, mp), mp) == 0.0


def test_error_percent_rejects_a_prediction_of_other_rows():
    expert, m = _constant_prediction_expert(5.0)
    predicted = predict(expert, m)
    shifted = FeatureMatrix(m.X, m.y, START.plus(1), m.specs, "target")
    shorter = FeatureMatrix(m.X[1:], m.y[1:], START, m.specs, "target")
    for other in (shifted, shorter):
        with pytest.raises(ValueError, match="does not cover"):
            error_percent(predicted, other)
    assert error_percent(predicted, m) == 0.0


def test_error_percent_all_zero_target():
    expert, m = _constant_prediction_expert(0.0)
    zero = FeatureMatrix(m.X, np.zeros(m.rows), START, expert.features, "target")
    with pytest.raises(ValueError):
        error_percent(predict(expert, zero), zero)


# ---------------------------------------------------------------------------
# Normalizer
# ---------------------------------------------------------------------------

def test_normalizer_round_trip():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 4)) * 100 + 7
    y = rng.normal(size=30) * 50 - 3
    for activation in ("linear", "logistic"):
        norm = Normalizer.fit(X, y, activation)
        assert np.all(np.abs(norm.denormalize_target(norm.normalize_target(y)) - y) < 1e-12)
        back = norm.normalize_inputs(X) * norm.input_scale + norm.input_shift
        assert np.all(np.abs(back - X) < 1e-9)


def test_normalizer_logistic_maps_to_band():
    y = np.linspace(-5, 17, 40)
    norm = Normalizer.fit(np.zeros((40, 1)), y, "logistic")
    yn = norm.normalize_target(y)
    assert abs(yn.min() - 0.1) < 1e-12 and abs(yn.max() - 0.9) < 1e-12


def test_normalizer_constant_column_scale_positive():
    X = np.ones((10, 2))
    norm = Normalizer.fit(X, np.ones(10), "linear")
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
    save_expert(expert, str(path))
    assert path.read_bytes() == (json.dumps(expert_to_dict(expert), indent=1) + "\n").encode()
    assert expert_to_dict(load_expert(str(path))) == expert_to_dict(expert)
