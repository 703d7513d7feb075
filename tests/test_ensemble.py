import dataclasses
import json

import numpy as np
import pytest

from econocast import ensemble, mlp
from econocast.artifacts import write_tree
from econocast.ensemble import (
    EnsembleSpec,
    MASTER_NAME,
    SubNetworkSpec,
    fit_subs,
    load_ensemble,
    model_files,
    train_ensemble,
)
from econocast.mlp import TrainConfig, expert_to_dict, init, predict, train
from econocast.preprocess import FeatureMatrix, FeatureSpec, assemble
from econocast.presets import NETWORK_NAMES, preset_features
from econocast.timeseries import MonthStamp, TimeSeries, synthesize_economy

TRAIN = (MonthStamp(1992, 1), MonthStamp(1995, 12))
TEST = (MonthStamp(1996, 1), MonthStamp(1996, 12))


@pytest.fixture(scope="module")
def bundle():
    return synthesize_economy(seed=2, months=72, cycle_period=12, noise_scale=0.1)


def small_spec(bundle, n_subs=2, epochs=60):
    subs = []
    for i in range(n_subs):
        name = f"network{i + 1}"
        subs.append(
            SubNetworkSpec(
                name=name,
                features=tuple(preset_features(name, 12)),
                hidden_layers=(3,),
                train_config=TrainConfig(max_epochs=epochs, rng_seed=1 + i),
            )
        )
    return EnsembleSpec(tuple(subs), (3,), TrainConfig(max_epochs=40, rng_seed=99))


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec((), (4,), TrainConfig())
    sub = SubNetworkSpec("a", (FeatureSpec("x"),), (2,), TrainConfig())
    with pytest.raises(ValueError):
        EnsembleSpec((sub,), (4,), TrainConfig())  # fewer than two subs
    with pytest.raises(ValueError):
        EnsembleSpec((sub, sub), (4,), TrainConfig())  # duplicate names


@pytest.mark.parametrize("hidden", [(True,), (3.9,), (2, 2.0), (), (0,), ("3",)])
def test_hidden_sizes_must_be_integers_ge_1(hidden):
    # not truncated through int(): (True,) is not (1,), nor (3.9,) (3,)
    sub = SubNetworkSpec("a", (FeatureSpec("x"),), (2,), TrainConfig())
    with pytest.raises(ValueError, match="^hidden_layers must be a non-empty list of integers"):
        SubNetworkSpec("a", (FeatureSpec("x"),), hidden, TrainConfig())
    with pytest.raises(ValueError, match="^master_hidden_layers must be"):
        EnsembleSpec((sub, dataclasses.replace(sub, name="b")), hidden, TrainConfig())


def test_hidden_sizes_take_numpy_integers():
    sub = SubNetworkSpec("a", (FeatureSpec("x"),), np.array([3, 2]), TrainConfig())
    assert sub.hidden_layers == (3, 2) and all(type(n) is int for n in sub.hidden_layers)
    spec = EnsembleSpec((sub, dataclasses.replace(sub, name="b")), (np.int64(4),), TrainConfig())
    assert spec.master_hidden_layers == (4,) and type(spec.master_hidden_layers[0]) is int


def test_identical_subs_master_contains_solution(bundle):
    sub = SubNetworkSpec(
        name="twin_a",
        features=tuple(preset_features("network1", 12)),
        hidden_layers=(3,),
        train_config=TrainConfig(max_epochs=80, rng_seed=5),
    )
    twin = SubNetworkSpec(
        name="twin_b",
        features=sub.features,
        hidden_layers=sub.hidden_layers,
        train_config=sub.train_config,
    )
    spec = EnsembleSpec((sub, twin), (3,), TrainConfig(max_epochs=200, rng_seed=9))
    model = train_ensemble(spec, bundle.series, "activity", TRAIN, TEST)
    sub_train_err = model.reports[0][1].train_error_pct
    master_train_err = model.reports[-1][1].train_error_pct
    # the master's input already contains the sub's fit
    assert master_train_err <= sub_train_err + 1.0


def test_report_rows_ordered_with_master_last(bundle):
    spec = small_spec(bundle, n_subs=3)
    model = train_ensemble(spec, bundle.series, "activity", TRAIN, TEST)
    names = [name for name, _ in model.reports]
    assert names == ["network1", "network2", "network3", MASTER_NAME]


def test_master_matrix_columns_are_sub_predictions(bundle):
    spec = small_spec(bundle)
    model = train_ensemble(spec, bundle.series, "activity", TRAIN, TEST)
    assert model.master.features == tuple(FeatureSpec(n) for n in model.sub_names)
    # the master's fitted input means are a fingerprint of its training
    # columns: they must equal the sub predictions over the training range
    for i, expert in enumerate(model.sub_experts):
        m = assemble(list(expert.features), bundle.series, "activity", None, *TRAIN)
        pred = predict(expert, m).values
        assert abs(model.master.normalizer.input_shift[i] - pred.mean()) < 1e-12


def test_no_test_leakage(bundle):
    spec = small_spec(bundle)
    model_a = train_ensemble(spec, bundle.series, "activity", TRAIN, TEST)

    # corrupt the target inside the test range only
    corrupted = dict(bundle.series)
    target = corrupted["activity"]
    values = target.values.copy()
    idx = TEST[0].months_since(target.start)
    values[idx:] = values[idx:] + 17.0
    corrupted["activity"] = TimeSeries(target.start, values)
    model_b = train_ensemble(spec, corrupted, "activity", TRAIN, TEST)

    for ea, eb in zip(model_a.sub_experts, model_b.sub_experts):
        for wa, wb in zip(ea.network.weights, eb.network.weights):
            assert np.array_equal(wa, wb)
    for wa, wb in zip(model_a.master.network.weights, model_b.master.network.weights):
        assert np.array_equal(wa, wb)


def test_ensemble_deterministic(bundle):
    spec = small_spec(bundle)
    a = train_ensemble(spec, bundle.series, "activity", TRAIN, TEST)
    b = train_ensemble(spec, bundle.series, "activity", TRAIN, TEST)
    assert a.reports == b.reports
    for ea, eb in zip(a.sub_experts, b.sub_experts):
        for wa, wb in zip(ea.network.weights, eb.network.weights):
            assert np.array_equal(wa, wb)


def _preset_subs(epochs=4):
    return tuple(
        SubNetworkSpec(
            name=name,
            features=tuple(preset_features(name, 12)),
            hidden_layers=(4,),
            train_config=TrainConfig(max_epochs=epochs, rng_seed=1 + i),
        )
        for i, name in enumerate(NETWORK_NAMES)
    )


def _solo_fit(sub, bundle):
    m = assemble(sub.features, bundle.series, "activity", None, *TRAIN)
    expert = train(init(sub.shape(), sub.train_config), m, sub.train_config)
    return json.dumps(expert_to_dict(dataclasses.replace(expert, test_range=TEST)))


def test_subs_train_as_one_batch_each_equal_training_alone(bundle, monkeypatch):
    subs = _preset_subs()
    batches = []

    def spy(nets, matrices, configs):
        batches.append(sorted(net.n_in for net in nets))
        return mlp.train_many(nets, matrices, configs)

    monkeypatch.setattr(ensemble, "train_many", spy)
    spec = EnsembleSpec(subs, (3,), TrainConfig(max_epochs=4, rng_seed=99))
    model = train_ensemble(spec, bundle.series, "activity", TRAIN, TEST)
    assert batches == [[8, 9, 9, 9, 10, 12, 14, 21]]
    for sub, expert in zip(subs, model.sub_experts):
        assert json.dumps(expert_to_dict(expert)) == _solo_fit(sub, bundle), sub.name


def test_an_ensemble_scores_its_nine_report_rows_as_one_stack(bundle, derivations):
    spec = EnsembleSpec(_preset_subs(), (3,), TrainConfig(max_epochs=4, rng_seed=99))
    model = train_ensemble(spec, bundle.series, "activity", TRAIN, TEST)
    held_subs, held_master = model.test_predictions
    assert [d.shape for d in derivations] == [(9, 12)]
    assert np.array_equal(derivations[0], [p.values for p in (*held_subs, held_master)])


def test_a_one_month_test_range_cannot_be_scored(bundle):
    with pytest.raises(ValueError, match="^need at least two points to derive signals$"):
        train_ensemble(small_spec(bundle), bundle.series, "activity", TRAIN, (TEST[0], TEST[0]))


def test_fit_subs_batches_by_hidden_layers_and_keeps_selected_experts(bundle, monkeypatch):
    subs = list(_preset_subs()[:4])
    subs[1] = dataclasses.replace(subs[1], hidden_layers=(2, 2))
    subs[3] = dataclasses.replace(subs[3], hidden_layers=(2, 2))
    chosen = train(
        init(subs[2].shape(), subs[2].train_config),
        assemble(subs[2].features, bundle.series, "activity", None, *TRAIN),
        subs[2].train_config,
    )
    calls, batches = [], []

    def spy(nets, matrices, configs):
        calls.append([c.rng_seed for c in configs])
        return mlp.train_many(nets, matrices, configs)

    def lockstep_spy(nets, *batch):
        batches.append([net.layer_sizes for net in nets])
        return lockstep(nets, *batch)

    lockstep = mlp._train_lockstep
    monkeypatch.setattr(ensemble, "train_many", spy)
    monkeypatch.setattr(mlp, "_train_lockstep", lockstep_spy)
    fits = fit_subs(subs, bundle.series, "activity", TRAIN, TEST, [None, None, chosen, None])
    assert calls == [[1, 2, 4]]
    assert batches == [[subs[0].shape()], [subs[1].shape(), subs[3].shape()]]
    assert fits[2].expert.network is chosen.network
    assert fits[2].expert == dataclasses.replace(chosen, test_range=TEST)
    for i in (0, 1, 3):
        assert json.dumps(expert_to_dict(fits[i].expert)) == _solo_fit(subs[i], bundle)


def test_a_loaded_model_reproduces_the_test_predictions_training_made(tmp_path, bundle):
    model = train_ensemble(small_spec(bundle, n_subs=3), bundle.series, "activity", TRAIN, TEST)
    write_tree(str(tmp_path / "model"), model_files(model).items())
    loaded = load_ensemble(str(tmp_path / "model"))
    assert loaded.test_predictions is None
    subs = [predict(expert, assemble(expert.features, bundle.series, "activity", None, *TEST))
            for expert in loaded.sub_experts]
    columns = np.column_stack([p.values for p in subs])
    target = bundle.series["activity"].slice_range(*TEST).values
    master = predict(loaded.master, FeatureMatrix(columns, target, TEST[0], loaded.master.features))
    held_subs, held_master = model.test_predictions
    assert len(held_subs) == len(subs) == 3
    for held, again in zip((*held_subs, held_master), (*subs, master)):
        assert held.start == again.start == TEST[0]
        assert held.values.tobytes() == again.values.tobytes()


def test_ranges_must_be_disjoint_and_ordered(bundle):
    spec = small_spec(bundle)
    with pytest.raises(ValueError):
        train_ensemble(spec, bundle.series, "activity", TRAIN, (TRAIN[1], TRAIN[1].plus(5)))


def test_save_load_round_trip(tmp_path, bundle):
    spec = small_spec(bundle)
    model = train_ensemble(spec, bundle.series, "activity", TRAIN, TEST)
    directory = str(tmp_path / "model")
    write_tree(directory, model_files(model).items())
    clone = load_ensemble(directory)
    assert clone.sub_names == model.sub_names
    assert clone.reports == model.reports
    assert model_files(clone) == model_files(model)


@pytest.fixture(scope="module")
def model(bundle):
    return train_ensemble(small_spec(bundle), bundle.series, "activity", TRAIN, TEST)


def test_load_rejects_other_schema_version(tmp_path, model):
    directory = tmp_path / "model"
    write_tree(str(directory), model_files(model).items())
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["schema_version"] = 2
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="schema_version 2"):
        load_ensemble(str(directory))


def test_load_reads_a_null_schema_version_as_missing(tmp_path, model):
    directory = tmp_path / "model"
    write_tree(str(directory), model_files(model).items())
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["schema_version"] = None
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="^unsupported model schema_version None in "):
        load_ensemble(str(directory))


def test_a_failed_save_leaves_no_model(tmp_path, model):
    def files():
        for name, text in model_files(model).items():
            if name == "master.json":
                raise OSError("disk full")
            yield name, text

    with pytest.raises(OSError, match="disk full"):
        write_tree(str(tmp_path / "model"), files())
    assert list(tmp_path.iterdir()) == []
