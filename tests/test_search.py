import json
import re

import numpy as np
import pytest

import oracles
from econocast import search
from econocast.mlp import TrainConfig, TrainingDiverged, expert_to_dict, init, train
from econocast.preprocess import FeatureMatrix, FeatureSpec
from econocast.search import (
    ArchitectureGrid,
    CandidateResult,
    RestartOutcome,
    RestartResult,
    SearchOutcome,
    candidate_seed,
    maximize_sharpe,
    maximize_sharpes,
    restart_log_csv,
    search_best_nets,
    search_log_csv,
)
from econocast.timeseries import MonthStamp

START = MonthStamp(1991, 1)


def matrix(X, y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    specs = tuple(FeatureSpec(f"f{i}") for i in range(X.shape[1]))
    return FeatureMatrix(X, np.asarray(y, dtype=float), START, specs)


def linear_problem(n=48, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=n)
    y = 2 * x + 1
    split = int(n * 0.7)
    return matrix(x[:split].reshape(-1, 1), y[:split]), matrix(
        x[split:].reshape(-1, 1), y[split:]
    )


def search_one(grid, tr, va, cfg):
    """search_best_nets on one (train, validation) pair."""
    (outcome,) = search_best_nets(grid, [(tr, va)], [cfg])
    return outcome


def sine_problem(n=64):
    x = np.arange(n) / n
    y = np.sin(2 * np.pi * x)
    split = 48
    return matrix(x[:split].reshape(-1, 1), y[:split]), matrix(
        x[split:].reshape(-1, 1), y[split:]
    )


@pytest.mark.parametrize(
    "counts, nodes, named",
    [
        ((1.9,), (2,), "hidden_layer_counts"),
        ((True,), (2,), "hidden_layer_counts"),
        ((), (2,), "hidden_layer_counts"),
        ((1,), (2.5, True), "nodes_per_layer_candidates"),
        ((1,), (0,), "nodes_per_layer_candidates"),
    ],
)
def test_grid_rejects_sizes_that_are_not_integers_ge_1(counts, nodes, named):
    # not truncated through int(): (1.9,) x (2.5, True) is not (1,) x (2, 1)
    with pytest.raises(ValueError, match=f"^{named} must be a non-empty list of integers >= 1"):
        ArchitectureGrid(counts, nodes)


def test_grid_takes_numpy_integers():
    grid = ArchitectureGrid(np.array([1, 2]), (np.int64(3),))
    assert grid.shapes(5) == [(5, 3, 1), (5, 3, 3, 1)]
    assert all(type(n) is int for n in grid.hidden_layer_counts + grid.nodes_per_layer_candidates)


def test_single_candidate_wins():
    tr, va = linear_problem()
    outcome = search_one(ArchitectureGrid((1,), (3,)), tr, va, TrainConfig(max_epochs=50))
    assert outcome.best_architecture == (1, 3, 1)
    assert len(outcome.log) == 1


def test_linear_target_tie_breaks_toward_fewer_parameters():
    tr, va = linear_problem()
    cfg = TrainConfig(learning_rate=0.1, init_weight_bound=1.0, max_epochs=3000)
    outcome = search_one(ArchitectureGrid((1,), (1, 8)), tr, va, cfg)
    scores = {r.shape: r.combined for r in outcome.log}
    # both land within the tie band on an affine target; the small net wins
    assert all(s < 2.0 for s in scores.values())
    assert outcome.best_architecture == (1, 1, 1)


def test_sine_target_needs_capacity():
    tr, va = sine_problem()
    outcome = search_one(ArchitectureGrid((1,), (2, 16)), tr, va, TrainConfig(max_epochs=800))
    assert outcome.best_architecture == (1, 16, 1)


def test_search_is_deterministic_and_covers_every_candidate_once():
    tr, va = linear_problem()
    grid, cfg = ArchitectureGrid((1, 2), (2, 4)), TrainConfig(max_epochs=30)
    a = search_one(grid, tr, va, cfg)
    b = search_one(grid, tr, va, cfg)
    assert a.best_architecture == b.best_architecture
    assert [r.shape for r in a.log] == [r.shape for r in b.log]
    assert [r.combined for r in a.log] == [r.combined for r in b.log]
    assert len({r.shape for r in a.log}) == len(a.log) == 4


def test_candidate_seed_is_stable():
    assert candidate_seed([1, 4, 1], 7) == candidate_seed((1, 4, 1), 7)
    assert candidate_seed([1, 4, 1], 7) != candidate_seed([1, 4, 1], 8)


def test_divergent_candidate_scores_worst_but_not_fatal():
    tr, va = linear_problem()
    cfg = TrainConfig(max_epochs=30, learning_rate=1e7)
    outcome = search_one(ArchitectureGrid((1,), (2, 4)), tr, va, cfg)
    assert all(r.diverged for r in outcome.log)
    assert all(r.combined == float("inf") for r in outcome.log)


def test_search_log_csv_header():
    tr, va = linear_problem()
    outcome = search_one(ArchitectureGrid((1,), (2,)), tr, va, TrainConfig(max_epochs=10))
    text = search_log_csv(outcome)
    assert text.splitlines()[0] == "candidate,seed,train_err,val_err,srm,wallclock"


def test_one_call_searches_every_pair_as_if_alone(monkeypatch):
    # Equal rows, widths 1 to 3: the first two pairs' configs differ only in
    # rng_seed, so their candidates share lockstep batches; the third diverges.
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(48, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + 1
    pairs = [(matrix(X[:32, :k], y[:32]), matrix(X[32:, :k], y[32:])) for k in (1, 2, 3)]
    configs = [
        TrainConfig(max_epochs=30, rng_seed=1),
        TrainConfig(max_epochs=30, rng_seed=2),
        TrainConfig(max_epochs=30, learning_rate=1e7),
    ]
    grid = ArchitectureGrid((1, 2), (2, 3))
    alone = [search_one(grid, tr, va, cfg) for (tr, va), cfg in zip(pairs, configs)]
    calls = []
    train_many = search.train_many

    def spy(nets, *args):
        calls.append(len(nets))
        return train_many(nets, *args)

    monkeypatch.setattr(search, "train_many", spy)
    batched = search_best_nets(grid, pairs, configs)
    assert calls == [12]
    assert [o.best_architecture for o in batched] == [o.best_architecture for o in alone]
    assert [o.log for o in batched] == [o.log for o in alone]
    assert [[r.diverged for r in o.log] for o in batched] == [[False] * 4] * 2 + [[True] * 4]


def test_selection_logs_render_exactly():
    inf = float("inf")
    searched = SearchOutcome(
        best_architecture=(3, 4, 1),
        log=(
            CandidateResult((3, 4, 1), 123456, 12.3456789, 7.0, 12.3456789, 21),
            CandidateResult((3, 16, 16, 1), 42, inf, inf, inf, 353, diverged=True),
        ),
    )
    assert search_log_csv(searched) == (
        "candidate,seed,train_err,val_err,srm,wallclock\n"
        "3x4x1,123456,12.3457,7,,\n"
        "3x16x16x1,42,inf,inf,,\n"
    )
    tr, _ = linear_problem()
    cfg = TrainConfig(max_epochs=1)
    restarted = RestartOutcome(
        expert=train(init((1, 2, 1), cfg), tr, cfg),
        best_restart=1,
        history=(
            RestartResult(0, 7, 0.123456789, 55.5, 3.25),
            RestartResult(1, 8, None, 100.0, 1e-7),
            RestartResult(2, 9, -inf, -inf, inf, diverged=True),
        ),
        reached_target=False,
    )
    assert restart_log_csv(restarted) == (
        "candidate,seed,train_err,val_err,srm,wallclock\n"
        "restart0,7,3.25,,0.123457,\n"
        "restart1,8,1e-07,,no-loss,\n"
        "restart2,9,inf,,-inf,\n"
    )


# ---------------------------------------------------------------------------
# maximize_sharpe
# ---------------------------------------------------------------------------

def _bundle_matrices():
    from econocast.preprocess import assemble
    from econocast.presets import preset_features
    from econocast.timeseries import synthesize_economy

    bundle = synthesize_economy(seed=9, months=96, cycle_period=12, noise_scale=0.1)
    feats = preset_features("network1", 12)
    first = MonthStamp(1992, 1)
    split = MonthStamp(1996, 12)
    tr = assemble(feats, bundle.series, "activity", None, first, split)
    va = assemble(feats, bundle.series, "activity", None, split.plus(1), bundle.target.end)
    return tr, va


def test_single_restart_equals_plain_training():
    tr, va = _bundle_matrices()
    cfg = TrainConfig(max_epochs=60, rng_seed=5)
    outcome = maximize_sharpe((tr.width, 3, 1), tr, va, cfg, max_restarts=1, base_seed=5)
    plain = train(init((tr.width, 3, 1), cfg), tr, cfg)
    assert outcome.best_restart == 0
    for w_a, w_b in zip(outcome.expert.network.weights, plain.network.weights):
        assert np.array_equal(w_a, w_b)


def test_best_of_twenty_at_least_best_of_one():
    tr, va = _bundle_matrices()
    cfg = TrainConfig(max_epochs=40, rng_seed=3)

    def key(srm):
        return float("inf") if srm is None else srm

    big = maximize_sharpe((tr.width, 3, 1), tr, va, cfg, max_restarts=20, base_seed=3)
    assert key(big.history[big.best_restart].srm) >= key(big.history[0].srm)
    assert key(big.history[big.best_restart].srm) == max(key(h.srm) for h in big.history)


def test_early_stop_on_target():
    tr, va = _bundle_matrices()
    cfg = TrainConfig(max_epochs=40, rng_seed=3)
    outcome = maximize_sharpe(
        (tr.width, 3, 1), tr, va, cfg, target_srm=-1e9, max_restarts=20, base_seed=3
    )
    assert outcome.reached_target
    assert len(outcome.history) == 1


def test_maximize_sharpe_deterministic():
    tr, va = _bundle_matrices()
    cfg = TrainConfig(max_epochs=30, rng_seed=11)
    a = maximize_sharpe((tr.width, 3, 1), tr, va, cfg, max_restarts=5, base_seed=11)
    b = maximize_sharpe((tr.width, 3, 1), tr, va, cfg, max_restarts=5, base_seed=11)
    assert a.best_restart == b.best_restart
    assert [h.srm for h in a.history] == [h.srm for h in b.history]
    text = restart_log_csv(a)
    assert text.splitlines()[0] == "candidate,seed,train_err,val_err,srm,wallclock"


@pytest.mark.parametrize(
    "cfg, target",
    [
        # no target: every restart is scored
        (TrainConfig(max_epochs=20, rng_seed=1), None),
        # the best of these six, restart 2, is the first to reach its own score
        (TrainConfig(learning_rate=0.8, max_epochs=20), "best"),
        # restart 0 diverges, the other five train on
        (TrainConfig(learning_rate=1.0, max_epochs=20), None),
    ],
)
def test_lockstep_restarts_match_the_serial_loop(cfg, target):
    tr, va = _bundle_matrices()
    shape = (tr.width, 3, 1)
    if target == "best":
        scores = [h.srm for h in maximize_sharpe(shape, tr, va, cfg, max_restarts=6).history]
        target = max(scores)
        assert scores.index(target) > 0
    outcome = maximize_sharpe(shape, tr, va, cfg, target_srm=target, max_restarts=6)
    history, best_restart, reached, expert = oracles.serial_maximize_sharpe(
        shape, tr, va, cfg, target_srm=target, max_restarts=6
    )
    assert [
        (h.seed, h.srm, h.efficiency_pct, h.train_error_pct, h.diverged) for h in outcome.history
    ] == history
    assert [h.restart for h in outcome.history] == list(range(len(history)))
    assert outcome.best_restart == best_restart
    assert outcome.reached_target == reached
    assert json.dumps(expert_to_dict(outcome.expert)) == json.dumps(expert_to_dict(expert))
    if target is not None:
        assert outcome.reached_target and len(outcome.history) == scores.index(target) + 1
    if cfg.learning_rate == 1.0:
        assert [h.diverged for h in outcome.history] == [True] + [False] * 5


def test_every_restart_diverged_names_the_count_and_an_epoch():
    tr, va = _bundle_matrices()
    cfg = TrainConfig(learning_rate=3.0, max_epochs=20)
    with pytest.raises(TrainingDiverged, match=r"all 4 restarts diverged, the last at epoch \d+"):
        maximize_sharpe((tr.width, 3, 1), tr, va, cfg, max_restarts=4)


def _restart_pairs():
    """Four (train, validation) pairs on equal rows, widths 1 to 3, with a
    shape and config each; the last pair diverges at every restart."""
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(60, 3))
    y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.3 * rng.normal(size=60)
    pairs = [(matrix(X[:40, :k], y[:40]), matrix(X[40:, :k], y[40:])) for k in (1, 2, 3, 3)]
    shapes = [(1, 2, 1), (2, 3, 1), (3, 2, 2, 1), (3, 2, 1)]
    configs = [TrainConfig(max_epochs=10, rng_seed=s) for s in (1, 30, 7)]
    return shapes, pairs, configs + [TrainConfig(max_epochs=10, learning_rate=1e7)]


@pytest.mark.parametrize(
    "target, scored",
    [
        (None, [8, 8, 8]),
        # restarts 0, 5 and 3 are the first to reach 1.4
        (1.4, [1, 6, 4]),
        # only the third pair reaches 1.42, at restart 3
        (1.42, [8, 8, 4]),
    ],
)
def test_one_call_runs_every_pairs_restarts_as_if_alone(monkeypatch, target, scored):
    shapes, pairs, configs = _restart_pairs()
    alone = []
    for shape, (tr, va), cfg in zip(shapes, pairs, configs):
        try:
            alone.append(maximize_sharpe(shape, tr, va, cfg, target, 8))
        except TrainingDiverged as exc:
            alone.append(exc)
    calls = []
    train_many = search.train_many

    def spy(nets, *args):
        calls.append(len(nets))
        return train_many(nets, *args)

    monkeypatch.setattr(search, "train_many", spy)
    batched = maximize_sharpes(shapes, pairs, configs, target, 8)
    assert calls == [32]
    for a, b in zip(batched[:3], alone):
        assert a.history == b.history
        assert (a.best_restart, a.reached_target) == (b.best_restart, b.reached_target)
        assert json.dumps(expert_to_dict(a.expert)) == json.dumps(expert_to_dict(b.expert))
    assert [len(o.history) for o in batched[:3]] == scored
    assert [o.reached_target for o in batched[:3]] == [target is not None and n < 8 for n in scored]
    message = "all 8 restarts diverged, the last at epoch 1 (non-finite loss)"
    assert isinstance(batched[3], TrainingDiverged) and str(batched[3]) == str(alone[3]) == message


def test_a_flat_validation_target_fills_only_its_own_slot():
    shapes, pairs, configs = _restart_pairs()
    (tr, va), shapes, configs = pairs[1], shapes[:3], configs[:3]
    flat = matrix(va.X, np.ones(va.rows))
    outcomes = maximize_sharpes(shapes, [pairs[0], (tr, flat), pairs[2]], configs, None, 2)
    assert isinstance(outcomes[1], ValueError) and str(outcomes[1]) == "flat actual series"
    assert [type(o) for o in outcomes[::2]] == [RestartOutcome] * 2
    with pytest.raises(ValueError, match="^flat actual series$"):
        maximize_sharpe(shapes[1], tr, flat, configs[1], max_restarts=2)


@pytest.mark.parametrize("max_restarts", [0, 2.5, True, "3", None])
def test_max_restarts_must_be_an_integer_ge_1(max_restarts):
    shapes, pairs, configs = _restart_pairs()
    message = f"^max_restarts must be an integer >= 1, got {re.escape(repr(max_restarts))}$"
    with pytest.raises(ValueError, match=message):
        maximize_sharpes(shapes, pairs, configs, max_restarts=max_restarts)
    with pytest.raises(ValueError, match=message):
        maximize_sharpe(shapes[0], *pairs[0], configs[0], max_restarts=max_restarts)


def test_each_pairs_restarts_are_scored_as_one_stack(derivations):
    # one (trained restarts, validation months) stack per pair; the last
    # pair's restarts all diverge, so nothing of it is scored
    shapes, pairs, configs = _restart_pairs()
    outcomes = maximize_sharpes(shapes, pairs, configs, None, 5)
    assert [d.shape for d in derivations] == [(5, va.rows) for _, va in pairs[:3]]
    assert all(d.flags.c_contiguous for d in derivations)
    assert isinstance(outcomes[3], TrainingDiverged)


def test_a_one_row_validation_matrix_fills_only_its_own_slot():
    shapes, pairs, configs = _restart_pairs()
    tr, va = pairs[1]
    one_row = matrix(va.X[:1], va.y[:1])
    outcomes = maximize_sharpes(shapes[:3], [pairs[0], (tr, one_row), pairs[2]], configs[:3], None, 2)
    message = "need at least two points to derive signals"
    assert isinstance(outcomes[1], ValueError) and str(outcomes[1]) == message
    assert [type(o) for o in outcomes[::2]] == [RestartOutcome] * 2
    with pytest.raises(ValueError, match=f"^{message}$"):
        maximize_sharpe(shapes[1], tr, one_row, configs[1], max_restarts=2)


def test_a_restart_that_cannot_predict_fills_only_its_own_slot():
    shapes, pairs, configs = _restart_pairs()
    tr, va = pairs[1]
    renamed = FeatureMatrix(va.X, va.y, va.start, (FeatureSpec("g0"), FeatureSpec("g1")))
    outcomes = maximize_sharpes(shapes[:3], [pairs[0], (tr, renamed), pairs[2]], configs[:3], None, 2)
    assert isinstance(outcomes[1], ValueError)
    assert str(outcomes[1]) == "matrix columns do not match the expert's features"
    assert [type(o) for o in outcomes[::2]] == [RestartOutcome] * 2
