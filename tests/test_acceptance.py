"""Acceptance suite: one test per shipped criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s`).

Budgeted runtimes are asserted where the criterion states one.
"""

import itertools
import json
import math
import time

import numpy as np

import oracles
from econocast.cli import config_from_dict, main, _build_sub_specs, _detect_cycle, _load_sources
from econocast import ensemble as ens
from econocast.lagscan import scan
from econocast.metrics import (
    SignalSeries,
    benchmark_curves,
    efficiency_rows,
    hit_rate_rows,
    mean_error_rows,
    render_report_table,
    rmse_rows,
    sharpe_modified_rows,
    signals_from_prediction,
    strategy_rows,
    MetricsReport,
    REPORT_COLUMNS,
)
from econocast.mlp import TrainConfig, gradients, init, predict, train
from econocast.preprocess import FeatureMatrix, FeatureSpec
from econocast.presets import preset_features
from econocast.search import maximize_sharpe
from econocast.timeseries import (
    DEFAULT_SECTOR_WEIGHTS,
    MonthStamp,
    TimeSeries,
    laspeyres_index,
    synthesize_economy,
)

START = MonthStamp(1991, 1)


def _announce(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {number:02d} {status} {description}{suffix}")


class _Criterion:
    """Prints the pass/fail line even when the body raises."""

    def __init__(self, number: int, description: str):
        self.number = number
        self.description = description
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _announce(self.number, self.description, exc_type is None, self.detail)
        return False


# ---------------------------------------------------------------------------
# 1. Gradient oracle
# ---------------------------------------------------------------------------

def _finite_difference_grads(net, x, y, eps=1e-5):
    def loss(ws, bs):
        a = np.asarray(x, dtype=float)
        for l, (w, b) in enumerate(zip(ws, bs)):
            z = w @ a + b
            a = 1.0 / (1.0 + np.exp(-z)) if l < len(ws) - 1 else z
        return 0.5 * float(np.sum((a - np.asarray(y)) ** 2))

    ws = [w.copy() for w in net.weights]
    bs = [b.copy() for b in net.biases]
    out = []
    for arrs in (ws, bs):
        grads = []
        for arr in arrs:
            g = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                hi = loss(ws, bs)
                arr[idx] = orig - eps
                lo = loss(ws, bs)
                arr[idx] = orig
                g[idx] = (hi - lo) / (2 * eps)
            grads.append(g)
        out.append(grads)
    return out


def test_criterion_1_gradient_oracle():
    with _Criterion(1, "gradients match central finite differences on 100 random nets") as c:
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        for trial in range(100):
            if trial == 0:
                sizes = [6, 8, 4, 2]
            else:
                depth = int(rng.integers(1, 3))
                sizes = [int(rng.integers(1, 7))]
                limits = (8, 4)
                for d in range(depth):
                    sizes.append(int(rng.integers(1, limits[d] + 1)))
                sizes.append(int(rng.integers(1, 3)))
            cfg = TrainConfig(init_weight_bound=0.8, rng_seed=int(rng.integers(1, 10_000)))
            net = init(sizes, cfg)
            x = rng.normal(size=sizes[0])
            y = rng.normal(size=sizes[-1])
            dws, dbs = gradients(net, x, y)
            fd_ws, fd_bs = _finite_difference_grads(net, x, y)
            for g, fd in zip(dws + dbs, fd_ws + fd_bs):
                assert np.all(np.abs(g - fd) <= 1e-6 * (1.0 + np.abs(fd)))
        elapsed = time.perf_counter() - started
        c.detail = f"{elapsed:.1f}s"
        assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. Universal-approximation smoke
# ---------------------------------------------------------------------------

def test_criterion_2_sine_fit():
    with _Criterion(2, "[1,16,1] net fits sin(2*pi*x) to RMSE < 0.05 in 5000 epochs") as c:
        started = time.perf_counter()
        x = np.arange(64) / 64.0
        y = np.sin(2 * np.pi * x)
        matrix = FeatureMatrix(x.reshape(-1, 1), y, START, (FeatureSpec("x"),))
        cfg = TrainConfig()  # shipped defaults: lr 0.05, bound 0.3, 5000 epochs, seed 1
        expert = train(init([1, 16, 1], cfg), matrix, cfg)
        fit_rmse = float(np.sqrt(np.mean((predict(expert, matrix).values - y) ** 2)))
        elapsed = time.perf_counter() - started
        c.detail = f"rmse={fit_rmse:.4f}, {elapsed:.1f}s"
        assert fit_rmse < 0.05
        assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. Metrics oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_metrics_oracle():
    with _Criterion(3, "indicators match the brute-force oracle; strategy <= perfect") as c:
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(3, 51))
            actual_vals = np.round(rng.normal(size=n).cumsum() + 30, 2)
            predicted_vals = np.round(rng.normal(size=n).cumsum() + 30, 2)
            # each indicator of one prediction, as the one-row stack it is scored in
            sig = signals_from_prediction(TimeSeries(START, predicted_vals))
            moves, row = np.diff(actual_vals), sig.values[None]
            assert list(sig.values) == oracles.signals(list(predicted_vals))
            hit = hit_rate_rows(moves, row)[0]
            assert abs(hit - oracles.hit_rate(actual_vals, predicted_vals)) <= 1e-12
            mean_error = mean_error_rows(actual_vals, predicted_vals[None])[0]
            assert abs(mean_error - oracles.mean_error(actual_vals, predicted_vals)) <= 1e-12
            rmse = rmse_rows(actual_vals, predicted_vals[None])[0]
            assert abs(rmse - oracles.rmse(actual_vals, predicted_vals)) <= 1e-12
            if np.any(moves != 0):
                eff = efficiency_rows(moves, row)[0]
                assert abs(eff - oracles.efficiency(actual_vals, list(sig.values))) <= 1e-12
                mine = sharpe_modified_rows(moves, row)[0]
                ref = oracles.sharpe_modified(actual_vals, list(sig.values))
                assert (mine is None) == (ref is None)
                if mine is not None:
                    assert abs(mine - ref) <= 1e-12
                perfect, buy_hold = benchmark_curves(TimeSeries(START, actual_vals), moves)
                curves = (strategy_rows(moves, row)[0], perfect.values, buy_hold.values)
                refs = oracles.equity_curves(actual_vals, list(sig.values))
                for curve, ref_curve in zip(curves, refs):
                    assert np.all(np.abs(curve - np.asarray(ref_curve)) <= 1e-12)

        # exhaustive: every signal vector for n <= 8
        for n in range(2, 9):
            actual_vals = rng.normal(size=n).cumsum() + 5
            moves = np.diff(actual_vals)
            perfect, _ = benchmark_curves(TimeSeries(START, actual_vals), moves)
            for bits in itertools.product((1, -1), repeat=n - 1):
                sig = SignalSeries(START.plus(1), list(bits))
                strategy = strategy_rows(moves, sig.values[None])[0]
                assert np.all(strategy <= perfect.values + 1e-12)


# ---------------------------------------------------------------------------
# 4. Planted-lag recovery
# ---------------------------------------------------------------------------

def test_criterion_4_planted_lag_recovery():
    with _Criterion(4, "lag scan recovers every planted lead, noiselessly and under noise") as c:
        started = time.perf_counter()
        bundle = synthesize_economy(seed=11, months=120, cycle_period=12, noise_scale=0.0)
        target = bundle.target
        first = target.start.plus(12)
        last = target.end.plus(-12)
        move_rms = float(np.std(np.diff(target.values)))

        for k in range(1, 13):
            inp = TimeSeries(target.start, target.values[k:])
            result = scan(inp, target, 12, first, last)
            assert result.chosen_lag == k, f"noiseless lead {k} -> {result.chosen_lag}"

        hits = {k: 0 for k in range(1, 13)}
        trials = 100
        rng = np.random.default_rng(5)
        for k in range(1, 13):
            for _ in range(trials):
                noise = rng.normal(0.0, 0.1 * move_rms, size=len(target) - k)
                inp = TimeSeries(target.start, target.values[k:] + noise)
                result = scan(inp, target, 12, first, last)
                if result.chosen_lag == k:
                    hits[k] += 1
        elapsed = time.perf_counter() - started
        worst = min(hits.values())
        c.detail = f"worst recovery {worst}/{trials}, {elapsed:.1f}s"
        assert all(count >= 0.9 * trials for count in hits.values()), hits
        assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 5. Fixed-weight index checks
# ---------------------------------------------------------------------------

def test_criterion_5_index_checks():
    with _Criterion(5, "sector weights and the fixed-weight index hand values") as c:
        assert math.fsum(DEFAULT_SECTOR_WEIGHTS.weights.values()) == 80.0
        flat = {
            name: TimeSeries(START, [1.0, 1.0])
            for name in DEFAULT_SECTOR_WEIGHTS.sectors()
        }
        base = laspeyres_index(flat, DEFAULT_SECTOR_WEIGHTS, 100.0)
        assert np.all(np.abs(base.values - 100.0) <= 1e-9)
        shocked = dict(flat)
        shocked["oil"] = TimeSeries(START, [1.1, 1.1])
        index = laspeyres_index(shocked, DEFAULT_SECTOR_WEIGHTS, 100.0)
        assert np.all(np.abs(index.values - 102.6125) <= 1e-9)


# ---------------------------------------------------------------------------
# 6. Ensemble dominance (statistical)
# ---------------------------------------------------------------------------

def _ensemble_config(seed: int, months: int, test_end: str) -> dict:
    return {
        "schema_version": 1,
        "data": {
            "synthetic": {
                "seed": seed,
                "months": months,
                "cycle_period": 12,
                "noise_scale": 0.1,
            }
        },
        "test_range": ["2000-01", test_end],
        "train": {"max_epochs": 120, "rng_seed": 1},
        "master_train": {"max_epochs": 60, "rng_seed": 1},
    }


def _run_ensemble(raw_config: dict) -> ens.EnsembleModel:
    config = config_from_dict(raw_config)
    sources = _load_sources(config)
    specs = _build_sub_specs(config, _detect_cycle(sources, config))
    spec = ens.EnsembleSpec(tuple(specs), config.master_hidden_layers, config.master_train)
    return ens.train_ensemble(spec, sources, config.target, config.train_range, config.test_range)


def _srm_value(report: MetricsReport) -> float:
    return float("inf") if report.sharpe_modified is None else report.sharpe_modified


def test_criterion_6_ensemble_dominance():
    with _Criterion(6, "master tracks the best sub and out-Sharpes the median sub, 30 seeds") as c:
        started = time.perf_counter()
        # a 14-year test window keeps single-expert luck small enough that the
        # comparison is about quality, not sampling noise
        dominated = 0
        master_srms = []
        sub_median_srms = []
        for seed in range(1, 31):
            model = _run_ensemble(_ensemble_config(seed, months=276, test_end="2013-12"))
            subs = [rep for _, rep in model.reports[:-1]]
            master = model.reports[-1][1]
            if master.hit_pct >= max(r.hit_pct for r in subs) - 5.0:
                dominated += 1
            master_srms.append(_srm_value(master))
            sub_median_srms.append(float(np.median([_srm_value(r) for r in subs])))
        elapsed = time.perf_counter() - started
        c.detail = f"dominated {dominated}/30, masterSRM {np.median(master_srms):.2f} vs {np.median(sub_median_srms):.2f}, {elapsed:.0f}s"
        assert dominated >= 24  # >= 80 percent of seeds
        assert float(np.median(master_srms)) > float(np.median(sub_median_srms))
        assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 7. Hit-rate plausibility band
# ---------------------------------------------------------------------------

def test_criterion_7_hit_rate_band():
    with _Criterion(7, "default-config master hit rate lies in [65, 95]") as c:
        model = _run_ensemble(
            {
                "schema_version": 1,
                "data": {
                    "synthetic": {
                        "seed": 1,
                        "months": 156,
                        "cycle_period": 12,
                        "noise_scale": 0.1,
                    }
                },
            }
        )
        hit = model.reports[-1][1].hit_pct
        c.detail = f"hit={hit:.2f}%"
        assert 65.0 <= hit <= 95.0


# ---------------------------------------------------------------------------
# 8. Pipeline determinism
# ---------------------------------------------------------------------------

def test_criterion_8_pipeline_determinism(tmp_path):
    with _Criterion(8, "two identical `ensemble` runs produce byte-identical artifacts") as c:
        config = {
            "schema_version": 1,
            "data": {
                "synthetic": {"seed": 4, "months": 96, "cycle_period": 12, "noise_scale": 0.1}
            },
            "train_range": ["1992-01", "1997-12"],
            "test_range": ["1998-01", "1998-12"],
            "train": {"max_epochs": 40, "rng_seed": 1},
            "out_dir": "placeholder",
        }
        outputs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            config["out_dir"] = str(out_dir)
            cfg_path = tmp_path / f"{run}.json"
            cfg_path.write_text(json.dumps(config))
            assert main(["ensemble", "--config", str(cfg_path)]) == 0
            blob = {}
            for path in sorted(out_dir.rglob("*")):
                if path.is_file():
                    blob[str(path.relative_to(out_dir))] = path.read_bytes()
            outputs.append(blob)
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name
        c.detail = f"{len(outputs[0])} files compared"


# ---------------------------------------------------------------------------
# 9. Restart improvement
# ---------------------------------------------------------------------------

def test_criterion_9_restart_improvement():
    with _Criterion(9, "best-of-20 restarts beats best-of-1 and the single-run median") as c:
        started = time.perf_counter()
        # enough validation transitions (and a light training budget) that
        # different initializations genuinely land on different solutions
        bundle = synthesize_economy(seed=21, months=132, cycle_period=12, noise_scale=0.15)
        from econocast.preprocess import assemble

        feats = preset_features("network1", 12)
        tr = assemble(feats, bundle.series, "activity", None, MonthStamp(1992, 1), MonthStamp(1997, 12))
        va = assemble(feats, bundle.series, "activity", None, MonthStamp(1998, 1), MonthStamp(2001, 12))
        shape = (tr.width, 4, 1)

        def val(srm):
            return float("inf") if srm is None else srm

        singles = []
        bests = []
        for seed in range(1, 51):
            cfg = TrainConfig(max_epochs=25, rng_seed=seed)
            outcome = maximize_sharpe(shape, tr, va, cfg, max_restarts=20, base_seed=seed)
            history = [val(h.srm) for h in outcome.history]
            best = max(history)
            assert best >= history[0]  # max over a superset, always
            singles.append(history[0])
            bests.append(best)
        median_single = float(np.median(singles))
        improved = sum(1 for b in bests if b > median_single)
        elapsed = time.perf_counter() - started
        c.detail = f"improved {improved}/50 over median {median_single:.2f}, {elapsed:.0f}s"
        assert improved >= 40


# ---------------------------------------------------------------------------
# 10. Report fidelity
# ---------------------------------------------------------------------------

def test_criterion_10_report_fidelity():
    with _Criterion(10, "report column order and comma-locale rendering") as c:
        rows = [
            (
                "Network 1",
                MetricsReport(60.21, 70.31, 0.6496, 8.11, 2.67, 14.72, 19.41),
            )
        ]
        text = render_report_table(rows)
        header = text.splitlines()[0]
        positions = [header.index(col) for col in REPORT_COLUMNS]
        assert positions == sorted(positions)
        comma_text = render_report_table(rows, locale_comma=True)
        assert "0,6496" in comma_text
        assert "0.6496" in text and "0,6496" not in text
