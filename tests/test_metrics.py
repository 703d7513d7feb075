import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from econocast import timeseries
from econocast.ensemble import ExpertFit, report_rows
from econocast.metrics import (
    MetricsReport,
    SignalSeries,
    REPORT_COLUMNS,
    benchmark_curves,
    efficiency_rows,
    equity_long_csv,
    hit_rate_rows,
    indicator_rows,
    mean_error_rows,
    render_report_csv,
    render_report_table,
    rmse_rows,
    sharpe_modified_rows,
    signal_rows,
    signals_from_prediction,
    srm_rank_key,
    strategy_rows,
)
from econocast.timeseries import MonthStamp, TimeSeries

START = MonthStamp(2000, 1)


def series(*values):
    return TimeSeries(START, list(values))


def signals_of(*values):
    return SignalSeries(START.plus(1), list(values))


def scored(rows_fn, actual, signals):
    """A directional row function on the one-row stack of `signals` over
    `actual`'s moves."""
    return rows_fn(np.diff(actual.values), signals.values[None])[0]


def errors(actual, predicted):
    """(rmse, mean error) of the one-row stack of `predicted` against `actual`."""
    return tuple(f(actual.values, predicted.values[None])[0] for f in (rmse_rows, mean_error_rows))


def curves(actual, signals):
    """(strategy, perfect, buy_hold) cumulative-profit values of one signal series."""
    moves = np.diff(actual.values)
    perfect, buy_hold = benchmark_curves(actual, moves)
    return strategy_rows(moves, signals.values[None])[0], perfect.values, buy_hold.values


# ---------------------------------------------------------------------------
# signals
# ---------------------------------------------------------------------------

def test_signals_strictly_increasing():
    assert list(signals_from_prediction(series(1, 2, 3, 4)).values) == [1, 1, 1]


def test_signals_zero_change_carries_forward():
    assert list(signals_from_prediction(series(5, 5, 4)).values) == [1, -1]
    assert list(signals_from_prediction(series(5, 4, 4, 6)).values) == [-1, -1, 1]


def test_signals_alternating():
    assert list(signals_from_prediction(series(1, 2, 1, 2)).values) == [1, -1, 1]


def test_signals_too_short():
    with pytest.raises(ValueError, match="two points"):
        signals_from_prediction(series(1.0))


# ---------------------------------------------------------------------------
# hit rate
# ---------------------------------------------------------------------------

def test_hit_rate_perfect():
    s = series(1, 3, 2, 5)
    assert scored(hit_rate_rows, s, signals_from_prediction(s)) == 100.0


def test_hit_rate_all_wrong():
    actual = series(1, 2, 1, 2)
    predicted = series(2, 1, 2, 1)
    assert scored(hit_rate_rows, actual, signals_from_prediction(predicted)) == 0.0


def test_hit_rate_hand_enumeration():
    actual = series(1, 2, 1, 3)
    predicted = series(1, 3, 2, 2)
    assert abs(scored(hit_rate_rows, actual, signals_from_prediction(predicted)) - 66.67) < 0.01


# ---------------------------------------------------------------------------
# equity curves
# ---------------------------------------------------------------------------

def test_equity_hand_example():
    actual = series(10, 12, 11, 14)
    strategy, perfect, buy_hold = curves(actual, signals_of(1, 1, 1))
    assert list(strategy) == [2, 1, 4]
    assert list(perfect) == [2, 3, 6]
    assert list(buy_hold) == [2, 1, 4]
    assert benchmark_curves(actual, np.diff(actual.values))[0].start == START.plus(1)


def test_equity_perfect_signals_reach_perfect_curve():
    actual = series(3, 5, 2, 8, 6)
    sig = signals_from_prediction(actual)
    strategy, perfect, _ = curves(actual, sig)
    assert np.array_equal(strategy, perfect)


def test_equity_always_long_equals_buy_hold():
    actual = series(4, 7, 3, 9)
    strategy, _, buy_hold = curves(actual, signals_of(1, 1, 1))
    assert np.array_equal(strategy, buy_hold)


# ---------------------------------------------------------------------------
# efficiency
# ---------------------------------------------------------------------------

def test_efficiency_bounds_and_hand_value():
    actual = series(10, 12, 11, 14)  # moves +2, -1, +3
    assert abs(scored(efficiency_rows, actual, signals_of(1, 1, 1)) - 100 * 4 / 6) < 1e-12
    sig = signals_from_prediction(actual)
    assert scored(efficiency_rows, actual, sig) == 100.0
    flipped = SignalSeries(sig.start, -sig.values)
    assert scored(efficiency_rows, actual, flipped) == -100.0


def test_efficiency_flat_series_errors():
    with pytest.raises(ValueError):
        scored(efficiency_rows, series(5, 5, 5), signals_of(1, 1))


# ---------------------------------------------------------------------------
# error measures
# ---------------------------------------------------------------------------

def test_errors_identical_series():
    s = series(1, 2, 3)
    assert errors(s, s) == (0.0, 0.0)


def test_errors_hand_values():
    actual = series(1, 2, 3)
    predicted = series(2, 2, 5)
    rmse, mean_error = errors(actual, predicted)
    assert mean_error == 1.0
    assert abs(rmse - np.sqrt(5 / 3)) < 1e-12


def test_errors_constant_offset_equality():
    actual = series(4, 9, 2, 7)
    predicted = TimeSeries(START, actual.values + 3.0)
    rmse, mean_error = errors(actual, predicted)
    assert mean_error == 3.0
    assert abs(rmse - 3.0) < 1e-12


def test_rmse_at_least_mean_error():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        a = TimeSeries(START, rng.normal(size=n))
        p = TimeSeries(START, rng.normal(size=n))
        rmse, mean_error = errors(a, p)
        assert rmse >= mean_error - 1e-12


# ---------------------------------------------------------------------------
# modified Sharpe ratio
# ---------------------------------------------------------------------------

def test_srm_no_loss_sentinel():
    actual = series(1, 2, 3)
    assert scored(sharpe_modified_rows, actual, signals_of(1, 1)) is None
    assert srm_rank_key(None, 50.0) > srm_rank_key(1e9, 100.0)


def test_srm_hand_value():
    actual = series(10, 12, 11, 14)  # moves +2, -1, +3; mean|move| = 2
    srm = scored(sharpe_modified_rows, actual, signals_of(1, 1, 1))
    assert abs(srm - (4 / 6) / (1 / 2)) < 1e-12


def test_srm_scale_invariance():
    actual = series(10, 12, 11, 14)
    sig = signals_of(1, 1, -1)  # loses on the final +3 move
    doubled = TimeSeries(START, 2.0 * actual.values)
    srm, srm_doubled = (scored(sharpe_modified_rows, a, sig) for a in (actual, doubled))
    assert abs(srm - srm_doubled) < 1e-12


# ---------------------------------------------------------------------------
# oracle equivalence and exhaustive properties
# ---------------------------------------------------------------------------

def _flat_run_pairs(rng):
    """(actual, predicted) integer series with flat runs: steps in {-1, 0, 1},
    some with a leading flat run, plus all-flat and length-2 series."""
    pairs = [([1, 1], [1, 1]), ([1, 2], [2, 1]), ([2, 1], [1, 1]), ([4] * 9, [4] * 9)]
    for _ in range(300):
        n = int(rng.integers(2, 41))
        a, p = (rng.integers(-1, 2, size=n - 1) for _ in range(2))
        p[: int(rng.integers(0, n))] = 0
        pairs.append(([0, *np.cumsum(a).tolist()], [0, *np.cumsum(p).tolist()]))
    return pairs


def test_signals_and_hit_rate_match_oracle_on_flat_runs():
    for actual_vals, predicted_vals in _flat_run_pairs(np.random.default_rng(7)):
        actual, predicted = TimeSeries(START, actual_vals), TimeSeries(START, predicted_vals)
        assert signals_from_prediction(predicted).values.tolist() == oracles.signals(predicted_vals)
        got = scored(hit_rate_rows, actual, signals_from_prediction(predicted)).item()
        want = oracles.hit_rate(actual_vals, predicted_vals)
        assert repr(got) == repr(want)


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(3, 51))
        actual_vals = np.round(rng.normal(size=n).cumsum() + 20, 2)
        predicted_vals = np.round(rng.normal(size=n).cumsum() + 20, 2)
        actual = TimeSeries(START, actual_vals)
        predicted = TimeSeries(START, predicted_vals)
        sig = signals_from_prediction(predicted)
        assert list(sig.values) == oracles.signals(list(predicted_vals))
        hit = scored(hit_rate_rows, actual, sig)
        assert abs(hit - oracles.hit_rate(actual_vals, predicted_vals)) < 1e-12
        if np.any(np.diff(actual_vals) != 0):
            eff = scored(efficiency_rows, actual, sig)
            assert abs(eff - oracles.efficiency(actual_vals, list(sig.values))) < 1e-12
            mine = scored(sharpe_modified_rows, actual, sig)
            theirs = oracles.sharpe_modified(actual_vals, list(sig.values))
            if mine is None:
                assert theirs is None
            else:
                assert abs(mine - theirs) < 1e-12
            s_mine, p_mine, b_mine = curves(actual, sig)
            s_or, p_or, b_or = oracles.equity_curves(actual_vals, list(sig.values))
            assert np.all(np.abs(s_mine - s_or) < 1e-12)
            assert np.all(np.abs(p_mine - p_or) < 1e-12)
            assert np.all(np.abs(b_mine - b_or) < 1e-12)
        rmse, mean_error = errors(actual, predicted)
        assert abs(mean_error - oracles.mean_error(actual_vals, predicted_vals)) < 1e-12
        assert abs(rmse - oracles.rmse(actual_vals, predicted_vals)) < 1e-12


def _one_series(a, p):
    """Each indicator of one prediction `p` of `a`, by 1-D numpy formulas
    written out independently of the row functions: what every row of a
    stack must reproduce bit for bit."""
    signs = np.concatenate(([1], np.sign(np.diff(p)).astype(int)))
    sig = signs[np.maximum.accumulate(np.where(signs != 0, np.arange(signs.size), 0))[1:]]
    moves = np.diff(a)
    returns = sig * moves
    losses = -returns[returns < 0]
    max_gain = float(np.sum(np.abs(moves)))
    hits = int(np.count_nonzero((moves == 0) | ((moves > 0) == (sig > 0))))
    return {
        "signals": sig.tolist(),
        "hit": 100.0 * hits / moves.size,
        "strategy": np.cumsum(returns).tolist(),
        "efficiency": None if max_gain == 0 else 100.0 * float(np.sum(returns)) / max_gain,
        "srm": None if max_gain == 0 or losses.size == 0 else (
            float(np.sum(returns)) / max_gain
        ) / (float(np.mean(losses)) / float(np.mean(np.abs(moves)))),
        "rmse": float(np.sqrt(np.mean((a - p) ** 2))),
        "mean_error": float(np.mean(np.abs(a - p))),
    }


_A = np.array([1.0, 2.5, 2.0, 4.0, 3.0])
_ONE_LOSS = np.array([1.0, 2.5, 3.0, 4.0, 3.0])  # misses only the 2.5 -> 2.0 move


@st.composite
def _stacks(draw):
    """(actual, predicted stack); a drawn share of small integers makes flat
    predicted steps and zero actual moves, and lengths up to 300 cross
    numpy's pairwise-summation block sizes (8 and 128)."""
    months, rows = draw(st.integers(2, 300)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape, coarse_share):
        coarse = rng.integers(-2, 3, size=shape).astype(float)
        return np.where(rng.random(shape) < coarse_share, coarse, rng.uniform(-1e3, 1e3, size=shape))

    actual = values(months, draw(st.sampled_from([0.0, 0.5, 1.0])))
    predicted = values((rows, months), draw(st.sampled_from([0.0, 0.5, 1.0])))
    if draw(st.booleans()):
        predicted[draw(st.integers(0, rows - 1))] = actual  # a no-loss row
    return actual, predicted


@settings(max_examples=200, deadline=None)
@given(_stacks())
@example((np.array([1.0, 2.0, 2.0, 1.0]), np.array([[0.0, 0.0, 1.0, 1.0]])))  # one row, as max_lag 1
@example((np.array([1.0, 2.0, 2.0, 3.0]), np.array([[5.0, 5.0, 5.0, 5.0], [1.0, 2.0, 2.0, 3.0]])))
@example((np.array([4.0, 4.0, 4.0]), np.array([[1.0, 3.0, 2.0], [2.0, 2.0, 2.0]])))  # flat actual
# every row loss-free (no losses in the whole stack); one row with exactly one
# loss; loss-free rows around lossy ones
@example((_A, np.stack([_A, 2 * _A])))
@example((_A, _ONE_LOSS[None]))
@example((_A, np.stack([_A, _ONE_LOSS, -_A, _A, -_ONE_LOSS])))
def test_row_functions_equal_the_one_series_formulas_bit_for_bit(stack):
    a, p = stack
    moves = np.diff(a)
    sig = signal_rows(p)
    cols = {
        "signals": sig.tolist(),
        "hit": hit_rate_rows(moves, sig).tolist(),
        "strategy": strategy_rows(moves, sig).tolist(),
        "rmse": rmse_rows(a, p).tolist(),
        "mean_error": mean_error_rows(a, p).tolist(),
    }
    flat = not np.any(moves)
    if flat:
        for rows_fn in (efficiency_rows, sharpe_modified_rows):
            with pytest.raises(ValueError, match="flat actual series"):
                rows_fn(moves, sig)
    else:
        cols["efficiency"] = efficiency_rows(moves, sig).tolist()
        cols["srm"] = sharpe_modified_rows(moves, sig)
        reports = indicator_rows(a, moves, p, sig)
    actual = TimeSeries(START, a)
    for r in range(p.shape[0]):
        want = _one_series(a, p[r])
        # `==` on Python floats (no tolerance), None where the row has no loss
        assert {k: v[r] for k, v in cols.items()} == {k: want[k] for k in cols}
        predicted = TimeSeries(START, p[r])
        signals = signals_from_prediction(predicted)
        assert signals.values.tolist() == want["signals"]
        assert scored(hit_rate_rows, actual, signals) == want["hit"]
        assert curves(actual, signals)[0].tolist() == want["strategy"]
        assert errors(actual, predicted) == (want["rmse"], want["mean_error"])
        if not flat:
            assert scored(efficiency_rows, actual, signals) == want["efficiency"]
            assert scored(sharpe_modified_rows, actual, signals) == want["srm"]
            one_row = indicator_rows(a, moves, p[r : r + 1], sig[r : r + 1])[0]
            assert reports[r] == one_row == MetricsReport(
                want["efficiency"], want["hit"], want["srm"], want["rmse"], want["mean_error"]
            )


def test_strategy_never_beats_perfect_exhaustively():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        actual_vals = rng.normal(size=n).cumsum() + 5
        actual = TimeSeries(START, actual_vals)
        for bits in itertools.product((1, -1), repeat=n - 1):
            sig = SignalSeries(START.plus(1), list(bits))
            strategy, perfect, _ = curves(actual, sig)
            assert np.all(strategy <= perfect + 1e-12)
            eff = scored(efficiency_rows, actual, sig)
            equals_perfect = np.allclose(strategy, perfect)
            assert (abs(eff - 100.0) < 1e-9) == equals_perfect


def test_affine_rescaling_invariance():
    rng = np.random.default_rng(3)
    actual_vals = rng.normal(size=20).cumsum() + 50
    predicted_vals = rng.normal(size=20).cumsum() + 50
    actual = TimeSeries(START, actual_vals)
    predicted = TimeSeries(START, predicted_vals)
    scaled = TimeSeries(START, 3.5 * actual_vals + 12.0)
    sig = signals_from_prediction(predicted)
    assert abs(scored(hit_rate_rows, actual, sig) - scored(hit_rate_rows, scaled, sig)) < 1e-12
    assert abs(scored(efficiency_rows, actual, sig) - scored(efficiency_rows, scaled, sig)) < 1e-9
    a, b = (scored(sharpe_modified_rows, s, sig) for s in (actual, scaled))
    if a is None:
        assert b is None
    else:
        assert abs(a - b) < 1e-9


def test_flipping_signals_negates_efficiency_and_hits():
    rng = np.random.default_rng(4)
    values = rng.normal(size=25).cumsum()
    values += np.arange(25) * 1e-6  # break exact ties so no zero moves exist
    actual = TimeSeries(START, values)
    predicted = TimeSeries(START, rng.normal(size=25).cumsum())
    sig = signals_from_prediction(predicted)
    flipped = SignalSeries(sig.start, -sig.values)
    eff, eff_flipped = (scored(efficiency_rows, actual, s) for s in (sig, flipped))
    assert abs(eff + eff_flipped) < 1e-12
    hits = sum(1 for m, s in zip(np.diff(actual.values), sig.values) if (m > 0) == (s > 0))
    assert hits / 24 * 100 + (24 - hits) / 24 * 100 == 100.0


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _identity_fit(feature_vals, actual_vals, split):
    """An ExpertFit that predicts its one feature column exactly, on the rows
    before and from `split`. report_rows reads no expert, so it holds none."""
    from econocast.preprocess import FeatureMatrix, FeatureSpec

    specs = (FeatureSpec("activity"),)
    values = np.asarray(feature_vals, dtype=float)
    train_m = FeatureMatrix(values[:split, None], actual_vals[:split], START, specs)
    test_m = FeatureMatrix(values[split:, None], actual_vals[split:], START.plus(split), specs)
    return ExpertFit(None, train_m, test_m, TimeSeries(START, values[:split]),
                     TimeSeries(START.plus(split), values[split:]))


def test_report_of_perfect_expert(derivations):
    rng = np.random.default_rng(5)
    values = rng.normal(size=24).cumsum() + 100
    fit = _identity_fit(values, values, 16)
    (rep,) = report_rows([fit], TimeSeries(START, values))
    assert len(derivations) == 1 and np.array_equal(derivations[0], [fit.test_pred.values])  # once
    assert rep.efficiency_pct == 100.0
    assert rep.hit_pct == 100.0
    assert rep.sharpe_modified is None
    assert rep.rmse == 0.0 and rep.mean_error == 0.0
    assert rep.train_error_pct == 0.0 and rep.test_error_pct == 0.0


def test_report_matches_brute_force_oracle(derivations):
    # three imperfect predictors, scored as one stack, each row equal to the
    # brute-force oracle of its own prediction
    rng = np.random.default_rng(9)
    n = 40
    actual_vals = rng.normal(size=n).cumsum() + 50
    fits = [_identity_fit(actual_vals + rng.normal(scale=s, size=n), actual_vals, 25)
            for s in (0.8, 0.3, 2.0)]
    reps = report_rows(fits, TimeSeries(START, actual_vals))
    assert [d.shape for d in derivations] == [(3, n - 25)]
    actual_test = list(actual_vals[25:])
    for rep, fit in zip(reps, fits):
        predicted = list(fit.test_pred.values)
        sig = oracles.signals(predicted)
        assert abs(rep.hit_pct - oracles.hit_rate(actual_test, predicted)) < 1e-12
        assert abs(rep.efficiency_pct - oracles.efficiency(actual_test, sig)) < 1e-12
        assert abs(rep.rmse - oracles.rmse(actual_test, predicted)) < 1e-12
        assert abs(rep.mean_error - oracles.mean_error(actual_test, predicted)) < 1e-12
        ref = oracles.sharpe_modified(actual_test, sig)
        if rep.sharpe_modified is None:
            assert ref is None
        else:
            assert abs(rep.sharpe_modified - ref) < 1e-12
        for pred, m, got in ((fit.train_pred, fit.train_matrix, rep.train_error_pct),
                             (fit.test_pred, fit.test_matrix, rep.test_error_pct)):
            want = 100 * np.mean(np.abs(pred.values - m.y)) / np.mean(np.abs(m.y))
            assert abs(got - want) < 1e-12


def _sample_rows():
    rep = MetricsReport(
        efficiency_pct=60.21,
        hit_pct=70.31,
        sharpe_modified=0.6496,
        rmse=8.11,
        mean_error=2.67,
        train_error_pct=14.72,
        test_error_pct=19.41,
    )
    lossless = MetricsReport(100.0, 100.0, None, 0.0, 0.0, 0.0, 0.0)
    return [("Network 1", rep), ("Master Network", lossless)]


def test_report_table_column_order():
    text = render_report_table(_sample_rows())
    header = text.splitlines()[0]
    pos = [header.index(c) for c in REPORT_COLUMNS]
    assert pos == sorted(pos)
    assert header.startswith("Networks")


def test_report_table_locale_comma():
    text = render_report_table(_sample_rows(), locale_comma=True)
    assert "0,6496" in text
    assert "60,21%" in text
    assert "no-loss" in text


def test_report_table_period_default():
    text = render_report_table(_sample_rows())
    assert "0.6496" in text and "," not in text


def test_report_csv_keeps_periods():
    csv_text = render_report_csv(_sample_rows())
    lines = csv_text.splitlines()
    assert lines[0].startswith("network,efficiency_pct")
    assert "0.6496" in lines[1]
    assert "no-loss" in lines[2]


def test_equity_long_csv_matches_per_row_oracle():
    # curves of one length and of others, from several starts (a year below
    # 1000 among them), one file per start
    shapes = {
        MonthStamp(1999, 11): [("a", 5), ("b", 5), ("d", 7), ("f", 5)],
        MonthStamp(2000, 1): [("c", 30)],
        MonthStamp(999, 12): [("e", 3)],
    }
    rng = np.random.default_rng(5)
    scale = 10.0 ** rng.integers(-7, 9, size=30)
    files = {
        start: {name: rng.normal(size=n) * scale[:n] for name, n in curves}
        for start, curves in shapes.items()
    }
    files[MonthStamp(2000, 1)]["flat"] = np.array([0.0, -0.0, 123456789.0, 1e-5])
    # exponent form, sign, negative zero and round-half-even at six digits
    files[MonthStamp(1999, 11)]["edge"] = np.array([1e-5, -1e-5, 1.5e7, -0.0, 123456.5])
    for start, curves in files.items():
        expected = oracles.equity_long_csv(
            (name, start.year, start.month, values) for name, values in curves.items()
        )
        assert equity_long_csv(start, curves) == expected


def test_equity_long_csv_keeps_percent_signs_in_curve_names():
    # each curve's rows are one `%` format, so a name must not be read as a
    # conversion of it; nor may the "\0" that a row template holds in place of
    # the name be read in a name
    values = np.array([1.5, -0.0, 2e-7])
    names = ("a%b", "%s", "%%", "%.6g", "100%", "%(x)s", "\0", "lag\0%s")
    expected = oracles.equity_long_csv((name, 2000, 1, values) for name in names)
    assert equity_long_csv(MonthStamp(2000, 1), {name: values for name in names}) == expected


def test_equity_long_csv_renders_many_names_alike_cold_and_warm():
    # more names than the template cache holds entries: the cache is keyed on
    # the months, so 80 names over two ranges build two templates once
    rng = np.random.default_rng(11)
    starts = (MonthStamp(2001, 3), MonthStamp(1998, 12))
    files = [
        {f"lag_{i:02d}%": rng.normal(size=40) * 10.0 ** (i % 9 - 4) for i in range(k, 80, 2)}
        for k in (0, 1)
    ]
    expected = [
        oracles.equity_long_csv((name, start.year, start.month, v) for name, v in curves.items())
        for start, curves in zip(starts, files)
    ]
    timeseries.month_rows.cache_clear()
    assert [equity_long_csv(*file) for file in zip(starts, files)] == expected  # cold
    assert timeseries.month_rows.cache_info().misses == 2
    assert [equity_long_csv(*file) for file in zip(starts, files)] == expected  # warm
    assert timeseries.month_rows.cache_info().misses == 2


def test_equity_long_csv_shape():
    curve = np.array([0.5, 1.0])
    text = equity_long_csv(START, {"strategy": curve, "perfect": curve})
    lines = text.splitlines()
    assert lines[0] == "date,value,curve_name"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].endswith(",strategy")
