import numpy as np
import pytest

import oracles
from econocast import metrics, preprocess, timeseries
from econocast.lagscan import benchmark_curves_csv, lag_curves_csv, scan, scan_table_csv
from econocast.timeseries import TimeSeries


def shifted_input(target, lead, noise=None):
    """A series whose value at t equals the target's value at t+lead."""
    values = target.values[lead:].copy()
    if noise is not None:
        values = values + noise
    return TimeSeries(target.start, values)


@pytest.fixture(scope="module")
def target(clean_bundle_module):
    return clean_bundle_module.target


@pytest.fixture(scope="module")
def clean_bundle_module():
    from econocast.timeseries import synthesize_economy

    return synthesize_economy(seed=3, months=120, cycle_period=12, noise_scale=0.0)


def _range(target, max_lag=12, tail=12):
    first = target.start.plus(max_lag)
    last = target.end.plus(-tail)
    return first, last


def test_planted_lead_seven_recovers_with_perfect_hits(target):
    inp = shifted_input(target, 7)
    first, last = _range(target)
    result = scan(inp, target, 12, first, last)
    assert result.chosen_lag == 7
    rep = result.reports[6]  # lag 7
    assert rep.hit_pct == 100.0
    assert rep.sharpe_modified is None  # no losses


def test_scan_rows_respect_bounds(target, derivations):
    inp = shifted_input(target, 4)
    first, last = _range(target)
    result = scan(inp, target, 12, first, last)
    months = last.months_since(first) + 1
    assert len(result.reports) == 12 and result.equity.shape == (12, months - 1)
    assert result.start == first.plus(1)
    assert [d.shape for d in derivations] == [(12, months)]  # one stack
    perfect = np.cumsum(np.abs(np.diff(target.slice_range(first, last).values)))
    for rep, curve in zip(result.reports, result.equity):
        assert rep.efficiency_pct <= 100.0 + 1e-9
        assert curve[-1] <= perfect[-1] + 1e-9
        assert np.all(curve <= perfect + 1e-9)
    with pytest.raises(ValueError, match="read-only"):
        result.equity[0, 0] = 0.0


def test_scan_is_pure(target):
    inp = shifted_input(target, 5)
    first, last = _range(target)
    a = scan(inp, target, 12, first, last)
    b = scan(inp, target, 12, first, last)
    assert a.chosen_lag == b.chosen_lag
    assert a.reports == b.reports
    assert np.array_equal(a.equity, b.equity)


def test_scan_recomputes_on_truncated_data(target):
    # nothing is cached: dropping the last month and rescanning gives exactly
    # the fresh result on the shorter data
    inp = shifted_input(target, 5)
    first, last = _range(target)
    short_target = TimeSeries(target.start, target.values[:-1])
    short_input = TimeSeries(inp.start, inp.values[:-1])
    fresh = scan(short_input, short_target, 12, first, last.plus(-1))
    again = scan(short_input, short_target, 12, first, last.plus(-1))
    assert fresh.chosen_lag == again.chosen_lag
    assert fresh.reports == again.reports


def reference_scan(inp, target, max_lag, first, last):
    """(rows of (lag, report, strategy), chosen lag, perfect, buy_hold), each
    lag built by preprocess.lag and slice_range and scored on its own by the
    one-series functions."""
    actual = target.slice_range(first, last)
    rows = []
    for k in range(1, max_lag + 1):
        lagged = preprocess.lag(inp, k).slice_range(first, last)
        signals = metrics.signals_from_prediction(lagged)
        strategy, perfect, buy_hold = metrics.equity_curves(actual, signals)
        rep = metrics.MetricsReport(
            metrics.efficiency(actual, signals), metrics.hit_rate(actual, signals),
            metrics.sharpe_modified(actual, signals), metrics.rmse(actual, lagged),
            metrics.mean_error(actual, lagged),
        )
        rows.append((k, rep, strategy))
    best = max(rows, key=lambda r: metrics.srm_rank_key(
        r[1].sharpe_modified, r[1].efficiency_pct) + (-r[0],))
    return rows, best[0], perfect, buy_hold


@pytest.mark.parametrize("max_lag", [1, 2, 5, 12])
@pytest.mark.parametrize("spare_before, spare_after", [(0, 0), (0, 7), (3, 0), (9, 4)])
def test_scan_equals_a_lag_by_lag_reference(target, max_lag, spare_before, spare_after):
    # the input starts `spare_before` months before the first month that
    # max_lag needs and ends `spare_after` months after `last`
    rng = np.random.default_rng(max_lag * 100 + spare_before * 10 + spare_after)
    first, last = target.start.plus(14), target.end.plus(-10)
    start = first.plus(-max_lag - spare_before)
    n = last.months_since(start) + 1 + spare_after
    inp = TimeSeries(start, rng.normal(size=n).cumsum())
    result = scan(inp, target, max_lag, first, last)
    rows, chosen, perfect, buy_hold = reference_scan(inp, target, max_lag, first, last)
    assert result.chosen_lag == chosen
    assert result.reports == tuple(rep for _, rep, _ in rows)
    assert result.equity.tolist() == [strategy.values.tolist() for _, _, strategy in rows]
    assert result.start == perfect.start
    curves = [(f"lag_{k:02d}", strategy) for k, _, strategy in rows]
    curves += [("perfect", perfect), ("buy_hold", buy_hold)]
    expected = oracles.equity_long_csv((name, c.start.year, c.start.month, c.values) for name, c in curves)
    actual = target.slice_range(first, last)
    assert lag_curves_csv(result) + benchmark_curves_csv(actual) == expected


def test_lags_that_score_alike_go_to_the_smallest(target):
    # a rising ramp signals "up" at every lag, so every lag ranks the same
    first, last = _range(target)
    ramp = TimeSeries(target.start, np.arange(len(target), dtype=float))
    result = scan(ramp, target, 12, first, last)
    assert len({(r.sharpe_modified, r.efficiency_pct) for r in result.reports}) == 1
    assert result.chosen_lag == 1


@pytest.mark.parametrize("max_lag", [0, -1, 2.5, True, "3", None])
def test_scan_rejects_a_max_lag_that_is_not_an_integer_of_at_least_one(target, max_lag):
    first, last = _range(target)
    with pytest.raises(ValueError, match=r"^max_lag must be an integer >= 1, got "):
        scan(target, target, max_lag, first, last)


def test_scan_takes_a_numpy_integer_max_lag(target):
    inp = shifted_input(target, 4)
    first, last = _range(target)
    got, want = scan(inp, target, np.int64(6), first, last), scan(inp, target, 6, first, last)
    assert got.reports == want.reports
    assert got.chosen_lag == want.chosen_lag


@pytest.mark.parametrize("max_lag", [12, 70])
def test_a_second_input_over_the_same_months_builds_no_curve_template(target, max_lag):
    # the templates are keyed on the months, not the max_lag + 2 curve names,
    # so however many lags a scan has, the next input reuses the first's
    first, last = _range(target, max_lag)
    a, b = (scan(shifted_input(target, lead), target, max_lag, first, last) for lead in (3, 5))
    actual = target.slice_range(first, last)
    before = timeseries.month_rows.cache_info().misses
    lag_curves_csv(a) + benchmark_curves_csv(actual)
    after_first = timeseries.month_rows.cache_info().misses
    assert after_first - before <= 1
    lag_curves_csv(b) + benchmark_curves_csv(actual)
    assert timeseries.month_rows.cache_info().misses == after_first


@pytest.mark.parametrize("big", ["target", "input"])
def test_a_series_too_large_to_score_is_named_without_warnings(target, big, recwarn):
    first, last = _range(target)
    inp = shifted_input(target, 7)
    values = (target if big == "target" else inp).values.copy()
    values[target.start.plus(12 + 5).months_since(target.start)] = 1e200  # its square overflows
    if big == "target":
        target = TimeSeries(target.start, values)
    else:
        inp = TimeSeries(inp.start, values)
    name = f"target 'activity' over {first}..{last}" if big == "target" else "input 'gold'"
    with pytest.raises(ValueError, match=rf"^{name} is too large to score: "):
        scan(inp, target, 12, first, last, input_name="gold", target_name="activity")
    assert len(recwarn) == 0


def test_scan_insufficient_history(target):
    inp = shifted_input(target, 2)
    with pytest.raises(ValueError, match="insufficient history"):
        scan(inp, target, 12, target.start.plus(5), target.end.plus(-3))


def test_scan_all_recovers_two_planted_leads(target):
    inputs = {"a": shifted_input(target, 3), "b": shifted_input(target, 10)}
    first, last = _range(target)
    results = {
        name: scan(series, target, 12, first, last, input_name=name)
        for name, series in inputs.items()
    }
    assert results["a"].chosen_lag == 3
    assert results["b"].chosen_lag == 10
    assert list(results) == ["a", "b"]


def test_scan_self_input_picks_full_cycle(target):
    # the target against itself: on an annual cycle the 12-month lag repeats
    # the phase exactly
    first, last = _range(target)
    result = scan(target, target, 12, first, last)
    assert result.chosen_lag == 12


def test_pure_noise_input_has_low_confidence(target):
    rng = np.random.default_rng(0)
    first, last = _range(target)
    low = 0
    trials = 40
    for _ in range(trials):
        noise = TimeSeries(target.start, rng.normal(size=len(target)).cumsum())
        result = scan(noise, target, 12, first, last)
        srm = result.reports[result.chosen_lag - 1].sharpe_modified
        if srm is not None and srm < 0.35:
            low += 1
    assert low >= 0.9 * trials


def test_scan_csv_outputs(target):
    inp = shifted_input(target, 6)
    first, last = _range(target)
    result = scan(inp, target, 12, first, last, input_name="x")
    table = scan_table_csv(result)
    lines = table.splitlines()
    assert lines[0] == "lag,efficiency_pct,hit_pct,srm,final_equity"
    assert len(lines) == 13
    curves = lag_curves_csv(result) + benchmark_curves_csv(target.slice_range(first, last))
    names = {line.rsplit(",", 1)[1] for line in curves.splitlines()[1:]}
    assert len(names) == 12 + 2  # every lag plus both benchmarks
    assert {"perfect", "buy_hold"} <= names
