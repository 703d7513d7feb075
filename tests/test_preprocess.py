import json
import math

import numpy as np
import pytest

import oracles
from econocast.preprocess import (
    _KINDS,
    FeatureSpec,
    Transform,
    WarmupError,
    assemble,
    block_avg,
    diff,
    dominant_cycle,
    ewma,
    lag,
    log_var_ma,
    rolling_stddev,
    sma,
)
from econocast.presets import NETWORK_NAMES, preset_features, preset_warmup
from econocast.timeseries import MonthStamp, TimeSeries

START = MonthStamp(1991, 1)


def series(*values):
    return TimeSeries(START, list(values))


def random_series(rng, n):
    return TimeSeries(START, rng.normal(size=n).cumsum() + 10.0)


# ---------------------------------------------------------------------------
# diff / sma / ewma
# ---------------------------------------------------------------------------

def test_diff_hand_values():
    out = diff(series(1, 3, 2))
    assert out == TimeSeries(START.plus(1), [2.0, -1.0])


def test_diff_constant_is_zero():
    assert np.all(diff(series(5, 5, 5, 5)).values == 0.0)


def test_diff_too_short():
    with pytest.raises(ValueError):
        diff(series(1.0))


def test_diff_of_monotone_is_sign_constant():
    rng = np.random.default_rng(5)
    up = TimeSeries(START, np.cumsum(rng.random(20) + 0.01))
    assert np.all(diff(up).values > 0)
    down = TimeSeries(START, -up.values)
    assert np.all(diff(down).values < 0)


def test_diff_inverts_cumsum():
    rng = np.random.default_rng(0)
    d = rng.normal(size=40)
    s = TimeSeries(START, np.concatenate([[0.0], d]).cumsum())
    assert np.allclose(diff(s).values, d, atol=1e-12)


def test_sma_hand_values():
    out = sma(series(1, 2, 3, 4), 2)
    assert out == TimeSeries(START.plus(1), [1.5, 2.5, 3.5])


def test_sma_window_one_is_identity():
    s = series(3, 1, 4, 1, 5)
    assert sma(s, 1) == s


def test_sma_constant():
    out = sma(series(7, 7, 7, 7), 3)
    assert out == TimeSeries(START.plus(2), [7.0, 7.0])


def test_sma_window_exceeds_length():
    with pytest.raises(ValueError):
        sma(series(1, 2), 3)


def test_ewma_beta_one_is_identity():
    s = series(2, 9, 4)
    assert ewma(s, 1.0) == s


def test_ewma_constant_fixed_point():
    out = ewma(series(3, 3, 3, 3), 0.4)
    assert np.allclose(out.values, 3.0)


def test_ewma_one_step_hand_value():
    out = ewma(series(0, 1), 0.25)
    assert np.allclose(out.values, [0.0, 0.25])


def test_ewma_beta_out_of_range():
    for beta in (0.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            ewma(series(1, 2), beta)


# ---------------------------------------------------------------------------
# block_avg / lag
# ---------------------------------------------------------------------------

def test_block_avg_distance_zero_matches_sma():
    s = series(1, 4, 2, 8, 5)
    assert block_avg(s, 2, 0) == sma(s, 2)


def test_block_avg_hand_indexing():
    out = block_avg(series(1, 2, 3, 4, 5), 2, 1)
    # defined from index window+distance-1 = 2; at index 4 the block is {3,4}
    assert out.start == START.plus(2)
    assert out.values[out.index_of(START.plus(4))] == 3.5


def test_block_avg_equals_lagged_sma():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(8, 40))
        w = int(rng.integers(1, 5))
        d = int(rng.integers(0, 5))
        if n < w + d + 1:
            continue
        s = random_series(rng, n)
        direct = block_avg(s, w, d)
        composed = lag(sma(s, w), d)
        assert direct.start == composed.start
        assert np.array_equal(direct.values, composed.values)


def test_lag_zero_is_identity():
    s = series(1, 2, 3)
    assert lag(s, 0) == s


def test_lag_hand_shift():
    out = lag(series(10, 20, 30), 1)
    assert out == TimeSeries(START.plus(1), [10.0, 20.0])
    # value at date t is the source value at t-1
    assert out.values[out.index_of(START.plus(1))] == 10.0


def test_lag_composition():
    rng = np.random.default_rng(2)
    s = random_series(rng, 30)
    assert lag(lag(s, 3), 4) == lag(s, 7)


def test_lag_too_large():
    with pytest.raises(ValueError):
        lag(series(1, 2, 3), 3)


# ---------------------------------------------------------------------------
# log_var_ma / rolling_stddev
# ---------------------------------------------------------------------------

def test_log_var_ma_constant_is_zero():
    out = log_var_ma(series(4, 4, 4, 4), 2)
    assert np.allclose(out.values, 0.0)


def test_log_var_ma_geometric_growth():
    r = 1.07
    s = TimeSeries(START, [100 * r**i for i in range(8)])
    out = log_var_ma(s, 1)
    assert np.allclose(out.values, math.log(r), atol=1e-12)


def test_log_var_ma_hand_value():
    out = log_var_ma(series(100, 110), 1)
    assert np.allclose(out.values, [math.log(1.1)])
    assert abs(out.values[0] - 0.0953) < 1e-3


def test_log_var_ma_reports_offending_date():
    s = series(1, 1, -5, 1)
    with pytest.raises(ValueError, match="1991-03"):
        log_var_ma(s, 1)


def test_rolling_stddev_constant_is_zero():
    out = rolling_stddev(series(2, 2, 2, 2), 2)
    assert np.allclose(out.values, 0.0)


def test_rolling_stddev_hand_value():
    out = rolling_stddev(series(0, 2), 2)
    assert out == TimeSeries(START.plus(1), [1.0])


def test_rolling_stddev_scaling():
    rng = np.random.default_rng(3)
    s = random_series(rng, 30)
    scaled = TimeSeries(s.start, -2.5 * s.values)
    assert np.allclose(rolling_stddev(scaled, 6).values, 2.5 * rolling_stddev(s, 6).values)


# ---------------------------------------------------------------------------
# dominant_cycle
# ---------------------------------------------------------------------------

def _sinusoid(period, length, amplitude=1.0):
    t = np.arange(length)
    return TimeSeries(START, amplitude * np.sin(2 * np.pi * t / period))


def test_dominant_cycle_period_12():
    s = _sinusoid(12, 144)
    assert dominant_cycle(s) == 12
    assert oracles.dft_dominant_period(list(s.values)) == 12


def test_dominant_cycle_period_6():
    s = _sinusoid(6, 144)
    assert dominant_cycle(s) == 6
    assert oracles.dft_dominant_period(list(s.values)) == 6


def test_dominant_cycle_larger_amplitude_wins():
    t = np.arange(144)
    s = TimeSeries(START, 2.0 * np.sin(2 * np.pi * t / 12) + 1.0 * np.sin(2 * np.pi * t / 4))
    assert dominant_cycle(s) == 12


def test_dominant_cycle_constant_errors():
    with pytest.raises(ValueError):
        dominant_cycle(series(1, 1, 1, 1))


# ---------------------------------------------------------------------------
# Transform / FeatureSpec plumbing
# ---------------------------------------------------------------------------

def test_transform_validation():
    with pytest.raises(ValueError):
        Transform("sma")  # missing window
    with pytest.raises(ValueError):
        Transform("identity", window=3)  # extraneous parameter
    with pytest.raises(ValueError):
        Transform("nonsense")


@pytest.mark.parametrize(
    "kind, rejected, admitted",
    [
        ("sma", {"window": 0}, {"window": 1}),
        ("block_avg", {"window": 0, "distance": 0}, {"window": 1, "distance": 0}),
        ("block_avg", {"window": 1, "distance": -1}, {"window": 1, "distance": 0}),
        ("ewma", {"beta": 0.0}, {"beta": 1.0}),
        ("ewma", {"beta": 1.5}, {"beta": 1.0}),
        ("log_var_ma", {"window": 0}, {"window": 1}),
        ("rolling_std", {"window": 1}, {"window": 2}),
    ],
)
def test_transform_bounds_match_what_the_functions_accept(kind, rejected, admitted):
    # a parameter the function would reject on apply is rejected when the
    # Transform is built, and the edge value that is admitted applies
    with pytest.raises(ValueError, match=r"(window|distance|beta) must be"):
        Transform(kind, **rejected)
    s = random_series(np.random.default_rng(5), 12)
    assert len(Transform(kind, **admitted).apply(s)) > 0


@pytest.mark.parametrize(
    "kind, params, named",
    [
        ("sma", {"window": 2.5}, "window must be an integer, got 2.5"),
        ("sma", {"window": True}, "window must be an integer, got True"),
        ("block_avg", {"window": 3, "distance": 1.0}, "distance must be an integer, got 1.0"),
        ("block_avg", {"window": False, "distance": 1}, "window must be an integer, got False"),
        ("ewma", {"beta": "0.5"}, "beta must be a number, got '0.5'"),
        ("ewma", {"beta": True}, "beta must be a number, got True"),
    ],
)
def test_transform_rejects_a_parameter_of_the_wrong_type(kind, params, named):
    # rejected when built, naming the kind and the parameter, not on apply
    # with a bare numpy TypeError
    with pytest.raises(ValueError) as err:
        Transform(kind, **params)
    assert str(err.value) == f"transform {kind!r}: {named}"


def test_transform_takes_numpy_numbers():
    s = random_series(np.random.default_rng(4), 12)
    assert Transform("sma", window=np.int64(3)).apply(s) == Transform("sma", window=3).apply(s)
    assert Transform("ewma", beta=np.float64(0.5)).label() == "ewma0.5"
    assert Transform("ewma", beta=1).apply(s) == Transform("ewma", beta=1.0).apply(s)


def test_numpy_transform_parameters_are_stored_as_python_numbers():
    # so that a spec built from numpy numbers dumps to JSON, as save_expert
    # does, and reads back equal
    chain = (
        Transform("sma", window=np.int64(3)),
        Transform("block_avg", window=np.int32(2), distance=np.int64(1)),
        Transform("ewma", beta=np.float64(0.5)),
        Transform("ewma", beta=np.int64(1)),
    )
    spec = FeatureSpec("a", chain, lag=np.int64(2))
    text = json.dumps(spec.to_dict())
    assert FeatureSpec.from_dict(json.loads(text)) == spec
    params = [v for t in chain for k, v in t.to_dict().items() if k != "kind"]
    assert [type(v) for v in params] == [int, int, int, float, int]
    # Python numbers are kept as given, so their JSON is unchanged
    assert json.dumps(Transform("ewma", beta=1).to_dict()) == '{"kind": "ewma", "beta": 1}'


# One example of every transform kind.
EVERY_KIND = (
    Transform("identity"),
    Transform("diff"),
    Transform("sma", window=4),
    Transform("ewma", beta=0.25),
    Transform("block_avg", window=3, distance=2),
    Transform("log_var_ma", window=3),
    Transform("rolling_std", window=12),
)


def test_transform_dict_round_trip():
    for t in EVERY_KIND:
        assert Transform.from_dict(t.to_dict()) == t


def test_transform_output_starts_after_its_warmup():
    assert {t.kind for t in EVERY_KIND} == set(_KINDS)
    s = random_series(np.random.default_rng(3), 30)
    for t in EVERY_KIND:
        assert t.apply(s).start == s.start.plus(t.warmup()), t.kind


def test_feature_spec_round_trip_and_label():
    chain = (Transform("ewma", beta=0.2), Transform("block_avg", window=3, distance=1))
    spec = FeatureSpec("activity", chain, lag=2)
    assert FeatureSpec.from_dict(spec.to_dict()) == spec
    assert "activity" in spec.label() and "lag2" in spec.label()


@pytest.mark.parametrize("lag", [2.5, True, -1, "2"])
def test_feature_spec_rejects_a_lag_that_is_not_an_integer_ge_0(lag):
    # rejected when built, not by assemble with a bare TypeError, nor taken
    # as lag 1 for True
    with pytest.raises(ValueError) as err:
        FeatureSpec("g", lag=lag)
    assert str(err.value) == f"lag must be an integer >= 0, got {lag!r}"


def test_feature_spec_takes_a_numpy_lag():
    spec = FeatureSpec("a", lag=np.int64(3))
    assert type(spec.lag) is int and spec == FeatureSpec("a", lag=3)


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------

def _sources(n=48):
    rng = np.random.default_rng(9)
    return {
        "a": random_series(rng, n),
        "b": random_series(rng, n),
    }


def test_assemble_identity_equals_raw():
    sources = _sources()
    first, last = START.plus(4), START.plus(20)
    m = assemble([FeatureSpec("a")], sources, "b", None, first, last)
    assert m.rows == 17 and m.width == 1
    assert np.array_equal(m.X[:, 0], sources["a"].slice_range(first, last).values)
    assert np.array_equal(m.y, sources["b"].slice_range(first, last).values)
    assert m.start == first and m.end == last


def test_assemble_lag_12_needs_exactly_one_year_of_warmup():
    sources = _sources(36)
    spec = [FeatureSpec("a", lag=12)]
    first, last = MonthStamp(1992, 1), MonthStamp(1992, 6)
    m = assemble(spec, sources, "b", None, first, last)
    # the feature value in 1992-01 is the source value of 1991-01
    assert m.X[0, 0] == sources["a"].values[sources["a"].index_of(MonthStamp(1991, 1))]
    with pytest.raises(WarmupError) as err:
        assemble(spec, sources, "b", None, MonthStamp(1991, 12), last)
    assert err.value.months_short == 1


def test_assemble_unknown_source():
    with pytest.raises(ValueError, match="nope"):
        assemble([FeatureSpec("nope")], _sources(), "b", None, START, START.plus(3))


def test_assemble_never_fabricates(clean_bundle):
    # removing the last month strictly shrinks or errors the feasible range
    sources = dict(clean_bundle.series)
    specs = [FeatureSpec("activity", lag=3)]
    full = assemble(specs, sources, "activity", None, MonthStamp(1992, 1), sources["activity"].end)
    shorter = {
        k: TimeSeries(v.start, v.values[:-1]) for k, v in sources.items()
    }
    with pytest.raises(ValueError):
        assemble(specs, shorter, "activity", None, MonthStamp(1992, 1), sources["activity"].end)
    trimmed = assemble(
        specs, shorter, "activity", None, MonthStamp(1992, 1), shorter["activity"].end
    )
    assert trimmed.rows == full.rows - 1


def test_network3_preset_has_14_columns(clean_bundle):
    feats = preset_features("network3", 12)
    assert len(feats) == 14
    m = assemble(
        feats, clean_bundle.series, "activity", None, MonthStamp(1992, 1), MonthStamp(1999, 12)
    )
    assert m.width == 14
    assert m.rows == 96


def test_all_presets_assemble_with_one_warmup_year(noisy_bundle):
    for name in NETWORK_NAMES:
        m = assemble(
            preset_features(name, 12),
            noisy_bundle.series,
            "activity",
            None,
            MonthStamp(1992, 1),
            MonthStamp(1999, 12),
        )
        assert m.rows == 96, name


@pytest.mark.parametrize("name", NETWORK_NAMES)
def test_preset_warmup_is_the_earliest_feasible_start(name, noisy_bundle):
    features = preset_features(name, 12)
    sources = noisy_bundle.series
    first = sources["activity"].start.plus(preset_warmup(features))
    last = MonthStamp(1999, 12)
    assert assemble(features, sources, "activity", None, first, last).start == first
    with pytest.raises(WarmupError) as err:
        assemble(features, sources, "activity", None, first.plus(-1), last)
    assert err.value.months_short == 1
