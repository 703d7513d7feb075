import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from econocast.preprocess import dominant_cycle
from econocast.timeseries import (
    DEFAULT_SECTOR_WEIGHTS,
    CsvFormatError,
    MonthStamp,
    SectorWeights,
    TimeSeries,
    laspeyres_index,
    month_labels,
    month_rows,
    parse_csv,
    render_csv,
    synthesize_economy,
)


# ---------------------------------------------------------------------------
# MonthStamp
# ---------------------------------------------------------------------------

def test_month_ordering_and_arithmetic():
    a = MonthStamp(1991, 12)
    assert a.plus(1) == MonthStamp(1992, 1)
    assert a.plus(13) == MonthStamp(1993, 1)
    assert a.plus(-12) == MonthStamp(1990, 12)
    assert MonthStamp(1992, 1).months_since(a) == 1
    assert MonthStamp(1991, 1) < MonthStamp(1991, 2) < MonthStamp(1992, 1)


def test_month_validation_and_parse():
    with pytest.raises(ValueError):
        MonthStamp(2000, 13)
    with pytest.raises(ValueError):
        MonthStamp.parse("1991/01")
    assert MonthStamp.parse("1991-01") == MonthStamp(1991, 1)
    assert str(MonthStamp(1991, 3)) == "1991-03"


def test_successor_round_trip_over_years():
    stamp = MonthStamp(1990, 1)
    for i in range(60):
        stamp = stamp.plus(1)
    assert stamp == MonthStamp(1995, 1)


# ---------------------------------------------------------------------------
# TimeSeries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "start, n",
    [(MonthStamp(999, 12), 3), (MonthStamp(1991, 1), 1), (MonthStamp(1999, 7), 30),
     (MonthStamp(2040, 12), 25), (MonthStamp(2000, 1), 0)],
)
def test_month_labels_match_month_stamp_str(start, n):
    assert month_labels(start, n) == [str(start.plus(i)) for i in range(n)]


def test_month_labels_pad_years_below_1000():
    assert month_labels(MonthStamp(999, 12), 2) == ["0999-12", "1000-01"]


def test_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(MonthStamp(1991, 1), [])
    with pytest.raises(ValueError):
        TimeSeries(MonthStamp(1991, 1), [1.0, float("nan")])


def test_series_is_immutable():
    s = TimeSeries(MonthStamp(1991, 1), [1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_series_slicing_and_lookup():
    s = TimeSeries(MonthStamp(1991, 1), [1.0, 2.0, 3.0, 4.0])
    assert s.end == MonthStamp(1991, 4)
    assert s.values[s.index_of(MonthStamp(1991, 3))] == 3.0
    part = s.slice_range(MonthStamp(1991, 2), MonthStamp(1991, 3))
    assert part == TimeSeries(MonthStamp(1991, 2), [2.0, 3.0])
    with pytest.raises(KeyError):
        s.index_of(MonthStamp(1990, 12))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_parse_two_row_file():
    series = parse_csv("date,x\n1991-01,1.0\n1991-02,2.0")
    assert series["x"] == TimeSeries(MonthStamp(1991, 1), [1.0, 2.0])


def test_parse_gap_names_row_3():
    with pytest.raises(CsvFormatError) as err:
        parse_csv("date,x\n1991-01,1.0\n1991-03,2.0")
    assert err.value.row == 3


def test_parse_156_rows_spanning_13_years():
    rows = ["date,x"]
    stamp = MonthStamp(1991, 1)
    for i in range(156):
        rows.append(f"{stamp},{float(i)}")
        stamp = stamp.plus(1)
    series = parse_csv("\n".join(rows))
    assert len(series["x"]) == 156
    assert series["x"].start == MonthStamp(1991, 1)
    assert series["x"].end == MonthStamp(2003, 12)


@pytest.mark.parametrize(
    "text,row,column",
    [
        ("date,x\n1991-01,", 2, "x"),          # empty cell
        ("date,x\n1991-01,abc", 2, "x"),        # non-numeric
        ("date,x\nnope,1.0", 2, "date"),        # malformed date
        ("date,x,x\n1991-01,1,2", 1, "x"),      # duplicate column
        ("date,x\n1991-01,1_0", 2, "x"),        # float() reads "1_0" as 10.0
        ("date,x\n1991-01,\u0661\u0662", 2, "x"),  # Arabic-Indic digits
        ("date,x\n\u0661\u0669\u0669\u0661-\u0660\u0661,1.0", 2, "date"),
    ],
)
def test_parse_errors_carry_position(text, row, column):
    with pytest.raises(CsvFormatError) as err:
        parse_csv(text)
    assert err.value.row == row
    assert err.value.column == column


_CLEAN_ROWS = "date,x,y_z\n1991-01,1.0,2\n1991-02,1.5,-2\n1991-03,2.0,3e2\n1991-04, 2.5 ,0\n"


@pytest.mark.parametrize(
    "bad_row,message,column",
    [
        ("1991-05,1,2,3", "row 6 has 4 cells, expected 3", None),
        ("1991-05,1", "row 6 has 2 cells, expected 3", None),
        ("1991-5,1,2", "row 6: malformed month '1991-5', expected YYYY-MM", "date"),
        ("1991-13,1,2", "row 6: month must be in 1..12, got 13", "date"),
        ("1991-06,1,2", "non-contiguous months at row 6: 1991-06 does not follow 1991-04", "date"),
        ("1991-03,1,2", "non-contiguous months at row 6: 1991-03 does not follow 1991-04", "date"),
        ("1991-05,,2", "empty cell at row 6, column 'x'", "x"),
        ("1991-05,1,   ", "empty cell at row 6, column 'y_z'", "y_z"),
        ("1991-05,abc,2", "non-numeric cell 'abc' at row 6, column 'x'", "x"),
        ("1991-05,1_0,2", "non-numeric cell '1_0' at row 6, column 'x'", "x"),
        ("1991-05,1,\u0661\u0662", "non-numeric cell '\u0661\u0662' at row 6, column 'y_z'", "y_z"),
        ("\u0661\u0669\u0669\u0661-05,1,2",
         "row 6: malformed month '\u0661\u0669\u0669\u0661-05', expected YYYY-MM", "date"),
        ("1991-05,nan,2", "non-finite value at row 6, column 'x'", "x"),
        ("1991-05,1,-inf", "non-finite value at row 6, column 'y_z'", "y_z"),
        ("1991-05,1e999,2", "non-finite value at row 6, column 'x'", "x"),
        # only ASCII whitespace is stripped from a cell, as float() strips it
        ("1991-05,1.5\u00a0,2", "non-numeric cell '1.5\\xa0' at row 6, column 'x'", "x"),
        ("1991-05,1,\u20032", "non-numeric cell '\\u20032' at row 6, column 'y_z'", "y_z"),
        ("1991-05,1.5\x1f,2", "non-numeric cell '1.5\\x1f' at row 6, column 'x'", "x"),
        ("1991-05\u2003,1,2", "row 6: malformed month '1991-05\\u2003', expected YYYY-MM", "date"),
        ("1991-05\x1f,1,2", "row 6: malformed month '1991-05\\x1f', expected YYYY-MM", "date"),
        ("\u00a0", "row 6 has 1 cells, expected 3", None),
    ],
)
def test_parse_fault_after_clean_rows_gives_its_exact_message(bad_row, message, column):
    # a fault in row 6 of otherwise clean rows: the block check rejects the
    # file and the per-cell loop names the fault as it always has
    with pytest.raises(CsvFormatError) as err:
        parse_csv(_CLEAN_ROWS + bad_row + "\n1991-06,0,0\n")
    assert (str(err.value), err.value.row, err.value.column) == (message, 6, column)


_PAD = ("", " ", "\t", "\x1f", "\u00a0", "\u2003", "\u2028")


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 2),  # months after the previous row's
            st.sampled_from(_PAD), st.sampled_from(_PAD),
            st.lists(
                st.tuples(
                    st.sampled_from(_PAD),
                    st.sampled_from(["1", "-2.5", "3e2", ".5", "", "x", "1_0", "nan", "1e999",
                                     "\u0661"]),
                    st.sampled_from(_PAD),
                ),
                min_size=2, max_size=2,
            ),
        ),
        min_size=1, max_size=4,
    ),
)
# a line separator before a date: str.splitlines made it a blank line of its own
@example(rows=[(0, "\u2028", "", [("", "1", ""), ("", "2", "")])])
def test_parse_accepts_only_the_ascii_dialect_and_names_any_fault(rows):
    # Either the file parses, and then so does it with every cell stripped of
    # ASCII whitespace alone, and that text is ASCII; or a CsvFormatError
    # names the row of the fault. No other exception escapes.
    month, lines = MonthStamp(1991, 1), ["date,x,y"]
    for step, before, after, cells in rows:
        month = month.plus(step) if len(lines) > 1 else month
        lines.append(",".join([before + str(month) + after, *("".join(c) for c in cells)]))
    text = "\n".join(lines) + "\n"
    try:
        series = parse_csv(text)
    except CsvFormatError as err:
        assert 2 <= err.row <= len(lines)
        return
    stripped = "\n".join(",".join(c.strip(" \t") for c in line.split(",")) for line in lines)
    assert stripped.isascii()
    assert parse_csv(stripped) == series


def test_parse_month_past_year_9999_is_malformed():
    with pytest.raises(CsvFormatError) as err:
        parse_csv("date,x\n9999-11,1\n9999-12,2\n10000-01,3\n")
    assert (str(err.value), err.value.row) == ("row 4: malformed month '10000-01', expected YYYY-MM", 4)


def test_parse_reads_spaced_cells_and_blank_lines():
    series = parse_csv("date,x,y_z\n\n 1991-01 , 1.5 ,\t-2\n   \n1991-02,3e2,0\n")
    assert series["x"] == TimeSeries(MonthStamp(1991, 1), [1.5, 300.0])
    assert series["y_z"] == TimeSeries(MonthStamp(1991, 1), [-2.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(
    year=st.integers(1, 9997),
    month=st.integers(1, 12),
    columns=st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=24),
        min_size=1, max_size=4,
    ),
)
def test_parse_inverts_render_for_quantized_series(year, month, columns):
    rows = len(columns[0])
    series = {
        f"c{i}": TimeSeries(MonthStamp(year, month), [float(f"{v:.6g}") for v in (col * rows)[:rows]])
        for i, col in enumerate(columns)
    }
    assert parse_csv(render_csv(series)) == series


def test_render_csv_matches_per_row_oracle():
    edge = [-0.0, 1e-5, 123456789.0, 1e-300, -3.25e-7, 0.1, 1e16, -2.5e-12, 999999.5, 5e-324]
    rng = np.random.default_rng(8)
    noisy = rng.normal(size=len(edge)) * 10.0 ** rng.integers(-9, 12, size=len(edge))
    bundles = [
        {"a": edge, "b%s": [-v for v in reversed(edge)], "c": noisy},
        {"only": [1e-300]},  # a single row
        {"x": [-0.0], "y%": [123456789.0], "z": [1e-5]},
    ]
    for start in (MonthStamp(1999, 11), MonthStamp(999, 12)):
        for columns in bundles:
            series = {name: TimeSeries(start, values) for name, values in columns.items()}
            expected = oracles.render_csv(
                list(series), start.year, start.month, [s.values for s in series.values()]
            )
            assert render_csv(series) == expected


RENDER_CASES = {
    "one series": lambda: {"x": TimeSeries(MonthStamp(2001, 5), [1.5, -0.0, 2e-7, 123456.5])},
    "one month": lambda: {"a": TimeSeries(MonthStamp(1999, 12), [1e-5]),
                          "b%s": TimeSeries(MonthStamp(1999, 12), [-1.5e7])},
    "december to january": lambda: {
        name: TimeSeries(MonthStamp(1998, 11), np.arange(5) * scale - 2.5)
        for name, scale in (("p", 0.1), ("q%", -1e-5), ("r", 7e6))
    },
    "600 months, 25 columns": lambda: synthesize_economy(1, 600).series,
}


@pytest.mark.parametrize("case", RENDER_CASES)
def test_render_csv_matches_per_row_oracle_cold_and_warm(case):
    # the rows fill a month_rows template that render_csv builds without
    # caching it (a table is rendered once, so a cached copy would only hold
    # memory); a cache warmed with that very template changes nothing
    series = RENDER_CASES[case]()
    first = next(iter(series.values()))
    expected = oracles.render_csv(
        list(series), first.start.year, first.start.month, [s.values for s in series.values()]
    )
    month_rows.cache_clear()
    assert render_csv(series) == expected  # cold
    assert month_rows.cache_info().currsize == 0
    month_rows(first.start, len(first), ",%.6g" * len(series))
    assert render_csv(series) == expected  # warm
    assert month_rows.cache_info().currsize == 1


def test_render_parse_round_trip_on_generated_bundle(noisy_bundle):
    back = parse_csv(render_csv(noisy_bundle.series))
    assert set(back) == set(noisy_bundle.series)
    for name in noisy_bundle.series:
        assert back[name] == noisy_bundle.series[name]


# ---------------------------------------------------------------------------
# Sector weights and the fixed-weight index
# ---------------------------------------------------------------------------

def test_default_weights_total():
    assert math.fsum(DEFAULT_SECTOR_WEIGHTS.weights.values()) == 80.0


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        SectorWeights({"a": 0.0})
    with pytest.raises(ValueError):
        SectorWeights({"a": -1.0})


def _flat_relatives(value=1.0, n=3):
    return {
        name: TimeSeries(MonthStamp(1991, 1), [value] * n)
        for name in DEFAULT_SECTOR_WEIGHTS.sectors()
    }


def test_laspeyres_base_period_identity():
    index = laspeyres_index(_flat_relatives(1.0), DEFAULT_SECTOR_WEIGHTS, 100.0)
    assert np.allclose(index.values, 100.0, atol=1e-9)


def test_laspeyres_uniform_doubling():
    index = laspeyres_index(_flat_relatives(2.0), DEFAULT_SECTOR_WEIGHTS, 100.0)
    assert np.allclose(index.values, 200.0, atol=1e-9)


def test_laspeyres_oil_shock_hand_value():
    relatives = _flat_relatives(1.0, n=1)
    relatives["oil"] = TimeSeries(MonthStamp(1991, 1), [1.1])
    index = laspeyres_index(relatives, DEFAULT_SECTOR_WEIGHTS, 100.0)
    assert abs(index.values[0] - 102.6125) <= 1e-9


def test_laspeyres_missing_sector_and_zero_weight():
    relatives = _flat_relatives()
    del relatives["oil"]
    with pytest.raises(ValueError, match="oil"):
        laspeyres_index(relatives, DEFAULT_SECTOR_WEIGHTS, 100.0)
    with pytest.raises(ValueError):
        laspeyres_index({}, SectorWeights({}), 100.0)


def test_laspeyres_linear_in_base_and_weight_rescaling():
    rng = np.random.default_rng(3)
    names = DEFAULT_SECTOR_WEIGHTS.sectors()
    relatives = {
        name: TimeSeries(MonthStamp(1991, 1), 1.0 + 0.2 * rng.random(24)) for name in names
    }
    one = laspeyres_index(relatives, DEFAULT_SECTOR_WEIGHTS, 1.0)
    hundred = laspeyres_index(relatives, DEFAULT_SECTOR_WEIGHTS, 100.0)
    assert np.allclose(hundred.values, 100.0 * one.values, rtol=1e-12)
    scaled = SectorWeights({k: 3.0 * v for k, v in DEFAULT_SECTOR_WEIGHTS.weights.items()})
    rescaled = laspeyres_index(relatives, scaled, 100.0)
    assert np.allclose(rescaled.values, hundred.values, rtol=1e-12)


# ---------------------------------------------------------------------------
# Synthetic economy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs, error", [
    ({"months": 12}, "months must be >= 24, got 12"),
    ({"cycle_period": 1}, "cycle_period must be >= 2, got 1"),
    ({"noise_scale": -0.1}, "noise_scale must be a finite number >= 0, got -0.1"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"seed": 2.5}, "seed must be an integer >= 0, got 2.5"),
    ({"seed": True}, "seed must be an integer >= 0, got True"),
    ({"months": 96109}, "months must be <= 96108, the months from 1991-01 to 9999-12, got 96109"),
    ({"noise_scale": float("nan")}, "noise_scale must be a finite number >= 0, got nan"),
    ({"noise_scale": float("inf")}, "noise_scale must be a finite number >= 0, got inf"),
    ({"noise_scale": 10**400}, f"noise_scale must be a finite number >= 0, got {10**400!r}"),
    # a larger noise overflows the generated series
    ({"noise_scale": 1e306}, "noise_scale must be <= 1e+300, got 1e+306"),
    ({"noise_scale": 1e308}, "noise_scale must be <= 1e+300, got 1e+308"),
], ids=["months=12", "cycle_period=1", "noise_scale=-0.1", "seed=-1", "seed=2.5", "seed=True",
        "months=96109", "noise_scale=nan", "noise_scale=inf", "noise_scale=10**400",
        "noise_scale=1e306", "noise_scale=1e308"])
@pytest.mark.filterwarnings("error")
def test_synthesize_names_a_bad_argument(kwargs, error):
    args = {"seed": 1, "months": 24, **kwargs}
    with pytest.raises(ValueError) as err:
        synthesize_economy(**args)
    assert str(err.value) == error


def test_synthesize_determinism():
    a = synthesize_economy(5, 60, 12, 0.2)
    b = synthesize_economy(5, 60, 12, 0.2)
    assert set(a.series) == set(b.series)
    for name in a.series:
        assert a.series[name] == b.series[name]
    assert a.planted_leads == b.planted_leads


def test_noiseless_target_has_annual_cycle(clean_bundle):
    assert dominant_cycle(clean_bundle.target) == 12
    # independent direct-DFT oracle agrees
    assert oracles.dft_dominant_period(list(clean_bundle.target.values)) == 12


def test_target_is_index_of_sector_series(clean_bundle):
    relatives = {name: clean_bundle.series[name] for name in DEFAULT_SECTOR_WEIGHTS.sectors()}
    rebuilt = laspeyres_index(relatives, DEFAULT_SECTOR_WEIGHTS, 100.0)
    # target values were snapped to the CSV dialect after indexing
    assert np.allclose(rebuilt.values[:156], clean_bundle.target.values, rtol=1e-4)


def test_bundle_metadata_lists_all_predictors(clean_bundle):
    assert set(clean_bundle.planted_leads) <= set(clean_bundle.series)
    assert all(1 <= k <= 12 for k in clean_bundle.planted_leads.values())
