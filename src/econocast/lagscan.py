"""Optimal-lag detection: score each candidate lag of an input as a directional
predictor of the target and keep the one with the best modified Sharpe ratio.

No model is trained here; the lagged input's own direction changes are the
prediction, evaluated with the full indicator battery. All lags of an input
are scored in one pass: lag k is row k - 1 of a (max_lag, months) stack of
windows over the input, and `metrics`' row functions score every row at once
from the target's moves, diffed once per input. A `LagScanResult` keeps those
stacks: one indicator row and one strategy curve per lag. The perfect and
buy-and-hold curves depend only on the target over the scanned range, so an
input's curves file is `lag_curves_csv` plus `benchmark_curves_csv` of that
target, and a caller writing many inputs' curves renders the benchmark block
once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifacts import is_number
from .metrics import (
    MetricsReport,
    benchmark_curves,
    equity_long_csv,
    equity_rows_csv,
    indicator_rows,
    signal_rows,
    srm_rank_key,
    strategy_rows,
)
# `signals_from_prediction` is unused here but stays importable from lagscan:
# perfbench/selftest.py checks that tracing rebinds it in every module that imported it.
from .metrics import signals_from_prediction  # noqa: F401
from .preprocess import check_scale
from .timeseries import MonthStamp, TimeSeries

__all__ = [
    "LagScanResult",
    "scan",
    "scan_table_csv",
    "lag_curves_csv",
    "benchmark_curves_csv",
]


@dataclass(frozen=True)
class LagScanResult:
    """Lag k's indicators are reports[k - 1] and its strategy curve is row
    k - 1 of the read-only (max_lag, months - 1) `equity` stack, every curve
    dated from `start`, the month the first scanned move completes."""

    start: MonthStamp
    reports: Tuple[MetricsReport, ...]
    equity: np.ndarray
    chosen_lag: int


def scan(
    input_series: TimeSeries,
    target: TimeSeries,
    max_lag: int,
    first: MonthStamp,
    last: MonthStamp,
    input_name: str = "input",
    target_name: str = "target",
) -> LagScanResult:
    """Evaluate lags 1..max_lag of `input_series` against `target` over
    [first, last]. The chosen lag maximizes the modified Sharpe ratio; a
    no-loss lag outranks every finite one, then higher efficiency, then the
    smaller lag."""
    if not is_number(max_lag, numbers.Integral) or max_lag < 1:
        raise ValueError(f"max_lag must be an integer >= 1, got {max_lag!r}")
    if not target.covers(first, last):
        raise ValueError(f"target does not cover {first}..{last}")
    needed = first.plus(-max_lag)
    if input_series.start > needed:
        raise ValueError(
            f"insufficient history for max_lag {max_lag}: input {input_name!r} starts "
            f"{input_series.start}, needs {needed}"
        )
    if input_series.end < last:
        raise ValueError(f"input {input_name!r} ends before {last}")

    actual = target.slice_range(first, last)
    i, j = input_series.index_of(first), input_series.index_of(last)
    check_scale(actual.values, f"target {target_name!r} over {first}..{last}")
    check_scale(input_series.values[i - max_lag : j], f"input {input_name!r}")
    moves = np.diff(actual.values)  # the same for every lag
    # Row k - 1 is lag k over first..last; contiguous, so the row reductions
    # give each lag's 1-D bits.
    windows = sliding_window_view(input_series.values[i - max_lag : j], j - i + 1)
    predicted = np.ascontiguousarray(windows[::-1])
    signals = signal_rows(predicted)
    reports = tuple(indicator_rows(actual.values, moves, predicted, signals))
    equity = strategy_rows(moves, signals)
    equity.flags.writeable = False
    # max keeps the first of equal keys, so a tie goes to the smaller lag
    best = max(range(max_lag), key=lambda k: srm_rank_key(reports[k].sharpe_modified,
                                                          reports[k].efficiency_pct))
    return LagScanResult(first.plus(1), reports, equity, best + 1)


def scan_table_csv(result: LagScanResult) -> str:
    """Per-lag summary: lag, efficiency, hits, srm, final_equity."""
    lines = ["lag,efficiency_pct,hit_pct,srm,final_equity"]
    finals = result.equity[:, -1].tolist()
    for lag, (rep, final) in enumerate(zip(result.reports, finals), start=1):
        srm = "no-loss" if rep.sharpe_modified is None else repr(rep.sharpe_modified)
        lines.append(f"{lag},{rep.efficiency_pct:.6g},{rep.hit_pct:.6g},{srm},{final:.6g}")
    return "\n".join(lines) + "\n"


def lag_curves_csv(result: LagScanResult) -> str:
    """The header and every lag's equity curve, long format: the part of a
    scan's curves file that depends on the input."""
    curves = {f"lag_{k:02d}": curve for k, curve in enumerate(result.equity, start=1)}
    return equity_long_csv(result.start, curves)


def benchmark_curves_csv(actual: TimeSeries) -> str:
    """The perfect and buy-and-hold rows that end a scan's curves file, from
    the target over the scanned range; the same for every input scanned
    against it."""
    perfect, buy_hold = benchmark_curves(actual, np.diff(actual.values))
    return equity_rows_csv(perfect.start, {"perfect": perfect.values, "buy_hold": buy_hold.values})
