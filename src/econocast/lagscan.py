"""Optimal-lag detection: score each candidate lag of an input as a directional
predictor of the target and keep the one with the best modified Sharpe ratio.

No model is trained here; the lagged input's own direction changes are the
prediction, evaluated with the full indicator battery. All lags of an input
are scored in one pass: lag k is row k - 1 of a (max_lag, months) stack of
windows over the input, and `metrics`' row functions score every row at once
from the target's moves, diffed once per input. The perfect and buy-and-hold
curves do not depend on the lag or the input, so an input's curves file is
`lag_curves_csv` plus `benchmark_curves_csv`, and a caller writing many
inputs' curves against one target renders the benchmark block once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .metrics import (
    EquityCurve,
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
from .timeseries import MonthStamp, TimeSeries

__all__ = [
    "LagRow",
    "LagScanResult",
    "scan",
    "scan_table_csv",
    "lag_curves_csv",
    "benchmark_curves_csv",
]


@dataclass(frozen=True)
class LagRow:
    """Indicator results for one candidate lag."""

    lag: int
    report: MetricsReport
    final_equity: float
    equity: EquityCurve


@dataclass(frozen=True)
class LagScanResult:
    """Per-lag table plus the chosen lag and benchmark curves."""

    rows: Tuple[LagRow, ...]
    chosen_lag: int
    perfect_equity: EquityCurve
    buy_hold_equity: EquityCurve


def scan(
    input_series: TimeSeries,
    target: TimeSeries,
    max_lag: int,
    first: MonthStamp,
    last: MonthStamp,
    input_name: str = "input",
) -> LagScanResult:
    """Evaluate lags 1..max_lag of `input_series` against `target` over
    [first, last]. The chosen lag maximizes the modified Sharpe ratio; a
    no-loss lag outranks every finite one, then higher efficiency, then the
    smaller lag."""
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
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
    moves = np.diff(actual.values)  # the same for every lag
    i, j = input_series.index_of(first), input_series.index_of(last)
    # Row k - 1 is lag k over first..last; contiguous, so the row reductions
    # give each lag's 1-D bits.
    windows = sliding_window_view(input_series.values[i - max_lag : j], j - i + 1)
    predicted = np.ascontiguousarray(windows[::-1])
    signals = signal_rows(predicted)
    reports = indicator_rows(actual.values, moves, predicted, signals)
    strategies = strategy_rows(moves, signals)
    start = first.plus(1)
    rows = tuple(
        LagRow(lag=k, report=rep, final_equity=final, equity=TimeSeries(start, curve))
        for k, rep, curve, final in zip(
            range(1, max_lag + 1), reports, strategies, strategies[:, -1].tolist()
        )
    )
    chosen = max(
        rows,
        key=lambda r: srm_rank_key(r.report.sharpe_modified, r.report.efficiency_pct) + (-r.lag,),
    ).lag
    perfect, buy_hold = benchmark_curves(actual, moves)
    return LagScanResult(rows, chosen, perfect, buy_hold)


def scan_table_csv(result: LagScanResult) -> str:
    """Per-lag summary: lag, efficiency, hits, srm, final_equity."""
    lines = ["lag,efficiency_pct,hit_pct,srm,final_equity"]
    for r in result.rows:
        srm = "no-loss" if r.report.sharpe_modified is None else repr(r.report.sharpe_modified)
        lines.append(
            f"{r.lag},{r.report.efficiency_pct:.6g},{r.report.hit_pct:.6g},{srm},{r.final_equity:.6g}"
        )
    return "\n".join(lines) + "\n"


def lag_curves_csv(result: LagScanResult) -> str:
    """The header and every lag's equity curve, long format: the part of a
    scan's curves file that depends on the input."""
    return equity_long_csv({f"lag_{r.lag:02d}": r.equity for r in result.rows})


def benchmark_curves_csv(result: LagScanResult) -> str:
    """The perfect and buy-and-hold rows that end a scan's curves file; the
    same for every input scanned against one target over one range."""
    return equity_rows_csv({"perfect": result.perfect_equity, "buy_hold": result.buy_hold_equity})
