"""Directional efficiency indicators, error measures, and equity curves.

A prediction is scored as if the target were a tradable price: a +1/-1 signal
per monthly transition, cumulative profit curves, and a consistency-adjusted
efficiency (the modified Sharpe ratio). A strategy that never loses gets a
distinguished "no-loss" value (represented as None) that sorts above every
finite ratio. The directional indicators take `(moves, signals)`, so a
prediction's signals are derived once and shared by all of them.

Each indicator is written once, for a stack of predictions over one actual
series: `signal_rows`, `hit_rate_rows`, `efficiency_rows`,
`sharpe_modified_rows`, `rmse_rows`, `mean_error_rows` and `strategy_rows`
score every row of a (rows, months) array, the directional ones from the
actual series' moves, diffed once by the caller. The package scores its
stacks whole: a sub's restarts (`search`), an ensemble's report table
(`ensemble.report_rows`), a scan's lags (`lagscan`) and the master's equity
curve (`cli`, a one-row stack); there is no separate one-series API. For a
C-contiguous stack, a row's figures are bit-identical to scoring that row
alone as a one-row stack: every sum and mean then runs along the contiguous
last axis, which numpy reduces row by row in the same pairwise order as a
1-D array, and a row's mean loss is one `add.reduce` over that row's losses
only.
The curves of one equity CSV share their dates, so it takes one start and a
1-D array per curve; each curve's rows are one float-only `%` format of its
`timeseries.month_rows` template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

# `predict` is unused here but stays importable from metrics: perfbench/selftest.py
# checks that tracing rebinds it in every module that imported it.
from .mlp import predict  # noqa: F401
from .timeseries import MonthStamp, TimeSeries, month_rows

__all__ = [
    "SignalSeries",
    "MetricsReport",
    "signals_from_prediction",
    "signal_rows",
    "hit_rate_rows",
    "benchmark_curves",
    "strategy_rows",
    "efficiency_rows",
    "mean_error_rows",
    "rmse_rows",
    "sharpe_modified_rows",
    "srm_rank_key",
    "REPORT_COLUMNS",
    "render_report_table",
    "render_report_csv",
    "equity_long_csv",
    "equity_rows_csv",
]

@dataclass(frozen=True)
class SignalSeries:
    """One +1/-1 direction call per transition; dated at the month the move
    completes (start = evaluated series start + 1)."""

    start: MonthStamp
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=int)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("signal series must be non-empty")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("signals must be +1 or -1")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def signal_rows(predicted: np.ndarray) -> np.ndarray:
    """The +1/-1 signals of each row of a (rows, months) stack of predictions,
    as a (rows, months - 1) integer array: +1 on a predicted upswing, -1 on a
    downswing; an exactly flat step carries the previous signal (and +1
    before any signal exists)."""
    steps = np.sign(np.diff(predicted, axis=1)).astype(int)
    # A leading +1 stands for "before any move"; each step takes the sign of
    # the last nonzero move at or before it.
    signs = np.concatenate((np.ones((steps.shape[0], 1), int), steps), axis=1)
    last_move = np.maximum.accumulate(np.where(signs != 0, np.arange(signs.shape[1]), 0), axis=1)
    return np.take_along_axis(signs, last_move[:, 1:], axis=1)


def signals_from_prediction(predicted: TimeSeries) -> SignalSeries:
    """signal_rows of one prediction, dated from the month its first move completes."""
    if len(predicted) < 2:
        raise ValueError("need at least two points to derive signals")
    return SignalSeries(predicted.start.plus(1), signal_rows(predicted.values[None])[0])


def hit_rate_rows(moves: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """Percent of transitions where each row's signal matches the actual
    move's direction; a flat actual move counts as a hit for either signal."""
    hits = np.count_nonzero((moves == 0) | ((moves > 0) == (signals > 0)), axis=1)
    return 100.0 * hits / moves.size


def strategy_rows(moves: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """Each row's cumulative profit from trading its signals on the actual moves."""
    return np.cumsum(signals * moves, axis=1)


def benchmark_curves(actual: TimeSeries, moves: np.ndarray) -> Tuple[TimeSeries, TimeSeries]:
    """(perfect, buy_hold) cumulative-profit curves of the actual series, given
    its moves, dated like any signals over it."""
    start = actual.start.plus(1)
    perfect = TimeSeries(start, np.cumsum(np.abs(moves)))
    buy_hold = TimeSeries(start, actual.values[1:] - actual.values[0])
    return perfect, buy_hold


def efficiency_rows(moves: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """Each row's realized directional gain as a percent of the maximum attainable gain."""
    max_gain = float(np.sum(np.abs(moves)))
    if max_gain == 0:
        raise ValueError("flat actual series: maximum gain is zero")
    return 100.0 * np.sum(signals * moves, axis=1) / max_gain


def mean_error_rows(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Each row's mean absolute difference, in the units of the series."""
    return np.mean(np.abs(actual - predicted), axis=1)


def rmse_rows(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Each row's root mean squared difference."""
    return np.sqrt(np.mean((actual - predicted) ** 2, axis=1))


def sharpe_modified_rows(moves: np.ndarray, signals: np.ndarray) -> List[float | None]:
    """Each row's efficiency over its average per-event loss, normalized by
    the mean absolute move so the ratio is dimensionless. None means no losing
    events (ranks above every finite value)."""
    mean_abs = float(np.mean(np.abs(moves)))
    if mean_abs == 0:
        raise ValueError("flat actual series")
    returns = signals * moves
    fractions = np.sum(returns, axis=1) / float(np.sum(np.abs(moves)))
    losing = returns < 0
    losses, ends = -returns[losing], np.cumsum(np.count_nonzero(losing, axis=1)).tolist()
    return [  # row i's losses are losses[ends[i-1]:ends[i]]; add.reduce / n is np.mean's bits
        None if end == begin
        else eff / (float(np.add.reduce(losses[begin:end])) / (end - begin) / mean_abs)
        for eff, begin, end in zip(fractions.tolist(), [0, *ends], ends)
    ]


def srm_rank_key(srm: float | None, efficiency_pct: float) -> Tuple[int, float, float]:
    """Sort key: any no-loss value outranks every finite ratio; among no-loss
    entries higher efficiency wins."""
    if srm is None:
        return (1, efficiency_pct, 0.0)
    return (0, srm, efficiency_pct)


@dataclass(frozen=True)
class MetricsReport:
    """One row of the indicator table. sharpe_modified is None for a no-loss
    strategy; the error percentages are None when no model is involved."""

    efficiency_pct: float
    hit_pct: float
    sharpe_modified: float | None
    rmse: float
    mean_error: float
    train_error_pct: float | None = None
    test_error_pct: float | None = None


def indicator_rows(
    actual: np.ndarray, moves: np.ndarray, predicted: np.ndarray, signals: np.ndarray
) -> List[MetricsReport]:
    """All indicators of each row of a prediction stack and its signal stack
    over one evaluation range, given the actual values and their moves."""
    return [
        MetricsReport(*row)
        for row in zip(
            efficiency_rows(moves, signals).tolist(),
            hit_rate_rows(moves, signals).tolist(),
            sharpe_modified_rows(moves, signals),
            rmse_rows(actual, predicted).tolist(),
            mean_error_rows(actual, predicted).tolist(),
        )
    ]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

REPORT_COLUMNS = (
    "Networks",
    "Efficiency %",
    "Hit %",
    "Sharpe Ratio",
    "Mean Quadratic Error",
    "Mean Error",
    "Training Error %",
    "Testing Error %",
)


def _fmt(value: float | None, pattern: str, comma: bool, suffix: str = "") -> str:
    if value is None:
        return "no-loss" if suffix == "" else "-"
    text = pattern % value
    if comma:
        text = text.replace(".", ",")
    return text + suffix


def _report_cells(name: str, rep: MetricsReport, comma: bool) -> List[str]:
    return [
        name,
        _fmt(rep.efficiency_pct, "%.2f", comma, "%"),
        _fmt(rep.hit_pct, "%.2f", comma, "%"),
        _fmt(rep.sharpe_modified, "%.4f", comma),
        _fmt(rep.rmse, "%.2f", comma),
        _fmt(rep.mean_error, "%.2f", comma),
        _fmt(rep.train_error_pct, "%.2f", comma, "%"),
        _fmt(rep.test_error_pct, "%.2f", comma, "%"),
    ]


def render_report_table(
    rows: Sequence[Tuple[str, MetricsReport]], locale_comma: bool = False
) -> str:
    """Aligned plain-text indicator table, one row per expert."""
    table = [list(REPORT_COLUMNS), *(_report_cells(name, rep, locale_comma) for name, rep in rows)]
    widths = [max(len(r[c]) for r in table) for c in range(len(REPORT_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
    return "\n".join(lines) + "\n"


def render_report_csv(rows: Sequence[Tuple[str, MetricsReport]]) -> str:
    """Machine-readable report: period decimals regardless of locale flag."""
    header = "network,efficiency_pct,hit_pct,sharpe_modified,rmse,mean_error,train_error_pct,test_error_pct"
    lines = [header]
    for name, rep in rows:
        srm = "no-loss" if rep.sharpe_modified is None else repr(float(rep.sharpe_modified))
        cells = [name, repr(float(rep.efficiency_pct)), repr(float(rep.hit_pct)), srm,
                 repr(float(rep.rmse)), repr(float(rep.mean_error))]
        for value in (rep.train_error_pct, rep.test_error_pct):
            cells.append("" if value is None else repr(float(value)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def equity_rows_csv(start: MonthStamp, curves: Mapping[str, np.ndarray]) -> str:
    """The rows of equity_long_csv, without its header: in each curve's month_rows
    template the name replaces each \\0 (no month label holds one), not rescanned,
    then one float-only `%` format fills in the values."""
    return "".join([month_rows(start, len(c), ",%.6g,\0").replace("\0", name.replace("%", "%%"))
                    % tuple(c.tolist()) for name, c in curves.items()])


def equity_long_csv(start: MonthStamp, curves: Mapping[str, np.ndarray]) -> str:
    """Long-format (date, value, curve_name) CSV for plotting: each 1-D curve
    of values is dated from `start`."""
    return "date,value,curve_name\n" + equity_rows_csv(start, curves)
