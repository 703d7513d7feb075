"""Directional efficiency indicators, error measures, and equity curves.

A prediction is scored as if the target were a tradable price: a +1/-1 signal
per monthly transition, cumulative profit curves, and a consistency-adjusted
efficiency (the modified Sharpe ratio). A strategy that never loses gets a
distinguished "no-loss" value (represented as None) that sorts above every
finite ratio. The directional indicators take `(actual, signals)`, so a
prediction's signals are derived once and shared by all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

# `predict` is unused here but stays importable from metrics: perfbench/selftest.py
# checks that tracing rebinds it in every module that imported it.
from .mlp import error_percent, predict  # noqa: F401
from .preprocess import FeatureMatrix
from .timeseries import MonthStamp, TimeSeries, format_rows, month_labels

__all__ = [
    "SignalSeries",
    "EquityCurve",
    "MetricsReport",
    "signals_from_prediction",
    "hit_rate",
    "equity_curves",
    "efficiency",
    "mean_error",
    "rmse",
    "sharpe_modified",
    "srm_rank_key",
    "report",
    "REPORT_COLUMNS",
    "render_report_table",
    "render_report_csv",
    "equity_long_csv",
]

EquityCurve = TimeSeries


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


def _check_aligned(actual: TimeSeries, predicted: TimeSeries) -> None:
    if not actual.aligned_with(predicted):
        raise ValueError("actual and predicted series are misaligned")


def _actual_moves(actual: TimeSeries, signals: SignalSeries) -> np.ndarray:
    """The actual series' moves, after checking the signals cover exactly them."""
    if len(signals) != len(actual) - 1 or signals.start != actual.start.plus(1):
        raise ValueError("signals are misaligned with the actual series")
    return np.diff(actual.values)


def signals_from_prediction(predicted: TimeSeries) -> SignalSeries:
    """+1 on a predicted upswing, -1 on a downswing; an exactly flat step
    carries the previous signal (and +1 before any signal exists)."""
    if len(predicted) < 2:
        raise ValueError("need at least two points to derive signals")
    # A leading +1 stands for "before any move"; each step takes the sign of
    # the last nonzero move at or before it.
    signs = np.concatenate(([1], np.sign(np.diff(predicted.values)).astype(int)))
    last_move = np.maximum.accumulate(np.where(signs != 0, np.arange(signs.size), 0))
    return SignalSeries(predicted.start.plus(1), signs[last_move[1:]])


def hit_rate(actual: TimeSeries, signals: SignalSeries) -> float:
    """Percent of transitions where the signal's direction matches the actual
    one; a flat actual move counts as a hit for either signal."""
    moves = _actual_moves(actual, signals)
    hits = int(np.count_nonzero((moves == 0) | ((moves > 0) == (signals.values > 0))))
    return 100.0 * hits / moves.size


def equity_curves(
    actual: TimeSeries, signals: SignalSeries
) -> Tuple[EquityCurve, EquityCurve, EquityCurve]:
    """(strategy, perfect, buy_hold) cumulative-profit curves over the signal dates."""
    moves = _actual_moves(actual, signals)
    start = signals.start
    strategy = TimeSeries(start, np.cumsum(signals.values * moves))
    perfect = TimeSeries(start, np.cumsum(np.abs(moves)))
    buy_hold = TimeSeries(start, actual.values[1:] - actual.values[0])
    return strategy, perfect, buy_hold


def efficiency(actual: TimeSeries, signals: SignalSeries) -> float:
    """Realized directional gain as a percent of the maximum attainable gain."""
    moves = _actual_moves(actual, signals)
    max_gain = float(np.sum(np.abs(moves)))
    if max_gain == 0:
        raise ValueError("flat actual series: maximum gain is zero")
    return 100.0 * float(np.sum(signals.values * moves)) / max_gain


def mean_error(actual: TimeSeries, predicted: TimeSeries) -> float:
    """Mean absolute difference, in the units of the series."""
    _check_aligned(actual, predicted)
    return float(np.mean(np.abs(actual.values - predicted.values)))


def rmse(actual: TimeSeries, predicted: TimeSeries) -> float:
    """Root mean squared difference."""
    _check_aligned(actual, predicted)
    return float(np.sqrt(np.mean((actual.values - predicted.values) ** 2)))


def sharpe_modified(actual: TimeSeries, signals: SignalSeries) -> float | None:
    """Efficiency over the average per-event loss, normalized by the mean
    absolute move so the ratio is dimensionless. None means no losing events
    (ranks above every finite value)."""
    moves = _actual_moves(actual, signals)
    mean_abs = float(np.mean(np.abs(moves)))
    if mean_abs == 0:
        raise ValueError("flat actual series")
    returns = signals.values * moves
    losses = -returns[returns < 0]
    if losses.size == 0:
        return None
    avg_drawdown = float(np.mean(losses))
    eff_fraction = float(np.sum(returns)) / float(np.sum(np.abs(moves)))
    return eff_fraction / (avg_drawdown / mean_abs)


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


def indicators(actual: TimeSeries, predicted: TimeSeries, signals: SignalSeries) -> MetricsReport:
    """All indicators of a prediction and its signals over one evaluation range."""
    return MetricsReport(
        efficiency_pct=efficiency(actual, signals),
        hit_pct=hit_rate(actual, signals),
        sharpe_modified=sharpe_modified(actual, signals),
        rmse=rmse(actual, predicted),
        mean_error=mean_error(actual, predicted),
    )


def report(
    train_matrix: FeatureMatrix,
    train_pred: TimeSeries,
    test_matrix: FeatureMatrix,
    test_pred: TimeSeries,
    actual: TimeSeries,
) -> MetricsReport:
    """Full indicator row for one expert from its predictions of each matrix:
    directional indicators and error magnitudes over the testing range, error
    percentages over each range."""
    actual_test = actual.slice_range(test_matrix.start, test_matrix.end)
    return replace(
        indicators(actual_test, test_pred, signals_from_prediction(test_pred)),
        train_error_pct=error_percent(train_pred, train_matrix),
        test_error_pct=error_percent(test_pred, test_matrix),
    )


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
    table = [list(REPORT_COLUMNS)]
    for name, rep in rows:
        table.append(_report_cells(name, rep, locale_comma))
    widths = [max(len(r[c]) for r in table) for c in range(len(REPORT_COLUMNS))]
    lines = []
    for r in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
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


def equity_long_csv(curves: Mapping[str, EquityCurve]) -> str:
    """Long-format (date, value, curve_name) CSV for plotting, one format_rows per curve."""
    blocks = ["date,value,curve_name\n"]
    labels: Dict[Tuple[MonthStamp, int], List[str]] = {}  # rendered once per (start, length)
    for name, curve in curves.items():
        key = (curve.start, len(curve))
        if key not in labels:
            labels[key] = month_labels(*key)
        row = "%s,%.6g," + name.replace("%", "%%") + "\n"
        blocks.append(format_rows(row, [labels[key], curve.values.tolist()]))
    return "".join(blocks)
