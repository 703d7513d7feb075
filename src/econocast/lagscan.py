"""Optimal-lag detection: score each candidate lag of an input as a directional
predictor of the target and keep the one with the best modified Sharpe ratio.

No model is trained here; the lagged input's own direction changes are the
prediction, evaluated with the full indicator battery. Each lag's window is
one slice of the input; the perfect and buy-and-hold curves do not depend on
the lag and are computed once per input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .metrics import (
    EquityCurve,
    MetricsReport,
    equity_curves,
    equity_long_csv,
    indicators,
    signals_from_prediction,
    srm_rank_key,
)
from .timeseries import MonthStamp, TimeSeries

__all__ = ["LagRow", "LagScanResult", "scan", "scan_table_csv", "scan_curves_csv"]


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
    moves = actual.values[1:] - actual.values[:-1]  # the same for every lag
    i, j = input_series.index_of(first), input_series.index_of(last)
    rows = []
    best_key = None
    chosen = None
    for k in range(1, max_lag + 1):
        lagged = TimeSeries(first, input_series.values[i - k : j - k + 1])  # lag k over first..last
        signals = signals_from_prediction(lagged)
        rep = indicators(actual, lagged, signals)
        strategy = TimeSeries(signals.start, (signals.values * moves).cumsum())
        rows.append(
            LagRow(
                lag=k,
                report=rep,
                final_equity=float(strategy.values[-1]),
                equity=strategy,
            )
        )
        key = srm_rank_key(rep.sharpe_modified, rep.efficiency_pct) + (-k,)
        if best_key is None or key > best_key:
            best_key = key
            chosen = k
    assert chosen is not None
    _, perfect, buy_hold = equity_curves(actual, signals)  # the same for every lag
    return LagScanResult(
        rows=tuple(rows),
        chosen_lag=chosen,
        perfect_equity=perfect,
        buy_hold_equity=buy_hold,
    )


def scan_table_csv(result: LagScanResult) -> str:
    """Per-lag summary: lag, efficiency, hits, srm, final_equity."""
    lines = ["lag,efficiency_pct,hit_pct,srm,final_equity"]
    for r in result.rows:
        srm = "no-loss" if r.report.sharpe_modified is None else repr(r.report.sharpe_modified)
        lines.append(
            f"{r.lag},{r.report.efficiency_pct:.6g},{r.report.hit_pct:.6g},{srm},{r.final_equity:.6g}"
        )
    return "\n".join(lines) + "\n"


def scan_curves_csv(result: LagScanResult) -> str:
    """All lag equity curves plus both benchmarks, long format."""
    curves: Dict[str, EquityCurve] = {f"lag_{r.lag:02d}": r.equity for r in result.rows}
    curves["perfect"] = result.perfect_equity
    curves["buy_hold"] = result.buy_hold_equity
    return equity_long_csv(curves)
