"""Independent brute-force re-implementations used as test oracles.

Everything here is written from the definitions with plain loops and is
deliberately slow and obvious. All but `serial_maximize_sharpe` import nothing
from the package's code paths; that one is the one-net-at-a-time restart loop
that lockstep training replaced, written over the package's `init` and
`train`, so the lockstep search can be checked against it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Sequence, Tuple

from econocast import metrics, mlp
from econocast.timeseries import TimeSeries


def signals(predicted: Sequence[float]) -> List[int]:
    out = []
    current = 1
    for i in range(1, len(predicted)):
        move = predicted[i] - predicted[i - 1]
        if move > 0:
            current = 1
        elif move < 0:
            current = -1
        out.append(current)
    return out


def hit_rate(actual: Sequence[float], predicted: Sequence[float]) -> float:
    s = signals(predicted)
    hits = 0
    for i in range(1, len(actual)):
        move = actual[i] - actual[i - 1]
        if move == 0 or (move > 0) == (s[i - 1] > 0):
            hits += 1
    return 100.0 * hits / (len(actual) - 1)


def equity_curves(
    actual: Sequence[float], sig: Sequence[int]
) -> Tuple[List[float], List[float], List[float]]:
    strategy, perfect, buy_hold = [], [], []
    acc_s = acc_p = 0.0
    for i in range(1, len(actual)):
        move = actual[i] - actual[i - 1]
        acc_s += sig[i - 1] * move
        acc_p += abs(move)
        strategy.append(acc_s)
        perfect.append(acc_p)
        buy_hold.append(actual[i] - actual[0])
    return strategy, perfect, buy_hold


def month_label(year: int, month: int, offset: int) -> str:
    """"YYYY-MM" of the month `offset` months after year-month, stepped one
    month at a time."""
    for _ in range(offset):
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    return "%04d-%02d" % (year, month)


def equity_long_csv(curves) -> str:
    """Long CSV of (name, year, month, values) curves, one row per value;
    the values are formatted as given (numpy scalars from an array)."""
    text = "date,value,curve_name\n"
    for name, year, month, values in curves:
        for i, value in enumerate(values):
            text += "%s,%s,%s\n" % (month_label(year, month, i), format(value, ".6g"), name)
    return text


def render_csv(names, year, month, columns) -> str:
    """`date,<names>` CSV of equal-length columns from year-month on, one row
    per month; the values are formatted as given (numpy scalars from an
    array)."""
    text = "date," + ",".join(names) + "\n"
    for i in range(len(columns[0])):
        cells = [month_label(year, month, i)] + [format(col[i], ".6g") for col in columns]
        text += ",".join(cells) + "\n"
    return text


def efficiency(actual: Sequence[float], sig: Sequence[int]) -> float:
    gain = 0.0
    max_gain = 0.0
    for i in range(1, len(actual)):
        move = actual[i] - actual[i - 1]
        gain += sig[i - 1] * move
        max_gain += abs(move)
    return 100.0 * gain / max_gain


def mean_error(actual: Sequence[float], predicted: Sequence[float]) -> float:
    return sum(abs(a - p) for a, p in zip(actual, predicted)) / len(actual)


def rmse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    return math.sqrt(sum((a - p) ** 2 for a, p in zip(actual, predicted)) / len(actual))


def sharpe_modified(actual: Sequence[float], sig: Sequence[int]) -> float | None:
    moves = [actual[i] - actual[i - 1] for i in range(1, len(actual))]
    losses = [-s * m for s, m in zip(sig, moves) if s * m < 0]
    mean_abs = sum(abs(m) for m in moves) / len(moves)
    if not losses:
        return None
    avg_dd = sum(losses) / len(losses)
    eff_fraction = sum(s * m for s, m in zip(sig, moves)) / sum(abs(m) for m in moves)
    return eff_fraction / (avg_dd / mean_abs)


def dft_dominant_period(values: Sequence[float]) -> int:
    """Direct O(n^2) discrete Fourier transform; dominant nonzero bin."""
    n = len(values)
    mean = sum(values) / n
    x = [v - mean for v in values]
    best_k, best_mag = None, -1.0
    for k in range(1, n // 2 + 1):
        re = sum(x[t] * math.cos(-2 * math.pi * k * t / n) for t in range(n))
        im = sum(x[t] * math.sin(-2 * math.pi * k * t / n) for t in range(n))
        mag = math.hypot(re, im)
        if mag > best_mag + 1e-12:
            best_mag = mag
            best_k = k
    return round(n / best_k)


def gradients(weights, biases, kinds, x, target):
    """(dWs, dbs) of E = 1/2 * sum((out - target)^2) for one pattern, as
    nested lists: weights[l][j][i] maps unit i of layer l to unit j of layer
    l + 1, and kinds[l] ("logistic" or "linear") is that layer's activation.
    A forward pass that keeps every activation, then the chain rule backwards
    one unit at a time."""
    acts = [list(x)]
    for w, b, kind in zip(weights, biases, kinds):
        a = []
        for row, bias in zip(w, b):
            z = bias + sum(wi * ai for wi, ai in zip(row, acts[-1]))
            a.append(1.0 / (1.0 + math.exp(-z)) if kind == "logistic" else z)
        acts.append(a)
    # dE/da of the output units, then layer by layer dE/dz and dE/da below.
    dout = [a - t for a, t in zip(acts[-1], target)]
    dws, dbs = [None] * len(weights), [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        a = acts[l + 1]
        if kinds[l] == "logistic":
            dz = [d * a[j] * (1.0 - a[j]) for j, d in enumerate(dout)]
        else:
            dz = list(dout)
        dws[l] = [[dz[j] * ai for ai in acts[l]] for j in range(len(dz))]
        dbs[l] = dz
        dout = [sum(weights[l][j][i] * dz[j] for j in range(len(dz))) for i in range(len(acts[l]))]
    return dws, dbs


def serial_maximize_sharpe(shape, train_matrix, validation_matrix, train_config,
                           target_srm=None, max_restarts=20, base_seed=None):
    """(history, best_restart, reached_target, expert) of training and scoring
    the restarts one at a time, stopping at the first that reaches target_srm.
    Each history row is (seed, srm, efficiency, train error, diverged)."""
    if base_seed is None:
        base_seed = train_config.rng_seed
    actual = TimeSeries(validation_matrix.start, validation_matrix.y)
    history, best, best_key, best_index, reached = [], None, None, -1, False
    for i in range(max_restarts):
        cfg = replace(train_config, rng_seed=base_seed + i)
        try:
            expert = mlp.train(mlp.init(tuple(shape), cfg), train_matrix, cfg)
        except mlp.TrainingDiverged:
            history.append((cfg.rng_seed, float("-inf"), float("-inf"), float("inf"), True))
            continue
        sig = metrics.signals_from_prediction(mlp.predict(expert, validation_matrix))
        srm = metrics.sharpe_modified(actual, sig)
        eff = metrics.efficiency(actual, sig)
        history.append((cfg.rng_seed, srm, eff, expert.final_train_error, False))
        key = metrics.srm_rank_key(srm, eff)
        if best_key is None or key > best_key:
            best, best_key, best_index = expert, key, i
        if target_srm is not None and (srm is None or srm >= target_srm):
            reached = True
            break
    return history, best_index, reached, best
