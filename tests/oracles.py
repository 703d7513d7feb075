"""Independent brute-force re-implementations used as test oracles.

Everything here is written from the definitions with plain loops and is
deliberately slow and obvious. All but `serial_maximize_sharpe` import nothing
from the package's code paths; that one is the one-net-at-a-time restart loop
written over the package's `init` and `train`, so the search, which trains
every restart in one call, can be checked against it. `train_alone` is
written with numpy calls, one pattern at a time, so that its bits are the
ones the compiled step must give.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from econocast import metrics, mlp


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


def gradients(weights, biases, x, target):
    """(dWs, dbs) of E = 1/2 * sum((out - target)^2) for one pattern, as
    nested lists: weights[l][j][i] maps unit i of layer l to unit j of layer
    l + 1. Every layer but the last is logistic; the last is linear. A
    forward pass that keeps every activation, then the chain rule backwards
    one unit at a time."""
    acts = [list(x)]
    for l, (w, b) in enumerate(zip(weights, biases)):
        a = []
        for row, bias in zip(w, b):
            z = bias + sum(wi * ai for wi, ai in zip(row, acts[-1]))
            a.append(1.0 / (1.0 + math.exp(-z)) if l < len(weights) - 1 else z)
        acts.append(a)
    # dE/da of the output units, then layer by layer dE/dz and dE/da below.
    dout = [a - t for a, t in zip(acts[-1], target)]
    dws, dbs = [None] * len(weights), [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        a = acts[l + 1]
        if l < len(weights) - 1:
            dz = [d * a[j] * (1.0 - a[j]) for j, d in enumerate(dout)]
        else:
            dz = list(dout)
        dws[l] = [[dz[j] * ai for ai in acts[l]] for j in range(len(dz))]
        dbs[l] = dz
        dout = [sum(weights[l][j][i] * dz[j] for j in range(len(dz))) for i in range(len(acts[l]))]
    return dws, dbs


def train_alone(weights, biases, X, y, learning_rate, max_epochs, target_error):
    """(weights, biases, epochs, error) of training one net, logistic with a
    linear output, on the normalized rows X and targets y: per epoch, one
    update per pattern in row order, then the mean squared error of the
    epoch's net over every row. It stops at the first epoch whose error
    reaches target_error or is not finite (divergence), or at max_epochs.

    Each operation is the numpy call that the package's step made when it
    was written in numpy, in the same order, so the bits are the ones
    `mlp.train_many` must give: a product is np.dot, or an elementwise
    multiply where its contraction has length one; the logistic takes
    1 / (1 + e) for z >= 0 and e / (1 + e) below, e = exp(-|z|); the update
    is w - dw * learning_rate."""
    ws = [np.array(w, dtype=float) for w in weights]
    bs = [np.array(b, dtype=float) for b in biases]
    last = len(ws) - 1

    def times(w, a):
        return w[:, 0] * a[0] if w.shape[1] == 1 else np.dot(w, a)

    def logistic(z):
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, max_epochs + 1):
            for x, t in zip(X, y):
                acts = [x]
                for l, (w, b) in enumerate(zip(ws, bs)):
                    z = times(w, acts[-1]) + b
                    acts.append(logistic(z) if l < last else z)
                delta = acts[-1] - t
                steps = []
                for l in range(last, -1, -1):
                    if l < last:
                        a = acts[l + 1]
                        delta = delta * (a * (1.0 - a))
                    steps.append((l, delta[:, None] * acts[l], delta))
                    if l:
                        delta = times(ws[l].T, delta)
                for l, dw, db in steps:
                    ws[l] = ws[l] - dw * learning_rate
                    bs[l] = bs[l] - db * learning_rate
            out = X
            for l, (w, b) in enumerate(zip(ws, bs)):
                out = out @ w.T + b
                if l < last:
                    out = logistic(out)
            error = float(np.mean((out[:, 0] - y) ** 2))
            if error <= target_error or not math.isfinite(error):
                break
    return ws, bs, epoch, error


def serial_maximize_sharpe(shape, train_matrix, validation_matrix, train_config,
                           target_srm=None, max_restarts=20, base_seed=None):
    """(history, best_restart, reached_target, expert) of training and scoring
    the restarts one at a time, stopping at the first that reaches target_srm.
    Each history row is (seed, srm, efficiency, train error, diverged)."""
    if base_seed is None:
        base_seed = train_config.rng_seed
    moves = validation_matrix.y[1:] - validation_matrix.y[:-1]
    history, best, best_key, best_index, reached = [], None, None, -1, False
    for i in range(max_restarts):
        cfg = replace(train_config, rng_seed=base_seed + i)
        try:
            expert = mlp.train(mlp.init(tuple(shape), cfg), train_matrix, cfg)
        except mlp.TrainingDiverged:
            history.append((cfg.rng_seed, float("-inf"), float("-inf"), float("inf"), True))
            continue
        sig = metrics.signals_from_prediction(mlp.predict(expert, validation_matrix)).values[None]
        srm = metrics.sharpe_modified_rows(moves, sig)[0]
        eff = metrics.efficiency_rows(moves, sig)[0]
        history.append((cfg.rng_seed, srm, eff, expert.final_train_error, False))
        key = metrics.srm_rank_key(srm, eff)
        if best_key is None or key > best_key:
            best, best_key, best_index = expert, key, i
        if target_srm is not None and (srm is None or srm >= target_srm):
            reached = True
            break
    return history, best_index, reached, best
