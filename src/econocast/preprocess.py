"""Series transforms and feature-matrix assembly.

All transforms are pure functions whose output dates are a contiguous
sub-range of the input dates; nothing is ever imputed or extrapolated. A
feature matrix starts only once every transform/lag warm-up is satisfied.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .artifacts import REQUIRED, JsonObject, is_number
from .timeseries import MonthStamp, TimeSeries

__all__ = [
    "WarmupError",
    "Transform",
    "FeatureSpec",
    "FeatureMatrix",
    "diff",
    "sma",
    "ewma",
    "block_avg",
    "lag",
    "log_var_ma",
    "rolling_stddev",
    "dominant_cycle",
    "apply_feature",
    "assemble",
]


class WarmupError(ValueError):
    """A feature needs more leading history than the requested range allows."""

    def __init__(self, label: str, months_short: int):
        super().__init__(f"feature {label!r} needs {months_short} more month(s) of warm-up history")
        self.label = label
        self.months_short = months_short


def check_scale(values: np.ndarray, name: str) -> None:
    """Reject values so large that a sum over them could overflow: an
    indicator's or a normalizer's, bounded by their squares' sum, which must
    stay within a quarter of the largest float. Prints no overflow warning."""
    with np.errstate(over="ignore"):
        if not np.sum(np.square(values)) <= sys.float_info.max / 4:
            raise ValueError(f"{name} is too large to score: squares sum past max float / 4")


def diff(s: TimeSeries) -> TimeSeries:
    """First differences: value j = s[j+1] - s[j]; start advances one month."""
    if len(s) < 2:
        raise ValueError("series too short to difference (need length >= 2)")
    return TimeSeries(s.start.plus(1), np.diff(s.values))


def _sliding_mean(values: np.ndarray, window: int) -> np.ndarray:
    view = np.lib.stride_tricks.sliding_window_view(values, window)
    return view.mean(axis=1)


def sma(s: TimeSeries, window: int) -> TimeSeries:
    """Trailing simple moving average; output starts window-1 months later."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(s) < window:
        raise ValueError(f"window {window} exceeds series length {len(s)}")
    return TimeSeries(s.start.plus(window - 1), _sliding_mean(s.values, window))


def ewma(s: TimeSeries, beta: float) -> TimeSeries:
    """Exponentially weighted moving average y[t] = beta*s[t] + (1-beta)*y[t-1],
    seeded with y[0] = s[0]. Length-preserving."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    out = np.empty(len(s))
    out[0] = s.values[0]
    keep = 1.0 - beta
    for i in range(1, len(s)):
        out[i] = beta * s.values[i] + keep * out[i - 1]
    return TimeSeries(s.start, out)


def block_avg(s: TimeSeries, window: int, distance: int) -> TimeSeries:
    """Trailing window mean taken `distance` months before the reference month:
    value at t = mean(s[t-distance-window+1 .. t-distance])."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if distance < 0:
        raise ValueError(f"distance must be >= 0, got {distance}")
    if len(s) < window + distance:
        raise ValueError(
            f"series length {len(s)} insufficient for window {window} + distance {distance}"
        )
    means = _sliding_mean(s.values[: len(s) - distance], window)
    return TimeSeries(s.start.plus(window + distance - 1), means)


def lag(s: TimeSeries, k: int) -> TimeSeries:
    """Shift by k months: value at date t equals the source value at t-k."""
    if k < 0:
        raise ValueError(f"lag must be >= 0, got {k}")
    if k >= len(s):
        raise ValueError(f"lag {k} >= series length {len(s)}")
    if k == 0:
        return s
    return TimeSeries(s.start.plus(k), s.values[: len(s) - k])


def log_var_ma(s: TimeSeries, window: int) -> TimeSeries:
    """Log relative variation of the moving average: ln(ma_t / ma_{t-1})."""
    ma = sma(s, window)
    if len(ma) < 2:
        raise ValueError("smoothed series too short for a variation")
    ratios = ma.values[1:] / ma.values[:-1]
    bad = np.nonzero(~(ratios > 0))[0]
    if bad.size:
        when = ma.start.plus(int(bad[0]) + 1)
        raise ValueError(f"non-positive moving-average ratio at {when}; log undefined")
    return TimeSeries(ma.start.plus(1), np.log(ratios))


def rolling_stddev(s: TimeSeries, window: int) -> TimeSeries:
    """Population standard deviation over each trailing window, aligned as sma."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if len(s) < window:
        raise ValueError(f"window {window} exceeds series length {len(s)}")
    view = np.lib.stride_tricks.sliding_window_view(s.values, window)
    return TimeSeries(s.start.plus(window - 1), view.std(axis=1))


def dominant_cycle(s: TimeSeries) -> int:
    """Dominant period in months: round(N / k*) for the nonzero discrete-Fourier
    bin k* of maximum magnitude. Ties break toward the longer period."""
    x = s.values - s.values.mean()
    if np.allclose(x, 0.0):
        raise ValueError("degenerate (constant) series has no dominant cycle")
    mags = np.abs(np.fft.rfft(x))
    k = int(np.argmax(mags[1:])) + 1  # argmax returns the first (lowest) bin on ties
    return int(round(len(s) / k))


# ---------------------------------------------------------------------------
# Declarative features
# ---------------------------------------------------------------------------


class _Bound(NamedTuple):
    """The values a transform parameter takes, and how an error words them:
    its type (numbers.Integral or numbers.Real; see is_number) and its bounds."""

    number: type
    holds: Callable[[float], bool]
    want: str


_WINDOW = _Bound(numbers.Integral, lambda v: v >= 1, ">= 1")
_DISTANCE = _Bound(numbers.Integral, lambda v: v >= 0, ">= 0")


class _Kind(NamedTuple):
    """Everything one transform kind defines: its parameters and their
    bounds, how it applies, its label, and how many leading months of input
    it consumes."""

    params: Mapping[str, _Bound]
    apply: Callable[["Transform", TimeSeries], TimeSeries]
    label: Callable[["Transform"], str]
    warmup: Callable[["Transform"], int]


_KINDS: Dict[str, _Kind] = {
    "identity": _Kind({}, lambda t, s: s, lambda t: "identity", lambda t: 0),
    "diff": _Kind({}, lambda t, s: diff(s), lambda t: "diff", lambda t: 1),
    "sma": _Kind(
        {"window": _WINDOW}, lambda t, s: sma(s, t.window),
        lambda t: f"sma{t.window}", lambda t: t.window - 1,
    ),
    "ewma": _Kind(
        {"beta": _Bound(numbers.Real, lambda v: 0.0 < v <= 1.0, "in (0, 1]")},
        lambda t, s: ewma(s, t.beta), lambda t: f"ewma{t.beta:g}", lambda t: 0,
    ),
    "block_avg": _Kind(
        {"window": _WINDOW, "distance": _DISTANCE}, lambda t, s: block_avg(s, t.window, t.distance),
        lambda t: f"ba{t.window}d{t.distance}", lambda t: t.window + t.distance - 1,
    ),
    "log_var_ma": _Kind(
        {"window": _WINDOW}, lambda t, s: log_var_ma(s, t.window),
        lambda t: f"logvar{t.window}", lambda t: t.window,
    ),
    "rolling_std": _Kind(
        {"window": _Bound(numbers.Integral, lambda v: v >= 2, ">= 2")},
        lambda t, s: rolling_stddev(s, t.window),
        lambda t: f"std{t.window}", lambda t: t.window - 1,
    ),
}


@dataclass(frozen=True)
class Transform:
    """One series transform; see the module functions for semantics."""

    kind: str
    window: int | None = None
    distance: int | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        params = _KINDS[self.kind].params
        for name in ("window", "distance", "beta"):
            value = getattr(self, name)
            if name in params and value is None:
                raise ValueError(f"transform {self.kind!r} requires {name}")
            if name not in params and value is not None:
                raise ValueError(f"transform {self.kind!r} does not take {name}")
            if value is None:
                continue
            bound = params[name]
            if not is_number(value, bound.number):
                want = "an integer" if bound.number is numbers.Integral else "a number"
                raise ValueError(f"transform {self.kind!r}: {name} must be {want}, got {value!r}")
            if not bound.holds(value):
                raise ValueError(f"{name} must be {bound.want}")
            # as a Python number, so that to_dict dumps to JSON
            number = int(value) if isinstance(value, numbers.Integral) else float(value)
            object.__setattr__(self, name, number)

    def apply(self, s: TimeSeries) -> TimeSeries:
        return _KINDS[self.kind].apply(self, s)

    def label(self) -> str:
        return _KINDS[self.kind].label(self)

    def warmup(self) -> int:
        """Months by which the output starts after the input."""
        return _KINDS[self.kind].warmup(self)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind}
        for name in _KINDS[self.kind].params:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: object, path: str = "transform") -> "Transform":
        return JsonObject(data, path).build(cls)


@dataclass(frozen=True)
class FeatureSpec:
    """One input column: a source series, a transform chain, and a lag in months."""

    source: str
    transforms: Tuple[Transform, ...] = (Transform("identity"),)
    lag: int = 0

    def __post_init__(self) -> None:
        chain = (self.transforms,) if isinstance(self.transforms, Transform) else self.transforms
        object.__setattr__(self, "transforms", tuple(chain) or (Transform("identity"),))
        if not is_number(self.lag, numbers.Integral) or self.lag < 0:
            raise ValueError(f"lag must be an integer >= 0, got {self.lag!r}")
        object.__setattr__(self, "lag", int(self.lag))

    def label(self) -> str:
        parts = [self.source]
        parts += [t.label() for t in self.transforms if t.kind != "identity"]
        if self.lag:
            parts.append(f"lag{self.lag}")
        return "~".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "transforms": [t.to_dict() for t in self.transforms],
            "lag": self.lag,
        }

    @classmethod
    def from_dict(cls, data: object, path: str = "feature") -> "FeatureSpec":
        obj = JsonObject(data, path)
        source = obj.get("source", REQUIRED, (str,))
        transforms = obj.get("transforms", (), (list,))
        lag = obj.get("lag", 0, (int,), lambda v: v >= 0, "an integer >= 0")
        obj.close()
        chain = (Transform.from_dict(t, f"{path}.transforms[{i}]") for i, t in enumerate(transforms))
        return cls(source, tuple(chain), lag)


def _transformed(
    source: str,
    chain: Tuple[Transform, ...],
    sources: Mapping[str, TimeSeries],
    applied: Dict[Tuple[str, Tuple[Transform, ...]], TimeSeries],
) -> TimeSeries:
    """`chain` applied to the named source, each of its prefixes taken from or
    added to `applied`, so that a prefix shared by several chains runs once."""
    if source not in sources:
        raise ValueError(f"unknown source series {source!r}")
    s = sources[source]
    for n in range(1, len(chain) + 1):
        key = (source, chain[:n])
        if key not in applied:
            applied[key] = chain[n - 1].apply(s)
        s = applied[key]
    return s


def apply_feature(spec: FeatureSpec, sources: Mapping[str, TimeSeries]) -> TimeSeries:
    """Resolve one FeatureSpec against named sources."""
    return lag(_transformed(spec.source, spec.transforms, sources, {}), spec.lag)


@dataclass(frozen=True)
class FeatureMatrix:
    """Aligned training rows: one row per month, one column per FeatureSpec,
    plus the target value for each row."""

    X: np.ndarray
    y: np.ndarray
    start: MonthStamp
    specs: Tuple[FeatureSpec, ...]

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size or X.shape[0] == 0:
            raise ValueError("matrix and target shapes are inconsistent or empty")
        if X.shape[1] != len(self.specs):
            raise ValueError("one spec per column required")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("matrix cells must be finite")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def rows(self) -> int:
        return int(self.X.shape[0])

    @property
    def width(self) -> int:
        return int(self.X.shape[1])

    @property
    def end(self) -> MonthStamp:
        return self.start.plus(self.rows - 1)


def assemble(
    features: Sequence[FeatureSpec],
    sources: Mapping[str, TimeSeries],
    target_name: str,
    target_transform: Transform | Sequence[Transform] | None,
    first: MonthStamp,
    last: MonthStamp,
) -> FeatureMatrix:
    """Build the aligned matrix over [first, last].

    Errors if any feature's warm-up (or tail) does not cover the range,
    reporting the feature and how many months it is short, or if a column or
    the target fails check_scale over it, naming it.
    """
    if first > last:
        raise ValueError(f"empty range {first}..{last}")
    if not features:
        raise ValueError("at least one feature is required")
    if target_name not in sources:
        raise ValueError(f"unknown target series {target_name!r}")

    if isinstance(target_transform, Transform):
        target_transform = (target_transform,)
    target_chain = (Transform("identity"),) if target_transform is None else tuple(target_transform)
    # The cycle features of a preset all smooth the target first.
    applied: Dict[Tuple[str, Tuple[Transform, ...]], TimeSeries] = {}
    target = _transformed(target_name, target_chain, sources, applied)
    if target.start > first:
        raise WarmupError(f"{target_name} (target)", target.start.months_since(first))
    if target.end < last:
        raise ValueError(f"target {target_name!r} ends {last.months_since(target.end)} month(s) early")

    columns = []
    for spec in features:
        s = lag(_transformed(spec.source, spec.transforms, sources, applied), spec.lag)
        if s.start > first:
            raise WarmupError(spec.label(), s.start.months_since(first))
        if s.end < last:
            raise ValueError(
                f"feature {spec.label()!r} ends {last.months_since(s.end)} month(s) before {last}"
            )
        columns.append(s.slice_range(first, last).values)
        check_scale(columns[-1], f"feature {spec.label()!r} over {first}..{last}")
    y = target.slice_range(first, last).values
    check_scale(y, f"target {target_name!r} over {first}..{last}")

    return FeatureMatrix(
        X=np.column_stack(columns),
        y=y,
        start=first,
        specs=tuple(features),
    )
