"""Shipped feature presets for the eight sub-networks.

Each preset is a list of FeatureSpecs over the synthetic bundle's column
names. Raw feeds enter at their optimal lags (the generator's planted leads),
variation networks take first differences of those feeds, and the
cycle-feature networks smooth the target with their beta and read it at
lags spaced across the dominant cycle.

Every preset fits within a 12-month warm-up: a matrix starting at month 13 of
the data needs nothing before month 1.
"""

from __future__ import annotations

from typing import List, Mapping

from .preprocess import FeatureSpec, Transform
from .timeseries import PREDICTOR_LEADS, TARGET_NAME

__all__ = [
    "NETWORK_NAMES",
    "NETWORK_BETAS",
    "RAW_INPUT_LAGS",
    "WARMUP_MONTHS",
    "cycle_features",
    "preset_features",
    "preset_warmup",
]

NETWORK_NAMES = tuple(f"network{i}" for i in range(1, 9))

# Smoothing beta per network; None for the purely differenced networks.
NETWORK_BETAS: Mapping[str, float | None] = {
    "network1": 0.2,
    "network2": None,
    "network3": 0.25,
    "network4": None,
    "network5": None,
    "network6": 0.1,
    "network7": 0.2,
    "network8": 0.3,
}

# Optimal lag per raw feed: identical to the synthetic generator's planted
# leads. Real-data users re-derive these with the lag scanner.
RAW_INPUT_LAGS: Mapping[str, int] = dict(PREDICTOR_LEADS)

# One year of history is reserved for transform/lag warm-up; no shipped
# feature may look further back than that.
WARMUP_MONTHS = 12

_MARKET_FEEDS = (
    "power",
    "stocks_local",
    "stocks_foreign",
    "crude",
    "tbill_rate",
    "gold",
    "copper",
    "eurodollar",
    "commodities",
    "utilities",
    "loan_rate",
)

# Members of each variation network (first differences of raw feeds).
_VAR_MEMBERS: Mapping[str, tuple] = {
    "network2": _MARKET_FEEDS,
    "network4": ("power", "stocks_local", "crude", "eurodollar", "loan_rate"),
    "network5": (
        "power",
        "stocks_local",
        "stocks_foreign",
        "crude",
        "tbill_rate",
        "copper",
        "eurodollar",
        "commodities",
        "loan_rate",
    ),
    "network7": _MARKET_FEEDS,
}

_INFLATION_NETWORKS = ("network2", "network3", "network4", "network5", "network7")
_CYCLE_NETWORKS = ("network1", "network6", "network7", "network8")


def _var_feature(feed: str) -> FeatureSpec:
    # Differencing costs one warm-up month, so the lag is capped to keep the
    # total inside the reserved year.
    k = min(RAW_INPUT_LAGS[feed], WARMUP_MONTHS - 1)
    return FeatureSpec(feed, (Transform("diff"),), lag=k)


def cycle_features(beta: float, cycle_period: int, target: str = TARGET_NAME) -> List[FeatureSpec]:
    """Nine target-history features derived from the dominant cycle P:

    five smoothed readings at lags round(j*P/5), and four trailing block
    averages (window round(P/4)) whose blocks start round(j*P/4) months back,
    tiling the cycle. All lags are clipped to the warm-up year.
    """
    window = max(1, round(cycle_period / 4))
    smooth = (Transform("ewma", beta=beta),)
    features = []
    for j in range(1, 6):
        k = min(max(1, round(j * cycle_period / 5)), WARMUP_MONTHS)
        features.append(FeatureSpec(target, smooth, lag=k))
    for j in range(1, 5):
        block_start = min(max(window, round(j * cycle_period / 4)), WARMUP_MONTHS)
        distance = block_start - (window - 1)
        block = Transform("block_avg", window=window, distance=distance)
        features.append(FeatureSpec(target, smooth + (block,), lag=0))
    return features


def preset_features(
    name: str, cycle_period: int = 12, target: str = TARGET_NAME
) -> List[FeatureSpec]:
    """FeatureSpec list for one shipped network preset."""
    if name not in NETWORK_NAMES:
        raise ValueError(f"unknown preset {name!r}; expected one of {', '.join(NETWORK_NAMES)}")
    beta = NETWORK_BETAS[name]
    features: List[FeatureSpec] = []

    if name == "network3":
        for feed in _MARKET_FEEDS:
            features.append(FeatureSpec(feed, lag=RAW_INPUT_LAGS[feed]))
        features.append(FeatureSpec("exchange_rate", lag=RAW_INPUT_LAGS["exchange_rate"]))

    if name in _VAR_MEMBERS:
        features.extend(_var_feature(feed) for feed in _VAR_MEMBERS[name])

    if name in _INFLATION_NETWORKS:
        features.append(FeatureSpec("inflation", lag=RAW_INPUT_LAGS["inflation"]))

    if name == "network3":
        features.append(FeatureSpec(target, (Transform("ewma", beta=beta),), lag=WARMUP_MONTHS))

    if name == "network4":
        # Annual-phase momentum of the smoothed target plus its trailing spread.
        features.append(FeatureSpec(target, (Transform("log_var_ma", window=3),), lag=9))
        features.append(FeatureSpec(target, (Transform("rolling_std", window=12),), lag=0))

    if name in _CYCLE_NETWORKS:
        assert beta is not None
        features.extend(cycle_features(beta, cycle_period, target))

    return features


def preset_warmup(features: List[FeatureSpec]) -> int:
    """Months of leading history the feature list consumes."""
    return max((f.lag + sum(t.warmup() for t in f.transforms) for f in features), default=0)
