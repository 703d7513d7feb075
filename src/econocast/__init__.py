"""Forecasting toolkit for a monthly economic activity index: lagged/smoothed
features over leading indicators, small neural experts trained by online
back-propagation, trading-style directional evaluation, and a stacked master
network."""

from .timeseries import (
    CsvFormatError,
    MonthStamp,
    TimeSeries,
    SectorWeights,
    DEFAULT_SECTOR_WEIGHTS,
    SyntheticBundle,
    parse_csv,
    render_csv,
    laspeyres_index,
    synthesize_economy,
)
from .preprocess import (
    Transform,
    FeatureSpec,
    FeatureMatrix,
    WarmupError,
    assemble,
    block_avg,
    diff,
    dominant_cycle,
    ewma,
    lag,
    log_var_ma,
    rolling_stddev,
    sma,
)
from .mlp import (
    MlpNetwork,
    Normalizer,
    TrainConfig,
    TrainedExpert,
    TrainingDiverged,
    error_percent,
    gradients,
    init,
    predict,
    train,
)
from .metrics import MetricsReport, SignalSeries, signals_from_prediction
from .lagscan import LagScanResult, scan
from .search import ArchitectureGrid, SearchOutcome, maximize_sharpe, search_best_nets
from .ensemble import EnsembleModel, EnsembleSpec, SubNetworkSpec, predict_ensemble, train_ensemble

__version__ = "0.1.0"
