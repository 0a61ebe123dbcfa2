"""Univariate time-series anomaly detection.

An LSTM forecaster supplies absolute prediction errors; anomalies are flagged
either by classical rules on those errors (Gaussian log density, Tukey fences,
extreme-value peaks-over-threshold) or by a network trained end to end against
a periodically re-estimated extreme-value threshold, whose outputs are
decision scores directly.
"""
from .checks import ConfigError, EvtdetectError, MalformedInput
from .data import (
    CsvSchema,
    LabeledSeries,
    NormParams,
    SplitSpec,
    WindowedDataset,
    fit_norm_params,
    load_series,
    make_windows,
    normalize,
    split_series,
)
from .detectors import (
    DetectionResult,
    EvtRule,
    GaussianFit,
    TukeyFit,
    calibrate_gaussian_threshold,
    calibrate_risk,
    detect,
    fit_gaussian,
    gaussian_logpd,
    prediction_errors,
    tukey_threshold,
)
from .evaluation import (
    BenchmarkConfig,
    ConfusionCounts,
    Metrics,
    benchmark,
    compute_metrics,
    confusion,
)
from .evt import (
    AdResult,
    GpdFit,
    anderson_darling,
    excesses_over,
    fit_gpd,
    fit_tail,
    gpd_log_likelihood,
    initial_threshold,
    pot_threshold,
    tail_probability,
)
from .losses import LossSpec
from .network import Network, forward, init_network, load_network, save_network
from .optim import AdamState, adam_step, init_adam_state
from .training import (
    NoThresholdEstimate,
    TrainConfig,
    TrainedModel,
    decision_scores,
    require_threshold_estimate,
    train_evt_lstm,
    train_forecaster,
    train_svdd,
)

__version__ = "0.1.0"
