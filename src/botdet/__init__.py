"""Flow-based botnet detection.

Aggregates NetFlow records into per-host time-window feature vectors,
trains a recurrent variational autoencoder on non-malicious traffic,
scores traffic by reconstruction error, and classifies host-windows by
comparing likelihoods under densities fitted to normal and botnet score
samples. No decision threshold is tuned anywhere in the pipeline.
"""

__version__ = "0.1.0"

from .detector import (
    DetectorModel,
    FittedPdf,
    best_fit,
    classify,
    fit_detector,
    fit_family,
    pdf_eval,
)
from .errors import BotdetError, DataError, NumericError, ParseError, UsageError
from .features import (
    FEATURE_NAMES,
    FeatureRow,
    Normalizer,
    aggregate_flows,
    build_sequences,
    trailing_sequences,
)
from .ingest import FlowRecord, GroundTruth, iter_flows, read_dataset
from .metrics import (
    MetricsReport,
    kfold_split,
    make_report,
    pr_auc,
    prf,
    report_table,
    roc_auc,
)
from .pipeline import (
    classify_scores,
    evaluate_decisions,
    fit_detector_from_training,
    preprocess,
    score_split,
    train_model,
    train_model_kfold,
    window_sweep,
)
from .scoring import ScoredWindow, anomaly_score, score_rows
from .streaming import StreamStats, run_stream
from .synth import SynthConfig, generate_flows, make_fixture
from .train import TrainConfig, TrainedModel, fit_mlp, fit_rvae

__all__ = [
    "__version__",
    "BotdetError", "UsageError", "DataError", "ParseError", "NumericError",
    "FlowRecord", "GroundTruth", "iter_flows", "read_dataset",
    "FEATURE_NAMES", "FeatureRow", "Normalizer", "aggregate_flows",
    "build_sequences", "trailing_sequences",
    "TrainConfig", "TrainedModel", "fit_rvae", "fit_mlp",
    "ScoredWindow", "anomaly_score", "score_rows",
    "DetectorModel", "FittedPdf", "best_fit", "classify",
    "fit_detector", "fit_family", "pdf_eval",
    "MetricsReport", "roc_auc", "pr_auc", "prf", "kfold_split",
    "make_report", "report_table",
    "preprocess", "train_model", "train_model_kfold", "score_split",
    "fit_detector_from_training", "classify_scores", "evaluate_decisions",
    "window_sweep",
    "StreamStats", "run_stream",
    "SynthConfig", "generate_flows", "make_fixture",
]
