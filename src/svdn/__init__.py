"""SVD-based weight decorrelation for retrieval embeddings.

The package trains a small classifier whose second-to-last layer is a
bias-free linear map, periodically replaces that layer's weight matrix
with the distance-preserving orthogonalization built from its singular
value decomposition, and alternates frozen ("restraint") and free
("relaxation") fine-tuning until the columns stay decorrelated.  A
synthetic multi-camera identity benchmark with CMC / mAP scoring
verifies that the orthogonalized embeddings retrieve better.
"""

__version__ = "0.1.0"

from .decorrelate import DecorrMethod, distance_preservation_gap
from .diagnostics import rri_converged, s_of_w
from .errors import DegeneracyError, NumericError, SvdnError, ValidationError
from .evaluation import (
    RankingReport,
    RetrievalDataset,
    evaluate,
    evaluate_features,
    generate_synthetic,
    load_dataset,
    rank_gallery,
    save_dataset,
)
from .linalg import SvdFactors, pairwise_sq_dist, qr, svd
from .network import EigenModel, build_model, load_checkpoint, save_checkpoint
from .trainer import (
    PhaseRecord,
    RriSchedule,
    RriTrace,
    initial_model,
    run_baseline,
    run_decorr_comparison,
    run_dim_sweep,
    run_rri,
    train_step0,
)

__all__ = [
    "__version__",
    "SvdnError",
    "ValidationError",
    "NumericError",
    "DegeneracyError",
    "SvdFactors",
    "svd",
    "qr",
    "pairwise_sq_dist",
    "DecorrMethod",
    "distance_preservation_gap",
    "s_of_w",
    "rri_converged",
    "EigenModel",
    "build_model",
    "save_checkpoint",
    "load_checkpoint",
    "RetrievalDataset",
    "RankingReport",
    "generate_synthetic",
    "rank_gallery",
    "evaluate",
    "evaluate_features",
    "save_dataset",
    "load_dataset",
    "RriSchedule",
    "RriTrace",
    "PhaseRecord",
    "initial_model",
    "train_step0",
    "run_rri",
    "run_baseline",
    "run_decorr_comparison",
    "run_dim_sweep",
]
