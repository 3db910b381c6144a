"""Graded retrieval metrics, smooth ranking surrogates and a small trainer.

The package splits into:

- taxonomy: label hierarchies, ancestor levels and relevance profiles
- metrics: exact graded ranking metrics over scored candidate lists, and the
  scores-file reader
- losses: smooth surrogate objectives with analytic gradients
- dataset / synthgen: on-disk formats and synthetic data
- trainer: class-balanced batch training of embedding models
- gradcheck: finite-difference verification of every gradient
- cli: the `hirank` command line tool
"""

from .errors import HirankError
from .taxonomy import (
    RelevanceProfile,
    Taxonomy,
    assign_relevance,
    parse_taxonomy,
)
from .metrics import (
    MetricsReport,
    ScoredRanking,
    ap_level,
    asi,
    evaluate_dataset,
    h_ap,
    h_ap_pr_oracle,
    h_pr_at_k,
    h_rank,
    ndcg,
    rank_of,
    recall_at_k,
)
from .losses import (
    LossGradients,
    ProxyBank,
    SmoothHeavisideParams,
    clustering_loss,
    combined_loss,
    hap_surrogate,
    heaviside_lower,
    heaviside_upper,
)
from .dataset import RetrievalDataset, load_dataset, write_dataset
from .synthgen import SynthSpec, generate
from .trainer import (
    TrainerConfig,
    TrainerState,
    TrainResult,
    fit,
    init_state,
    sample_batch,
    train_step,
)

__all__ = [
    "HirankError",
    "Taxonomy",
    "RelevanceProfile",
    "parse_taxonomy",
    "assign_relevance",
    "ScoredRanking",
    "MetricsReport",
    "rank_of",
    "h_rank",
    "h_ap",
    "ap_level",
    "h_pr_at_k",
    "h_ap_pr_oracle",
    "asi",
    "ndcg",
    "recall_at_k",
    "evaluate_dataset",
    "SmoothHeavisideParams",
    "heaviside_lower",
    "heaviside_upper",
    "hap_surrogate",
    "ProxyBank",
    "clustering_loss",
    "combined_loss",
    "LossGradients",
    "RetrievalDataset",
    "load_dataset",
    "write_dataset",
    "SynthSpec",
    "generate",
    "TrainerConfig",
    "TrainerState",
    "TrainResult",
    "init_state",
    "sample_batch",
    "train_step",
    "fit",
]

__version__ = "0.1.0"
