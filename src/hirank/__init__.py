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

`import hirank` loads no submodule. A submodule, or a name exported from
one, is imported when it is first read (`hirank.metrics`, `hirank.h_ap`).
"""

from importlib import import_module

# every submodule, with the names the package exports from it
_EXPORTS = {
    "errors": ("HirankError",),
    "taxonomy": ("Taxonomy", "RelevanceProfile", "parse_taxonomy", "assign_relevance"),
    "metrics": (
        "ScoredRanking", "MetricsReport", "h_rank", "h_ap", "ap_level", "asi", "ndcg",
        "recall_at_k", "evaluate_dataset",
    ),
    "losses": (
        "SmoothHeavisideParams", "heaviside_lower", "heaviside_upper", "hap_surrogate",
        "ProxyBank", "clustering_loss", "combined_loss", "LossGradients",
    ),
    "dataset": ("RetrievalDataset", "load_dataset", "write_dataset"),
    "synthgen": ("SynthSpec", "generate"),
    "trainer": (
        "TrainerConfig", "TrainerState", "TrainResult", "init_state", "sample_batch",
        "train_step", "fit",
    ),
    "gradcheck": (),
    "cli": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
