"""Desk-scale embedding trainer for graded retrieval.

Each step draws a class-balanced batch (batch_size / m_per_class fine
classes, m instances each), embeds it, scores every element against the
rest under cosine, and descends the combined objective from `losses`.
The learning rate follows half-cosine annealing over global steps. During
the warmup epochs a table model's rows stay frozen while proxies (and a
linear model's weights, which act as the trainable head over the fixed
features) keep training. Proxies are pulled back to unit norm after every
step.

Evaluation always uses the alpha=1 relevance profile on the holdout split
(or the training split when no holdout exists), whatever profile the loss
was trained with, so runs with different training profiles stay comparable.

Everything is driven by one seeded generator in a fixed draw order
(proxies, model, then per-step sampling), so a config determines the
metric history byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dataset import RetrievalDataset, format_features, write_text_atomic
from .errors import InsufficientClassesError, NonFiniteLossError
from .losses import (
    LossGradients,
    ProxyBank,
    SmoothHeavisideParams,
    combined_loss,
    cosine_matrix,
)
from .metrics import MetricsReport, evaluate_rows
from .taxonomy import RelevanceProfile, ancestor_levels

HISTORY_FILE = "history.jsonl"
EMBEDDINGS_FILE = "embeddings.tsv"
STATE_FILE = "state.json"
REPORT_FILE = "report.json"


@dataclass(frozen=True)
class TrainerConfig:
    """Everything a training run depends on."""

    model_kind: str = "linear"  # "table" | "linear"
    dim: int = 8
    in_dim: int | None = None  # linear only; inferred from features when None
    optimizer_kind: str = "adam"  # "sgd" | "adam"
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr0: float = 0.01
    epochs: int = 20
    batch_size: int = 64
    m_per_class: int = 4
    warmup_epochs: int = 0
    seed: int = 0
    lam: float = 0.1
    sigma: float = 0.05
    profile: RelevanceProfile = field(default_factory=RelevanceProfile.alpha)
    heaviside: SmoothHeavisideParams = field(default_factory=SmoothHeavisideParams)
    eval_every: int = 1
    recall_ks: tuple[int, ...] = (1, 4)

    def __post_init__(self):
        if self.model_kind not in ("table", "linear"):
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.optimizer_kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.optimizer_kind!r}")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if self.m_per_class < 1 or self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 and m_per_class >= 1")
        if self.batch_size % self.m_per_class != 0:
            raise ValueError("batch_size must be divisible by m_per_class")
        if self.batch_size // self.m_per_class < 2:
            raise ValueError("a batch must cover at least 2 classes")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if any(k < 1 for k in self.recall_ks):
            raise ValueError("recall cutoffs must be >= 1")

    @property
    def classes_per_batch(self) -> int:
        return self.batch_size // self.m_per_class


# JSON key -> (TrainerConfig field, conversion or None) of each config object's
# plain keys; an absent key keeps the field's default, None keeps the value
_CONFIG_FIELDS = {
    "model": {"kind": ("model_kind", None), "dim": ("dim", int), "in_dim": ("in_dim", int)},
    "optimizer": {
        "kind": ("optimizer_kind", None),
        **{key: (key, float) for key in ("momentum", "beta1", "beta2", "eps")},
    },
    "config": {
        "lr0": ("lr0", float),
        **{key: (key, int) for key in (
            "epochs", "batch_size", "m_per_class", "warmup_epochs", "seed", "eval_every")},
        "recall_ks": ("recall_ks", lambda ks: tuple(int(k) for k in _config_list(ks, "recall_ks"))),
    },
    "objective": {"lambda": ("lam", float), "sigma": ("sigma", float)},
}

# the keys of each config object, as the README schema lists them
_CONFIG_KEYS = {
    "config": (*_CONFIG_FIELDS["config"], "model", "optimizer", "objective"),
    "model": tuple(_CONFIG_FIELDS["model"]),
    "optimizer": tuple(_CONFIG_FIELDS["optimizer"]),
    "objective": (*_CONFIG_FIELDS["objective"], "profile", "heaviside"),
    "objective.profile": ("kind", "alpha", "weights", "table"),
}


def _config_object(value, name: str) -> dict:
    """`value` checked to be an object holding only the keys listed for `name`."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(_CONFIG_KEYS[name]))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {name}")
    return value


def _config_key(section: dict, key: str, name: str):
    """`section[key]`, or a ValueError naming the missing key."""
    if key not in section:
        raise ValueError(f"missing key {key!r} in {name}")
    return section[key]


def _config_list(value, name: str):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {type(value).__name__}")
    return value


def config_from_dict(raw: dict, depth: int, in_dim: int | None = None) -> TrainerConfig:
    """Build a TrainerConfig from a plain JSON-style dict.

    `depth` resolves level-dependent profiles; `in_dim` fills the linear
    model's input width when the config leaves it out. A section that is
    not an object, an unknown key, a missing profile key and a list of the
    wrong type raise ValueError naming the key.
    """
    sections = {"config": _config_object(raw, "config")}
    for name in ("model", "optimizer", "objective"):
        sections[name] = _config_object(raw.get(name, {}), name)
    objective = sections["objective"]
    profile_spec = _config_object(objective.get("profile", {}), "objective.profile")
    kind = profile_spec.get("kind", "alpha")
    if kind == "alpha":
        profile = RelevanceProfile.alpha(float(profile_spec.get("alpha", 1.0)))
    elif kind == "weighted":
        weights = _config_key(profile_spec, "weights", "objective.profile")
        profile = RelevanceProfile.weighted_ap(
            tuple(_config_list(weights, "objective.profile.weights"))
        )
    elif kind == "explicit":
        table = _config_key(profile_spec, "table", "objective.profile")
        if not isinstance(table, dict):
            raise ValueError(
                f"objective.profile.table must be an object, got {type(table).__name__}"
            )
        profile = RelevanceProfile.explicit({int(k): float(v) for k, v in table.items()})
    elif kind == "fine_only":
        profile = RelevanceProfile.fine_only(depth)
    else:
        raise ValueError(f"unknown relevance profile kind {kind!r}")
    fields = {
        "in_dim": in_dim,
        "profile": profile,
        "heaviside": SmoothHeavisideParams(**objective.get("heaviside", {})),
    }
    for name, plain in _CONFIG_FIELDS.items():
        for key, (attr, convert) in plain.items():
            if key in sections[name]:
                value = sections[name][key]
                fields[attr] = value if convert is None else convert(value)
    return TrainerConfig(**fields)


# --- models -------------------------------------------------------------------

class TableModel:
    """One trainable embedding row per instance."""

    def __init__(self, n_rows: int, dim: int, rng: np.random.Generator):
        self.table = rng.standard_normal((n_rows, dim)) / math.sqrt(dim)

    def embed(self, rows: np.ndarray) -> np.ndarray:
        return self.table[rows]

    def gradient(self, rows: np.ndarray, d_emb: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(self.table)
        np.add.at(grad, rows, d_emb)
        return grad

    @property
    def params(self) -> np.ndarray:
        return self.table

    def all_embeddings(self, features: np.ndarray) -> np.ndarray:
        return self.table.copy()


class LinearModel:
    """A single projection of the fixed input features."""

    def __init__(self, features: np.ndarray, dim: int, rng: np.random.Generator):
        self.features = features
        in_dim = features.shape[1]
        self.weights = rng.standard_normal((in_dim, dim)) / math.sqrt(in_dim)

    def embed(self, rows: np.ndarray) -> np.ndarray:
        return self.features[rows] @ self.weights

    def gradient(self, rows: np.ndarray, d_emb: np.ndarray) -> np.ndarray:
        return self.features[rows].T @ d_emb

    @property
    def params(self) -> np.ndarray:
        return self.weights

    def all_embeddings(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights


# --- optimizers ----------------------------------------------------------------

class SgdState:
    def __init__(self, momentum: float):
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}

    def update(self, name: str, param: np.ndarray, grad: np.ndarray, lr: float) -> None:
        v = self.velocity.setdefault(name, np.zeros_like(param))
        v *= self.momentum
        v += grad
        param -= lr * v


class AdamState:
    def __init__(self, beta1: float, beta2: float, eps: float):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.first: dict[str, np.ndarray] = {}
        self.second: dict[str, np.ndarray] = {}
        self.counts: dict[str, int] = {}

    def update(self, name: str, param: np.ndarray, grad: np.ndarray, lr: float) -> None:
        m = self.first.setdefault(name, np.zeros_like(param))
        v = self.second.setdefault(name, np.zeros_like(param))
        t = self.counts.get(name, 0) + 1
        self.counts[name] = t
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _make_optimizer(config: TrainerConfig):
    if config.optimizer_kind == "sgd":
        return SgdState(config.momentum)
    return AdamState(config.beta1, config.beta2, config.eps)


# --- pairwise structure ---------------------------------------------------------

def pairwise_levels(codes: np.ndarray) -> np.ndarray:
    """Deepest shared ancestor level for every pair of encoded paths."""
    return ancestor_levels(codes[:, None, :], codes[None, :, :])


def relevance_rows(levels: np.ndarray, profile: RelevanceProfile, depth: int) -> np.ndarray:
    """Relevance of candidate j for query q, per batch row, diagonal zeroed.

    Follows the same per-query normalization as taxonomy.assign_relevance.
    Weighted profiles drop weight terms whose positive-or-deeper set is
    empty inside the batch instead of raising: a sampled batch routinely
    misses levels that the full candidate pool would cover.
    """
    b = levels.shape[0]
    # count whole rows, then take the diagonal (a row against itself) back out
    counts = np.stack([(levels == l).sum(axis=1) for l in range(depth + 1)], axis=-1)
    counts[np.arange(b), levels.diagonal()] -= 1
    rel = np.take_along_axis(profile.level_table(counts, skip_empty=True), levels, axis=1)
    np.fill_diagonal(rel, 0.0)
    return rel


# --- trainer state -----------------------------------------------------------------

@dataclass
class TrainerState:
    """Mutable training position: parameters, proxies, moments, counters."""

    config: TrainerConfig
    model: TableModel | LinearModel
    bank: ProxyBank
    optimizer: SgdState | AdamState
    rng: np.random.Generator
    codes: np.ndarray
    class_rows: list[np.ndarray]
    labels: np.ndarray  # proxy index of each training row, -1 elsewhere
    train_rows: np.ndarray
    eval_rows: np.ndarray
    steps_per_epoch: int
    total_steps: int
    step: int = 0
    epoch: int = 0
    history: list[dict] = field(default_factory=list)

    def learning_rate(self) -> float:
        if self.total_steps == 0:
            return self.config.lr0
        return self.config.lr0 * 0.5 * (1.0 + math.cos(math.pi * self.step / self.total_steps))

    @property
    def in_warmup(self) -> bool:
        return self.epoch < self.config.warmup_epochs


def init_state(ds: RetrievalDataset, config: TrainerConfig) -> TrainerState:
    """Seeded setup; the draw order (proxies, then model) is part of the contract."""
    rng = np.random.default_rng(config.seed)
    codes = ds.taxonomy.codes(ds.ids)
    train_rows = np.array([ds.row_of[i] for i in ds.train_ids], dtype=np.int64)
    if len(train_rows) == 0:
        raise InsufficientClassesError("no training instances outside the holdout")
    classes, inverse, counts = np.unique(
        [ds.taxonomy.leaf(ds.ids[r]) for r in train_rows], return_inverse=True, return_counts=True
    )
    if len(classes) < config.classes_per_batch:
        raise InsufficientClassesError(
            f"batch needs {config.classes_per_batch} classes, dataset has {len(classes)}"
        )
    labels = np.full(len(ds.ids), -1, dtype=np.int64)
    labels[train_rows] = inverse
    # a stable sort keeps each class's rows in train_rows order: the sampler
    # draws positions in these arrays, so their order fixes the batches
    class_rows = np.split(train_rows[np.argsort(inverse, kind="stable")], np.cumsum(counts)[:-1])
    bank = ProxyBank.random(classes.tolist(), config.dim, rng, sigma=config.sigma)
    if config.model_kind == "table":
        model: TableModel | LinearModel = TableModel(len(ds.ids), config.dim, rng)
    else:
        if config.in_dim is not None and config.in_dim != ds.dim:
            raise ValueError(
                f"config expects {config.in_dim}-d features, dataset has {ds.dim}-d"
            )
        model = LinearModel(ds.features, config.dim, rng)
    eval_rows = (
        np.array([ds.row_of[i] for i in ds.holdout_ids_ordered], dtype=np.int64)
        if ds.holdout_classes
        else train_rows
    )
    steps_per_epoch = max(1, math.ceil(len(train_rows) / config.batch_size))
    return TrainerState(
        config=config,
        model=model,
        bank=bank,
        optimizer=_make_optimizer(config),
        rng=rng,
        codes=codes,
        class_rows=class_rows,
        labels=labels,
        train_rows=train_rows,
        eval_rows=eval_rows,
        steps_per_epoch=steps_per_epoch,
        total_steps=config.epochs * steps_per_epoch,
    )


def sample_batch(state: TrainerState, ds: RetrievalDataset) -> list[str]:
    """Class-balanced draw: classes without replacement, instances within
    a class without replacement when it is large enough."""
    config = state.config
    chosen = state.rng.choice(
        len(state.class_rows), size=config.classes_per_batch, replace=False
    )
    rows: list[np.ndarray] = []
    for c in chosen:
        pool = state.class_rows[c]
        replace_flag = len(pool) < config.m_per_class
        rows.append(state.rng.choice(pool, size=config.m_per_class, replace=replace_flag))
    return [ds.ids[r] for r in np.concatenate(rows)]


def train_step(state: TrainerState, ds: RetrievalDataset, batch_ids: Sequence[str]) -> LossGradients:
    """One gradient step on the batch; mutates state in place."""
    config = state.config
    rows = np.array([ds.row_of[i] for i in batch_ids], dtype=np.int64)
    lr = state.learning_rate()
    emb = state.model.embed(rows)
    levels = pairwise_levels(state.codes[rows])
    rel = relevance_rows(levels, config.profile, ds.taxonomy.depth)
    out = combined_loss(
        emb, rel, state.labels[rows], state.bank, lam=config.lam, params=config.heaviside
    )
    if not math.isfinite(out.value):
        raise NonFiniteLossError(f"step {state.step}: loss became {out.value}")
    for name, grad in (("embedding", out.d_embedding), ("proxy", out.d_proxies)):
        if not np.all(np.isfinite(grad)):
            raise NonFiniteLossError(f"step {state.step}: the {name} gradient is not finite")
    freeze_model = config.model_kind == "table" and state.in_warmup
    if not freeze_model:
        state.optimizer.update(
            "model", state.model.params, state.model.gradient(rows, out.d_embedding), lr
        )
    if config.lam > 0:
        state.optimizer.update("proxies", state.bank.vectors, out.d_proxies, lr)
        state.bank.renormalize()
    state.step += 1
    return out


def evaluate_state(state: TrainerState, ds: RetrievalDataset) -> MetricsReport:
    """Holdout-style evaluation: fixed alpha=1 relevance, full metric set.
    Each evaluation row queries the remaining rows under cosine scoring."""
    rows, q = state.eval_rows, len(state.eval_rows)
    scores, _, _ = cosine_matrix(state.model.all_embeddings(ds.features)[rows])
    levels = pairwise_levels(state.codes[rows])
    rel = relevance_rows(levels, RelevanceProfile.alpha(1.0), ds.taxonomy.depth)
    ids = [ds.ids[r] for r in rows]
    # ties break by id, and the ids' ranks among themselves sort as the ids do
    arrays = (np.broadcast_to(np.unique(ids, return_inverse=True)[1], (q, q)), scores, rel, levels)
    off = ~np.eye(q, dtype=bool)  # a query is not its own candidate
    return evaluate_rows(
        ids, [(q - 1, range(q))], lambda c: [a[c][off[c]].reshape(len(c), q - 1) for a in arrays],
        state.config.recall_ks, ds.taxonomy.depth,
    )


@dataclass
class TrainResult:
    """Final state, metric history and the last holdout report."""

    config: TrainerConfig
    state: TrainerState
    ids: tuple[str, ...]
    embeddings: np.ndarray
    bank: ProxyBank
    history: list[dict]
    report: MetricsReport
    total_steps: int


def fit(
    ds: RetrievalDataset,
    config: TrainerConfig,
    log: Callable[[str], None] | None = None,
) -> TrainResult:
    """Train on the non-holdout split; returns embeddings for every instance.

    With epochs=0 no step runs and the history holds one evaluation of the
    freshly initialized model.
    """
    state = init_state(ds, config)
    report: MetricsReport | None = None

    def record_eval(loss_avgs: dict | None) -> MetricsReport:
        rep = evaluate_state(state, ds)
        record: dict = {"epoch": state.epoch, "step": state.step, "lr": state.learning_rate()}
        record.update(loss_avgs or {})
        record.update(rep.metric_items())
        state.history.append(record)
        if log is not None:
            log(
                f"epoch {state.epoch}/{config.epochs} "
                + (f"loss {record['loss']:.4f} " if "loss" in record else "")
                + f"h_ap {record['h_ap']:.4f} ap_level_1 {record['ap_level_1']:.4f}"
            )
        return rep

    if config.epochs == 0:
        report = record_eval(None)
    for epoch in range(config.epochs):
        state.epoch = epoch
        loss_sum = rank_sum = cluster_sum = 0.0
        skipped = 0
        for _ in range(state.steps_per_epoch):
            batch = sample_batch(state, ds)
            out = train_step(state, ds, batch)
            loss_sum += out.value
            rank_sum += out.rank_value
            cluster_sum += out.cluster_value
            skipped += out.skipped_queries
        state.epoch = epoch + 1
        if (epoch + 1) % config.eval_every == 0 or epoch + 1 == config.epochs:
            report = record_eval(
                {
                    "loss": loss_sum / state.steps_per_epoch,
                    "rank_loss": rank_sum / state.steps_per_epoch,
                    "cluster_loss": cluster_sum / state.steps_per_epoch,
                    "skipped_queries": skipped,
                }
            )

    assert report is not None
    return TrainResult(
        config=config,
        state=state,
        ids=ds.ids,
        embeddings=state.model.all_embeddings(ds.features),
        bank=state.bank,
        history=state.history,
        report=report,
        total_steps=state.total_steps,
    )


# --- persistence -----------------------------------------------------------------

def history_text(history: list[dict]) -> str:
    """One JSON object per line; identical runs produce identical bytes."""
    return "".join(json.dumps(record) + "\n" for record in history)


def write_result(result: TrainResult, directory: Path) -> None:
    """Write history, final embeddings, proxy/counter sidecar and report."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_text_atomic(directory / HISTORY_FILE, history_text(result.history))
    write_text_atomic(
        directory / EMBEDDINGS_FILE, format_features(result.ids, result.embeddings)
    )
    state = {
        "model": result.config.model_kind,
        "dim": result.config.dim,
        "total_steps": result.total_steps,
        "steps_run": result.state.step,
        "epochs": result.config.epochs,
        "seed": result.config.seed,
        "lambda": result.config.lam,
        "proxies": {
            c: [float(x) for x in v]
            for c, v in zip(result.bank.class_ids, result.bank.vectors)
        },
    }
    write_text_atomic(directory / STATE_FILE, json.dumps(state, indent=2) + "\n")
    write_text_atomic(
        directory / REPORT_FILE,
        json.dumps(result.report.to_json_dict(), indent=2) + "\n",
    )
