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
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
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


_UNIT = ("must lie in [0, 1)", lambda v: 0 <= v < 1)
_POSITIVE = ("must be positive and finite", lambda v: 0 < v < math.inf)
_AT_LEAST = {low: (f"must be >= {low}", lambda v, low=low: v >= low) for low in (0, 1, 2)}


def _one_of(*names: str) -> tuple:
    return ("must be one of " + ", ".join(map(repr, names)), lambda v: v in names)


@dataclass(frozen=True)
class ConfigKey:
    """A config key: its dotted JSON name, its conversion (None keeps the value),
    its rule ("must ...", test) and the JSON type its value must have, if any."""

    name: str
    convert: Callable | None = float
    rule: tuple | None = None
    json_type: type | None = None

    def read(self, value):
        """`value` converted, or a ValueError naming the key."""
        if self.json_type is not None and not isinstance(value, self.json_type):
            article = "an object" if self.json_type is dict else "a list"
            raise ValueError(f"{self.name} must be {article}, got {type(value).__name__}")
        try:
            return value if self.convert is None else self.convert(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ValueError(f"{self.name}: {exc}") from None

    def check(self, value) -> None:
        if self.rule is not None and not self.rule[1](value):
            raise ValueError(f"{self.name} {self.rule[0]}, got {value!r}")


def _key(name: str, default, convert: Callable | None = float, **kw):
    return field(default=default, metadata={"key": ConfigKey(name, convert, **kw)})


@dataclass(frozen=True)
class TrainerConfig:
    """Everything a training run depends on. Each plain field declares its
    config key; `profile` and `heaviside` are built from `_CONFIG_KEYS`."""

    model_kind: str = _key("model.kind", "linear", None, rule=_one_of("table", "linear"))
    dim: int = _key("model.dim", 8, int, rule=_AT_LEAST[2])
    in_dim: int | None = _key("model.in_dim", None, lambda v: None if v is None else int(v))
    optimizer_kind: str = _key("optimizer.kind", "adam", None, rule=_one_of("sgd", "adam"))
    momentum: float = _key("optimizer.momentum", 0.0, rule=_UNIT)
    beta1: float = _key("optimizer.beta1", 0.9, rule=_UNIT)
    beta2: float = _key("optimizer.beta2", 0.999, rule=_UNIT)
    eps: float = _key("optimizer.eps", 1e-8, rule=_POSITIVE)
    lr0: float = _key("lr0", 0.01, rule=_POSITIVE)
    epochs: int = _key("epochs", 20, int, rule=_AT_LEAST[0])
    batch_size: int = _key("batch_size", 64, int, rule=_AT_LEAST[2])
    m_per_class: int = _key("m_per_class", 4, int, rule=_AT_LEAST[1])
    warmup_epochs: int = _key("warmup_epochs", 0, int, rule=_AT_LEAST[0])
    seed: int = _key("seed", 0, int, rule=_AT_LEAST[0])
    lam: float = _key("objective.lambda", 0.1, rule=("must lie in [0, 1]", lambda v: 0 <= v <= 1))
    sigma: float = _key("objective.sigma", 0.05, rule=_POSITIVE)
    profile: RelevanceProfile = field(default_factory=RelevanceProfile.alpha)
    heaviside: SmoothHeavisideParams = field(default_factory=SmoothHeavisideParams)
    eval_every: int = _key("eval_every", 1, int, rule=_AT_LEAST[1])
    recall_ks: tuple[int, ...] = _key(
        "recall_ks", (1, 4), lambda ks: tuple(int(k) for k in ks), json_type=list,
        rule=("must hold cutoffs >= 1", lambda ks: all(k >= 1 for k in ks)),
    )

    def __post_init__(self):
        for name, key in _FIELD_KEYS.items():
            key.check(getattr(self, name))
        if self.batch_size % self.m_per_class != 0:
            raise ValueError("batch_size must be divisible by m_per_class")
        if self.classes_per_batch < 2:
            raise ValueError("a batch must cover at least 2 classes")

    @property
    def classes_per_batch(self) -> int:
        return self.batch_size // self.m_per_class


_FIELD_KEYS = {f.name: f.metadata["key"] for f in fields(TrainerConfig) if "key" in f.metadata}
# every config key by its dotted name
_CONFIG_KEYS = {key.name: key for key in (
    *_FIELD_KEYS.values(),
    ConfigKey(
        "objective.profile.kind", None, _one_of("alpha", "weighted", "explicit", "fine_only")
    ),
    ConfigKey("objective.profile.alpha"),
    ConfigKey("objective.profile.weights", lambda ws: tuple(map(float, ws)), json_type=list),
    ConfigKey("objective.profile.table", lambda t: {int(k): float(v) for k, v in t.items()},
              json_type=dict),
    *(ConfigKey(f"objective.heaviside.{f.name}") for f in fields(SmoothHeavisideParams)),
)}


def _config_values(value, name: str = "config") -> dict:
    """The converted value of every key in config object `name` (the document
    is "config"), by dotted name; an undeclared key raises a ValueError."""
    values = {}
    for key, v in ConfigKey(name, None, json_type=dict).read(value).items():
        dotted = key if name == "config" else f"{name}.{key}"
        # a key holding a dot is unknown, not a path to a nested key
        if "." in key or not any(k == dotted or k.startswith(dotted + ".") for k in _CONFIG_KEYS):
            raise ValueError(f"unknown key {key!r} in {name}")
        if dotted in _CONFIG_KEYS:
            values[dotted] = _CONFIG_KEYS[dotted].read(v)
        else:
            values.update(_config_values(v, dotted))
    return values


def _build(name: str, make: Callable, *args, **kwargs):
    """`make(*args, **kwargs)`; its ValueError, which starts with a key of
    config object `name`, is raised again naming that key in full."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{name}.{exc}") from None


def _profile(spec: dict, depth: int) -> RelevanceProfile:
    kind = spec.get("kind", "alpha")
    _CONFIG_KEYS["objective.profile.kind"].check(kind)
    if kind == "fine_only":
        return RelevanceProfile.fine_only(depth)
    make, arg = {
        "alpha": (RelevanceProfile.alpha, "alpha"),
        "weighted": (RelevanceProfile.weighted_ap, "weights"),
        "explicit": (RelevanceProfile.explicit, "table"),
    }[kind]
    if kind != "alpha" and arg not in spec:
        raise ValueError(f"missing key {arg!r} in objective.profile")
    args = [spec[arg]] if arg in spec else []  # alpha left out keeps its default
    profile = _build("objective.profile", make, *args)
    profile.level_table(np.zeros(depth + 1), skip_empty=True)  # checks the weight count
    return profile


def config_from_dict(raw: dict, depth: int, in_dim: int | None = None) -> TrainerConfig:
    """Build a TrainerConfig from a plain JSON-style dict; every error is a
    ValueError naming its key. `depth` resolves level-dependent profiles and
    must match a weighted profile's weight count. `in_dim`, the dataset's
    feature width, fills in the linear model's input width or must equal it.
    """
    given = _config_values(raw)

    def inside(obj: str) -> dict:
        return {name[len(obj) + 1:]: v for name, v in given.items() if name.startswith(obj + ".")}

    values = {f: given[key.name] for f, key in _FIELD_KEYS.items() if key.name in given}
    values["profile"] = _profile(inside("objective.profile"), depth)
    values["heaviside"] = _build("objective.heaviside", SmoothHeavisideParams,
                                 **inside("objective.heaviside"))
    if values.get("in_dim") is None:
        values["in_dim"] = in_dim
    config = TrainerConfig(**values)
    if config.model_kind == "linear" and in_dim is not None and config.in_dim != in_dim:
        raise ValueError(f"model.in_dim must equal the feature width {in_dim}, got {config.in_dim}")
    return config


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


@contextmanager
def _diverged(where: str):
    """Run a training step or evaluation: a NonFiniteLossError raised in it
    names `where`. numpy's overflow warnings are off, because parameters that
    overflow end in a loss, gradient or row norm that is checked."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except NonFiniteLossError as exc:
        raise NonFiniteLossError(f"{where}: {exc}") from None


def train_step(state: TrainerState, ds: RetrievalDataset, batch_ids: Sequence[str]) -> LossGradients:
    """One gradient step on the batch; mutates state in place.

    A loss, gradient or row norm that is not finite raises NonFiniteLossError
    naming the step.
    """
    config = state.config
    rows = np.array([ds.row_of[i] for i in batch_ids], dtype=np.int64)
    lr = state.learning_rate()
    with _diverged(f"step {state.step}"):
        emb = state.model.embed(rows)
        levels = pairwise_levels(state.codes[rows])
        rel = relevance_rows(levels, config.profile, ds.taxonomy.depth)
        out = combined_loss(
            emb, rel, state.labels[rows], state.bank, lam=config.lam, params=config.heaviside
        )
        if not math.isfinite(out.value):
            raise NonFiniteLossError(f"loss became {out.value}")
        for name, grad in (("embedding", out.d_embedding), ("proxy", out.d_proxies)):
            if not np.all(np.isfinite(grad)):
                raise NonFiniteLossError(f"the {name} gradient is not finite")
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
        with _diverged(f"evaluation at step {state.step}"):
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
