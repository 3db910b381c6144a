"""Smooth training objectives for graded retrieval.

The ranking surrogate replaces the step comparisons inside the graded AP
with two piecewise-smooth profiles chosen so the surrogate upper-bounds
1 - h_ap on tie-free score vectors: comparisons that would raise a
positive's numerator use a profile that never exceeds the true step
(`heaviside_lower`), comparisons that would grow its denominator use one
that never falls below it (`heaviside_upper`). Comparisons between
candidates of equal relevance cannot change the metric, so those stay
exact steps and contribute no gradient.

Everything returns analytic gradients; there is no autograd anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    NoPositivesError,
    UnknownClassError,
    ZeroVectorError,
)


def _sigmoid(t):
    """Logistic sigmoid through tanh, which cannot overflow for any finite t."""
    return 0.5 + 0.5 * np.tanh(0.5 * t)


@dataclass(frozen=True)
class SmoothHeavisideParams:
    """Shape parameters for the two smoothed step profiles.

    Lower profile: slope `gamma` on t < 0, then min(nu*t + mu, 1).
    Upper profile: sigmoid of temperature `tau`, shifted by +1/2 at t >= 0,
    switching to slope `rho` past the margin `delta`.
    """

    gamma: float = 10.0
    nu: float = 25.0
    mu: float = 0.5
    tau: float = 0.01
    rho: float = 100.0
    delta: float = 0.05

    def __post_init__(self):
        for name in ("gamma", "nu", "tau", "rho", "delta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.mu < 1:
            raise ValueError("mu must lie in (0, 1)")

    def kinks(self) -> tuple[float, ...]:
        """Score differences where either profile changes branch."""
        return (0.0, (1.0 - self.mu) / self.nu, self.delta)


def heaviside_lower(t, params: SmoothHeavisideParams = SmoothHeavisideParams()):
    """Smoothed step that stays at or below the exact step away from t = 0.

    Returns (value, slope), vectorized over t. Negative differences get a
    linear penalty gamma*t; non-negative ones ramp with slope nu from mu and
    saturate at 1 (zero slope from the saturation point on).
    """
    t = np.asarray(t, dtype=np.float64)
    ramp = params.nu * t + params.mu
    value = np.where(t < 0, params.gamma * t, np.minimum(ramp, 1.0))
    slope = np.where(t < 0, params.gamma, np.where(ramp < 1.0, params.nu, 0.0))
    return value, slope


def heaviside_upper(t, params: SmoothHeavisideParams = SmoothHeavisideParams()):
    """Smoothed step that stays at or above the exact step everywhere.

    Returns (value, slope), vectorized over t. A sigmoid of temperature tau,
    lifted by 1/2 at t >= 0 so violations keep a visible value, and replaced
    by a slope-rho linear tail past delta so large violations keep a large
    gradient instead of a saturated one.
    """
    t = np.asarray(t, dtype=np.float64)
    sig = _sigmoid(t / params.tau)
    dsig = sig * (1.0 - sig) / params.tau
    tail = params.rho * (t - params.delta) + _sigmoid(params.delta / params.tau) + 0.5
    value = np.where(t < 0, sig, np.where(t <= params.delta, sig + 0.5, tail))
    slope = np.where(t <= params.delta, dsig, params.rho)
    return value, slope


@dataclass
class LossGradients:
    """Value plus whichever analytic gradients the loss produces."""

    value: float
    d_scores: np.ndarray | None = None
    d_embedding: np.ndarray | None = None
    d_proxies: np.ndarray | None = None
    skipped_queries: int = 0
    rank_value: float = 0.0
    cluster_value: float = 0.0


def hap_surrogate(
    ranking,
    relevance=None,
    params: SmoothHeavisideParams = SmoothHeavisideParams(),
) -> LossGradients:
    """Smooth upper bound on 1 - h_ap for one query, with its score gradient.

    Accepts a ScoredRanking, or a raw scores array plus a relevance array.
    For each positive k the graded rank fraction is rebuilt from four parts:
    comparisons against strictly more relevant candidates (numerator,
    smoothed low), against strictly less relevant ones (denominator,
    smoothed high), and against equally relevant ones (both, exact steps:
    reordering inside an equal-relevance group never changes the metric, so
    these terms are constants of the ranking and carry no gradient).
    """
    if relevance is None:
        scores = np.asarray(ranking.scores, dtype=np.float64)
        relevance = np.asarray(ranking.relevance, dtype=np.float64)
    else:
        scores = np.asarray(ranking, dtype=np.float64)
        relevance = np.asarray(relevance, dtype=np.float64)
    if scores.shape != relevance.shape or scores.ndim != 1:
        raise ValueError("scores and relevance must be 1-d arrays of equal length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if np.any(relevance < 0):
        raise ValueError("relevance must be non-negative")
    total = relevance.sum()
    if total <= 0:
        raise NoPositivesError("no positive candidate in scored list")

    pos = np.flatnonzero(relevance > 0)
    rel_pos = relevance[pos]  # (P,)
    diff = scores[None, :] - scores[pos, None]  # (P, n): s_j - s_k
    low_v, low_s = heaviside_lower(diff, params)
    up_v, up_s = heaviside_upper(diff, params)
    step = (diff > 0).astype(np.float64)

    rel_j = relevance[None, :]
    rel_k = rel_pos[:, None]
    more = rel_j > rel_k
    less = rel_j < rel_k
    # the exact-step terms need no self or zero-relevance mask: the self
    # pair has step 0, a negative adds rel_j = 0, and ~less implies rel_j > 0
    numer = rel_pos + rel_pos * (low_v * more).sum(axis=1) + (rel_j * step * ~more).sum(axis=1)
    denom = 1.0 + (step * ~less).sum(axis=1) + (up_v * less).sum(axis=1)
    value = 1.0 - float((numer / denom).sum() / total)

    # d(value)/d(s_j) for the k-th positive's term; s_k gets the negated sum.
    d_numer = rel_k * low_s * more
    d_denom = up_s * less
    pair = -(d_numer * denom[:, None] - numer[:, None] * d_denom) / (
        total * denom[:, None] ** 2
    )
    d_scores = pair.sum(axis=0)
    d_scores[pos] -= pair.sum(axis=1)
    return LossGradients(value=value, d_scores=d_scores)


@dataclass
class ProxyBank:
    """One learnable unit vector per class, plus the softmax temperature."""

    class_ids: tuple[str, ...]
    vectors: np.ndarray
    sigma: float = 0.05

    def __post_init__(self):
        self.class_ids = tuple(self.class_ids)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.shape[0] != len(self.class_ids):
            raise ValueError("one vector per class id required")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        self._index = {c: i for i, c in enumerate(self.class_ids)}
        if len(self._index) != len(self.class_ids):
            raise ValueError("class ids must be unique")

    @classmethod
    def random(
        cls, class_ids: Sequence[str], dim: int, rng: np.random.Generator, sigma: float = 0.05
    ) -> "ProxyBank":
        vectors = rng.standard_normal((len(class_ids), dim))
        bank = cls(tuple(class_ids), vectors, sigma)
        bank.renormalize()
        return bank

    def index(self, class_id: str) -> int:
        try:
            return self._index[class_id]
        except KeyError:
            raise UnknownClassError(class_id) from None

    def renormalize(self) -> None:
        norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
        if np.any(norms < 1e-12):
            raise ZeroVectorError("cannot normalize a zero proxy vector")
        self.vectors /= norms


def clustering_loss(embeddings: np.ndarray, labels: np.ndarray, bank: ProxyBank) -> LossGradients:
    """Mean softmax cross-entropy of embedding rows against class proxies.

    `embeddings` holds (..., dim) rows and `labels` the (...) proxy indices
    of their classes; one (dim,) row with an int label is a batch of one.
    Logits are dot products with each proxy over the temperature sigma. The
    rows are used as given; callers that want cosine logits normalize them
    first and push the returned gradient back through that normalization.
    Both gradients are those of the mean, d_embedding in the input's shape.
    """
    v = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != v.shape[:-1]:
        raise ValueError(f"labels must have shape {v.shape[:-1]}, got {labels.shape}")
    n_classes = len(bank.class_ids)
    if labels.dtype.kind not in "iu" or np.any((labels < 0) | (labels >= n_classes)):
        raise UnknownClassError(f"class labels must be proxy indices in [0, {n_classes})")
    rows = v.reshape(-1, v.shape[-1])
    y = labels.reshape(-1)
    b = len(y)
    logits = rows @ bank.vectors.T / bank.sigma
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    total = exp.sum(axis=1)
    value = float(np.mean(np.log(total) - logits[np.arange(b), y]))
    # the mean's gradient on the logits times sigma: (softmax - one-hot) / b
    err = exp / total[:, None]
    err[np.arange(b), y] -= 1.0
    err /= b * bank.sigma
    return LossGradients(
        value=value,
        d_embedding=(err @ bank.vectors).reshape(v.shape),
        d_proxies=err.T @ rows,
    )


def unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L2-normalize each row; returns (normalized, norms)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    if np.any(norms < 1e-12):
        raise ZeroVectorError("cannot normalize a zero embedding")
    return matrix / norms, norms


def unit_rows_backprop(
    unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray
) -> np.ndarray:
    """Push a gradient w.r.t. normalized rows back to the raw rows."""
    inner = (d_unit * unit).sum(axis=-1, keepdims=True)
    return (d_unit - inner * unit) / norms


def cosine_matrix(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All-pairs cosine scores; returns (scores, unit_rows, norms)."""
    unit, norms = unit_rows(embeddings)
    return unit @ unit.T, unit, norms


def cosine_scores(embeddings: np.ndarray, query_index: int):
    """Cosine of one row against every other row, with a backprop closure.

    Returns (scores, grad_op): scores[i] covers the candidates in row order
    with the query row skipped; grad_op maps d_scores back to a gradient on
    the raw (unnormalized) embedding matrix.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    b = embeddings.shape[0]
    if not 0 <= query_index < b:
        raise IndexOutOfRangeError(query_index)
    unit, norms = unit_rows(embeddings)
    others = np.arange(b) != query_index
    scores = unit[others] @ unit[query_index]

    def grad_op(d_scores: np.ndarray) -> np.ndarray:
        d_scores = np.asarray(d_scores, dtype=np.float64)
        d_unit = np.zeros_like(unit)
        d_unit[others] = np.outer(d_scores, unit[query_index])
        d_unit[query_index] = d_scores @ unit[others]
        return unit_rows_backprop(unit, norms, d_unit)

    return scores, grad_op


def combined_loss(
    embeddings: np.ndarray,
    relevance: np.ndarray,
    labels: np.ndarray,
    bank: ProxyBank,
    lam: float = 0.1,
    params: SmoothHeavisideParams = SmoothHeavisideParams(),
) -> LossGradients:
    """(1 - lam) * ranking surrogate + lam * proxy clustering, over a batch.

    Every batch element queries the remaining ones under cosine scoring;
    `relevance[q, j]` is candidate j's relevance for query q (the diagonal is
    ignored), and `labels[i]` is row i's proxy index in the bank. Queries
    whose in-batch relevance is all zero are skipped and counted. The
    clustering term averages over all elements regardless.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    relevance = np.asarray(relevance, dtype=np.float64)
    b = embeddings.shape[0]
    if relevance.shape != (b, b):
        raise ValueError(f"relevance must be ({b}, {b}), got {relevance.shape}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")

    scores, unit, norms = cosine_matrix(embeddings)
    cluster = clustering_loss(unit, labels, bank)
    d_scores = np.zeros_like(scores)
    rank_total = 0.0
    included = 0
    skipped = 0
    others = ~np.eye(b, dtype=bool)
    for q in range(b):
        rel = relevance[q, others[q]]
        if rel.sum() <= 0:
            skipped += 1
            continue
        part = hap_surrogate(scores[q, others[q]], rel, params)
        rank_total += part.value
        included += 1
        d_scores[q, others[q]] += part.d_scores
    rank_value = rank_total / included if included else 0.0
    if included:
        d_scores /= included

    d_unit = (1.0 - lam) * (d_scores + d_scores.T) @ unit + lam * cluster.d_embedding
    return LossGradients(
        value=(1.0 - lam) * rank_value + lam * cluster.value,
        rank_value=rank_value,
        cluster_value=cluster.value,
        d_embedding=unit_rows_backprop(unit, norms, d_unit),
        d_proxies=lam * cluster.d_proxies,
        skipped_queries=skipped,
    )
