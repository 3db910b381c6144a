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
    NoPositivesError,
    UnknownClassError,
    ZeroVectorError,
)


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
    gradient instead of a saturated one. One tanh, of min(t, delta), serves
    every branch; the lift and the tail are masked updates. At t = -inf both
    outputs are exactly 0.
    """
    t = np.asarray(t, dtype=np.float64)
    value, slope = np.empty_like(t), np.empty_like(t)
    _heaviside_upper_into(t, value, slope, np.empty_like(t), params)
    return value, slope


def _heaviside_upper_into(t, value, slope, sig, params: SmoothHeavisideParams) -> None:
    """heaviside_upper of t written into `value` and `slope`, and the sigmoid
    into `sig`. All four arrays have t's shape."""
    # the sigmoid through tanh cannot overflow for any finite t; dividing by
    # 2 tau rounds exactly as halving t / tau does
    np.minimum(t, params.delta, out=sig)
    sig /= 2.0 * params.tau
    np.tanh(sig, out=sig)
    sig *= 0.5
    sig += 0.5
    np.subtract(1.0, sig, out=slope)
    slope *= sig
    slope /= params.tau
    np.copyto(slope, params.rho, where=t > params.delta)
    np.subtract(t, params.delta, out=value)
    np.maximum(value, 0.0, out=value)
    value *= params.rho
    value += sig
    np.add(value, 0.5, out=value, where=t >= 0)


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
    _check_rows(scores, relevance)
    if relevance.sum() <= 0:
        raise NoPositivesError("no positive candidate in scored list")
    value, d_scores = _surrogate_rows(scores[None], relevance[None], params)
    return LossGradients(value=float(value[0]), d_scores=d_scores[0])


def _check_rows(scores: np.ndarray, relevance: np.ndarray) -> None:
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if np.any(relevance < 0):
        raise ValueError("relevance must be non-negative")


# positive x candidate entries per chunk of kernel temporaries
_CHUNK = 1 << 15


def _run_bounds(differs: np.ndarray, q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end columns of the run holding each position (q[i], p[i]).

    `differs` marks the last column of every run in each row; the last
    column is always marked, so no run crosses a row.
    """
    offset = q * differs.shape[1]
    ends = np.flatnonzero(differs) + 1
    run = np.searchsorted(ends, offset + p, side="right")
    return np.concatenate(([0], ends))[run] - offset, ends[run] - offset


def _surrogate_rows(scores: np.ndarray, relevance: np.ndarray, params: SmoothHeavisideParams):
    """The surrogate of each (m, n) row, with its (m, n) score gradient.

    Rows must be checked already: non-negative relevance, at least one
    positive, and finite scores, except that a candidate of relevance 0 may
    score -inf: it then adds exact zeros to every term and gets a zero
    gradient. Positives go through in row-major chunks of at most `_CHUNK`
    positive x candidate entries, and each chunk sorts the rows it touches
    by (relevance, score). A positive's less relevant, equally relevant and
    more relevant candidates are then the sorted columns [0, lo), [lo, hi)
    and [hi, n). The upper step is evaluated on the first block only, less
    a prefix where it is exactly 0, and the lower step on the last; the
    equal block needs only its count of strictly higher scores, which the
    sort gives. A chunk's blocks are padded to a common width, with -inf
    scores on the less relevant side (the upper step is exactly 0 there)
    and a mask on the more relevant side.
    """
    m, n = scores.shape
    ends = np.cumsum(np.count_nonzero(relevance > 0, axis=1))  # positives up to each row's end
    total = relevance.sum(axis=1)
    sums = np.zeros(m)  # each row's sum of numer / denom over its positives
    d_scores = np.zeros((m, n))
    col = np.arange(n)
    per = max(1, _CHUNK // n)
    # the less relevant block, its step values, slopes and sigmoid: one buffer
    # for every chunk, as blocks of varying width allocated afresh fragment
    # the heap (train-bigbatch peak RSS rose by up to 3 MB on some seeds)
    work = np.empty((4, per * n))
    for start in range(0, ends[-1], per):
        index = np.arange(start, min(start + per, ends[-1]))
        row = np.searchsorted(ends, index, side="right")
        rows = slice(row[0], row[-1] + 1)
        each = np.arange(rows.stop - rows.start)[:, None]
        order = np.lexsort((scores[rows], relevance[rows]), axis=1)
        s, r = scores[rows][each, order], relevance[rows][each, order]
        # sorted by relevance, a row's positives are its last columns
        q, p = row - rows.start, n - ends[row] + index
        differs = np.ones(s.shape, dtype=bool)
        differs[:, :-1] = r[:, 1:] != r[:, :-1]
        lo, hi = _run_bounds(differs, q, p)
        differs[:, :-1] |= s[:, 1:] != s[:, :-1]
        above_equal = hi - _run_bounds(differs, q, p)[1]
        s_k, r_k, total_k = s[q, p], r[q, p], total[row]
        own = q == each  # (rows, chunk): the row each positive queries
        starts = np.searchsorted(q, each[:, 0])  # each row's first positive

        # float64 tanh is exactly -1 below -20, so the upper step is exactly 0
        # at s_j < s_k - 40 tau: the block skips the candidates of relevance 0
        # (a prefix of each row) that lie that far below every positive
        floor = np.minimum.reduceat(s_k, starts) - 40.0 * params.tau
        first = ((s < floor[:, None]) & (r == 0)).sum(axis=1).min()
        width = lo.max()
        t, up_v, up_s, spare = (w[: len(q) * (width - first)].reshape(len(q), -1) for w in work)
        np.subtract(s[q][:, first:width], s_k[:, None], out=t)
        t[col[first:width] >= lo[:, None]] = -np.inf
        np.greater(t, 0, out=spare)
        below = (spare @ r[:, first:width].T)[own.T]  # sum of rel_j over [s_j > s_k]
        _heaviside_upper_into(t, up_v, up_s, spare, params)

        begin = hi.min()
        t = s[q, begin:] - s_k[:, None]
        more = col[begin:] >= hi[:, None]
        low_v, low_s = heaviside_lower(t, params)
        low_s *= more
        # exact steps: rel_j for less relevant and rel_k for equal candidates
        # in the numerator, 1 for equal and more relevant ones in the denominator
        numer = r_k + r_k * (low_v * more).sum(axis=1) + (below + r_k * above_equal)
        denom = 1.0 + (above_equal + ((t > 0) & more).sum(axis=1)) + up_v.sum(axis=1)
        # each row sums its terms in the caller's column order, as one list would
        by_column = np.argsort(q * n + order[q, p])
        sums[rows] += np.add.reduceat((numer / denom)[by_column], starts)

        # d value / d s_j: -rel_k low_s / (total denom) for a more relevant
        # candidate j, numer up_s / (total denom^2) for a less relevant one
        up_scale = numer / (total_k * denom**2)
        low_scale = -r_k / (total_k * denom)
        d = np.zeros(s.shape)
        d[:, first:width] = (own * up_scale) @ up_s
        d[:, begin:] += (own * low_scale) @ low_s
        d[q, p] -= up_scale * up_s.sum(axis=1) + low_scale * low_s.sum(axis=1)
        d_scores[rows][each, order] += d
    return 1.0 - sums / total, d_scores


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
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError("class ids must be unique")

    @classmethod
    def random(
        cls, class_ids: Sequence[str], dim: int, rng: np.random.Generator, sigma: float = 0.05
    ) -> "ProxyBank":
        vectors = rng.standard_normal((len(class_ids), dim))
        bank = cls(tuple(class_ids), vectors, sigma)
        bank.renormalize()
        return bank

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
    # a query's own column becomes a candidate scored -inf with relevance 0,
    # which adds exact zeros to every term and gets a zero gradient
    rel = np.where(np.eye(b, dtype=bool), 0.0, relevance)
    ranked = rel.sum(axis=1) > 0
    included = int(ranked.sum())
    rows = slice(None) if included == b else ranked  # a view unless a query is skipped
    rank_value, d_ranked = 0.0, 0.0
    if included:
        _check_rows(scores[rows], rel[rows])
        np.fill_diagonal(scores, -np.inf)
        values, d_ranked = _surrogate_rows(scores[rows], rel[rows], params)
        rank_value = float(values.sum()) / included
        d_ranked /= included
    d_scores = np.zeros_like(scores)
    d_scores[rows] = d_ranked

    d_unit = (1.0 - lam) * (d_scores + d_scores.T) @ unit + lam * cluster.d_embedding
    return LossGradients(
        value=(1.0 - lam) * rank_value + lam * cluster.value,
        rank_value=rank_value,
        cluster_value=cluster.value,
        d_embedding=unit_rows_backprop(unit, norms, d_unit),
        d_proxies=lam * cluster.d_proxies,
        skipped_queries=b - included,
    )
