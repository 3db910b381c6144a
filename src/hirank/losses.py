"""Smooth training objectives for graded retrieval.

The ranking surrogate replaces the step comparisons inside the graded AP
with two piecewise-smooth profiles chosen so the surrogate upper-bounds
1 - h_ap on tie-free score vectors: comparisons that would raise a
positive's numerator use a profile that never exceeds the true step
(`heaviside_lower`), comparisons that would grow its denominator use one
that never falls below it (`heaviside_upper`). Comparisons between
candidates of equal relevance cannot change the metric, so those stay
exact steps and contribute no gradient.

One kernel, `_surrogate_rows`, evaluates the surrogate for every row of a
batch. It sorts each row by (relevance, score) and evaluates a smooth step
only on the ranges of candidates where it can be nonzero: the upper step
from s_k - 40 tau (below that it is exactly 0 in float64) to the end of
each less relevant group, the lower step on the more relevant block.

Everything returns analytic gradients; there is no autograd anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    NoPositivesError,
    NonFiniteLossError,
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
        # every message starts with the name of the parameter it rejects
        for name in ("gamma", "nu", "tau", "rho", "delta"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if not 0 < self.mu < 1:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu!r}")

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
    value, slope = np.empty_like(t), np.empty_like(t)
    _heaviside_lower_into(t, value, slope, params)
    return value, slope


def _heaviside_lower_into(t, value, slope, params: SmoothHeavisideParams) -> None:
    """heaviside_lower of t written into `value` and `slope`, of t's shape."""
    negative = t < 0
    np.multiply(t, params.nu, out=value)
    value += params.mu
    np.less(value, 1.0, out=slope)
    slope *= params.nu
    np.minimum(value, 1.0, out=value)
    np.copyto(slope, params.gamma, where=negative)
    np.multiply(t, params.gamma, out=value, where=negative)


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
    _heaviside_upper_into(t, value, slope, params)
    return value, slope


def _heaviside_upper_into(t, value, slope, params: SmoothHeavisideParams) -> None:
    """heaviside_upper of t written into `value` and `slope`, of t's shape."""
    # the sigmoid through tanh cannot overflow for any finite t; dividing by
    # 2 tau rounds exactly as halving t / tau does
    np.minimum(t, params.delta, out=value)
    value /= 2.0 * params.tau
    np.tanh(value, out=value)
    value *= 0.5
    value += 0.5
    np.subtract(1.0, value, out=slope)
    slope *= value
    slope /= params.tau
    # past delta the tail rho (t - delta) joins the sigmoid, held in `slope`
    # until that takes the tail's slope rho
    tail = t > params.delta
    np.subtract(t, params.delta, out=slope, where=tail)
    np.multiply(slope, params.rho, out=slope, where=tail)
    np.add(value, slope, out=value, where=tail)
    np.copyto(slope, params.rho, where=tail)
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


# cells per block of sorted rows, and gathered positive x candidate entries
# per chunk of kernel temporaries
_CHUNK = 1 << 15


def _first_at_least(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The first index i in [lo, hi) with values[i] >= target, else hi.

    One binary search per (lo, hi, target) triple, all run together; each
    values[lo:hi] must be sorted ascending.
    """
    last = len(values) - 1
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        below = (lo < hi) & (values[np.minimum(mid, last)] < target)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def _surrogate_rows(scores: np.ndarray, relevance: np.ndarray, params: SmoothHeavisideParams):
    """The surrogate of each (m, n) row, with its (m, n) score gradient.

    Rows must be checked already: non-negative relevance, at least one
    positive, and finite scores, except that a candidate of relevance 0 may
    score -inf: it then adds exact zeros to every term and gets a zero
    gradient. Each row is sorted by (relevance, score), so its relevance
    groups are runs of columns sorted by score, and a positive's equally
    and more relevant candidates are its own group and the columns after it.
    The kernel gathers only the entries where a smooth step can be nonzero:
    for each positive and each less relevant group of its row, the range
    from the first score at or above s_k - 40 tau to the group's end (the
    upper step's window and its linear tail), and the more relevant block
    whole for the lower step. The equal group needs only its count of
    strictly higher scores, which the sort gives. Rows go through in blocks
    of at most `_CHUNK` cells, and a block's positives in row-major chunks
    of at most `_CHUNK` gathered entries (or one positive).
    """
    m, n = scores.shape
    values, d_scores = np.empty(m), np.empty((m, n))
    # one set of buffers for every chunk's gathered entries: temporaries of
    # varying size allocated afresh fragment the heap (train-bigbatch peak
    # RSS rose by up to 4 MB). A chunk gathers at most max(_CHUNK, n - 1)
    # entries, and a call at most m n (n - 1).
    size = min(max(_CHUNK, n), m * n * n)
    floats, ints = np.empty((3, size)), np.empty((2, size), dtype=np.intp)
    step = max(1, _CHUNK // n)
    for start in range(0, m, step):
        rows = slice(start, start + step)
        values[rows] = _surrogate_block(scores[rows], relevance[rows], params, floats, ints, d_scores[rows])
    return values, d_scores


def _surrogate_block(scores, relevance, params: SmoothHeavisideParams, floats, ints, d_scores):
    """_surrogate_rows on one block of rows, with its buffers; writes the
    gradient into `d_scores` and returns the values."""
    m, n = scores.shape
    total = relevance.sum(axis=1)
    order = np.lexsort((scores, relevance), axis=1)
    s = np.take_along_axis(scores, order, axis=1).ravel()
    r = np.take_along_axis(relevance, order, axis=1).ravel()
    # runs of equal relevance (groups) and of equal (relevance, score); a row
    # start opens both
    new_group = np.empty(m * n, dtype=bool)
    new_group[1:] = r[1:] != r[:-1]
    new_group[::n] = True
    group_start = np.flatnonzero(new_group)
    group_end = np.append(group_start[1:], m * n)
    new_group[1:] |= s[1:] != s[:-1]
    tie_start = np.flatnonzero(new_group)
    tie_end = np.append(tie_start[1:], m * n)

    k = np.flatnonzero(r > 0)  # the positives, row by row
    row = k // n
    s_k, r_k, total_k = s[k], r[k], total[row]
    group = np.searchsorted(group_start, k, side="right") - 1
    hi = group_end[group]
    above_equal = hi - tie_end[np.searchsorted(tie_start, k, side="right") - 1]
    low_len = (row + 1) * n - hi  # the more relevant block [hi, row end)

    # one upper range per (positive, less relevant group). float64 tanh is
    # exactly -1 at or below -18.991, so the upper step and its slope are
    # exactly 0 at t <= -37.982 tau; the cut at s_j < s_k - 40 tau leaves a
    # margin of about 2 tau, which no rounding of the bound can cross
    lower = group - np.searchsorted(group_start, row * n)  # less relevant groups
    pair_owner = np.repeat(np.arange(len(k)), lower)
    pair_first = np.cumsum(lower) - lower
    pair_group = np.arange(len(pair_owner)) - np.repeat(pair_first - group + lower, lower)
    pair_end = group_end[pair_group]
    pair_start = _first_at_least(s, group_start[pair_group], pair_end,
                                 (s_k - 40.0 * params.tau)[pair_owner])
    up_len = pair_end - pair_start
    up_before = np.concatenate(([0], np.cumsum(up_len)))

    entries = up_before[pair_first + lower] - up_before[pair_first] + low_len
    ends = np.cumsum(entries)
    t, value, slope = floats
    positions, range_of = ints
    terms = np.empty(len(k))
    d = np.zeros(m * n)
    k0 = 0
    while k0 < len(k):
        k1 = max(k0 + 1, int(np.searchsorted(ends, ends[k0] - entries[k0] + _CHUNK, side="right")))
        chunk, c = slice(k0, k1), k1 - k0
        pairs = slice(pair_first[k0], pair_first[k1 - 1] + lower[k1 - 1])
        # the chunk's non-empty ranges, upper ones first: start, length, owner
        starts = np.concatenate((pair_start[pairs], hi[chunk]))
        lens = np.concatenate((up_len[pairs], low_len[chunk]))
        owner = np.concatenate((pair_owner[pairs] - k0, np.arange(c)))
        kept = np.flatnonzero(lens)
        split = np.searchsorted(kept, pairs.stop - pairs.start)
        starts, lens, owner = starts[kept], lens[kept], owner[kept]
        at = np.cumsum(lens) - lens  # each range's offset among the gathered entries
        width, up = int(lens.sum()), int(lens[:split].sum())
        # each gathered entry's flat position and range, as running sums
        index, ranges = positions[:width], range_of[:width]
        index[:] = 1
        index[at] = starts - np.append(0, starts[:-1] + lens[:-1] - 1)
        np.cumsum(index, out=index)
        ranges[:] = 0
        ranges[at[1:]] = 1
        np.cumsum(ranges, out=ranges)
        tt, v, sl = t[:width], value[:width], slope[:width]
        np.take(s, index, out=tt, mode="clip")
        tt -= np.take(s_k[chunk][owner], ranges, out=v, mode="clip")
        _heaviside_upper_into(tt[:up], v[:up], sl[:up], params)
        _heaviside_lower_into(tt[up:], v[up:], sl[up:], params)

        v_sum = np.add.reduceat(v, at)
        above = np.add.reduceat(tt > 0, at)  # t > 0 lies inside every upper range
        rk, ae = r_k[chunk], above_equal[chunk]
        # exact steps: rel_j for less relevant and rel_k for equal candidates
        # in the numerator (the candidates of a range share one relevance),
        # 1 for equal and more relevant ones in the denominator
        below = np.bincount(owner[:split], above[:split] * r[starts[:split]], minlength=c)
        numer = rk + rk * np.bincount(owner[split:], v_sum[split:], minlength=c) + (below + rk * ae)
        more = np.bincount(owner[split:], above[split:], minlength=c)
        denom = 1.0 + (ae + more) + np.bincount(owner[:split], v_sum[:split], minlength=c)
        terms[chunk] = numer / denom

        # d value / d s_j: numer up_s / (total denom^2) for a less relevant
        # candidate j, -rel_k low_s / (total denom) for a more relevant one;
        # s_k gets the negated sum over its ranges
        up_scale = numer / (total_k[chunk] * denom**2)
        low_scale = -rk / (total_k[chunk] * denom)
        scale = np.concatenate((up_scale[owner[:split]], low_scale[owner[split:]]))
        sl *= np.take(scale, ranges, out=v, mode="clip")
        base, stop = row[k0] * n, (row[k1 - 1] + 1) * n
        index -= base
        d[base:stop] += np.bincount(index, sl, minlength=stop - base)
        d[k[chunk]] -= np.bincount(owner, np.add.reduceat(sl, at), minlength=c)
        k0 = k1

    # each row sums its terms in the caller's column order, as one list would
    by_column = np.argsort(row * n + order.ravel()[k])
    sums = np.add.reduceat(terms[by_column], np.searchsorted(row, np.arange(m)))
    np.put_along_axis(d_scores, order, d.reshape(m, n), axis=1)
    return 1.0 - sums / total


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
        self.vectors /= _row_norms(self.vectors, "proxy vector")


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


def _row_norms(matrix: np.ndarray, what: str) -> np.ndarray:
    """L2 norm of each row, keeping the last axis. A row whose norm is not
    finite (it has diverged) or is zero cannot be normalized."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    if not np.all(np.isfinite(norms)):
        raise NonFiniteLossError(f"{what} norm is not finite")
    if np.any(norms < 1e-12):
        raise ZeroVectorError(f"cannot normalize a zero {what}")
    return norms


def unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L2-normalize each row; returns (normalized, norms)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = _row_norms(matrix, "embedding")
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
