"""Exact evaluation of graded ranking metrics.

All metrics operate on a ScoredRanking: one query's candidates with cosine
(or any) scores, a per-candidate relevance value and the common-ancestor
level it derives from. Rank comparisons use strict score inequality, so tied
scores produce no inversion in either direction; operations that need a
concrete list order (cutoff metrics, set intersections) sort by descending
score and break ties by ascending candidate id.

Every kernel reads equal-length lists sorted once into list order (see
`_sorted_rows`), so a query costs O(n log n) time. The single-list functions
pass one row; `evaluate_rows`, behind `evaluate_dataset` and the trainer's
holdout eval, passes chunks of at most `_CHUNK` entries at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    AllQueriesEmptyError,
    DuplicateInstanceError,
    EmptyInputError,
    IndexOutOfRangeError,
    MalformedRecordError,
    NegativeQueryError,
    NoPositivesError,
)
from .taxonomy import RelevancePartition, records

# rows x candidates per evaluated chunk: it bounds every kernel's temporaries
_CHUNK = 8192


@dataclass(frozen=True)
class ScoredRanking:
    """One query's candidates with scores, relevance values and levels."""

    query_id: str
    candidate_ids: tuple[str, ...]
    scores: np.ndarray
    relevance: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        n = len(self.candidate_ids)
        if n < 1:
            raise ValueError("a ranking needs at least one candidate")
        for name in ("scores", "relevance", "levels"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
            object.__setattr__(self, name, arr)
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")
        if np.any(self.relevance < 0):
            raise ValueError("relevance must be non-negative")
        if np.any((self.relevance == 0) != (self.levels == 0)):
            raise ValueError("relevance must be 0 exactly on level-0 candidates")

    @classmethod
    def from_partition(
        cls, part: RelevancePartition, scores: Sequence[float]
    ) -> "ScoredRanking":
        if part.relevance is None:
            raise ValueError("partition has no relevance assigned")
        return cls(
            query_id=part.query_id,
            candidate_ids=part.candidate_ids,
            scores=np.asarray(scores, dtype=np.float64),
            relevance=np.asarray(part.relevance, dtype=np.float64),
            levels=np.asarray(part.levels, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.candidate_ids)

    @property
    def positive_mask(self) -> np.ndarray:
        return self.levels > 0

    def sorted_order(self) -> list[int]:
        """Candidate indices by descending score, ties by ascending id."""
        return _rows_of(self).order[0].tolist()


class _Rows(NamedTuple):
    """(rows, n) arrays of equal-length lists in list order."""

    order: np.ndarray  # candidate indices
    relevance: np.ndarray
    levels: np.ndarray
    ideal: np.ndarray  # the levels in non-increasing order
    above: np.ndarray  # how many candidates score strictly higher


def _sorted_rows(ids, scores, relevance, levels) -> _Rows:
    order = np.lexsort((ids, -scores), axis=1)
    ordered = np.take_along_axis(scores, order, axis=1)
    # the entries before an entry's tie group all score strictly higher, and
    # a group starts at each column where the sorted score changes
    changed = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=changed[:, 1:])
    above = np.maximum.accumulate(np.where(changed, np.arange(ordered.shape[1]), 0), axis=1)
    levels = np.take_along_axis(levels, order, axis=1)
    relevance = np.take_along_axis(relevance, order, axis=1)
    return _Rows(order, relevance, levels, np.sort(levels, axis=1)[:, ::-1], above)


def _rows_of(r: ScoredRanking) -> _Rows:
    ids = np.asarray(r.candidate_ids)[None]
    return _sorted_rows(ids, r.scores[None], r.relevance[None], r.levels[None])


def _h_ap_rows(rows: _Rows, rel: np.ndarray) -> np.ndarray:
    """Each row's h_ap under the relevance `rel`, given in list order."""
    hranks = rel.copy()
    value = np.zeros((len(rel), 1))
    seen = np.zeros((rel.shape[0], rel.shape[1] + 1), dtype=np.int64)
    while True:
        # each row's next distinct positive relevance value, inf past its last
        value = np.where(rel > value, rel, np.inf).min(axis=1, keepdims=True)
        if np.all(np.isinf(value)):
            break
        # how many entries carrying `value` score strictly higher than each
        np.cumsum(rel == value, axis=1, out=seen[:, 1:])
        hranks += np.minimum(rel, value) * np.take_along_axis(seen, rows.above, axis=1)
    # a negative's hrank is 0, so whole rows sum only the positives' terms
    return (hranks / (1.0 + rows.above)).sum(axis=1) / rel.sum(axis=1)


def _ap_level_rows(rows: _Rows, level: int) -> np.ndarray:
    """Binary AP: h_ap under relevance 1 at `level` or deeper, nan for a row
    without such a candidate."""
    with np.errstate(invalid="ignore"):
        return _h_ap_rows(rows, (rows.levels >= level) * 1.0)


def _asi_rows(rows: _Rows) -> np.ndarray:
    n_pos = (rows.levels > 0).sum(axis=1)
    common = np.zeros(rows.levels.shape)
    for level in range(1, int(rows.ideal[:, 0].max()) + 1):
        predicted, ideal = (np.cumsum(a == level, axis=1) for a in (rows.levels, rows.ideal))
        common += np.minimum(predicted, ideal)
    top = np.arange(1, common.shape[1] + 1)
    return np.where(top <= n_pos[:, None], common / top, 0.0).sum(axis=1) / n_pos


def _ndcg_rows(rows: _Rows) -> np.ndarray:
    dcg = ((2.0 ** rows.levels - 1.0) / np.log2(2.0 + rows.above)).sum(axis=1)
    positions = np.arange(1, rows.ideal.shape[1] + 1)
    return dcg / ((2.0 ** rows.ideal - 1.0) / np.log2(1.0 + positions)).sum(axis=1)


def _recall_rows(rows: _Rows, k: int, level: int) -> np.ndarray:
    return (rows.levels[:, :k] >= level).any(axis=1)


def _require_positives(r: ScoredRanking) -> None:
    if not np.any(r.positive_mask):
        raise NoPositivesError(f"query {r.query_id!r} has no positive candidate")


def rank_of(r: ScoredRanking, k: int) -> float:
    """1 + the number of candidates scored strictly above k."""
    if not 0 <= k < len(r):
        raise IndexOutOfRangeError(k)
    return 1.0 + float((r.scores > r.scores[k]).sum())


def h_rank(r: ScoredRanking, k: int) -> float:
    """Graded rank of positive candidate k.

    rel(k) plus, for every positive scored above k, the relevance the two
    candidates can agree on: min(rel(k), rel(j)).
    """
    if not 0 <= k < len(r):
        raise IndexOutOfRangeError(k)
    if r.levels[k] == 0:
        raise NegativeQueryError(f"candidate {r.candidate_ids[k]!r} is a negative")
    above = (r.scores > r.scores[k]) & r.positive_mask
    return float(r.relevance[k] + np.minimum(r.relevance[k], r.relevance[above]).sum())


def h_ap(r: ScoredRanking) -> float:
    """Graded average precision: sum of h_rank/rank over positives, normalized.

    The normalizer is the total positive relevance, so a ranking sorted by
    non-increasing relevance scores exactly 1. With binary relevance this is
    the classic average precision.

    In list order, the positives strictly above positive k are the first
    `above(k)` positives, so h_rank(k) is rel(k) plus, for each distinct
    relevance value v, min(rel(k), v) times how many of those carry v. A
    profile gives at most one value per level; arbitrary relevance with U
    distinct values costs O(U * n).
    """
    _require_positives(r)
    rows = _rows_of(r)
    return float(_h_ap_rows(rows, rows.relevance)[0])


def ap_level(r: ScoredRanking, level: int) -> float:
    """Binary average precision treating levels >= `level` as positive."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if not np.any(r.levels >= level):
        raise NoPositivesError(f"query {r.query_id!r} has no candidate at level >= {level}")
    return float(_ap_level_rows(_rows_of(r), level)[0])


def h_pr_at_k(r: ScoredRanking, k: int) -> tuple[float, float]:
    """Graded recall and precision at list position k (1-based).

    Recall@k is the relevance mass of the first k items over the total mass;
    precision@k compares each of the first k items against the k-th via
    min(rel(j), rel(k)), normalized by k*rel(k). At a negative k-th item the
    precision is reported as 0.
    """
    _require_positives(r)
    if not 1 <= k <= len(r):
        raise IndexOutOfRangeError(k)
    rel = r.relevance[r.sorted_order()]
    recall = float(rel[:k].sum() / rel.sum())
    if rel[k - 1] == 0:
        return recall, 0.0
    precision = float(np.minimum(rel[:k], rel[k - 1]).sum() / (k * rel[k - 1]))
    return recall, precision


def h_ap_pr_oracle(r: ScoredRanking) -> float:
    """Graded AP as the area under the graded precision-recall curve.

    Sums (recall@k - recall@(k-1)) * precision@k over list positions; only
    positive positions contribute a recall increment. Serves as an
    independent cross-check of h_ap.
    """
    _require_positives(r)
    rel = r.relevance[r.sorted_order()]
    total = rel.sum()
    area = 0.0
    for k in range(1, len(rel) + 1):
        if rel[k - 1] == 0:
            continue
        increment = rel[k - 1] / total
        precision = np.minimum(rel[:k], rel[k - 1]).sum() / (k * rel[k - 1])
        area += increment * precision
    return float(area)


def asi(r: ScoredRanking) -> float:
    """Average set intersection between predicted and ideal rankings.

    At each n up to the number of positives, compares the multiset of
    relevance levels of the top-n predicted items against the ideal top-n
    (candidates sorted by non-increasing level), so the value does not depend
    on arbitrary ordering inside ties. The intersection at n is the sum over
    levels of the smaller of the two level counts in the top n.
    """
    _require_positives(r)
    return float(_asi_rows(_rows_of(r))[0])


def ndcg(r: ScoredRanking) -> float:
    """Discounted cumulative gain with gains 2**level - 1, ideal-normalized."""
    _require_positives(r)
    return float(_ndcg_rows(_rows_of(r))[0])


def recall_at_k(r: ScoredRanking, k: int, level: int) -> int:
    """1 if any of the top-k scored candidates sits at `level` or deeper."""
    if not np.any(r.levels >= level):
        raise NoPositivesError(f"query {r.query_id!r} has no candidate at level >= {level}")
    if k < 1:
        raise IndexOutOfRangeError(k)
    return int(_recall_rows(_rows_of(r), k, level)[0])


@dataclass
class MetricsReport:
    """Mean metrics over the queries of a dataset, plus per-query values."""

    queries: int
    excluded: int
    h_ap: float
    ap_level: dict[int, float]
    asi: float
    ndcg: float
    recall_at_k: dict[int, float]
    per_query: dict[str, dict[str, float]] = field(default_factory=dict)

    def metric_items(self) -> list[tuple[str, float]]:
        """The mean metrics in report order: h_ap, each ap_level_l, asi, ndcg,
        each recall_at_k."""
        return [
            ("h_ap", self.h_ap),
            *((f"ap_level_{l}", v) for l, v in sorted(self.ap_level.items())),
            ("asi", self.asi),
            ("ndcg", self.ndcg),
            *((f"recall_at_{k}", v) for k, v in sorted(self.recall_at_k.items())),
        ]

    def to_json_dict(self) -> dict:
        """The metric items, with the recall cutoffs nested under recall_at_k."""
        out: dict = {"queries": self.queries, "excluded": self.excluded}
        recall: dict[str, float] = {}
        for name, value in self.metric_items():
            k = name.removeprefix("recall_at_")
            if k != name:
                recall[k] = value
            else:
                out[name] = value
        out["recall_at_k"] = recall
        return out


def evaluate_rows(
    query_ids: Sequence[str], groups, stack, ks: Sequence[int], depth: int
) -> MetricsReport:
    """Per-query metrics and their means over the queries with a positive.

    The lists come as rows of equal length: `groups` holds (n, positions)
    for the lists of n candidates, at those positions of `query_ids`, and
    `stack(positions)` returns their (ids, scores, relevance, levels) as
    arrays of one row per list, each valid as a ScoredRanking's. The ids
    only break score ties, so any keys that sort as the ids do serve.
    """
    if any(k < 1 for k in ks):
        raise IndexOutOfRangeError(min(ks))
    per_query: list[dict | None] = [None] * len(query_ids)
    for n, positions in groups:
        step = max(1, _CHUNK // max(n, 1))
        for chunk in (positions[i : i + step] for i in range(0, len(positions), step)):
            arrays = stack(chunk)
            keep = (arrays[3] > 0).any(axis=1)
            if not keep.any():
                continue
            rows = _sorted_rows(*(a[keep] for a in arrays))
            h, a, g = _h_ap_rows(rows, rows.relevance), _asi_rows(rows), _ndcg_rows(rows)
            ap = {l: _ap_level_rows(rows, l) for l in range(1, depth + 1)}
            recall = {k: _recall_rows(rows, k, depth) for k in ks}
            kept = np.asarray(chunk)[keep].tolist()
            for j, (q, deepest) in enumerate(zip(kept, rows.ideal[:, 0].tolist())):
                row = per_query[q] = {"h_ap": float(h[j]), "asi": float(a[j]), "ndcg": float(g[j])}
                row.update((f"ap_level_{l}", float(v[j])) for l, v in ap.items() if l <= deepest)
                if deepest >= depth:
                    row.update((f"recall_at_{k}", float(v[j])) for k, v in recall.items())
    included = [(q, row) for q, row in zip(query_ids, per_query) if row is not None]
    if not included:
        raise AllQueriesEmptyError("no query has a positive candidate")

    def mean_of(key: str) -> float:
        vals = [row[key] for _, row in included if key in row]
        return float(np.mean(vals)) if vals else float("nan")

    return MetricsReport(
        queries=len(included),
        excluded=len(query_ids) - len(included),
        h_ap=mean_of("h_ap"),
        ap_level={l: mean_of(f"ap_level_{l}") for l in range(1, depth + 1)},
        asi=mean_of("asi"),
        ndcg=mean_of("ndcg"),
        recall_at_k={k: mean_of(f"recall_at_{k}") for k in ks},
        per_query=dict(included),
    )


def evaluate_dataset(
    rankings: Sequence[ScoredRanking],
    ks: Sequence[int] = (1,),
    depth: int | None = None,
) -> MetricsReport:
    """Per-query metrics and their arithmetic means.

    Queries without a single positive are excluded from every mean and
    counted. Each metric averages over the queries where it is defined
    (e.g. a level's AP skips queries with no candidate at that level).
    """
    if depth is None:
        depth = max((int(r.levels.max()) for r in rankings), default=0)
    by_length: dict[int, list[int]] = {}
    for i, r in enumerate(rankings):
        by_length.setdefault(len(r), []).append(i)

    def stack(chunk: list[int]) -> list[np.ndarray]:
        lists = [rankings[i] for i in chunk]
        fields = ("candidate_ids", "scores", "relevance", "levels")
        return [np.array([getattr(r, f) for r in lists]) for f in fields]

    return evaluate_rows([r.query_id for r in rankings], by_length.items(), stack, ks, depth)


def parse_scores(text: str) -> dict[str, tuple[list[str], list[float]]]:
    """Parse `query_id<TAB>candidate_id<TAB>score` records, preserving order."""
    layout = "query<TAB>candidate<TAB>score"
    out: dict[str, tuple[list[str], list[float]]] = {}
    for lineno, (query_id, candidate_id, score_text) in records(text, layout):
        try:
            score = float(score_text)
        except ValueError:
            raise MalformedRecordError(
                f"line {lineno}: bad score {score_text!r}"
            ) from None
        ids, scores = out.setdefault(query_id, ([], []))
        ids.append(candidate_id)
        scores.append(score)
    if not out:
        raise EmptyInputError("no score rows")
    # a sum that is not finite flags a nan or inf score (or an overflow)
    if any(len(set(ids)) != len(ids) or not math.isfinite(sum(scores))
           for ids, scores in out.values()):
        # rescan to name the first row with a score that is not finite or that
        # repeats a (query, candidate) pair
        seen: set[tuple[str, str]] = set()
        for lineno, (query_id, candidate_id, score_text) in records(text, layout):
            if not math.isfinite(float(score_text)):
                raise MalformedRecordError(f"line {lineno}: score {score_text!r} is not finite")
            if (query_id, candidate_id) in seen:
                raise DuplicateInstanceError(
                    f"line {lineno}: candidate {candidate_id!r} repeated for query {query_id!r}"
                )
            seen.add((query_id, candidate_id))
    return out
