"""Exact evaluation of graded ranking metrics.

All metrics operate on a ScoredRanking: one query's candidates with cosine
(or any) scores, a per-candidate relevance value and the common-ancestor
level it derives from. Rank comparisons use strict score inequality, so tied
scores produce no inversion in either direction; operations that need a
concrete list order (cutoff metrics, set intersections) sort by descending
score and break ties by ascending candidate id.

Every kernel reads one sorted pass over the list (see `_SortedPass`):
sorting once and counting strictly-above candidates with binary searches
keeps each query at O(n log n) time and O(n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    AllQueriesEmptyError,
    DuplicateInstanceError,
    IndexOutOfRangeError,
    MalformedRecordError,
    NegativeQueryError,
    NoPositivesError,
)
from .taxonomy import RelevancePartition


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
        return _sorted_pass(self).order.tolist()


def _strict_above(desc: np.ndarray) -> np.ndarray:
    """For each entry of a non-increasing array, how many entries are strictly greater."""
    return len(desc) - np.searchsorted(desc[::-1], desc, side="right")


class _SortedPass(NamedTuple):
    """One query's candidates in list order: descending score, ties by ascending id."""

    order: np.ndarray  # candidate indices
    scores: np.ndarray
    relevance: np.ndarray
    levels: np.ndarray
    rank: np.ndarray  # 1 + the number of candidates scored strictly above


def _sorted_pass(r: ScoredRanking) -> _SortedPass:
    """The pass `_query_metrics` shares while it scores `r`, else a fresh one."""
    shared = getattr(r, "_shared", None)
    if shared is not None:
        return shared
    order = np.lexsort((np.asarray(r.candidate_ids), -r.scores))
    scores = r.scores[order]
    return _SortedPass(
        order, scores, r.relevance[order], r.levels[order], 1.0 + _strict_above(scores)
    )


def _require_positives(r: ScoredRanking) -> None:
    if not np.any(r.positive_mask):
        raise NoPositivesError(f"query {r.query_id!r} has no positive candidate")


def rank_of(
    r: ScoredRanking, k: int, restrict: Callable[[int], bool] | None = None
) -> float:
    """1 + the number of (restricted) candidates scored strictly above k."""
    if not 0 <= k < len(r):
        raise IndexOutOfRangeError(k)
    above = r.scores > r.scores[k]
    if restrict is not None:
        above &= np.array([restrict(int(l)) for l in r.levels])
    return 1.0 + float(above.sum())


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
    p = _sorted_pass(r)
    pos = p.levels > 0
    rel = p.relevance[pos]
    above = _strict_above(p.scores[pos])
    hranks = rel.copy()
    for v in np.unique(rel):
        seen = np.concatenate(([0], np.cumsum(rel == v)))
        hranks += np.minimum(rel, v) * seen[above]
    return float((hranks / p.rank[pos]).sum() / rel.sum())


def ap_level(r: ScoredRanking, level: int) -> float:
    """Binary average precision treating levels >= `level` as positive."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if not np.any(r.levels >= level):
        raise NoPositivesError(f"query {r.query_id!r} has no candidate at level >= {level}")
    p = _sorted_pass(r)
    posl = p.levels >= level
    ranks_l = 1.0 + _strict_above(p.scores[posl])
    return float((ranks_l / p.rank[posl]).mean())


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
    n_pos = int(r.positive_mask.sum())
    pred = _sorted_pass(r).levels[:n_pos]
    ideal = np.sort(r.levels)[::-1][:n_pos]
    common = np.zeros(n_pos)
    for level in np.unique(ideal):
        common += np.minimum(np.cumsum(pred == level), np.cumsum(ideal == level))
    return float((common / np.arange(1, n_pos + 1)).sum() / n_pos)


def ndcg(r: ScoredRanking) -> float:
    """Discounted cumulative gain with gains 2**level - 1, ideal-normalized."""
    _require_positives(r)
    p = _sorted_pass(r)
    pos = p.levels > 0
    gains = 2.0 ** p.levels[pos] - 1.0
    dcg = float((gains / np.log2(1.0 + p.rank[pos])).sum())
    ideal_gains = 2.0 ** np.sort(r.levels)[::-1] - 1.0
    ideal_ranks = np.arange(1, len(r) + 1)
    ideal = float((ideal_gains / np.log2(1.0 + ideal_ranks)).sum())
    return dcg / ideal


def recall_at_k(r: ScoredRanking, k: int, level: int) -> int:
    """1 if any of the top-k scored candidates sits at `level` or deeper."""
    if not np.any(r.levels >= level):
        raise NoPositivesError(f"query {r.query_id!r} has no candidate at level >= {level}")
    if k < 1:
        raise IndexOutOfRangeError(k)
    return int(np.any(_sorted_pass(r).levels[:k] >= level))


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


def _query_metrics(r: ScoredRanking, depth: int, ks: Sequence[int]) -> dict[str, float]:
    # every kernel below reads one shared pass, dropped once the row is done
    object.__setattr__(r, "_shared", _sorted_pass(r))
    try:
        row: dict[str, float] = {
            "h_ap": h_ap(r),
            "asi": asi(r),
            "ndcg": ndcg(r),
        }
        for l in range(1, depth + 1):
            if np.any(r.levels >= l):
                row[f"ap_level_{l}"] = ap_level(r, l)
        if np.any(r.levels >= depth):
            for k in ks:
                row[f"recall_at_{k}"] = float(recall_at_k(r, k, depth))
    finally:
        object.__delattr__(r, "_shared")
    return row


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
    included = [r for r in rankings if np.any(r.positive_mask)]
    excluded = len(rankings) - len(included)
    if not included:
        raise AllQueriesEmptyError("no query has a positive candidate")
    if depth is None:
        depth = max(int(r.levels.max()) for r in included)

    rows = [_query_metrics(r, depth, ks) for r in included]
    per_query = {r.query_id: row for r, row in zip(included, rows)}

    def mean_of(key: str) -> float:
        vals = [row[key] for row in rows if key in row]
        return float(np.mean(vals)) if vals else float("nan")

    return MetricsReport(
        queries=len(included),
        excluded=excluded,
        h_ap=mean_of("h_ap"),
        ap_level={l: mean_of(f"ap_level_{l}") for l in range(1, depth + 1)},
        asi=mean_of("asi"),
        ndcg=mean_of("ndcg"),
        recall_at_k={k: mean_of(f"recall_at_{k}") for k in ks},
        per_query=per_query,
    )


def parse_scores(text: str) -> dict[str, tuple[list[str], list[float]]]:
    """Parse `query_id<TAB>candidate_id<TAB>score` lines, preserving order."""
    out: dict[str, tuple[list[str], list[float]]] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3 or not fields[0] or not fields[1]:
            raise MalformedRecordError(
                f"line {lineno}: expected 'query<TAB>candidate<TAB>score', got {line!r}"
            )
        query_id, candidate_id, score_text = fields
        try:
            score = float(score_text)
        except ValueError:
            raise MalformedRecordError(
                f"line {lineno}: bad score {score_text!r}"
            ) from None
        ids, scores = out.setdefault(query_id, ([], []))
        ids.append(candidate_id)
        scores.append(score)
    if any(len(set(ids)) != len(ids) for ids, _ in out.values()):
        _raise_first_duplicate(text)
    return out


def _raise_first_duplicate(text: str) -> None:
    """Name the first row that repeats a (query, candidate) pair."""
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        fields = raw.rstrip("\r").split("\t")
        if len(fields) != 3:
            continue
        pair = (fields[0], fields[1])
        if pair in seen:
            raise DuplicateInstanceError(
                f"line {lineno}: candidate {pair[1]!r} repeated for query {pair[0]!r}"
            )
        seen.add(pair)
