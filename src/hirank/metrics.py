"""Exact evaluation of graded ranking metrics, and the scores-file reader.

The single-list metrics operate on a ScoredRanking: one query's candidates
with cosine (or any) scores, a per-candidate relevance value and the
common-ancestor level it derives from. Rank comparisons use strict score
inequality, so tied scores produce no inversion in either direction;
operations that need a concrete list order (cutoff metrics, set
intersections) sort by descending score and break ties by ascending
candidate id.

Every kernel reads equal-length lists sorted once into list order (see
`_sorted_rows`), so a query costs O(n log n) time. The single-list functions
pass one row; `evaluate_rows` passes chunks of at most `_CHUNK` entries at a
time. The trainer's holdout eval feeds it rows of its score matrix, and
`evaluate_columns` feeds it flat per-candidate columns grouped by query:
the rankings given to `evaluate_dataset`, or the columns `read_scores` reads
from a scores file a block of lines at a time, converting each block's
columns in bulk; it reads the file line by line only to name an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, filterfalse, islice
from typing import Iterable, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .errors import (
    AllQueriesEmptyError,
    DuplicateInstanceError,
    EmptyInputError,
    IndexOutOfRangeError,
    MalformedRecordError,
    NegativeQueryError,
    NoPositivesError,
    QueryInCandidatesError,
    UnknownInstanceError,
)
from .taxonomy import Taxonomy, _record_blocks, ancestor_levels, records, string_ranks

# rows x candidates per evaluated chunk: it bounds every kernel's temporaries
_CHUNK = 8192
_LAYOUT = "query<TAB>candidate<TAB>score"


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
        if not np.all((self.relevance >= 0) & (self.relevance < np.inf)):
            raise ValueError("relevance must be non-negative and finite")
        levels = self.levels
        if not np.all((levels >= 0) & (levels < np.inf) & (levels == np.floor(levels))):
            raise ValueError("levels must be non-negative integers")
        if np.any((self.relevance == 0) != (levels == 0)):
            raise ValueError("relevance must be 0 exactly on level-0 candidates")

    def __len__(self) -> int:
        return len(self.candidate_ids)

    @property
    def positive_mask(self) -> np.ndarray:
        return self.levels > 0


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
    ids = string_ranks(r.candidate_ids)[1][None]
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
    """1 if the top k reach `level`, else 0; nan for a row where nothing does."""
    return np.where(rows.ideal[:, 0] >= level, (rows.levels[:, :k] >= level).any(axis=1), np.nan)


def _require_positives(r: ScoredRanking) -> None:
    if not np.any(r.positive_mask):
        raise NoPositivesError(f"query {r.query_id!r} has no positive candidate")


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
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if not np.any(r.levels >= level):
        raise NoPositivesError(f"query {r.query_id!r} has no candidate at level >= {level}")
    if k < 1:
        raise IndexOutOfRangeError(k)
    return int(_recall_rows(_rows_of(r), k, level)[0])


@dataclass
class MetricsReport:
    """Per-query metrics over the queries with a positive, one column each.

    `columns` maps each metric, in report order (h_ap, each ap_level_l, asi,
    ndcg, each recall_at_k), to one float per query of `query_ids`, nan where
    the metric is undefined: a level's AP where no candidate reaches the
    level, and the recalls where none reaches the evaluated depth."""

    query_ids: list[str]
    excluded: int
    columns: dict[str, np.ndarray]

    @property
    def queries(self) -> int:
        return len(self.query_ids)

    def mean(self, name: str) -> float:
        """The mean of a column over its defined entries, nan if it has none."""
        column = self.columns[name]
        # zeros summed in place of the nans would regroup the pairwise sum
        defined = column[~np.isnan(column)]
        return float(np.mean(defined)) if len(defined) else float("nan")

    def metric_items(self) -> list[tuple[str, float]]:
        """The mean metrics in report order."""
        return [(name, self.mean(name)) for name in self.columns]

    def json_items(self) -> list[tuple[str, float | None]]:
        """The metric items, a mean that no query defines as None (JSON has no nan)."""
        return [(name, None if math.isnan(v) else v) for name, v in self.metric_items()]

    def to_json_dict(self) -> dict:
        """The JSON items, with the recall cutoffs nested under recall_at_k."""
        out: dict = {"queries": self.queries, "excluded": self.excluded}
        recall: dict[str, float | None] = {}
        for name, value in self.json_items():
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
    """Per-query metrics of the queries with a positive.

    The lists come as rows of equal length: `groups` holds (n, positions)
    for the lists of n candidates, at those positions of `query_ids`, and
    `stack(positions)` returns their (ids, scores, relevance, levels) as
    arrays of one row per list, each valid as a ScoredRanking's. The ids
    only break score ties, so any keys that sort as the ids do serve.
    """
    if any(k < 1 for k in ks):
        raise IndexOutOfRangeError(min(ks))
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    levels, cutoffs = range(1, depth + 1), sorted(set(ks))
    names = ["h_ap", *(f"ap_level_{l}" for l in levels), "asi", "ndcg",
             *(f"recall_at_{k}" for k in cutoffs)]
    values = np.full((len(names), len(query_ids)), np.nan)
    for n, positions in groups:
        step = max(1, _CHUNK // max(n, 1))
        for chunk in (positions[i : i + step] for i in range(0, len(positions), step)):
            arrays = stack(chunk)
            keep = (arrays[3] > 0).any(axis=1)
            if not keep.any():
                continue
            rows = _sorted_rows(*(a[keep] for a in arrays))
            values[:, np.asarray(chunk)[keep]] = [
                _h_ap_rows(rows, rows.relevance), *(_ap_level_rows(rows, l) for l in levels),
                _asi_rows(rows), _ndcg_rows(rows), *(_recall_rows(rows, k, depth) for k in cutoffs),
            ]
    included = ~np.isnan(values[0])
    if not included.any():
        raise AllQueriesEmptyError("no query has a positive candidate")
    return MetricsReport(
        query_ids=[q for q, i in zip(query_ids, included.tolist()) if i],
        excluded=int((~included).sum()),
        columns=dict(zip(names, values[:, included])),
    )


def evaluate_columns(
    query_ids: Sequence[str], query: np.ndarray, columns: Sequence[np.ndarray],
    ks: Sequence[int], depth: int,
) -> MetricsReport:
    """`evaluate_rows` over flat per-candidate columns, grouped by query.

    `query[i]` is the position in `query_ids` of candidate i's query, in
    non-decreasing order, and `columns` holds every candidate's (id key,
    score, relevance, level), each column one array.
    """
    lengths = np.bincount(query, minlength=len(query_ids))
    starts = np.cumsum(lengths) - lengths
    by_length: dict[int, list[int]] = {}
    for q, n in enumerate(lengths.tolist()):
        by_length.setdefault(n, []).append(q)

    def stack(chunk: list[int]) -> list[np.ndarray]:
        at = starts[chunk][:, None] + np.arange(lengths[chunk[0]])
        return [c[at] for c in columns]

    return evaluate_rows(query_ids, by_length.items(), stack, ks, depth)


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
    if not rankings:
        raise AllQueriesEmptyError("no query has a positive candidate")
    if depth is None:
        # at least 1, so that rankings without a positive raise AllQueriesEmptyError
        depth = max(1, *(int(r.levels.max()) for r in rankings))
    query = np.repeat(np.arange(len(rankings)), [len(r) for r in rankings])
    # ties break by id, and the ids' ranks sort as the ids do
    ids = string_ranks([i for r in rankings for i in r.candidate_ids])[1]
    columns = [ids] + [np.concatenate([getattr(r, f) for r in rankings])
                       for f in ("scores", "relevance", "levels")]
    return evaluate_columns([r.query_id for r in rankings], query, columns, ks, depth)


class ScoreTable(NamedTuple):
    """A scores file as flat per-row columns, its rows grouped by query.

    Queries are numbered in order of first appearance, and each query's rows
    keep their file order.
    """

    query_ids: list[str]
    query: np.ndarray  # each row's query number
    candidate: np.ndarray  # each row's candidate taxonomy row
    score: np.ndarray
    levels: np.ndarray  # each candidate's common-ancestor level with its query


def read_scores(source: str | Iterable[str], taxonomy: Taxonomy) -> ScoreTable:
    """Read `query_id<TAB>candidate_id<TAB>score` records against `taxonomy`.

    `source` is a text, or line-aligned blocks of one that can be read twice (a
    `dataset.TextFile`): one pass counts the lines to size the columns, the next
    fills them a block at a time (see `_record_blocks`), and `ancestor_levels`
    then compares query and candidate rows. Only a text with an error is read again, by `records`
    up to its line. Errors come in this order: a byte that is not UTF-8; the first malformed line,
    bad score or id the taxonomy lacks, at its line; then the first score that is not finite or
    repeated (query, candidate) pair, at its line; then a query among its own candidates.
    """
    blocks = [source] if isinstance(source, str) else source
    size = sum(block.count("\n") for block in blocks) + 1  # at least the number of rows
    query, candidate, score = np.empty(size, np.int64), np.empty(size, np.int64), np.empty(size)
    row_of = taxonomy.row_of
    number: dict[str, int] = {}  # each query id's number, in order of first appearance
    end = 0
    try:
        for queries, candidates, scores in _record_blocks(blocks, 3):
            new_queries = filterfalse(number.__contains__, dict.fromkeys(queries))
            number.update(zip(new_queries, count(len(number))))
            start, end = end, end + len(queries)
            query[start:end] = np.fromiter(map(number.__getitem__, queries), np.int64)
            candidate[start:end] = np.fromiter(map(row_of.__getitem__, candidates), np.int64)
            score[start:end] = np.fromiter(map(float, scores), np.float64)
        query_rows = np.array(list(map(row_of.__getitem__, number)), dtype=np.int64)
    except (KeyError, ValueError):
        _raise_score_error(blocks, row_of)
    if not number:
        raise EmptyInputError("no score rows")
    query, candidate, score = query[:end], candidate[:end], score[:end]
    pairs, finite = query * len(row_of) + candidate, np.isfinite(score)
    if not (np.diff(np.sort(pairs)).all() and finite.all()):
        # a stable sort keeps equal pairs in file order: each after the first repeats it
        order = np.argsort(pairs, kind="stable")
        repeat = np.zeros(end, dtype=bool)
        repeat[order[1:]] = np.diff(pairs[order]) == 0
        row = int(np.argmax(repeat | ~finite))
        lineno, (q, c, s) = next(islice(records(blocks, _LAYOUT), row, None))
        if not finite[row]:
            raise MalformedRecordError(f"line {lineno}: score {s!r} is not finite")
        raise DuplicateInstanceError(f"line {lineno}: candidate {c!r} repeated for query {q!r}")
    del pairs, finite
    own = query[candidate == query_rows[query]]
    if len(own):
        raise QueryInCandidatesError(list(number)[own.min()])
    order = np.argsort(query, kind="stable")
    # one column at a time, so each unordered column goes once its copy exists
    query = query[order]
    candidate = candidate[order]
    score = score[order]
    del order  # the levels below are the reader's memory peak
    levels = ancestor_levels(taxonomy.row_codes, query_rows[query], candidate)
    return ScoreTable(list(number), query, candidate, score, levels)


def _raise_score_error(blocks: Iterable[str], row_of: Mapping[str, int]) -> NoReturn:
    """Raise the first malformed line, bad score or unknown id of a scores text."""
    for lineno, (query, candidate, score) in records(blocks, _LAYOUT):
        try:
            float(score)
        except ValueError:
            raise MalformedRecordError(f"line {lineno}: bad score {score!r}") from None
        if query not in row_of:
            raise UnknownInstanceError(query)
        if candidate not in row_of:
            raise UnknownInstanceError(candidate)
