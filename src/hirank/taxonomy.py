"""Label hierarchies, per-query relevance and the reader of every text format.

A hierarchy file is newline-delimited ``instance_id<TAB>path`` records where
the path is ``/``-separated, coarsest component first, and every path has the
same number of components. Node ids are global: the same id may not appear
under two different parents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateInstanceError,
    EmptyInputError,
    EmptyLevelDivisionError,
    MalformedRecordError,
    NonTreeParentageError,
    QueryInCandidatesError,
    RaggedDepthError,
    TooFewLeavesError,
    UnknownInstanceError,
)

LabelPath = tuple[str, ...]


@dataclass(frozen=True)
class Taxonomy:
    """Immutable label tree of uniform depth.

    ``entries`` maps each instance id to its label path; ``level_sizes[l-1]``
    is the number of distinct labels at level ``l`` (1-based, coarsest first).
    """

    depth: int
    entries: Mapping[str, LabelPath]
    level_sizes: tuple[int, ...]

    def path(self, instance_id: str) -> LabelPath:
        try:
            return self.entries[instance_id]
        except KeyError:
            raise UnknownInstanceError(instance_id) from None

    def leaf(self, instance_id: str) -> str:
        return self.path(instance_id)[-1]

    @cached_property
    def _encoded(self) -> tuple[dict[str, int], np.ndarray]:
        row_of = {iid: row for row, iid in enumerate(self.entries)}
        return row_of, path_codes(list(self.entries.values()), self.depth)

    def codes(self, instance_ids: Iterable[str]) -> np.ndarray:
        """Per-level label codes of the given instances (see `path_codes`)."""
        row_of, codes = self._encoded
        try:
            return codes[[row_of[i] for i in instance_ids]]
        except KeyError as exc:
            raise UnknownInstanceError(exc.args[0]) from None


@dataclass(frozen=True)
class RelevancePartition:
    """Per-query partition of a candidate set by common-ancestor level.

    ``levels[i]`` is the level of the closest ancestor shared by candidate i
    and the query (0 = no shared node, ``depth`` = same leaf). ``relevance``
    is None until a profile has been applied; once set, relevance is 0
    exactly for level-0 candidates.
    """

    query_id: str
    candidate_ids: tuple[str, ...]
    levels: np.ndarray
    depth: int
    relevance: np.ndarray | None = None
    level_counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.level_counts is None:
            counts = np.bincount(self.levels, minlength=self.depth + 1)
            object.__setattr__(self, "level_counts", counts)

    @property
    def num_positives(self) -> int:
        return int(self.level_counts[1:].sum())


@dataclass(frozen=True)
class MonotonicityWarning:
    """A deeper level whose relevance does not dominate a shallower one."""

    level_hi: int
    level_lo: int
    min_rel_hi: float
    max_rel_lo: float


@dataclass(frozen=True)
class RelevanceProfile:
    """How a candidate's common-ancestor level maps to a relevance value.

    Three kinds:

    * ``alpha`` -- level l gets total weight (l/L)**alpha shared uniformly by
      the candidates at that level.
    * ``weighted-ap`` -- per-level weights w_1..w_L (positive, summing to 1);
      a level-l candidate gets sum_{p<=l} w_p / |union of levels >= p|. Under
      this profile the graded AP equals the w-weighted sum of per-level APs.
    * ``explicit`` -- direct table from level to relevance; levels mapped to 0
      are treated as negatives.
    """

    kind: str
    alpha_value: float = 1.0
    weights: tuple[float, ...] = ()
    table: Mapping[int, float] = field(default_factory=dict)

    @classmethod
    def alpha(cls, alpha: float = 1.0) -> "RelevanceProfile":
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return cls(kind="alpha", alpha_value=float(alpha))

    @classmethod
    def weighted_ap(cls, weights: Sequence[float]) -> "RelevanceProfile":
        w = tuple(float(x) for x in weights)
        if not w or not all(x > 0 for x in w):  # a nan weight fails too
            raise ValueError("weights must be non-empty and positive")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(w)!r}")
        return cls(kind="weighted-ap", weights=w)

    @classmethod
    def explicit(cls, table: Mapping[int, float]) -> "RelevanceProfile":
        tab = {int(l): float(r) for l, r in table.items()}
        if not all(0 <= r < math.inf for r in tab.values()):
            raise ValueError("table values must be non-negative and finite")
        if tab.get(0, 0.0) != 0.0:
            raise ValueError("table must map level 0 to relevance 0")
        return cls(kind="explicit", table=tab)

    @classmethod
    def fine_only(cls, depth: int) -> "RelevanceProfile":
        """Binary profile: only same-leaf candidates count as positive."""
        return cls.explicit({l: 0.0 for l in range(depth)} | {depth: 1.0})

    def level_table(self, counts: np.ndarray, skip_empty: bool) -> np.ndarray:
        """Per-level relevance from per-level candidate counts, shape `(..., depth + 1)`.

        A weighted profile divides by the number of candidates at level p or
        deeper: where there are none it raises EmptyLevelDivisionError, or
        with `skip_empty` drops that weight term.
        """
        counts = np.asarray(counts)
        depth = counts.shape[-1] - 1
        if self.kind == "alpha":
            weight = np.array([(l / depth) ** self.alpha_value for l in range(depth + 1)])
            return np.divide(weight, counts, out=np.zeros(counts.shape), where=counts > 0)
        if self.kind == "weighted-ap":
            if len(self.weights) != depth:
                raise ValueError(f"profile has {len(self.weights)} weights for depth {depth}")
            # upper[..., p-1] = #candidates at level >= p, for p = 1..depth
            upper = np.cumsum(counts[..., ::-1], axis=-1)[..., ::-1][..., 1:]
            weights = np.array(self.weights)
            if not skip_empty and np.any(upper == 0):
                p = int(np.nonzero(upper == 0)[-1][0]) + 1
                raise EmptyLevelDivisionError(
                    f"no candidate at level >= {p} but weight {self.weights[p - 1]}"
                )
            terms = np.divide(weights, upper, out=np.zeros(upper.shape), where=upper > 0)
            table = np.zeros(counts.shape)
            table[..., 1:] = np.cumsum(terms, axis=-1)
            return table
        if self.kind == "explicit":
            row = [self.table.get(l, 0.0) for l in range(depth + 1)]
            return np.broadcast_to(np.array(row), counts.shape)
        raise ValueError(f"unknown profile kind {self.kind!r}")


def path_codes(paths: Sequence[LabelPath], depth: int) -> np.ndarray:
    """Encode label paths of `depth` components as one int per level.

    Two paths get the same code at a level exactly when they carry the same
    label there.
    """
    luts: list[dict[str, int]] = [{} for _ in range(depth)]
    codes = [[lut.setdefault(c, len(lut)) for lut, c in zip(luts, path)] for path in paths]
    return np.array(codes, dtype=np.int64).reshape(len(paths), depth)


def ancestor_levels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Level of the deepest ancestor shared by encoded paths `a` and `b`.

    Codes run along the last axis; the leading axes broadcast.
    """
    return np.cumprod(a == b, axis=-1).sum(axis=-1)


def records(text: str, layout: str) -> Iterator[tuple[int, list[str]]]:
    """Yield `(line number, fields)` per non-blank line, trailing carriage returns stripped.

    A line with an empty field or another field count than `layout` (e.g.
    "id<TAB>path") raises MalformedRecordError naming its 1-based number.
    """
    width = layout.count("<TAB>") + 1
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != width or "" in fields:
            raise MalformedRecordError(f"line {lineno}: expected {layout!r}, got {line!r}")
        yield lineno, fields


def parse_taxonomy(text: str) -> Taxonomy:
    """Parse a hierarchy document (see `records`) into a validated Taxonomy."""
    entries: dict[str, LabelPath] = {}
    depth = None
    for lineno, (instance_id, path_text) in records(text, "instance_id<TAB>path"):
        parts = tuple(path_text.split("/"))
        if any(not p for p in parts):
            raise MalformedRecordError(
                f"line {lineno}: empty path component in {path_text!r}"
            )
        if depth is None:
            depth = len(parts)
        elif len(parts) != depth:
            raise RaggedDepthError(
                f"line {lineno}: path has {len(parts)} components, expected {depth}"
            )
        if instance_id in entries:
            raise DuplicateInstanceError(f"line {lineno}: duplicate id {instance_id!r}")
        entries[instance_id] = parts
    if not entries:
        raise EmptyInputError("no records in input")
    _check_tree(entries.values())
    leaves = {p[-1] for p in entries.values()}
    if len(leaves) < 2:
        raise TooFewLeavesError(f"need at least 2 distinct leaf labels, got {len(leaves)}")
    # node ids are global (checked above), so distinct labels are distinct prefixes
    level_sizes = tuple(len({p[l] for p in entries.values()}) for l in range(depth))
    return Taxonomy(depth=depth, entries=entries, level_sizes=level_sizes)


def format_taxonomy(tax: Taxonomy) -> str:
    """Serialize back to the tab-separated file format (sorted by id)."""
    lines = [f"{iid}\t{'/'.join(path)}" for iid, path in sorted(tax.entries.items())]
    return "\n".join(lines) + "\n"


def _check_tree(paths: Iterable[LabelPath]) -> None:
    # node identity is (id); its observed (level, parent) must be unique
    seen: dict[str, tuple[int, str | None]] = {}
    for path in paths:
        parent = None
        for level, node in enumerate(path, start=1):
            key = (level, parent)
            if node in seen and seen[node] != key:
                raise NonTreeParentageError(
                    f"node {node!r} appears both as {seen[node]} and {key} (level, parent)"
                )
            seen[node] = key
            parent = node


def leaf_only(tax: Taxonomy) -> Taxonomy:
    """Depth-1 view keeping only the leaf label of every instance."""
    entries = {iid: (path[-1],) for iid, path in tax.entries.items()}
    return Taxonomy(depth=1, entries=entries, level_sizes=(tax.level_sizes[-1],))


def build_partition(
    tax: Taxonomy, query: str, candidates: Sequence[str]
) -> RelevancePartition:
    """Assign every candidate its common-ancestor level with the query."""
    query_codes = tax.codes([query])
    candidate_ids = tuple(candidates)
    if query in candidate_ids:
        raise QueryInCandidatesError(query)
    levels = ancestor_levels(query_codes, tax.codes(candidate_ids))
    return RelevancePartition(
        query_id=query, candidate_ids=candidate_ids, levels=levels, depth=tax.depth
    )


def partition_from_paths(
    query_id: str,
    query_path: LabelPath,
    candidate_ids: Sequence[str],
    candidate_paths: Sequence[LabelPath],
    depth: int,
) -> RelevancePartition:
    """Build a partition directly from label paths (no Taxonomy lookup)."""
    codes = path_codes([query_path, *candidate_paths], depth)
    levels = ancestor_levels(codes[:1], codes[1:])
    return RelevancePartition(
        query_id=query_id, candidate_ids=tuple(candidate_ids), levels=levels, depth=depth
    )


def assign_relevance(
    part: RelevancePartition, profile: RelevanceProfile
) -> RelevancePartition:
    """Apply a relevance profile; returns a new partition with relevance set.

    Candidates at a level the profile maps to 0 (an explicit table may) are
    reassigned to level 0, so that relevance == 0 always means negative.
    """
    rel = profile.level_table(part.level_counts, skip_empty=False)[part.levels]
    levels = np.where(rel > 0, part.levels, 0)
    return replace(part, relevance=rel, levels=levels, level_counts=None)


def validate_relevance(part: RelevancePartition) -> list[MonotonicityWarning]:
    """Report level pairs where relevance fails to decrease up the tree.

    Per-level normalization can make a deep, populous level less relevant per
    instance than a shallow, sparse one; this surfaces those cases without
    failing.
    """
    if part.relevance is None:
        raise ValueError("relevance has not been assigned")
    warnings = []
    present = [l for l in range(1, part.depth + 1) if part.level_counts[l] > 0]
    for i, hi in enumerate(present):
        for lo in present[:i]:
            min_hi = float(part.relevance[part.levels == hi].min())
            max_lo = float(part.relevance[part.levels == lo].max())
            if min_hi <= max_lo:
                warnings.append(
                    MonotonicityWarning(
                        level_hi=hi, level_lo=lo, min_rel_hi=min_hi, max_rel_lo=max_lo
                    )
                )
    return warnings
