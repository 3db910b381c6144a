"""Label hierarchies, relevance profiles and the reader of every text format.

A hierarchy file is newline-delimited ``instance_id<TAB>path`` records where
the path is ``/``-separated, coarsest component first, and every path has the
same number of components. Node ids are global: the same id may not appear
under two different parents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateInstanceError,
    EmptyInputError,
    EmptyLevelDivisionError,
    MalformedRecordError,
    NonTreeParentageError,
    ProfileDepthError,
    RaggedDepthError,
    TooFewLeavesError,
    UnknownInstanceError,
)

LabelPath = tuple[str, ...]
_BLOCK = 1 << 16  # characters per block of `_record_blocks`: it bounds the strings held at once


@dataclass(frozen=True)
class Taxonomy:
    """Immutable label tree of uniform depth: ``entries`` maps each id to its label path."""

    depth: int
    entries: Mapping[str, LabelPath]

    def path(self, instance_id: str) -> LabelPath:
        try:
            return self.entries[instance_id]
        except KeyError:
            raise UnknownInstanceError(instance_id) from None

    def leaf(self, instance_id: str) -> str:
        return self.path(instance_id)[-1]

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Each instance's row: its position among the sorted ids, so that
        rows sort as the ids do."""
        return {iid: row for row, iid in enumerate(sorted(self.entries))}

    @cached_property
    def row_codes(self) -> np.ndarray:
        """Per-level label codes of every row (see `path_codes`)."""
        return path_codes([self.entries[iid] for iid in self.row_of], self.depth)


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

        A weighted profile needs one weight per level, and an explicit table
        only levels in 0..depth, one of 1..depth with a positive relevance
        (else ProfileDepthError). A weighted profile divides by the number of
        candidates at level p or deeper: where there are none it raises
        EmptyLevelDivisionError, or with `skip_empty` drops that weight term.
        """
        counts = np.asarray(counts)
        depth = counts.shape[-1] - 1
        if self.kind == "alpha":
            weight = np.array([(l / depth) ** self.alpha_value for l in range(depth + 1)])
            return np.divide(weight, counts, out=np.zeros(counts.shape), where=counts > 0)
        if self.kind == "weighted-ap":
            if len(self.weights) != depth:
                raise ProfileDepthError(f"profile has {len(self.weights)} weights for depth {depth}")
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
            outside = sorted(l for l in self.table if not 0 <= l <= depth)
            if outside:
                raise ProfileDepthError(f"profile table has level {outside[0]} for depth {depth}")
            row = [self.table.get(l, 0.0) for l in range(depth + 1)]
            if not max(row) > 0:
                raise ProfileDepthError(
                    f"profile table gives no level in 1..{depth} a positive relevance")
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


def ancestor_levels(codes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Level of the deepest ancestor shared by rows `a` and `b` of `codes`.

    `codes` holds encoded paths (see `path_codes`). The row indices broadcast,
    and one level column is compared at a time: no (..., depth) array is built.
    """
    shared = np.ones(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=bool)
    level = np.zeros(shared.shape, dtype=np.int64)
    for column in codes.T:
        shared &= column[a] == column[b]
        level += shared
    return level


def records(text: str | Iterable[str], layout: str) -> Iterator[tuple[int, list[str]]]:
    """Yield `(line number, fields)` per non-blank line, trailing carriage returns stripped.

    `text` is a text or its line-aligned blocks, numbered across them from 1. A line
    with an empty field or another field count than `layout` (e.g. "id<TAB>path")
    raises MalformedRecordError naming its number.
    """
    width, lineno = layout.count("<TAB>") + 1, 1
    for block in [text] if isinstance(text, str) else text:
        # a block's last piece, empty after its closing newline, numbers the next block's first line
        for lineno, raw in enumerate(block.split("\n"), start=lineno):
            line = raw.rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != width or "" in fields:
                raise MalformedRecordError(f"line {lineno}: expected {layout!r}, got {line!r}")
            yield lineno, fields


def _record_blocks(texts: Iterable[str], width: int) -> Iterator[list[list[str]]]:
    """`records`' fields as `width` columns per ~`_BLOCK` characters of line-aligned `texts`."""
    for text in texts:
        start = 0
        while start < len(text):
            end = text.find("\n", start + _BLOCK - 1) + 1 or len(text)
            block, start = text[start:end], end
            lines = block.split("\n")
            if "\r" in block:
                lines = map(str.rstrip, lines, repeat("\r"))
            lines = list(filter(None, lines))
            # a "\n" field closes each line, and the fields from the (width + 1)th on, at a
            # stride of width + 1, are exactly one "\n" per line iff every line has `width` fields
            fields = ("\t\n\t".join(lines) + "\t\n").split("\t") if lines else []
            if "" in fields or fields[width :: width + 1] != ["\n"] * len(lines):
                raise MalformedRecordError("a line does not match the layout; `records` names it")
            yield [fields[i :: width + 1] for i in range(width)]


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
    return Taxonomy(depth=depth, entries=entries)


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


def assign_relevance(
    levels: np.ndarray, query: np.ndarray, profile: RelevanceProfile, depth: int,
    skip_empty: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Relevance of each candidate under `profile`, and its level.

    `levels` (a candidate's common-ancestor level with its query) and `query`
    (that query's number) broadcast together. Each query's candidate counts
    per level normalize its relevance through `level_table`, which gets
    `skip_empty`. Level 0 takes relevance 0 under every profile and enters no
    normalizer. Candidates at a level the profile maps to 0 (an explicit
    table may) are reassigned to level 0, so relevance 0 always means negative.
    """
    width = depth + 1
    key = (query * width + levels).ravel()
    counts = np.bincount(key, minlength=(int(np.max(query)) + 1) * width)
    rel = profile.level_table(counts.reshape(-1, width), skip_empty)[query, levels]
    return rel, np.where(rel > 0, levels, 0)


def string_ranks(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct strings of `values` in Python's sorted order, and each
    value's position among them as int64. Ids and labels are ranked here, not
    as numpy strings, which drop trailing NULs and so tie "a" with "a\\x00".
    """
    distinct = sorted(set(values))
    position = {v: i for i, v in enumerate(distinct)}
    return distinct, np.fromiter(map(position.__getitem__, values), np.int64, len(values))
