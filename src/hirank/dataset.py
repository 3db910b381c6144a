"""Dataset container and on-disk formats.

A dataset directory holds three UTF-8 text files:

    taxonomy.tsv   instance_id<TAB>root/child/leaf (one label path per line)
    features.tsv   instance_id<TAB>comma-separated floats
    split.txt      holdout leaf labels, one per line

The holdout is open-set by construction: the split names whole fine (leaf)
classes, so no held-out class can also occur in training.

Every input file of the CLI is decoded by `TextFile` and read under
`located`, so a data error in it names the file.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import (
    DuplicateInstanceError,
    EmptyInputError,
    HirankError,
    MalformedRecordError,
    UnknownInstanceError,
)
from .taxonomy import Taxonomy, format_taxonomy, parse_taxonomy, records

TAXONOMY_FILE = "taxonomy.tsv"
FEATURES_FILE = "features.tsv"
SPLIT_FILE = "split.txt"

_BLOCK = 1 << 16  # bytes per read of `TextFile`: a block holds this and the rest of a line
T = TypeVar("T")


@dataclass
class RetrievalDataset:
    """A label hierarchy with one feature vector per instance and a holdout."""

    taxonomy: Taxonomy
    ids: tuple[str, ...]
    features: np.ndarray
    holdout_classes: frozenset[str] = frozenset()

    def __post_init__(self):
        self.ids = tuple(self.ids)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.shape[0] != len(self.ids):
            raise ValueError("one feature row per instance id required")
        if not np.all(np.isfinite(self.features)):
            raise MalformedRecordError("features must be finite")
        known = set(self.taxonomy.entries)
        missing = known - set(self.ids)
        extra = set(self.ids) - known
        if extra:
            raise UnknownInstanceError(sorted(extra)[0])
        if missing:
            raise MalformedRecordError(
                f"{len(missing)} instance(s) have no feature row, e.g. {sorted(missing)[0]!r}"
            )
        leaves = {self.taxonomy.leaf(i) for i in self.ids}
        unknown_split = self.holdout_classes - leaves
        if unknown_split:
            raise MalformedRecordError(
                f"split names unknown leaf label {sorted(unknown_split)[0]!r}"
            )

    @property
    def holdout_ids(self) -> frozenset[str]:
        return frozenset(
            i for i in self.ids if self.taxonomy.leaf(i) in self.holdout_classes
        )


def parse_features(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Parse `id<TAB>comma-separated floats` records into (ids, matrix)."""
    ids: list[str] = []
    rows: list[list[float]] = []
    seen: set[str] = set()
    for lineno, (instance_id, payload) in records(text, "id<TAB>floats"):
        if instance_id in seen:
            raise DuplicateInstanceError(f"line {lineno}: {instance_id!r} repeated")
        seen.add(instance_id)
        try:
            row = [float(x) for x in payload.split(",")]
        except ValueError:
            raise MalformedRecordError(
                f"line {lineno}: bad float in feature row for {instance_id!r}"
            ) from None
        if rows and len(row) != len(rows[0]):
            raise MalformedRecordError(
                f"line {lineno}: feature row has {len(row)} values, expected {len(rows[0])}"
            )
        if not all(map(math.isfinite, row)):
            raise MalformedRecordError(
                f"line {lineno}: feature row for {instance_id!r} is not finite"
            )
        ids.append(instance_id)
        rows.append(row)
    if not ids:
        raise EmptyInputError("no feature rows found")
    return tuple(ids), np.asarray(rows, dtype=np.float64)


def format_features(ids: Sequence[str], matrix: np.ndarray) -> str:
    """Serialize feature rows with round-tripping float precision."""
    matrix = np.asarray(matrix, dtype=np.float64)
    lines = [
        f"{instance_id}\t{','.join(repr(float(x)) for x in row)}"
        for instance_id, row in zip(ids, matrix)
    ]
    return "\n".join(lines) + "\n"


def parse_split(text: str) -> tuple[str, ...]:
    """Parse one holdout leaf label per record, stripped of whitespace; a tab is malformed."""
    out: list[str] = []
    seen: set[str] = set()
    for lineno, (field,) in records(text, "leaf_label"):
        label = field.strip()
        if not label:
            continue
        if "/" in label:
            raise MalformedRecordError(f"line {lineno}: expected a bare leaf label")
        if label in seen:
            raise DuplicateInstanceError(f"line {lineno}: {label!r} repeated")
        seen.add(label)
        out.append(label)
    return tuple(out)


def format_split(labels: Sequence[str]) -> str:
    ordered = sorted(labels)
    return "\n".join(ordered) + ("\n" if ordered else "")


@dataclass(frozen=True)
class TextFile:
    """A UTF-8 file's text as blocks of whole lines, newlines translated as in text mode.

    Each pass reads the file anew, `_BLOCK` bytes at a time and on to the end of the line.
    A byte that is not UTF-8 is a MalformedRecordError naming the file and its offset.
    """

    path: Path

    def __iter__(self) -> Iterator[str]:
        offset = 0
        with open(self.path, "rb") as handle:
            for chunk in iter(partial(handle.read, _BLOCK), b""):
                block = chunk + handle.readline()  # no character or CRLF pair is cut
                try:
                    text = block.decode("utf-8")
                except UnicodeDecodeError as exc:
                    error = MalformedRecordError(f"not UTF-8 at byte {offset + exc.start}")
                    error.path = self.path
                    raise error from None
                offset += len(block)
                yield text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path: Path) -> str:
    """Decode `path` as UTF-8 whatever the locale (see `TextFile`)."""
    return "".join(TextFile(path))


@contextmanager
def located(path: Path) -> Iterator[None]:
    """Every data error raised in the body names the file `path`.

    A HirankError keeps its class and gets `path` in front of its message;
    any other ValueError (a JSON syntax error, say) or RecursionError (too
    deep a nesting) becomes a MalformedRecordError. OSError passes through.
    """
    try:
        yield
    except HirankError as exc:
        exc.path = path
        raise
    except (ValueError, RecursionError) as exc:
        raise MalformedRecordError(f"{path}: {exc}") from None


def read_file(path: Path, parse: Callable[[str], T]) -> T:
    """`parse` applied to the UTF-8 text of `path`; every data error names the file."""
    with located(path):
        return parse(read_text(path))


def write_text_atomic(path: Path, text: str) -> None:
    """Write UTF-8 via a temp file in the same directory, then rename over.

    The temp file is created, under a unique name, with the mode a plain
    open(path, "w") gives: a file it replaces keeps its mode, and a new file
    gets 0o666 less the umask.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if path.exists():
                os.fchmod(fd, path.stat().st_mode & 0o7777)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_dataset(directory: Path) -> RetrievalDataset:
    """Load taxonomy, features and (optional) split from a dataset directory."""
    directory = Path(directory)
    taxonomy = read_file(directory / TAXONOMY_FILE, parse_taxonomy)
    # each file's consistency with the ones before it is checked while it is
    # read, so that an error there names it
    ds = read_file(
        directory / FEATURES_FILE, lambda text: RetrievalDataset(taxonomy, *parse_features(text))
    )
    split_path = directory / SPLIT_FILE
    if split_path.exists():
        ds = read_file(
            split_path, lambda text: replace(ds, holdout_classes=frozenset(parse_split(text)))
        )
    return ds


def write_dataset(ds: RetrievalDataset, directory: Path) -> None:
    """Write a dataset directory (atomic per file)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_text_atomic(directory / TAXONOMY_FILE, format_taxonomy(ds.taxonomy))
    write_text_atomic(directory / FEATURES_FILE, format_features(ds.ids, ds.features))
    write_text_atomic(directory / SPLIT_FILE, format_split(sorted(ds.holdout_classes)))
