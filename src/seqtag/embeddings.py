"""Word-embedding tables: loading, concatenation, backfill, and coverage.

Tables are plain text, one entry per line: the word followed by its vector
components, all space-separated.  A word reads a table entry, or a
vocabulary row, by one rule (:func:`find`): exact match, then lowercased.
A model's vocabulary holds the words of its learning split behind a
reserved ``<unk>`` slot.  A table segment that misses a vocabulary word
(``<unk>`` included) is a per-word deterministic random vector in
[-1, 1], so the assembled matrix never depends on insertion order.  Words
outside the vocabulary read the ``<unk>`` row: the recurrent taggers
train it.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import DataError, ParseError, read_lines

UNK = "<unk>"
CSV_FIELD_LIMIT = 2**31 - 1  # free-text cells outgrow the csv module's default limit


@dataclass(frozen=True)
class Vocabulary:
    """Ordered unique surface forms with dense indices; ``<unk>`` is index 0.

    Training builds it from the learning split only.  Row 0 of a model's
    word table belongs to ``<unk>``: every word outside the vocabulary
    reads it, and training swaps learn-split singletons for it.
    """

    words: tuple[str, ...]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if not self.words or self.words[0] != UNK:
            raise ValueError(f"vocabulary must reserve {UNK!r} at index 0")
        index = {w: i for i, w in enumerate(self.words)}
        if len(index) != len(self.words):
            raise ValueError("vocabulary words must be unique")
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.words)


def build_vocabulary(words: Iterable[str]) -> Vocabulary:
    """Unique words in first-seen order, behind the reserved ``<unk>`` slot."""
    seen = dict.fromkeys(w for w in words if w != UNK)
    return Vocabulary((UNK, *seen))


def find(mapping: Mapping, word: str, default=None):
    """``mapping[word]``, else ``mapping[word.lower()]``, else ``default``."""
    value = mapping.get(word)
    return mapping.get(word.lower(), default) if value is None else value


@dataclass
class EmbeddingTable:
    """word -> vector lookup; every vector has ``dim`` components."""

    dim: int
    entries: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CoverageStats:
    total_words: int
    covered: int

    @property
    def percentage(self) -> float:
        return self.covered / self.total_words if self.total_words else 0.0


def load_embedding_table(source: str | Iterable[str], path: str | None = None) -> EmbeddingTable:
    """Read a text-format table; every line is ``word v1 v2 ... vd``, each
    component a finite number (``nan``, ``inf`` and ``1e999`` are rejected).
    An error names the line, and ``path`` when given."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source  # type: ignore[assignment]

    entries: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split(" ")
        word, components = parts[0], parts[1:]
        if dim is None:
            if not components:
                raise ParseError("entry has no vector components", lineno, path)
            dim = len(components)
        elif len(components) != dim:
            raise ParseError(
                f"expected {dim} vector components, got {len(components)}", lineno, path
            )
        try:
            vec = np.array([float(c) for c in components], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"non-numeric vector component: {exc}", lineno, path) from None
        if not np.isfinite(vec).all():
            raise ParseError("vector component is not a finite number", lineno, path)
        entries[word] = vec

    if dim is None:
        raise DataError(f"{path or 'embedding file'} contains no entries")
    return EmbeddingTable(dim, entries)


def write_embedding_table(pairs: Iterable[tuple[str, np.ndarray]], out: TextIO):
    """Write each ``(word, vector)`` pair as one line that :func:`load_embedding_table` reads."""
    for word, vec in pairs:
        out.write(word + " " + " ".join(f"{v:.8g}" for v in vec) + "\n")


def hashed_uniform(key: Sequence[object], seed: int, dim: int) -> np.ndarray:
    """Deterministic uniform [-1, 1] vector keyed by (key, seed).

    Stable across runs and platforms: the generator is seeded from a
    SHA-256 digest of the key, not from Python's randomized ``hash``.
    """
    material = "\x1f".join(str(k) for k in key) + f"\x1f{seed}"
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))
    return rng.uniform(-1.0, 1.0, dim)


def assemble(vocab: Vocabulary, tables: Sequence[EmbeddingTable], seed: int) -> np.ndarray:
    """The ``(len(vocab), sum of the table dims)`` matrix of the source
    tables concatenated over a vocabulary, one row per word in vocabulary
    order.

    A row's segment is copied from the corresponding table when
    :func:`find` finds the word there, and otherwise drawn uniformly from
    [-1, 1] by a deterministic per-(word, segment, seed) generator.
    """
    if not tables:
        raise ValueError("assemble needs at least one source table")

    matrix = np.empty((len(vocab), sum(t.dim for t in tables)))
    start = 0
    for seg, table in enumerate(tables):
        for row, word in zip(matrix[:, start:start + table.dim], vocab.words):
            vec = find(table.entries, word)
            if vec is None:
                vec = hashed_uniform(("word-segment", word, seg), seed, table.dim)
            row[:] = vec
        start += table.dim
    return matrix


def random_table(vocab: Vocabulary, dim: int, seed: int) -> np.ndarray:
    """The random ``(len(vocab), dim)`` matrix: :func:`assemble` over one empty table."""
    return assemble(vocab, [EmbeddingTable(dim, {})], seed)


def coverage_report(vocab: Vocabulary, tables: Sequence[EmbeddingTable]) -> CoverageStats:
    """How many vocabulary words :func:`find` finds in some source table.

    The reserved ``<unk>`` slot is not a corpus word and is excluded.  The
    coverage of one table is ``coverage_report(vocab, [table])``.
    """
    words = [w for w in vocab.words if w != UNK]
    covered = sum(1 for w in words if any(find(t.entries, w) is not None for t in tables))
    return CoverageStats(total_words=len(words), covered=covered)


def build_pseudo_corpus(records: Iterable[tuple[str, str]]) -> Iterator[list[str]]:
    """Turn (column title, cell text) records into pseudo-sentences.

    Each non-empty cell yields one sentence: the lowercased title tokens
    followed by the lowercased cell tokens.  Empty cells are skipped.
    """
    for title, cell in records:
        if not title.strip():
            raise DataError("column title must be non-empty")
        if not cell.strip():
            continue
        yield title.lower().split() + cell.lower().split()


def read_manifest(lines: Iterable[str]) -> list[tuple[str, str]]:
    """Parse a pseudo-corpus manifest: ``table_path<TAB>column_name`` lines."""
    out = []
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError("manifest lines must be 'table_path<TAB>column_name'", lineno)
        out.append((parts[0], parts[1]))
    return out


def csv_column_records(path: str, column: str) -> Iterator[tuple[str, str]]:
    """Yield (column, cell) records from one column of an RFC-4180 CSV file;
    a file the csv module cannot parse raises :class:`DataError` naming it."""
    reader = csv.DictReader(read_lines(path, newline=""))
    limit = csv.field_size_limit(CSV_FIELD_LIMIT)
    try:
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise DataError(f"{path}: no column named {column!r}")
        for row in reader:
            yield column, row[column] or ""
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    finally:
        csv.field_size_limit(limit)


def pseudo_corpus_from_manifest(manifest_path: str) -> Iterator[list[str]]:
    """All pseudo-sentences named by a manifest file, in manifest order."""
    targets = read_manifest(read_lines(manifest_path))
    for table_path, column in targets:
        yield from build_pseudo_corpus(csv_column_records(table_path, column))
