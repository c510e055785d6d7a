"""Word-embedding tables: loading, concatenation, backfill, and coverage.

Tables are plain text, one entry per line: the word followed by its vector
components, all space-separated.  A model's vocabulary holds the words of
its learning split behind a reserved ``<unk>`` slot.  Vocabulary words
(``<unk>`` included) missing from every source table receive a per-word
deterministic random vector with coordinates in [-1, 1], so the
assembled table never depends on insertion order.  Words outside the
vocabulary get no vector of their own: they read the ``<unk>`` row,
which the recurrent taggers train.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataError, ParseError, read_lines

UNK = "<unk>"

PRETRAINED = "pretrained"
RANDOM = "random"
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


@dataclass
class EmbeddingTable:
    """word -> vector lookup with per-word provenance."""

    dim: int
    entries: dict[str, np.ndarray]
    provenance: dict[str, str]

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, word: str) -> np.ndarray | None:
        """Exact match first, then lowercased; None when both miss."""
        vec = self.entries.get(word)
        if vec is None:
            vec = self.entries.get(word.lower())
        return vec


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
    return EmbeddingTable(dim, entries, {w: PRETRAINED for w in entries})


def write_embedding_table(table: EmbeddingTable, out: TextIO):
    for word, vec in table.entries.items():
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


def assemble(vocab: Vocabulary, tables: Sequence[EmbeddingTable], seed: int) -> EmbeddingTable:
    """Concatenate source tables over a vocabulary, backfilling gaps.

    The output dimensionality is the sum of the source dims.  Each
    word's segment is copied from the corresponding table when present
    (exact match, then lowercased) and otherwise drawn uniformly from
    [-1, 1] by a deterministic per-(word, segment, seed) generator.  A
    word found in no table is fully random; provenance is ``pretrained``
    iff at least one segment was copied.
    """
    if not tables:
        raise ValueError("assemble needs at least one source table")

    dim = sum(t.dim for t in tables)
    entries: dict[str, np.ndarray] = {}
    provenance: dict[str, str] = {}
    for word in vocab.words:
        segments = []
        copied = False
        for seg, table in enumerate(tables):
            vec = table.lookup(word)
            if vec is not None:
                segments.append(vec)
                copied = True
            else:
                segments.append(hashed_uniform(("word-segment", word, seg), seed, table.dim))
        entries[word] = np.concatenate(segments)
        provenance[word] = PRETRAINED if copied else RANDOM
    return EmbeddingTable(dim, entries, provenance)


def random_table(vocab: Vocabulary, dim: int, seed: int) -> EmbeddingTable:
    """Fully random table over a vocabulary (no pretrained sources)."""
    entries = {w: hashed_uniform(("word-segment", w, 0), seed, dim) for w in vocab.words}
    return EmbeddingTable(dim, entries, {w: RANDOM for w in vocab.words})


def coverage_report(vocab: Vocabulary, table: EmbeddingTable) -> CoverageStats:
    """How much of the vocabulary carries pretrained vectors.

    The reserved ``<unk>`` slot is not a corpus word and is excluded.
    """
    words = [w for w in vocab.words if w != UNK]
    covered = sum(1 for w in words if table.provenance.get(w) == PRETRAINED)
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
