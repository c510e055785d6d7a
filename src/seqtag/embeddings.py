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
from numpy.random.bit_generator import ISeedSequence

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


# numpy's SeedSequence (numpy/random/bit_generator.pyx) mixes a pool of 4
# uint32 words with hash constants that do not depend on the data: each
# ``hashmix`` XORs the value with the running constant, steps the constant
# by its multiplier, and multiplies the value by the new constant.
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(const: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The XOR and multiplier constants of ``n`` successive ``hashmix`` calls, as (n, 1) columns."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(const)
        const = const * mult & 0xFFFFFFFF
        mults.append(const)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # 4 to fill, then 3 per round
_STATE_XOR, _STATE_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # 8 uint32 words out
_OTHERS = [[d for d in range(4) if d != src] for src in range(4)]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def seed_states(seeds: np.ndarray) -> np.ndarray:
    """The ``(len(seeds), 4)`` uint64 words that
    ``np.random.SeedSequence(s).generate_state(4, np.uint64)`` gives for
    each 64-bit seed ``s``, computed for all seeds in one pass.

    SeedSequence reads a seed as its uint32 words, low first, and hashes
    the zeros that fill its 4-word pool as it hashes a zero high word, so
    every seed fills the pool as ``[low, high, 0, 0]``.  Each mixing round
    updates the three other pool words at once.
    """
    halves = np.ascontiguousarray(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T
    entropy = np.zeros((4, halves.shape[1]), dtype=np.uint32)
    entropy[:2] = halves
    pool = _hashmix(entropy, _POOL_XOR[:4], _POOL_MULT[:4])
    for src, others in enumerate(_OTHERS):
        rows = slice(4 + 3 * src, 7 + 3 * src)
        hashed = _hashmix(pool[src], _POOL_XOR[rows], _POOL_MULT[rows])
        mixed = _MIX_MULT_L * pool[others] - _MIX_MULT_R * hashed
        pool[others] = mixed ^ (mixed >> np.uint32(16))
    return generate_state(pool)


def generate_state(pool: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` of each column of the
    ``(4, n)`` uint32 ``pool``: the ``(n, 4)`` uint64 words."""
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MULT)
    # word pairs read as little-endian uint64, as numpy reads them
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class StateWords(ISeedSequence):
    """Seeds one ``PCG64`` with 4 words of :func:`seed_states`.

    PCG64 asks its seed sequence for 4 uint64 words.  Any other request
    means numpy seeds it another way, and the words would no longer be
    SeedSequence's, so it raises.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(
                f"PCG64 asked for {n_words} words of {np.dtype(dtype)}, not 4 of uint64"
            )
        return self.words


def uniform_rows(seeds: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """The rows ``np.random.Generator(np.random.PCG64(s)).uniform(-1, 1, dim)``
    gives for each 64-bit seed ``s`` and its ``dim``, concatenated, drawn
    bitwise the same but all at once.

    One vectorized pass computes every seed's ``SeedSequence`` state; then
    each seed's ``PCG64`` writes its raw outputs into one buffer, and one
    conversion turns them all into floats.
    """
    values = np.empty(sum(dims))
    bits = values.view(np.uint64)  # the raw outputs, then their floats
    end = 0
    for words, dim in zip(seed_states(seeds), dims):
        bits[end:end + dim] = np.random.PCG64(StateWords(words)).random_raw(dim)
        end += dim
    # uniform(-1, 1) is -1 + 2 * (x * 2**-53) for the top 53 bits x of each
    # output.  Every step is exact in float64, so x * 2**-52 - 1 is that
    # value.  The cast reuses the buffer: each element is read, then written.
    # Blocks of 64k values stay in cache through the four passes.
    for start in range(0, len(values), 1 << 16):
        block = values[start:start + (1 << 16)]
        raw = block.view(np.uint64)
        raw >>= np.uint64(11)
        block[...] = raw
        block *= 2.0**-52
        block -= 1.0
    return values


def hashed_uniform(
    groups: Sequence[tuple[Sequence[Sequence[object]], int]], seed: int
) -> list[np.ndarray]:
    """Deterministic uniform [-1, 1] rows keyed by (key, seed), every row
    of the call drawn at once.

    ``groups`` pairs keys with the length of their rows; the result holds
    each group's ``(len(keys), dim)`` matrix, a row per key in key order.
    The stream is stable across runs and platforms: the key's parts and
    ``seed``, joined by ``"\\x1f"`` -> SHA-256 -> its first 8 bytes as a
    little-endian 64-bit seed -> ``SeedSequence`` -> ``PCG64`` ->
    ``uniform(-1, 1, dim)`` (:func:`uniform_rows`).
    """
    suffix = f"\x1f{seed}"
    digests = b"".join(
        hashlib.sha256(("\x1f".join([str(part) for part in key]) + suffix).encode("utf-8"))
        .digest()[:8] for group, _ in groups for key in group
    )
    dims = [dim for group, dim in groups for _ in group]
    values = uniform_rows(np.frombuffer(digests, dtype="<u8"), dims)
    out, start = [], 0
    for group, dim in groups:
        out.append(values[start:start + len(group) * dim].reshape(len(group), dim))
        start += len(group) * dim
    return out


def assemble(vocab: Vocabulary, tables: Sequence[EmbeddingTable], seed: int) -> np.ndarray:
    """The ``(len(vocab), sum of the table dims)`` matrix of the source
    tables concatenated over a vocabulary, one row per word in vocabulary
    order.

    A row's segment is copied from the corresponding table when
    :func:`find` finds the word there, and otherwise drawn uniformly from
    [-1, 1] by :func:`hashed_uniform`, keyed by (word, segment) and
    ``seed``; one call draws all of a segment's missing words.
    """
    if not tables:
        raise ValueError("assemble needs at least one source table")

    matrix = np.empty((len(vocab), sum(t.dim for t in tables)))
    start = 0
    for seg, table in enumerate(tables):
        block = matrix[:, start:start + table.dim]
        missing = []
        for i, word in enumerate(vocab.words):
            vec = find(table.entries, word)
            if vec is None:
                missing.append(i)
            else:
                block[i] = vec
        keys = _segment_keys([vocab.words[i] for i in missing], seg)
        block[missing] = hashed_uniform([(keys, table.dim)], seed)[0]
        start += table.dim
    return matrix


def _segment_keys(words: Iterable[str], seg: int) -> list[tuple[str, str, int]]:
    return [("word-segment", word, seg) for word in words]


def random_table(vocab: Vocabulary, dim: int, seed: int) -> np.ndarray:
    """The random ``(len(vocab), dim)`` matrix, :func:`assemble` over one
    empty table: every word's row is drawn, into the matrix itself."""
    return hashed_uniform([(_segment_keys(vocab.words, 0), dim)], seed)[0]


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
