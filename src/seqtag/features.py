"""Hand-crafted token features encoded as short trainable vectors.

Six feature families are computed from the token surface; every distinct
feature value owns a short random vector of the family's dimensionality,
and a token's feature representation is the concatenation of its six
sub-vectors, 146 coordinates in total:

    case pattern            8
    digit/punct make-up     8
    length bucket          10
    3-char prefix          40
    3-char suffix          40
    coarse token class     40

The vectors are model parameters: values seen when the encoder is built
get table rows that training updates; values first seen later fall back
to a deterministic per-(family, value, seed) random vector.  All families
except the case pattern are case-insensitive, so surfaces differing only
in capitalization differ only in the case sub-vector.

Table rows and fallbacks come from one stream,
:func:`seqtag.embeddings.hashed_uniform`: the key ("feature", family,
value) and the seed -> SHA-256 -> a 64-bit seed -> numpy's
``SeedSequence`` -> ``PCG64`` -> ``uniform(-1, 1, dim)``.  Building the
encoder draws every family's rows in one call, and each :meth:`rows`
call draws every family's unseen values in one call, or none.

Each :meth:`FeatureEncoder.rows` call reads a batch's distinct surfaces
(see :func:`seqtag.network.encode`).  A value's table row never changes
once the encoder exists (training updates the vectors, not the rows), so
the encoder keeps each vocabulary word's six rows the first time it meets
the word.  Only exact vocabulary words whose six values all have rows are
kept: a fallback row ``-1 - k`` belongs to one call.  The vocabulary
bounds what is kept, whatever the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .embeddings import hashed_uniform


def case_pattern(surface: str) -> str:
    letters = [ch for ch in surface if ch.isalpha()]
    if not letters:
        return "no-letters"
    if all(ch.islower() for ch in letters):
        return "lower"
    if all(ch.isupper() for ch in letters):
        return "upper"
    if surface[0].isupper() and all(ch.islower() for ch in letters[1:]):
        return "capitalized"
    return "mixed-case"


def digit_punct(surface: str) -> str:
    has_digit = any(ch.isdigit() for ch in surface)
    has_punct = any(not ch.isalnum() for ch in surface)
    has_alpha = any(ch.isalpha() for ch in surface)
    return f"d{int(has_digit)}p{int(has_punct)}a{int(has_alpha)}"


def length_bucket(surface: str) -> str:
    return f"len{min(len(surface), 10)}"


def prefix3(surface: str) -> str:
    return surface.lower()[:3]


def suffix3(surface: str) -> str:
    return surface.lower()[-3:]


def token_class(surface: str) -> str:
    # Coarse class plus surface-level flags; deliberately case-insensitive.
    s = surface.lower()
    has_alpha = any(ch.isalpha() for ch in s)
    has_digit = any(ch.isdigit() for ch in s)
    if has_alpha and "." in s:
        cls = "abbrev"
    elif has_alpha and has_digit:
        cls = "mixed"
    elif has_digit:
        cls = "number"
    elif has_alpha:
        cls = "word"
    else:
        cls = "symbol"
    if "-" in s:
        cls += "+hyphen"
    return cls


FAMILY_SPECS: tuple[tuple[str, int, Callable[[str], str]], ...] = (
    ("case", 8, case_pattern),
    ("digit-punct", 8, digit_punct),
    ("length", 10, length_bucket),
    ("prefix3", 40, prefix3),
    ("suffix3", 40, suffix3),
    ("token-class", 40, token_class),
)


@dataclass
class FeatureFamily:
    """One feature family: its value table and trainable vectors."""

    name: str
    dim: int
    fn: Callable[[str], str]
    values: list[str]
    index: dict[str, int]
    table: np.ndarray  # (len(values), dim)


@dataclass(frozen=True)
class FamilyRows:
    """One family's rows for distinct surfaces: a table row, or, for a
    value the table lacks, ``-1 - k`` where ``k`` is that value's row in
    ``fallback``."""

    rows: np.ndarray  # (S,)
    fallback: np.ndarray  # (number of distinct unseen values, dim), first seen first

    def gather(self, table: np.ndarray) -> np.ndarray:
        """Each surface's vector: its table row, or its unseen value's fallback."""
        if not len(self.fallback):
            return table[self.rows]
        unseen = self.rows < 0
        out = np.empty((len(self.rows), self.fallback.shape[1]))
        out[~unseen] = table[self.rows[~unseen]]
        out[unseen] = self.fallback[-1 - self.rows[unseen]]
        return out


@dataclass
class FeatureEncoder:
    """All six families, the seed for unseen-value fallbacks, and the
    vocabulary (each word's index) whose words' rows are kept.

    ``kept`` holds the six table rows of each vocabulary word met so far:
    row ``i`` belongs to word ``i`` and reads -1 until the word is met,
    and an extra last row stays -1 for the surfaces outside the
    vocabulary.  Sized once, as one integer array, it leaves no small
    Python objects behind each call to fragment the heap.  Nothing is
    kept for unseen values: their fallback rows index one call's draws.
    """

    families: list[FeatureFamily]
    seed: int
    vocab: Mapping[str, int] = field(repr=False, compare=False)
    kept: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.kept = np.full((len(self.vocab) + 1, len(self.families)), -1, dtype=np.intp)

    @property
    def total_dim(self) -> int:
        return sum(f.dim for f in self.families)

    def rows(self, distinct: Sequence[str]) -> tuple[FamilyRows, ...]:
        """Each family's table rows for the distinct surfaces ``distinct``,
        with unseen-value fallbacks.

        The family values of each surface with no kept rows are computed
        once, and each unseen value's fallback once, so gathering reads
        only the tables.  A vocabulary word whose values all have table
        rows is kept.
        """
        words = np.array([self.vocab.get(s, -1) for s in distinct], dtype=np.intp)
        grid = self.kept[words]  # each surface's rows, -1 where none are kept
        unseen: list[dict[str, int]] = [{} for _ in self.families]  # first seen first
        for k in np.flatnonzero(grid[:, 0] < 0).tolist():
            s = distinct[k]
            grid[k] = [
                fam.index[v] if (v := fam.fn(s)) in fam.index else -1 - u.setdefault(v, len(u))
                for fam, u in zip(self.families, unseen)
            ]
        keep = (words >= 0) & (grid >= 0).all(axis=1)
        self.kept[words[keep]] = grid[keep]
        fallbacks = _value_vectors(
            ((fam.name, fam.dim, u) for fam, u in zip(self.families, unseen)), self.seed
        ) if any(unseen) else [np.empty((0, fam.dim)) for fam in self.families]
        return tuple(map(FamilyRows, grid.T.copy(), fallbacks))


def _value_vectors(
    families: Iterable[tuple[str, int, Iterable[str]]], seed: int
) -> list[np.ndarray]:
    """Each (name, dim, values) family's ``(len(values), dim)`` vectors,
    keyed by (family, value, seed), all drawn in one call."""
    return hashed_uniform(
        [([("feature", name, v) for v in values], dim) for name, dim, values in families], seed
    )


def build_feature_encoder(
    surfaces: Iterable[str], seed: int, vocab: Mapping[str, int]
) -> FeatureEncoder:
    """Create an encoder whose tables cover every value seen in ``surfaces``
    and which keeps the rows of the words of ``vocab``.

    Table vectors are initialized uniformly in [-1, 1] from the same
    per-value stream that serves unseen values later, so building the
    encoder from a superset of surfaces never changes existing vectors.
    """
    surfaces = list(surfaces)
    values = [list(dict.fromkeys(map(fn, surfaces))) for _, _, fn in FAMILY_SPECS]
    tables = _value_vectors(
        ((name, dim, vals) for (name, dim, _), vals in zip(FAMILY_SPECS, values)), seed
    )
    families = [
        FeatureFamily(name, dim, fn, vals, {v: i for i, v in enumerate(vals)}, table)
        for (name, dim, fn), vals, table in zip(FAMILY_SPECS, values, tables)
    ]
    return FeatureEncoder(families, seed, vocab)


def encode_surface(surface: str, encoder: FeatureEncoder) -> np.ndarray:
    """Concatenated 146-D feature vector for one token surface."""
    rows = encoder.rows([surface])
    return np.concatenate([r.gather(f.table)[0] for r, f in zip(rows, encoder.families)])

