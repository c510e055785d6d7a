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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .embeddings import hashed_uniform

TOTAL_DIM = 146


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
    """One family's rows for a token sequence: a table row, or, for a
    value the table lacks, ``-1 - k`` where ``k`` is that value's row in
    ``fallback``."""

    rows: np.ndarray  # (T,)
    fallback: np.ndarray  # (number of distinct unseen values, dim), first seen first

    def gather(self, table: np.ndarray) -> np.ndarray:
        """(T, dim) vectors: table rows, and the fallback where a value is unseen."""
        if not len(self.fallback):
            return table[self.rows]
        unseen = self.rows < 0
        out = np.empty((len(self.rows), self.fallback.shape[1]))
        out[~unseen] = table[self.rows[~unseen]]
        out[unseen] = self.fallback[-1 - self.rows[unseen]]
        return out


@dataclass
class FeatureEncoder:
    """All six families plus the seed for unseen-value fallbacks."""

    families: list[FeatureFamily]
    seed: int

    @property
    def total_dim(self) -> int:
        return sum(f.dim for f in self.families)

    def _fallback(self, family: FeatureFamily, value: str) -> np.ndarray:
        return hashed_uniform(("feature", family.name, value), self.seed, family.dim)

    def rows(self, surfaces: Sequence[str]) -> tuple[FamilyRows, ...]:
        """Each family's table rows for ``surfaces``, with unseen-value fallbacks.

        Each family's value is computed once per distinct surface and each
        unseen value's fallback once, so gathering reads only the tables.
        """
        distinct = dict.fromkeys(surfaces)
        out = []
        for fam in self.families:
            unseen: dict[str, int] = {}  # each unseen value's fallback row, first seen first
            row = {}
            for s in distinct:
                v = fam.fn(s)
                row[s] = fam.index[v] if v in fam.index else -1 - unseen.setdefault(v, len(unseen))
            fallback = np.reshape([self._fallback(fam, v) for v in unseen], (-1, fam.dim))
            out.append(FamilyRows(np.array([row[s] for s in surfaces], dtype=np.intp), fallback))
        return tuple(out)


def build_feature_encoder(surfaces: Iterable[str], seed: int) -> FeatureEncoder:
    """Create an encoder whose tables cover every value seen in ``surfaces``.

    Table vectors are initialized uniformly in [-1, 1] from the same
    per-value generator that serves unseen values later, so building the
    encoder from a superset of surfaces never changes existing vectors.
    """
    surfaces = list(surfaces)
    families = []
    for name, dim, fn in FAMILY_SPECS:
        values = list(dict.fromkeys(fn(s) for s in surfaces))
        table = np.stack(
            [hashed_uniform(("feature", name, v), seed, dim) for v in values]
        ) if values else np.zeros((0, dim))
        families.append(FeatureFamily(name, dim, fn, values, {v: i for i, v in enumerate(values)}, table))
    return FeatureEncoder(families, seed)


def encode_surface(surface: str, encoder: FeatureEncoder) -> np.ndarray:
    """Concatenated 146-D feature vector for one token surface."""
    rows = encoder.rows([surface])
    return np.concatenate([r.gather(f.table)[0] for r, f in zip(rows, encoder.families)])

