"""BIO-tagged corpora: parsing, validation, repair, span extraction, splitting.

The on-disk format is CoNLL-style: one token per line, columns separated by
a single tab, sentences separated by blank lines.  Files carry one, two, or
three columns::

    surface                     unlabeled input for tagging
    surface<TAB>tag             gold-annotated data, or predicted tags
    surface<TAB>tag<TAB>pred    gold plus predicted tags

Column count must be consistent across a file.  A two-column file read
as a prediction file (see :func:`parse_conll`) holds predicted tags.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, TagValidationError

OUTSIDE = "O"


@dataclass(frozen=True)
class Token:
    """A single surface form with optional gold and predicted BIO tags."""

    surface: str
    gold_tag: str | None = None
    pred_tag: str | None = None

    def __post_init__(self):
        # str.split() splits at exactly the characters for which str.isspace() holds
        if not self.surface or self.surface.split() != [self.surface]:
            raise ValueError(f"token surface must be non-empty and whitespace-free: {self.surface!r}")


@dataclass(frozen=True)
class Sentence:
    """An ordered, non-empty sequence of tokens."""

    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    @property
    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    @property
    def gold_tags(self) -> list[str | None]:
        return [t.gold_tag for t in self.tokens]

    @property
    def pred_tags(self) -> list[str | None]:
        return [t.pred_tag for t in self.tokens]


@dataclass(frozen=True)
class Dataset:
    """An immutable ordered collection of sentences."""

    sentences: tuple[Sentence, ...] = ()

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def __getitem__(self, i) -> Sentence:
        return self.sentences[i]


@dataclass(frozen=True)
class TagScheme:
    """The BIO tag alphabet over an ordered set of entity classes.

    Tag indices are stable: ``O`` is index 0, followed by ``B-c``, ``I-c``
    for each class in order, giving ``2 * len(classes) + 1`` tags.
    """

    classes: tuple[str, ...]
    tags: tuple[str, ...] = field(init=False)
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if not self.classes:
            raise ValueError("tag scheme needs at least one entity class")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("entity classes must be unique")
        tags = [OUTSIDE]
        for c in self.classes:
            tags.append(f"B-{c}")
            tags.append(f"I-{c}")
        object.__setattr__(self, "tags", tuple(tags))
        object.__setattr__(self, "index", {t: i for i, t in enumerate(tags)})

    def __len__(self) -> int:
        return len(self.tags)

    def __contains__(self, tag: str) -> bool:
        return tag in self.index


@dataclass(frozen=True, order=True)
class EntitySpan:
    """A labeled token span; ``end`` is exclusive."""

    start: int
    end: int
    cls: str


def split_tag(tag: str) -> tuple[str, str | None]:
    """Split a BIO tag into prefix and class, e.g. ``B-drug`` -> (``B``, ``drug``)."""
    if tag == OUTSIDE:
        return OUTSIDE, None
    prefix, _, cls = tag.partition("-")
    return prefix, cls


def parse_conll(
    source: str | Iterable[str], scheme: TagScheme | None, *, predictions: bool = False
) -> Dataset:
    """Parse CoNLL-style text into a :class:`Dataset`.

    ``source`` may be a whole document string or an iterable of lines
    (e.g. an open file).  Every tag is validated against ``scheme``
    unless it is None (to derive a scheme from the tags afterwards); the
    column count is fixed by the first non-blank line.  Invalid gold BIO
    warns (see :func:`repair_bio`).  With ``predictions`` the file is a
    prediction file: the tag column of a two-column file holds predicted
    tags, a three-column file reads as it always does, and no tag warns.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]

    sentences: list[Sentence] = []
    tokens: list[Token] = []
    ncols: int | None = None

    def flush():
        if tokens:
            sent = Sentence(tuple(tokens))
            if not predictions:
                _warn_on_invalid_gold(sent, len(sentences))
            sentences.append(sent)
            tokens.clear()

    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            flush()
            continue
        fields = line.split("\t")
        if ncols is None:
            if len(fields) > 3:
                raise ParseError(f"expected at most 3 tab-separated columns, got {len(fields)}", lineno)
            ncols = len(fields)
        elif len(fields) != ncols:
            raise ParseError(f"expected {ncols} tab-separated columns, got {len(fields)}", lineno)

        surface = fields[0]
        if not surface or any(ch.isspace() for ch in surface):
            raise ParseError(f"bad surface form {surface!r} (empty or contains whitespace)", lineno)
        gold = fields[1] if ncols >= 2 else None
        pred = fields[2] if ncols >= 3 else None
        if predictions and ncols == 2:
            gold, pred = None, gold
        for tag in (gold, pred):
            if scheme is not None and tag is not None and tag not in scheme:
                raise TagValidationError(f"line {lineno}: unknown tag {tag!r}")
        tokens.append(Token(surface, gold, pred))

    flush()
    return Dataset(tuple(sentences))


def _warn_on_invalid_gold(sentence: Sentence, sent_idx: int):
    # Gold tags are trusted as-is, but structurally invalid BIO (an I that
    # does not continue a same-class entity) is flagged for the user: it is
    # where repair_bio changes a tag.
    tags = sentence.gold_tags
    if any(t is None for t in tags):
        return
    for pos, (tag, repaired) in enumerate(zip(tags, repair_bio(tags))):  # type: ignore[arg-type]
        if tag != repaired:
            warnings.warn(
                f"sentence {sent_idx}: gold tag {tag} at position {pos} does not continue "
                f"a same-class entity; kept as-is",
                stacklevel=3,
            )


def write_conll(data: Dataset) -> str:
    """Serialize a dataset back to CoNLL text (inverse of :func:`parse_conll`).

    Each token's row is its surface, then its gold tag and its predicted
    tag where present, so predicted tags without gold tags make a
    two-column prediction file.  Every token must have the same tags.
    """
    all_tokens = [t for s in data for t in s]
    has_gold = [t.gold_tag is not None for t in all_tokens]
    has_pred = [t.pred_tag is not None for t in all_tokens]
    if any(has_gold) and not all(has_gold):
        raise ValueError("cannot serialize a dataset with partially present gold tags")
    if any(has_pred) and not all(has_pred):
        raise ValueError("cannot serialize a dataset with partially present predicted tags")

    out: list[str] = []
    for sent in data:
        for tok in sent:
            cols = [tok.surface]
            if tok.gold_tag is not None:
                cols.append(tok.gold_tag)
            if tok.pred_tag is not None:
                cols.append(tok.pred_tag)
            out.append("\t".join(cols))
        out.append("")
    return "\n".join(out) + ("\n" if out else "")


def repair_bio(tags: Sequence[str]) -> list[str]:
    """Make a BIO tag sequence structurally valid.

    An ``I-c`` that does not directly continue a ``B-c`` or ``I-c`` of the
    same class (sentence start, after ``O``, or after a different class)
    becomes ``B-c``.  All other positions are unchanged; the function is
    idempotent and total on scheme tags.
    """
    repaired: list[str] = []
    prev_cls: str | None = None
    for tag in tags:
        prefix, cls = split_tag(tag)
        if prefix == "I" and cls != prev_cls:
            tag = f"B-{cls}"
        repaired.append(tag)
        prev_cls = cls if prefix in ("B", "I") else None
    return repaired


def extract_entities(tags: Sequence[str]) -> list[EntitySpan]:
    """Extract entity spans from an already-repaired BIO sequence.

    Each maximal ``B-c (I-c)*`` run yields one span.  A sequence that
    still contains a dangling ``I`` raises :class:`TagValidationError`;
    run :func:`repair_bio` first.
    """
    spans: list[EntitySpan] = []
    start: int | None = None
    cur_cls: str | None = None

    def close(end: int):
        nonlocal start, cur_cls
        if start is not None:
            spans.append(EntitySpan(start, end, cur_cls))  # type: ignore[arg-type]
        start, cur_cls = None, None

    for pos, tag in enumerate(tags):
        prefix, cls = split_tag(tag)
        if prefix == OUTSIDE:
            close(pos)
        elif prefix == "B":
            close(pos)
            start, cur_cls = pos, cls
        elif prefix == "I":
            if cls != cur_cls:
                raise TagValidationError(
                    f"unrepaired sequence: {tag} at position {pos} does not continue a {cls} entity"
                )
        else:
            raise TagValidationError(f"unknown tag prefix in {tag!r} at position {pos}")
    close(len(tags))
    return spans


def split_train_valid(data: Dataset, ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Randomly partition sentences into two disjoint datasets.

    The first part receives ``ceil(ratio * N)`` sentences.  The split is
    deterministic for a fixed seed.
    """
    n_first = math.ceil(ratio * len(data))
    order = np.random.default_rng(seed).permutation(len(data))
    first = Dataset(tuple(data[i] for i in order[:n_first]))
    second = Dataset(tuple(data[i] for i in order[n_first:]))
    return first, second
