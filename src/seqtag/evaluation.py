"""Strict entity-level scoring.

A predicted entity counts as a true positive only when its class and its
exact token boundaries match a gold entity.  False negatives are not
counted directly: they are derived per class as the number of gold
entities minus the true positives.  The rows are the classes of the tag
scheme, in its order, then an aggregate row that sums their counts
(micro average); each row's counts give its precision, recall and F1.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Sequence

from .corpus import Dataset, EntitySpan, TagScheme, extract_entities, repair_bio, split_tag
from .errors import DataError, TagValidationError

AGGREGATE = "aggregate"


@dataclass(frozen=True)
class ClassCounts:
    """Strict-match counts for one entity class; a ratio with an empty
    denominator is 0."""

    cls: str
    tp: int
    fp: int
    true_entities: int

    @property
    def fn(self) -> int:
        return self.true_entities - self.tp

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / self.true_entities if self.true_entities else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def span_counts(
    gold_spans: Iterable[set[EntitySpan]],
    pred_tags: Iterable[Sequence[str]],
    scheme: TagScheme,
) -> dict[str, ClassCounts]:
    """Per-class strict matches of each repaired predicted tag sequence
    against its sentence's gold spans, one row per class of ``scheme``,
    in order; every span's class must be one of them."""
    tp, fp, true_entities = ({c: 0 for c in scheme.classes} for _ in range(3))
    for gold, tags in zip(gold_spans, pred_tags):
        for span in gold:
            true_entities[span.cls] += 1
        for span in extract_entities(tags):
            (tp if span in gold else fp)[span.cls] += 1
    return {c: ClassCounts(c, tp[c], fp[c], true_entities[c]) for c in scheme.classes}


@dataclass(frozen=True)
class Metrics:
    """Per-class and micro-averaged strict scores."""

    per_class: dict[str, ClassCounts]

    @property
    def aggregate(self) -> ClassCounts:
        counts = self.per_class.values()
        return ClassCounts(
            AGGREGATE,
            sum(c.tp for c in counts),
            sum(c.fp for c in counts),
            sum(c.true_entities for c in counts),
        )

    def micro_f1(self) -> float:
        return self.aggregate.f1

    def rows(self) -> list[ClassCounts]:
        """The counts of each class, then the aggregate's."""
        return [*self.per_class.values(), self.aggregate]


def evaluate(gold: Dataset, pred: Dataset, scheme: TagScheme) -> Metrics:
    """Strict scores of the predicted tags of ``pred`` against the gold
    tags of ``gold``, one row per class of ``scheme``.

    Predicted tag sequences are repaired before span extraction, so raw
    model output can be scored directly.  Gold and prediction datasets
    must have identical sentence/token structure and only ``scheme``'s classes.
    """
    if len(gold) != len(pred):
        raise DataError(f"gold has {len(gold)} sentences but predictions have {len(pred)}")
    for idx, (gs, ps) in enumerate(zip(gold, pred)):
        if gs.surfaces != ps.surfaces:
            raise DataError(f"sentence {idx}: token mismatch between gold and prediction files")
        if None in gs.gold_tags:
            raise DataError(f"sentence {idx}: gold sentence has untagged tokens")
        if None in ps.pred_tags:
            raise DataError(f"sentence {idx}: prediction sentence has untagged tokens")
        bad = [split_tag(t)[1] for t in (*gs.gold_tags, *ps.pred_tags) if t not in scheme]
        if bad:
            raise TagValidationError(f"sentence {idx}: class {bad[0]!r} is not in {scheme.classes}")
    gold_spans = [set(extract_entities(repair_bio(s.gold_tags))) for s in gold]  # type: ignore
    pred_tags = [repair_bio(s.pred_tags) for s in pred]  # type: ignore[arg-type]
    return Metrics(span_counts(gold_spans, pred_tags, scheme))


def _pct(x: float) -> str:
    # Two decimals, half-up: 0.84665 -> '84.67'.
    return str(Decimal(x * 100).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def report(metrics: Metrics) -> str:
    """Human-readable table: one row per class plus the micro average."""
    rows = metrics.rows()
    width = max(len(c.cls) for c in rows)
    header = f"{'entity':<{width}}  {'prec':>7}  {'recall':>7}  {'f1':>7}  {'tp':>5}  {'fp':>5}  {'fn':>5}"
    lines = []
    for c in rows:
        lines.append(
            f"{c.cls:<{width}}  {_pct(c.precision):>7}  {_pct(c.recall):>7}  {_pct(c.f1):>7}"
            f"  {c.tp:>5}  {c.fp:>5}  {c.fn:>5}"
        )
    rule = "-" * len(header)
    return "\n".join([header, rule, *lines[:-1], rule, lines[-1]])


def to_mapping(metrics: Metrics) -> dict:
    """Machine-readable counterpart of :func:`report` (full-precision ratios)."""
    out: dict = {}
    for c in metrics.rows():
        out[c.cls] = {
            "tp": c.tp,
            "fp": c.fp,
            "fn": c.fn,
            "precision": c.precision,
            "recall": c.recall,
            "f1": c.f1,
        }
    return out
