"""Strict entity-level scoring.

A predicted entity counts as a true positive only when its class and its
exact token boundaries match a gold entity.  False negatives are not
counted directly: they are derived per class as the number of gold
entities minus the true positives.  The aggregate row pools TP/FP/FN
across classes (micro average).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Sequence

from .corpus import Dataset, EntitySpan, Sentence, TagScheme, extract_entities, repair_bio
from .errors import DataError

AGGREGATE = "aggregate"


@dataclass(frozen=True)
class ClassCounts:
    """Strict-match counts for one entity class."""

    cls: str
    tp: int
    fp: int
    true_entities: int

    @property
    def fn(self) -> int:
        return self.true_entities - self.tp

    def __post_init__(self):
        if self.tp > self.true_entities:
            raise ValueError("true positives cannot exceed the number of gold entities")
        if min(self.tp, self.fp, self.true_entities) < 0:
            raise ValueError("counts must be non-negative")


@dataclass(frozen=True)
class MetricsEntry:
    precision: float
    recall: float
    f1: float


def effective_pred_tags(sentence: Sentence) -> list[str]:
    """Predicted tags of a sentence, falling back to the tag column.

    Two-column prediction files carry the predictions in the tag column;
    three-column files carry them in the third.
    """
    tags = sentence.pred_tags
    if any(t is None for t in tags):
        tags = sentence.gold_tags
    if any(t is None for t in tags):
        raise DataError("prediction sentence has untagged tokens")
    return list(tags)  # type: ignore[arg-type]


def strict_counts(
    gold: Dataset, pred: Dataset, scheme: TagScheme | None = None
) -> dict[str, ClassCounts]:
    """Count strict span matches per entity class.

    Predicted tag sequences are repaired before span extraction, so raw
    model output can be scored directly.  Gold and prediction datasets
    must have identical sentence/token structure.
    """
    if len(gold) != len(pred):
        raise DataError(f"gold has {len(gold)} sentences but predictions have {len(pred)}")
    for idx, (gs, ps) in enumerate(zip(gold, pred)):
        if gs.surfaces != ps.surfaces:
            raise DataError(f"sentence {idx}: token mismatch between gold and prediction files")
    gold_spans = [set(extract_entities(repair_bio(s.gold_tags))) for s in gold]  # type: ignore
    return span_counts(gold_spans, [repair_bio(effective_pred_tags(s)) for s in pred], scheme)


def span_counts(
    gold_spans: Iterable[set[EntitySpan]],
    pred_tags: Iterable[Sequence[str]],
    scheme: TagScheme | None = None,
) -> dict[str, ClassCounts]:
    """Per-class strict matches of each repaired predicted tag sequence
    against its sentence's gold spans; ``scheme`` orders the classes."""
    classes: list[str] = list(scheme.classes) if scheme is not None else []
    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    true_entities: dict[str, int] = {}

    def bump(d: dict[str, int], cls: str):
        if cls not in classes:
            classes.append(cls)
        d[cls] = d.get(cls, 0) + 1

    for gold, tags in zip(gold_spans, pred_tags):
        for span in gold:
            bump(true_entities, span.cls)
        for span in extract_entities(tags):
            bump(tp if span in gold else fp, span.cls)

    return {
        c: ClassCounts(c, tp.get(c, 0), fp.get(c, 0), true_entities.get(c, 0)) for c in classes
    }


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def prf(counts: ClassCounts) -> MetricsEntry:
    """Precision, recall, and F1 from strict counts; 0 on empty denominators."""
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return MetricsEntry(precision, recall, f1_score(precision, recall))


def pooled(counts: dict[str, ClassCounts]) -> ClassCounts:
    """Pool per-class counts into one aggregate (micro) count."""
    return ClassCounts(
        AGGREGATE,
        sum(c.tp for c in counts.values()),
        sum(c.fp for c in counts.values()),
        sum(c.true_entities for c in counts.values()),
    )


@dataclass(frozen=True)
class Metrics:
    """Per-class and micro-averaged strict scores."""

    per_class: dict[str, ClassCounts]

    @property
    def aggregate(self) -> ClassCounts:
        return pooled(self.per_class)

    def micro_f1(self) -> float:
        return prf(self.aggregate).f1

    def rows(self) -> list[ClassCounts]:
        """The counts of each class, then the aggregate's."""
        return [*self.per_class.values(), self.aggregate]


def evaluate(gold: Dataset, pred: Dataset, scheme: TagScheme | None = None) -> Metrics:
    return Metrics(strict_counts(gold, pred, scheme))


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
        e = prf(c)
        lines.append(
            f"{c.cls:<{width}}  {_pct(e.precision):>7}  {_pct(e.recall):>7}  {_pct(e.f1):>7}"
            f"  {c.tp:>5}  {c.fp:>5}  {c.fn:>5}"
        )
    rule = "-" * len(header)
    return "\n".join([header, rule, *lines[:-1], rule, lines[-1]])


def to_mapping(metrics: Metrics) -> dict:
    """Machine-readable counterpart of :func:`report` (full-precision ratios)."""
    out: dict = {}
    for c in metrics.rows():
        e = prf(c)
        out[c.cls] = {
            "tp": c.tp,
            "fp": c.fp,
            "fn": c.fn,
            "precision": e.precision,
            "recall": e.recall,
            "f1": e.f1,
        }
    return out
