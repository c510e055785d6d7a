import pytest

from seqtag.corpus import TagScheme, parse_conll
from seqtag.errors import DataError
from seqtag.evaluation import (
    AGGREGATE,
    ClassCounts,
    evaluate,
    f1_score,
    pooled,
    prf,
    report,
    strict_counts,
    to_mapping,
)

SCHEME = TagScheme(("problem", "test", "treatment"))


def sentences(pairs):
    """Build gold/pred datasets from (surface_tags, pred_tags) token rows."""
    gold_lines, pred_lines = [], []
    for gold_sent, pred_sent in pairs:
        for (surface, g), p in zip(gold_sent, pred_sent):
            gold_lines.append(f"{surface}\t{g}")
            pred_lines.append(f"{surface}\t{p}")
        gold_lines.append("")
        pred_lines.append("")
    gold = parse_conll("\n".join(gold_lines), SCHEME)
    pred = parse_conll("\n".join(pred_lines), SCHEME, warn_invalid_gold=False)
    return gold, pred


class TestStrictCounts:
    def test_boundary_mismatch_is_fp_plus_fn(self):
        # gold entity covers tokens 0..3, prediction starts one token late
        gold, pred = sentences(
            [
                (
                    [
                        ("recently", "B-problem"),
                        ("diagnosed", "I-problem"),
                        ("abdominal", "I-problem"),
                        ("carcinomatosis", "I-problem"),
                    ],
                    ["O", "B-problem", "I-problem", "I-problem"],
                )
            ]
        )
        counts = strict_counts(gold, pred)["problem"]
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_perfect_match(self):
        rows = [
            ("the", "O"),
            ("chest", "B-test"),
            ("x-ray", "I-test"),
            ("showed", "O"),
            ("pneumonia", "B-problem"),
        ]
        gold, pred = sentences([(rows, [t for _, t in rows])])
        counts = strict_counts(gold, pred)
        assert counts["test"].tp == 1 and counts["problem"].tp == 1
        assert all(c.fp == 0 and c.fn == 0 for c in counts.values())

    def test_three_sentence_fixture_matches_set_intersection_oracle(self):
        # Oracle: span sets written out by hand.
        # S0 gold {(0,2,problem)}          pred {(0,2,problem)}        -> TP
        # S1 gold {(1,2,test),(3,4,test)}  pred {(1,3,test)}           -> FP, 2 FN
        # S2 gold {}                       pred {(0,1,treatment)}      -> FP
        gold, pred = sentences(
            [
                (
                    [("severe", "B-problem"), ("rash", "I-problem"), ("seen", "O")],
                    ["B-problem", "I-problem", "O"],
                ),
                (
                    [("a", "O"), ("ekg", "B-test"), ("and", "O"), ("mri", "B-test")],
                    ["O", "B-test", "I-test", "O"],
                ),
                (
                    [("rest", "O"), ("advised", "O")],
                    ["B-treatment", "O"],
                ),
            ]
        )
        counts = strict_counts(gold, pred, SCHEME)
        assert (counts["problem"].tp, counts["problem"].fp, counts["problem"].fn) == (1, 0, 0)
        assert (counts["test"].tp, counts["test"].fp, counts["test"].fn) == (0, 1, 2)
        assert (counts["treatment"].tp, counts["treatment"].fp, counts["treatment"].fn) == (0, 1, 0)

    def test_predictions_are_repaired_before_scoring(self):
        # dangling I at sentence start must be treated as B
        gold, pred = sentences(
            [([("aspirin", "B-treatment")], ["I-treatment"])]
        )
        counts = strict_counts(gold, pred)["treatment"]
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)

    def test_structural_mismatch_names_sentence(self):
        gold, _ = sentences([([("a", "O")], ["O"])])
        _, pred = sentences([([("b", "O")], ["O"])])
        with pytest.raises(DataError, match="sentence 0"):
            strict_counts(gold, pred)

    def test_sentence_count_mismatch(self):
        gold, _ = sentences([([("a", "O")], ["O"]), ([("b", "O")], ["O"])])
        _, pred = sentences([([("a", "O")], ["O"])])
        with pytest.raises(DataError):
            strict_counts(gold, pred)

    def test_fn_is_derived_from_entity_totals(self):
        gold, pred = sentences(
            [
                (
                    [("x", "B-problem"), ("y", "B-problem"), ("z", "B-problem")],
                    ["B-problem", "O", "O"],
                )
            ]
        )
        counts = strict_counts(gold, pred)["problem"]
        assert counts.true_entities == 3
        assert counts.fn == counts.true_entities - counts.tp == 2


class TestPrf:
    def test_balanced_counts(self):
        entry = prf(ClassCounts("c", tp=1, fp=1, true_entities=2))
        assert entry.precision == entry.recall == entry.f1 == 0.5

    def test_zero_tp_convention(self):
        entry = prf(ClassCounts("c", tp=0, fp=0, true_entities=0))
        assert (entry.precision, entry.recall, entry.f1) == (0.0, 0.0, 0.0)

    def test_reported_row_consistency(self):
        # published per-class row: P=81.69, R=87.88 -> F1=84.67
        assert abs(f1_score(0.8169, 0.8788) - 0.8467) < 1e-4


class TestReport:
    def test_single_class_aggregate_equals_row(self):
        gold, pred = sentences([([("a", "B-problem")], ["B-problem"])])
        metrics = evaluate(gold, pred)
        assert metrics.aggregate.tp == metrics.per_class["problem"].tp
        text = report(metrics)
        assert "problem" in text and AGGREGATE in text

    def test_empty_predictions_give_zero_rows(self):
        gold, pred = sentences(
            [([("a", "B-problem"), ("b", "B-test")], ["O", "O"])]
        )
        metrics = evaluate(gold, pred, SCHEME)
        for cls in ("problem", "test"):
            e = prf(metrics.per_class[cls])
            assert (e.precision, e.recall, e.f1) == (0.0, 0.0, 0.0)
        assert "0.00" in report(metrics)

    def test_micro_average_matches_pooled_count_oracle(self):
        gold, pred = sentences(
            [
                (
                    [("a", "B-problem"), ("b", "O"), ("c", "B-test")],
                    ["B-problem", "B-problem", "B-test"],
                ),
                (
                    [("d", "B-test"), ("e", "I-test")],
                    ["B-test", "O"],
                ),
            ]
        )
        metrics = evaluate(gold, pred)
        counts = metrics.per_class
        tp = sum(c.tp for c in counts.values())
        fp = sum(c.fp for c in counts.values())
        fn = sum(c.fn for c in counts.values())
        agg = metrics.aggregate
        assert (agg.tp, agg.fp, agg.fn) == (tp, fp, fn)
        oracle = prf(ClassCounts(AGGREGATE, tp, fp, tp + fn))
        assert prf(metrics.aggregate) == oracle

    def test_mapping_has_all_fields(self):
        gold, pred = sentences([([("a", "B-problem")], ["B-problem"])])
        mapping = to_mapping(evaluate(gold, pred, SCHEME))
        assert set(mapping) == {"problem", "test", "treatment", AGGREGATE}
        assert set(mapping["problem"]) == {"tp", "fp", "fn", "precision", "recall", "f1"}


class TestInvariants:
    def test_tp_plus_fp_equals_total_predicted_spans(self):
        gold, pred = sentences(
            [
                (
                    [("a", "O"), ("b", "B-test"), ("c", "O")],
                    ["B-problem", "I-problem", "B-test"],
                )
            ]
        )
        counts = strict_counts(gold, pred)
        assert sum(c.tp + c.fp for c in counts.values()) == 2
        assert sum(c.tp for c in counts.values()) <= 2

    def test_reordering_sentences_keeps_micro_f1(self):
        pairs = [
            ([("a", "B-problem"), ("b", "I-problem")], ["B-problem", "O"]),
            ([("c", "B-test")], ["B-test"]),
            ([("d", "O"), ("e", "B-treatment")], ["B-treatment", "B-treatment"]),
        ]
        gold, pred = sentences(pairs)
        gold_r, pred_r = sentences(pairs[::-1])
        assert evaluate(gold, pred).micro_f1() == evaluate(gold_r, pred_r).micro_f1()

    def test_gold_against_itself_is_perfect(self):
        rows = [
            ([("a", "B-problem"), ("b", "I-problem")], ["B-problem", "I-problem"]),
            ([("c", "B-test"), ("d", "O")], ["B-test", "O"]),
        ]
        gold, pred = sentences(rows)
        metrics = evaluate(gold, pred)
        for cls, c in metrics.per_class.items():
            if c.true_entities:
                e = prf(c)
                assert e.precision == e.recall == e.f1 == 1.0

    def test_pooled_helper(self):
        counts = {
            "a": ClassCounts("a", 2, 1, 3),
            "b": ClassCounts("b", 0, 2, 1),
        }
        agg = pooled(counts)
        assert (agg.tp, agg.fp, agg.fn, agg.true_entities) == (2, 3, 2, 4)
