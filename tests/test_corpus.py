import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.corpus import (
    Dataset,
    EntitySpan,
    Sentence,
    TagScheme,
    Token,
    extract_entities,
    parse_conll,
    repair_bio,
    split_train_valid,
    write_conll,
)
from seqtag.errors import ParseError, SeqtagError, TagValidationError

DRUG_SCHEME = TagScheme(("drug", "brand", "group", "drug_n"))
CLINICAL_SCHEME = TagScheme(("problem", "test", "treatment"))


class TestTagScheme:
    def test_alphabet_size_and_order(self):
        scheme = TagScheme(("a", "b"))
        assert scheme.tags == ("O", "B-a", "I-a", "B-b", "I-b")
        assert len(scheme) == 2 * 2 + 1
        assert scheme.index["O"] == 0

    def test_indices_are_dense_and_stable(self):
        assert list(DRUG_SCHEME.index.values()) == list(range(len(DRUG_SCHEME)))
        assert DRUG_SCHEME.tags == TagScheme(("drug", "brand", "group", "drug_n")).tags

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            TagScheme(("x", "x"))
        with pytest.raises(ValueError):
            TagScheme(())


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


class TestToken:
    def test_every_whitespace_code_point_is_rejected(self):
        assert len(WHITESPACE) == 29
        for ch in WHITESPACE:
            for surface in (ch, f"as{ch}pirin", f"aspirin{ch}", f"{ch}aspirin"):
                with pytest.raises(ValueError):
                    Token(surface)

    def test_plain_word_accepted_and_empty_rejected(self):
        assert Token("aspirin", "B-drug").surface == "aspirin"
        assert Token("5-mg/dl").surface == "5-mg/dl"
        with pytest.raises(ValueError):
            Token("")

    @given(st.text(max_size=6))
    def test_accepts_exactly_non_empty_whitespace_free_text(self, surface):
        valid = bool(surface) and not any(ch.isspace() for ch in surface)
        if valid:
            assert Token(surface).surface == surface
        else:
            with pytest.raises(ValueError):
                Token(surface)


class TestParseConll:
    def test_single_token_sentence(self):
        data = parse_conll("Felbatol\tB-brand\n\n", DRUG_SCHEME)
        assert len(data) == 1
        assert len(data[0]) == 1
        assert data[0].tokens[0] == Token("Felbatol", "B-brand")

    def test_empty_input(self):
        assert len(parse_conll("", DRUG_SCHEME)) == 0

    def test_surface_with_spaces_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_conll("x y z\tO", DRUG_SCHEME)
        assert err.value.line == 1

    def test_wrong_column_count(self):
        with pytest.raises(ParseError) as err:
            parse_conll("a\tO\nb\tO\textra\tmore\n", DRUG_SCHEME)
        assert err.value.line == 2

    def test_unknown_tag_names_the_tag(self):
        with pytest.raises(TagValidationError, match="B-vitamin"):
            parse_conll("a\tB-vitamin\n", DRUG_SCHEME)

    def test_no_trailing_blank_line(self):
        data = parse_conll("a\tO\nb\tB-drug", DRUG_SCHEME)
        assert len(data) == 1
        assert data[0].surfaces == ["a", "b"]

    def test_three_column_predictions(self):
        data = parse_conll("aspirin\tB-drug\tO\n", DRUG_SCHEME)
        tok = data[0].tokens[0]
        assert tok.gold_tag == "B-drug"
        assert tok.pred_tag == "O"

    def test_unlabeled_single_column(self):
        data = parse_conll("aspirin\ndaily\n", DRUG_SCHEME)
        assert data[0].gold_tags == [None, None]

    def test_accepts_line_iterable(self):
        data = parse_conll(["a\tO\n", "\n", "b\tB-drug\n"], DRUG_SCHEME)
        assert len(data) == 2

    def test_invalid_gold_bio_warns_but_parses(self):
        with pytest.warns(UserWarning, match="does not continue"):
            data = parse_conll("a\tB-drug\nb\tI-brand\n", DRUG_SCHEME)
        assert data[0].gold_tags == ["B-drug", "I-brand"]


class TestWriteRoundTrip:
    def test_round_trip_two_columns(self):
        text = "He\tO\ntook\tO\nFelbatol\tB-brand\n\ndaily\tO\n\n"
        data = parse_conll(text, DRUG_SCHEME)
        assert write_conll(data) == text
        assert parse_conll(write_conll(data), DRUG_SCHEME) == data

    def test_round_trip_three_columns(self):
        text = "a\tB-drug\tB-drug\nb\tI-drug\tO\n\n"
        data = parse_conll(text, DRUG_SCHEME)
        assert parse_conll(write_conll(data), DRUG_SCHEME) == data

    def test_rejects_mixed_tag_presence(self):
        mixed = Dataset((Sentence((Token("a", "O"), Token("b"))),))
        with pytest.raises(ValueError):
            write_conll(mixed)


def tag_sequences(scheme: TagScheme):
    return st.lists(st.sampled_from(scheme.tags), min_size=1, max_size=12)


class TestRepairBio:
    def test_i_after_o_becomes_b(self):
        assert repair_bio(["O", "I-drug"]) == ["O", "B-drug"]

    def test_valid_sequence_unchanged(self):
        assert repair_bio(["B-drug", "I-drug"]) == ["B-drug", "I-drug"]

    def test_sentence_initial_i_becomes_b(self):
        assert repair_bio(["I-test"]) == ["B-test"]

    def test_class_switch_becomes_b(self):
        assert repair_bio(["B-drug", "I-brand"]) == ["B-drug", "B-brand"]

    def test_cascading_continuation_is_kept(self):
        assert repair_bio(["O", "I-drug", "I-drug"]) == ["O", "B-drug", "I-drug"]

    def test_length_preserved(self):
        tags = ["I-drug", "O", "I-brand", "B-group", "I-group"]
        assert len(repair_bio(tags)) == len(tags)

    @given(tag_sequences(DRUG_SCHEME))
    def test_idempotent(self, tags):
        once = repair_bio(tags)
        assert repair_bio(once) == once

    @given(tag_sequences(DRUG_SCHEME))
    def test_repaired_sequences_have_no_dangling_i(self, tags):
        repaired = repair_bio(tags)
        extract_entities(repaired)  # must not raise


class TestExtractEntities:
    def test_multiword_entity(self):
        tags = ["B-problem", "I-problem", "I-problem", "I-problem"]
        assert extract_entities(tags) == [EntitySpan(0, 4, "problem")]

    def test_all_outside(self):
        assert extract_entities(["O", "O", "O"]) == []

    def test_adjacent_b_tags_are_singletons(self):
        assert extract_entities(["B-drug", "B-drug"]) == [
            EntitySpan(0, 1, "drug"),
            EntitySpan(1, 2, "drug"),
        ]

    def test_entity_at_sentence_end(self):
        assert extract_entities(["O", "B-drug", "I-drug"]) == [EntitySpan(1, 3, "drug")]

    def test_unrepaired_sequence_raises(self):
        with pytest.raises(TagValidationError):
            extract_entities(["O", "I-drug"])
        with pytest.raises(TagValidationError):
            extract_entities(["B-drug", "I-brand"])

    @given(tag_sequences(CLINICAL_SCHEME))
    @settings(max_examples=200)
    def test_retagging_round_trips_through_repair(self, tags):
        repaired = repair_bio(tags)
        spans = extract_entities(repaired)
        assert sorted(spans) == spans  # ordered by start, non-overlapping
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start
        # the spans cover every tag but O, each a B-c followed by I-c
        for span in spans:
            assert repaired[span.start : span.end] == (
                [f"B-{span.cls}"] + [f"I-{span.cls}"] * (span.end - span.start - 1)
            )
        assert sum(span.end - span.start for span in spans) == len(repaired) - repaired.count("O")


class TestSplitTrainValid:
    def _toy(self, n):
        return Dataset(tuple(Sentence((Token(f"w{i}", "O"),)) for i in range(n)))

    def test_sizes_are_ceil(self):
        train, valid = split_train_valid(self._toy(10), 0.7, seed=1)
        assert (len(train), len(valid)) == (7, 3)

    def test_deterministic(self):
        data = self._toy(20)
        a = split_train_valid(data, 0.7, seed=9)
        b = split_train_valid(data, 0.7, seed=9)
        assert a == b

    def test_partition_recombines_to_input(self):
        data = self._toy(13)
        train, valid = split_train_valid(data, 0.4, seed=3)
        combined = sorted(s.tokens[0].surface for s in (*train, *valid))
        assert combined == sorted(s.tokens[0].surface for s in data)
        assert len(train) + len(valid) == len(data)


def test_gold_warning_not_raised_for_valid_data():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_conll("a\tB-drug\nb\tI-drug\nc\tO\n", DRUG_SCHEME)


VALID_CONLL = (
    "Aspirin\tB-treatment\tB-treatment\nfor\tO\tO\nchest\tB-problem\tO\npain\tI-problem\tO\n"
    "\n"
    "CT\tB-test\tB-test\nscan\tI-test\tI-test\n.\tO\tO\n"
)
# text that moves a line, a column, a tag or a sentence boundary
CONLL_PIECES = ["", "\t", "\n", "\n\n", " ", "\r", " ", "\x1c", "\x85", "B-", "I-", "O",
                "I-test", "B-zzz", "-", "\t\t\t"]


@given(data=st.data())
def test_mutated_conll_parses_or_raises_a_seqtag_error(data):
    start = data.draw(st.integers(0, len(VALID_CONLL)), label="start")
    end = data.draw(st.integers(start, min(start + 4, len(VALID_CONLL))), label="end")
    insert = data.draw(st.sampled_from(CONLL_PIECES) | st.text(max_size=3), label="insert")
    text = VALID_CONLL[:start] + insert + VALID_CONLL[end:]
    scheme = data.draw(st.sampled_from([None, CLINICAL_SCHEME]), label="scheme")
    source = data.draw(st.sampled_from([text, text.splitlines(keepends=True)]), label="source")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # invalid gold BIO only warns
        try:
            parse_conll(source, scheme)
        except SeqtagError:
            pass
