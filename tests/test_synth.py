import pytest

from seqtag.corpus import TagScheme, extract_entities, parse_conll, repair_bio, write_conll
from seqtag.errors import ConfigError
from seqtag.synth import SynthSpec, default_spec, generate


class TestGenerate:
    def test_fixed_seed_reproduces_corpora(self):
        a_train, a_test = generate(default_spec(seed=5))
        b_train, b_test = generate(default_spec(seed=5))
        assert a_train == b_train and a_test == b_test

    def test_different_seeds_differ(self):
        a, _ = generate(default_spec(seed=1))
        b, _ = generate(default_spec(seed=2))
        assert a != b

    def test_density_zero_is_all_outside(self):
        train, test = generate(default_spec(seed=0, density=0.0))
        for sent in (*train, *test):
            assert all(t.gold_tag == "O" for t in sent)

    def test_sizes(self):
        train, test = generate(default_spec(seed=0, n_train=20, n_test=7))
        assert (len(train), len(test)) == (20, 7)

    def test_gold_is_valid_bio_and_round_trips(self):
        train, test = generate(default_spec(seed=3))
        for sent in (*train, *test):
            tags = list(sent.gold_tags)
            assert repair_bio(tags) == tags
            extract_entities(tags)  # must not raise

    def test_entity_words_come_from_class_lexicons(self):
        spec = default_spec(seed=4)
        train, test = generate(spec)
        fillers = set(spec.filler)
        for sent in (*train, *test):
            tags = list(sent.gold_tags)
            for span in extract_entities(tags):
                for tok in sent.tokens[span.start : span.end]:
                    assert tok.surface in spec.lexicons[span.cls]
            for tok, tag in zip(sent.tokens, tags):
                if tag == "O":
                    assert tok.surface in fillers

    def test_sentence_lengths_in_range(self):
        spec = default_spec(seed=6, length_range=(4, 9))
        train, _ = generate(spec)
        # entities may overrun the target length by at most the entity tail
        assert all(4 <= len(s) <= 9 for s in train)

    def test_test_split_has_oov_words(self):
        spec = default_spec(seed=7, test_overlap=0.5)
        train, test = generate(spec)
        train_words = {t.surface for s in train for t in s}
        test_words = {t.surface for s in test for t in s}
        assert test_words - train_words, "expected some test-only words"
        assert test_words & train_words, "expected vocabulary overlap"

    def test_multiword_entities_present(self):
        train, _ = generate(default_spec(seed=8))
        lengths = {
            span.end - span.start
            for sent in train
            for span in extract_entities(list(sent.gold_tags))
        }
        assert {1, 2, 3} <= lengths

    def test_output_parses_back(self):
        spec = default_spec(seed=9)
        scheme = TagScheme(spec.classes)
        train, _ = generate(spec)
        assert parse_conll(write_conll(train), scheme) == train


class TestSpecValidation:
    def test_overlapping_lexicons_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(lexicons={"a": ("x",), "b": ("x",)}, filler=("f",))

    def test_filler_overlap_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(lexicons={"a": ("x",)}, filler=("x",))

    def test_density_bounds(self):
        with pytest.raises(ConfigError):
            SynthSpec(lexicons={"a": ("x",)}, filler=("f",), density=1.0)
        with pytest.raises(ConfigError):
            SynthSpec(lexicons={"a": ("x",)}, filler=("f",), density=-0.1)

    def test_default_spec_is_valid_and_sized(self):
        spec = default_spec()
        assert spec.n_train == 200 and spec.n_test == 50
        assert len(spec.classes) == 3
