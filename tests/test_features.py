import numpy as np
import pytest

from reference import hashed_uniform_row
from seqtag import embeddings, features
from seqtag.corpus import Sentence, TagScheme, Token
from seqtag.embeddings import UNK, build_vocabulary, random_table
from seqtag.features import (
    FAMILY_SPECS,
    FamilyRows,
    build_feature_encoder,
    case_pattern,
    encode_surface,
    token_class,
)
from seqtag.network import crf_inputs, encode, init_model
from seqtag.training import TrainConfig


def make_encoder(surfaces=("Aspirin", "40", "mg", "x-ray"), vocab={}):
    return build_feature_encoder(surfaces, 3, vocab)


def make_feature_model(surfaces=("Aspirin", "40", "mg", "x-ray")):
    """A crf model with features whose vocabulary and feature values are those of ``surfaces``."""
    vocab = build_vocabulary(surfaces)
    config = TrainConfig(variant="crf", use_char=False, use_features=True, d_w=4, seed=3)
    return init_model(config, TagScheme(("x",)), vocab, random_table(vocab, 4, 3), surfaces, ())


def reference_rows(encoder, surfaces):
    """``FeatureEncoder.rows`` read per token, as a loop over tokens: every
    token computes each family's value; the k-th distinct unseen value met
    reads row -1 - k and draws its fallback when first met."""
    out = []
    for fam in encoder.families:
        rows, fallback, unseen = [], [], {}
        for s in surfaces:
            value = fam.fn(s)
            if value in fam.index:
                rows.append(fam.index[value])
                continue
            if value not in unseen:
                unseen[value] = len(unseen)
                fallback.append(hashed_uniform_row(("feature", fam.name, value), encoder.seed,
                                                   fam.dim))
            rows.append(-1 - unseen[value])
        out.append((np.array(rows, dtype=np.intp), np.reshape(fallback, (-1, fam.dim))))
    return out


class TestFamilyFunctions:
    @pytest.mark.parametrize(
        "surface,expected",
        [
            ("aspirin", "lower"),
            ("ASA", "upper"),
            ("Aspirin", "capitalized"),
            ("mGy", "mixed-case"),
            ("40", "no-letters"),
        ],
    )
    def test_case_pattern(self, surface, expected):
        assert case_pattern(surface) == expected

    @pytest.mark.parametrize(
        "surface,expected",
        [
            ("aspirin", "word"),
            ("40", "number"),
            ("b12", "mixed"),
            ("+", "symbol"),
            ("e.g.", "abbrev"),
            ("x-ray", "word+hyphen"),
        ],
    )
    def test_token_class(self, surface, expected):
        assert token_class(surface) == expected

    def test_all_families_but_case_are_case_insensitive(self):
        for name, _, fn in FAMILY_SPECS:
            if name == "case":
                continue
            assert fn("Aspirin") == fn("aspirin"), name


class TestEncoder:
    def test_total_dim_is_146(self):
        enc = make_encoder()
        assert enc.total_dim == 146
        assert sum(dim for _, dim, _ in FAMILY_SPECS) == 146

    def test_output_length(self):
        enc = make_encoder()
        assert encode_surface("anything", enc).shape == (146,)

    def test_identical_surfaces_identical_vectors(self):
        model = make_feature_model()
        sent = Sentence((Token("mg", "O"), Token("of", "O"), Token("mg", "O")))
        enc = encode(model, [sent])
        inputs = crf_inputs(model, enc)[enc.spellings]
        a = inputs[0, model.d_w:]
        b = inputs[2, model.d_w:]
        np.testing.assert_array_equal(a, b)

    def test_case_variants_differ_only_in_case_family(self):
        enc = build_feature_encoder(["Aspirin", "aspirin"], 7, {})
        a = encode_surface("Aspirin", enc)
        b = encode_surface("aspirin", enc)
        case_dim = enc.families[0].dim
        assert not np.array_equal(a[:case_dim], b[:case_dim])
        np.testing.assert_array_equal(a[case_dim:], b[case_dim:])

    def test_unseen_value_fallback_is_deterministic_and_bounded(self):
        enc = make_encoder(["aaa"])
        a = encode_surface("zzzzzzzzzzzz", enc)
        b = encode_surface("zzzzzzzzzzzz", enc)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.abs(a) <= 1.0)

    def test_table_rows_are_shared_storage(self):
        enc = make_encoder(["aspirin"])
        fam = enc.families[0]
        before = encode_surface("aspirin", enc)[: fam.dim].copy()
        fam.table[fam.index[fam.fn("aspirin")]] += 0.5
        after = encode_surface("aspirin", enc)[: fam.dim]
        np.testing.assert_allclose(after, before + 0.5)

    def test_superset_build_keeps_vectors(self):
        small = build_feature_encoder(["aspirin"], 5, {})
        big = build_feature_encoder(["aspirin", "ibuprofen", "40"], 5, {})
        np.testing.assert_array_equal(
            encode_surface("aspirin", small), encode_surface("aspirin", big)
        )

    def test_initial_vectors_in_unit_range(self):
        enc = make_encoder()
        for fam in enc.families:
            assert np.all(np.abs(fam.table) <= 1.0)


class TestRows:
    SURFACES = ["Aspirin", "aspirin", "ibuprofen", "40", "IBUPROFEN", "aspirin", "x-ray", "Zz9"]

    @staticmethod
    def assert_reference_rows(encoder, surfaces):
        """Check the rows of the distinct ``surfaces``, read per token, against
        the per-token loop, and return them per token."""
        first = {}
        at = [first.setdefault(s, len(first)) for s in surfaces]
        got = tuple(FamilyRows(r.rows[at], r.fallback) for r in encoder.rows(list(first)))
        for rows, (ref_rows, ref_fallback) in zip(got, reference_rows(encoder, surfaces)):
            assert rows.rows.dtype == ref_rows.dtype
            np.testing.assert_array_equal(rows.rows, ref_rows)
            assert rows.fallback.shape == ref_fallback.shape
            assert rows.fallback.tobytes() == ref_fallback.tobytes()
        return got

    def test_rows_equal_the_per_token_loop_bitwise(self):
        encoder = make_encoder()
        got = self.assert_reference_rows(encoder, self.SURFACES)
        # "ibuprofen" and "IBUPROFEN" share unseen values, and so their fallback rows
        assert any(len(rows.fallback) < np.count_nonzero(rows.rows < 0) for rows in got)

    @pytest.mark.parametrize("built_from", [("Aspirin", "40", "mg", "x-ray"), ()])
    def test_gather_reads_each_token_from_its_table_row_or_fallback(self, built_from):
        # built from no surfaces, every table is empty and every value unseen
        encoder = build_feature_encoder(built_from, 3, {})
        first = {}
        at = [first.setdefault(s, len(first)) for s in self.SURFACES]
        for fam, rows in zip(encoder.families, encoder.rows(list(first))):
            expected = np.stack([
                fam.table[fam.index[v]] if v in fam.index
                else hashed_uniform_row(("feature", fam.name, v), encoder.seed, fam.dim)
                for v in map(fam.fn, self.SURFACES)
            ])
            assert rows.gather(fam.table)[at].tobytes() == expected.tobytes()

    def test_each_value_and_fallback_is_computed_once_per_call(self, monkeypatch):
        # one encode of a batch of sentences that repeat every surface
        model = make_feature_model()
        families = model.feature_encoder.families
        surfaces = self.SURFACES * 3
        batch = [Sentence(tuple(Token(w, "O") for w in surfaces[i : i + 5]))
                 for i in range(0, len(surfaces), 5)]
        calls, draws = [], []
        for fam in families:
            fn = fam.fn
            fam.fn = lambda s, fn=fn, name=fam.name: calls.append((name, s)) or fn(s)
        real = features.hashed_uniform
        monkeypatch.setattr(features, "hashed_uniform", lambda groups, seed: draws.extend(
            key for keys, _ in groups for key in keys) or real(groups, seed))
        encode(model, batch)
        assert sorted(calls) == sorted({(f.name, s) for f in families for s in surfaces})
        unseen = {
            ("feature", f.name, f.fn(s)) for f in families for s in surfaces
            if f.fn(s) not in f.index
        }
        assert unseen and sorted(draws) == sorted(unseen)
        # the batch's vocabulary words, whose values all have rows, were kept: a second
        # encode of them runs none
        calls.clear()
        draws.clear()
        encode(model, [Sentence(tuple(Token(w, "O") for w in ("x-ray", "Aspirin", "40")))])
        assert calls == [] and draws == []

    @pytest.mark.parametrize("surfaces, passes", [
        (SURFACES, 1),  # unseen values in several families, drawn together
        (("Aspirin", "40", "mg", "Aspirin"), 0),  # every value has a table row
    ], ids=["unseen", "all-seen"])
    def test_a_rows_call_runs_the_state_pass_once_or_not_at_all(self, monkeypatch, surfaces,
                                                               passes):
        encoder = make_encoder()
        counted = []
        real = embeddings.seed_states
        monkeypatch.setattr(embeddings, "seed_states", lambda s: counted.append(len(s)) or real(s))
        got = encoder.rows(surfaces)
        assert len(counted) == passes
        if passes:
            assert sum(1 for rows in got if len(rows.fallback)) > 1
            assert counted == [sum(len(rows.fallback) for rows in got)]

    def test_building_an_encoder_runs_the_state_pass_once(self, monkeypatch):
        counted = []
        real = embeddings.seed_states
        monkeypatch.setattr(embeddings, "seed_states", lambda s: counted.append(len(s)) or real(s))
        encoder = make_encoder(self.SURFACES)
        assert counted == [sum(len(f.values) for f in encoder.families)]
        for fam in encoder.families:
            expected = [hashed_uniform_row(("feature", fam.name, v), 3, fam.dim)
                        for v in fam.values]
            assert fam.table.tobytes() == np.reshape(expected, (-1, fam.dim)).tobytes()

    # built from, and with a vocabulary of, these words: "ASPIRIN" reads the word
    # row of "aspirin" through the lowercase fallback, but its case value is unseen
    BUILT = ("Aspirin", "aspirin", "40", "mg", "x-ray")
    MIXED = ["Aspirin", "ASPIRIN", "mg", "ibuprofen", "40", "Aspirin", "MG", "aspirin", "Zz9", "mg"]

    @staticmethod
    def kept_words(encoder, vocab):
        assert encoder.kept.shape == (len(vocab) + 1, len(encoder.families))
        assert (encoder.kept[-1] == -1).all()
        return {vocab.words[i] for i in np.flatnonzero(encoder.kept[:, 0] >= 0)}

    def test_rows_kept_from_one_call_serve_the_next_bitwise(self):
        vocab = build_vocabulary(self.BUILT)
        encoder = make_encoder(self.BUILT, vocab.index)
        for _ in range(2):
            self.assert_reference_rows(encoder, self.MIXED)
        assert self.kept_words(encoder, vocab) == {"Aspirin", "aspirin", "40", "mg"}
        # an encoder built with another vocabulary keeps the same rows under its indices
        other = build_vocabulary(("x-ray", "mg", "40", "aspirin", "Aspirin"))
        other_encoder = make_encoder(self.BUILT, other.index)
        for _ in range(2):
            self.assert_reference_rows(other_encoder, self.MIXED)
        assert self.kept_words(other_encoder, other) == {"Aspirin", "aspirin", "40", "mg"}
        for w in ("Aspirin", "aspirin", "40", "mg"):
            assert (encoder.kept[vocab.index[w]] == other_encoder.kept[other.index[w]]).all()

    def test_only_exact_vocabulary_words_are_kept(self):
        vocab = build_vocabulary(self.BUILT)
        encoder = make_encoder(self.BUILT, vocab.index)
        variants = [v for w in vocab.words[1:] for v in (w, w.upper(), w.title(), w + "s")]
        encoder.rows(list(dict.fromkeys(variants + self.MIXED)))
        encoder.rows(list(dict.fromkeys(variants[::-1])))
        kept = self.kept_words(encoder, vocab)
        assert kept <= set(vocab.words) - {UNK}
        assert len(kept) <= len(vocab) - 1
        aspirin, capitalized = (encoder.kept[vocab.index[w]] for w in ("aspirin", "Aspirin"))
        assert (aspirin != capitalized).tolist() == [True, False, False, False, False, False]
        encoder = make_encoder(self.BUILT)
        encoder.rows(list(dict.fromkeys(self.MIXED)))  # without a vocabulary nothing is kept
        assert (encoder.kept == -1).all()

    def test_a_vocabulary_word_with_an_unseen_value_is_not_kept(self):
        # "aspiren" has every value of "aspirin" but its suffix
        vocab = build_vocabulary(("aspirin", "ibuprofen", "aspiren"))
        encoder = make_encoder(("aspirin", "ibuprofen"), vocab.index)
        surfaces = ["aspiren", "aspirin", "aspiren"]
        for _ in range(2):
            got = self.assert_reference_rows(encoder, surfaces)
            assert [np.count_nonzero(rows.rows < 0) for rows in got] == [0, 0, 0, 0, 2, 0]
        assert self.kept_words(encoder, vocab) == {"aspirin"}

    def test_a_second_encode_computes_values_only_for_words_outside_the_vocabulary(self):
        model = make_feature_model()
        words = ["mg", "of", "Aspirin", "MG", "mg", "of", "x-ray", "aspirin", "40"]
        batch = [Sentence(tuple(Token(w, "O") for w in words[:5])),
                 Sentence(tuple(Token(w, "O") for w in words[5:]))]
        calls = []
        for fam in model.feature_encoder.families:
            fn = fam.fn
            fam.fn = lambda s, fn=fn, name=fam.name: calls.append((name, s)) or fn(s)
        first = encode(model, batch)
        calls.clear()
        second = encode(model, batch)
        outside = {"of", "MG", "aspirin"}
        assert sorted(calls) == sorted((f.name, s) for f in model.feature_encoder.families
                                       for s in outside)
        for a, b in zip(first.features, second.features):
            np.testing.assert_array_equal(a.rows, b.rows)
            assert a.fallback.tobytes() == b.fallback.tobytes()
