import numpy as np
import pytest

from seqtag import features
from seqtag.corpus import Sentence, TagScheme, Token
from seqtag.embeddings import build_vocabulary, random_table
from seqtag.features import (
    FAMILY_SPECS,
    TOTAL_DIM,
    build_feature_encoder,
    case_pattern,
    encode_surface,
    token_class,
)
from seqtag.network import crf_inputs, encode, init_model
from seqtag.training import TrainConfig


def make_encoder(surfaces=("Aspirin", "40", "mg", "x-ray")):
    return build_feature_encoder(surfaces, seed=3)


def reference_rows(encoder, surfaces):
    """``FeatureEncoder.rows`` as a loop over tokens: every token computes
    each family's value; the k-th distinct unseen value met reads row
    -1 - k and draws its fallback when first met."""
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
                fallback.append(encoder._fallback(fam, value))
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
        assert enc.total_dim == TOTAL_DIM == 146
        assert sum(dim for _, dim, _ in FAMILY_SPECS) == 146

    def test_output_length(self):
        enc = make_encoder()
        assert encode_surface("anything", enc).shape == (146,)

    def test_identical_surfaces_identical_vectors(self):
        surfaces = ("Aspirin", "40", "mg", "x-ray")
        vocab = build_vocabulary(surfaces)
        config = TrainConfig(variant="crf", use_char=False, use_features=True, d_w=4, seed=3)
        model = init_model(
            config, TagScheme(("x",)), vocab, random_table(vocab, 4, 3), surfaces, ()
        )
        sent = Sentence((Token("mg", "O"), Token("of", "O"), Token("mg", "O")))
        inputs = crf_inputs(model, encode(model, [sent]))
        a = inputs[0, model.d_w:]
        b = inputs[2, model.d_w:]
        np.testing.assert_array_equal(a, b)

    def test_case_variants_differ_only_in_case_family(self):
        enc = build_feature_encoder(["Aspirin", "aspirin"], seed=7)
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
        small = build_feature_encoder(["aspirin"], seed=5)
        big = build_feature_encoder(["aspirin", "ibuprofen", "40"], seed=5)
        np.testing.assert_array_equal(
            encode_surface("aspirin", small), encode_surface("aspirin", big)
        )

    def test_initial_vectors_in_unit_range(self):
        enc = make_encoder()
        for fam in enc.families:
            assert np.all(np.abs(fam.table) <= 1.0)


class TestRows:
    SURFACES = ["Aspirin", "aspirin", "ibuprofen", "40", "IBUPROFEN", "aspirin", "x-ray", "Zz9"]

    def test_rows_equal_the_per_token_loop_bitwise(self):
        encoder = make_encoder()
        got = encoder.rows(self.SURFACES)
        for rows, (ref_rows, ref_fallback) in zip(got, reference_rows(encoder, self.SURFACES)):
            assert rows.rows.dtype == ref_rows.dtype
            np.testing.assert_array_equal(rows.rows, ref_rows)
            assert rows.fallback.shape == ref_fallback.shape
            assert rows.fallback.tobytes() == ref_fallback.tobytes()
        # "ibuprofen" and "IBUPROFEN" share unseen values, and so their fallback rows
        assert any(len(rows.fallback) < np.count_nonzero(rows.rows < 0) for rows in got)

    @pytest.mark.parametrize("built_from", [("Aspirin", "40", "mg", "x-ray"), ()])
    def test_gather_reads_each_token_from_its_table_row_or_fallback(self, built_from):
        # built from no surfaces, every table is empty and every value unseen
        encoder = build_feature_encoder(built_from, seed=3)
        for fam, rows in zip(encoder.families, encoder.rows(self.SURFACES)):
            expected = np.stack([
                fam.table[fam.index[v]] if v in fam.index else encoder._fallback(fam, v)
                for v in map(fam.fn, self.SURFACES)
            ])
            assert rows.gather(fam.table).tobytes() == expected.tobytes()

    def test_each_value_and_fallback_is_computed_once_per_call(self, monkeypatch):
        encoder = make_encoder()
        surfaces = self.SURFACES * 3
        calls, draws = [], []
        for fam in encoder.families:
            fn = fam.fn
            fam.fn = lambda s, fn=fn, name=fam.name: calls.append((name, s)) or fn(s)
        real = features.hashed_uniform
        monkeypatch.setattr(
            features, "hashed_uniform", lambda key, *a: draws.append(key) or real(key, *a)
        )
        encoder.rows(surfaces)
        assert sorted(calls) == sorted({(f.name, s) for f in encoder.families for s in surfaces})
        unseen = {
            ("feature", f.name, f.fn(s)) for f in encoder.families for s in surfaces
            if f.fn(s) not in f.index
        }
        assert unseen and sorted(draws) == sorted(unseen)
