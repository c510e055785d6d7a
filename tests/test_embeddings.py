import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqtag.embeddings import (
    PRETRAINED,
    RANDOM,
    UNK,
    EmbeddingTable,
    assemble,
    build_pseudo_corpus,
    build_vocabulary,
    coverage_report,
    csv_column_records,
    hashed_uniform,
    load_embedding_table,
    random_table,
    read_manifest,
    write_embedding_table,
)
from seqtag.errors import DataError, ParseError, SeqtagError


class TestVocabulary:
    def test_unk_reserved_and_dense(self):
        vocab = build_vocabulary(["b", "a", "b", "c"])
        assert vocab.words == (UNK, "b", "a", "c")
        assert [vocab.index[w] for w in vocab.words] == [0, 1, 2, 3]

    def test_unk_in_input_not_duplicated(self):
        vocab = build_vocabulary([UNK, "x"])
        assert vocab.words == (UNK, "x")


class TestLoadEmbeddingTable:
    def test_reads_two_entries(self):
        table = load_embedding_table("cat 0.1 0.2 0.3\ndog 1 2 3\n")
        assert table.dim == 3
        assert len(table) == 2
        np.testing.assert_allclose(table.entries["dog"], [1.0, 2.0, 3.0])
        assert table.provenance["cat"] == PRETRAINED

    def test_inconsistent_dim_reports_line(self):
        lines = "w " + " ".join(["0.0"] * 300) + "\nv " + " ".join(["0.0"] * 299) + "\n"
        with pytest.raises(ParseError) as err:
            load_embedding_table(lines)
        assert err.value.line == 2

    def test_non_numeric_component(self):
        with pytest.raises(ParseError):
            load_embedding_table("w 0.1 sprocket\n")

    @pytest.mark.parametrize("component", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_component_reports_line(self, component):
        with pytest.raises(ParseError, match="finite") as err:
            load_embedding_table(f"a 0 1\nb {component} 2\n")
        assert err.value.line == 2

    def test_empty_file_rejected(self):
        with pytest.raises(DataError):
            load_embedding_table("")

    def test_write_read_round_trip(self):
        table = load_embedding_table("a 0.25 -1\nb 3 0.0625\n")
        buf = io.StringIO()
        write_embedding_table(table, buf)
        again = load_embedding_table(buf.getvalue())
        for w in table.entries:
            np.testing.assert_array_equal(table.entries[w], again.entries[w])


class TestHashedUniform:
    def test_deterministic_and_in_range(self):
        a = hashed_uniform(("word-segment", "felbatol", 1), seed=7, dim=50)
        b = hashed_uniform(("word-segment", "felbatol", 1), seed=7, dim=50)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= -1.0) and np.all(a <= 1.0)

    def test_distinct_keys_differ(self):
        a = hashed_uniform(("word-segment", "x", 0), seed=7, dim=8)
        b = hashed_uniform(("word-segment", "x", 1), seed=7, dim=8)
        c = hashed_uniform(("word-segment", "x", 0), seed=8, dim=8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


def two_tables():
    cc = load_embedding_table("shared 1 2 3\nonly-cc 4 5 6\nlower 9 9 9\n")
    mimic = load_embedding_table("shared -1 -2 -3\nonly-mimic 7 8 9\n")
    return cc, mimic


class TestAssemble:
    def test_word_in_both_tables_concatenates(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["shared"])
        out = assemble(vocab, [cc, mimic], seed=0)
        assert out.dim == 6
        np.testing.assert_array_equal(out.entries["shared"], [1, 2, 3, -1, -2, -3])
        assert out.provenance["shared"] == PRETRAINED

    def test_word_in_one_table_backfills_other_segment(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["only-cc"])
        out = assemble(vocab, [cc, mimic], seed=0)
        vec = out.entries["only-cc"]
        np.testing.assert_array_equal(vec[:3], [4, 5, 6])
        assert np.all(np.abs(vec[3:]) <= 1.0)
        np.testing.assert_array_equal(
            vec[3:], hashed_uniform(("word-segment", "only-cc", 1), 0, 3)
        )
        assert out.provenance["only-cc"] == PRETRAINED

    def test_word_in_no_table_is_fully_random(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["neither"])
        out = assemble(vocab, [cc, mimic], seed=0)
        vec = out.entries["neither"]
        assert np.all(np.abs(vec) <= 1.0)
        assert out.provenance["neither"] == RANDOM

    def test_lowercase_fallback(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["LOWER"])
        out = assemble(vocab, [cc, mimic], seed=0)
        np.testing.assert_array_equal(out.entries["LOWER"][:3], [9, 9, 9])
        assert out.provenance["LOWER"] == PRETRAINED

    def test_bitwise_deterministic(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["shared", "only-cc", "neither", "w2"])
        a = assemble(vocab, [cc, mimic], seed=42)
        b = assemble(vocab, [cc, mimic], seed=42)
        for w in vocab.words:
            assert a.entries[w].tobytes() == b.entries[w].tobytes()

    def test_requires_tables_and_vocab(self):
        with pytest.raises(ValueError):
            assemble(build_vocabulary(["a"]), [], seed=0)


class TestCoverage:
    def test_full_coverage(self):
        words = [f"w{i}" for i in range(10)]
        table = EmbeddingTable(
            1,
            {w: np.zeros(1) for w in words},
            {w: PRETRAINED for w in words},
        )
        stats = coverage_report(build_vocabulary(words), table)
        assert stats.percentage == 1.0
        assert f"{stats.percentage:.2%}" == "100.00%"

    def test_half_coverage(self):
        words = [f"w{i}" for i in range(10)]
        prov = {w: (PRETRAINED if i < 5 else RANDOM) for i, w in enumerate(words)}
        table = EmbeddingTable(1, {w: np.zeros(1) for w in words}, prov)
        stats = coverage_report(build_vocabulary(words), table)
        assert stats.covered == 5 and stats.total_words == 10
        assert stats.percentage == 0.5

    def test_covered_plus_uncovered_is_total(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["shared", "only-cc", "nope", "only-mimic"])
        out = assemble(vocab, [cc, mimic], seed=1)
        stats = coverage_report(vocab, out)
        uncovered = sum(
            1 for w in vocab.words if w != UNK and out.provenance[w] == RANDOM
        )
        assert stats.covered + uncovered == stats.total_words == 4

    def test_random_table_has_zero_coverage(self):
        vocab = build_vocabulary(["a", "b"])
        stats = coverage_report(vocab, random_table(vocab, 4, seed=0))
        assert stats.covered == 0


class TestPseudoCorpus:
    def test_title_plus_cell(self):
        sents = list(build_pseudo_corpus([("drug", "Aspirin")]))
        assert sents == [["drug", "aspirin"]]

    def test_empty_cell_skipped(self):
        assert list(build_pseudo_corpus([("drug", ""), ("drug", "  ")])) == []

    def test_multi_token_title_and_cell(self):
        sents = list(build_pseudo_corpus([("dose val rx", "40 mg")]))
        assert sents == [["dose", "val", "rx", "40", "mg"]]

    def test_empty_title_rejected(self):
        with pytest.raises(ValueError):
            list(build_pseudo_corpus([("", "x")]))

    def test_manifest_parsing(self):
        targets = read_manifest(["# comment\n", "tables/rx.csv\tdrug\n", "\n"])
        assert targets == [("tables/rx.csv", "drug")]
        with pytest.raises(ParseError):
            read_manifest(["no-tab-here\n"])

    def test_csv_records(self, tmp_path):
        p = tmp_path / "rx.csv"
        p.write_text('drug,dose\nAspirin,"40, mg"\n,5\n', encoding="utf-8")
        records = list(csv_column_records(str(p), "dose"))
        assert records == [("dose", "40, mg"), ("dose", "5")]
        with pytest.raises(DataError):
            list(csv_column_records(str(p), "missing"))


VALID_TABLE = "aspirin 0.5 -1.25 3\nibuprofen 1e-3 2 0\n<unk> 0 0 -7.5\n"
# text that moves a word, a component, a separator or a line
TABLE_PIECES = ["", " ", "  ", "\n", "\t", "\r", " ", "\x1c", "e", "-", ".", "+", "0",
                "nan", "inf", "1e999", "_", ","]


@given(data=st.data())
def test_mutated_table_parses_or_raises_a_seqtag_error(data):
    start = data.draw(st.integers(0, len(VALID_TABLE)), label="start")
    end = data.draw(st.integers(start, min(start + 4, len(VALID_TABLE))), label="end")
    insert = data.draw(st.sampled_from(TABLE_PIECES) | st.text(max_size=3), label="insert")
    text = VALID_TABLE[:start] + insert + VALID_TABLE[end:]
    source = data.draw(st.sampled_from([text, io.StringIO(text)]), label="source")
    try:
        table = load_embedding_table(source)
    except SeqtagError:
        return
    assert all(vec.shape == (table.dim,) for vec in table.entries.values())
    assert all(np.isfinite(vec).all() for vec in table.entries.values())
