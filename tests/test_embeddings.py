import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import seqtag.embeddings
from reference import hashed_uniform_row, seeded_uniform
from seqtag.cli import main
from seqtag.embeddings import (
    UNK,
    EmbeddingTable,
    StateWords,
    assemble,
    build_pseudo_corpus,
    build_vocabulary,
    coverage_report,
    csv_column_records,
    find,
    hashed_uniform,
    load_embedding_table,
    random_table,
    read_manifest,
    seed_states,
    uniform_rows,
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
        assert coverage_report(build_vocabulary(["cat"]), [table]).covered == 1

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
        write_embedding_table(table.entries.items(), buf)
        again = load_embedding_table(buf.getvalue())
        for w in table.entries:
            np.testing.assert_array_equal(table.entries[w], again.entries[w])


class TestHashedUniform:
    """The batched draw against the per-key oracle: numpy's ``SeedSequence``,
    ``PCG64`` and ``uniform(-1, 1)``, one generator per key."""

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    def test_deterministic_and_in_range(self):
        [a] = hashed_uniform([([("word-segment", "felbatol", 1)], 50)], seed=7)
        [b] = hashed_uniform([([("word-segment", "felbatol", 1)], 50)], seed=7)
        assert a.shape == (1, 50)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= -1.0) and np.all(a <= 1.0)

    def test_distinct_keys_differ(self):
        [[a, b]] = hashed_uniform([([("word-segment", "x", 0), ("word-segment", "x", 1)], 8)], 7)
        [[c]] = hashed_uniform([([("word-segment", "x", 0)], 8)], seed=8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_a_thousand_keys_of_mixed_dims_in_one_call_equal_the_oracle(self):
        groups = [
            ([("word-segment", f"w{i}\u00e9", i % 3) for i in range(400)], 300),
            ([("feature", "prefix3", f"v{i}") for i in range(300)], 40),
            ([("feature", "case", i) for i in range(200)], 8),
            ([], 10),
            ([("feature", "length", f"len{i}") for i in range(106)], 1),
        ]
        got = hashed_uniform(groups, seed=11)
        assert sum(len(keys) for keys, _ in groups) >= 1000
        for (keys, dim), rows in zip(groups, got):
            assert rows.shape == (len(keys), dim)
            expected = np.reshape([hashed_uniform_row(key, 11, dim) for key in keys], (-1, dim))
            assert rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [1, 8, 40, 300])
    def test_edge_seeds_equal_the_oracle(self, dim):
        got = uniform_rows(np.array(self.EDGE_SEEDS, dtype=np.uint64), [dim] * 6)
        expected = np.concatenate([seeded_uniform(s, dim) for s in self.EDGE_SEEDS])
        assert got.tobytes() == expected.tobytes()

    def test_state_pass_equals_seed_sequence(self):
        rng = np.random.default_rng(22)
        drawn = rng.integers(0, 2**64 - 1, 1000, dtype=np.uint64, endpoint=True)
        seeds = self.EDGE_SEEDS + [int(s) for s in drawn]
        got = seed_states(np.array(seeds, dtype=np.uint64))
        assert got.dtype == np.uint64 and got.shape == (len(seeds), 4)
        for s, words in zip(seeds, got):
            expected = np.random.SeedSequence(s).generate_state(4, np.uint64)
            assert words.tobytes() == expected.tobytes()

    def test_no_keys_draw_nothing(self):
        assert hashed_uniform([], seed=0) == []
        [rows] = hashed_uniform([([], 7)], seed=0)
        assert rows.shape == (0, 7)
        assert seed_states(np.array([], dtype=np.uint64)).shape == (0, 4)

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                                (8, np.uint64), (4, np.int64)])
    def test_state_words_serve_only_four_uint64_words(self, n_words, dtype):
        words = seed_states(np.array([5], dtype=np.uint64))[0]
        assert StateWords(words).generate_state(4, np.uint64) is words
        with pytest.raises(RuntimeError, match="not 4 of uint64"):
            StateWords(words).generate_state(n_words, dtype)


def two_tables():
    cc = load_embedding_table("shared 1 2 3\nonly-cc 4 5 6\nlower 9 9 9\n")
    mimic = load_embedding_table("shared -1 -2 -3\nonly-mimic 7 8 9\n")
    return cc, mimic


class TestFind:
    def test_exact_match_first_then_lowercased(self):
        mapping = {"Aspirin": 1, "aspirin": 2, "twice": 3}
        assert find(mapping, "Aspirin") == 1
        assert find(mapping, "ASPIRIN") == 2
        assert find(mapping, "Twice") == 3

    def test_default_when_both_miss(self):
        assert find({"a": 0}, "B") is None
        assert find({"a": 0}, "B", 0) == 0
        assert find({"a": 0}, "A", 7) == 0


class TestAssemble:
    def test_word_in_both_tables_concatenates(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["shared"])
        out = assemble(vocab, [cc, mimic], seed=0)
        assert out.shape == (2, 6)
        np.testing.assert_array_equal(out[vocab.index["shared"]], [1, 2, 3, -1, -2, -3])
        assert coverage_report(vocab, [cc, mimic]).covered == 1

    def test_word_in_one_table_backfills_other_segment(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["only-cc"])
        out = assemble(vocab, [cc, mimic], seed=0)
        vec = out[vocab.index["only-cc"]]
        np.testing.assert_array_equal(vec[:3], [4, 5, 6])
        assert np.all(np.abs(vec[3:]) <= 1.0)
        np.testing.assert_array_equal(
            vec[3:], hashed_uniform_row(("word-segment", "only-cc", 1), 0, 3)
        )
        assert coverage_report(vocab, [cc, mimic]).covered == 1

    def test_word_in_no_table_is_fully_random(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["neither"])
        out = assemble(vocab, [cc, mimic], seed=0)
        vec = out[vocab.index["neither"]]
        assert np.all(np.abs(vec) <= 1.0)
        assert coverage_report(vocab, [cc, mimic]).covered == 0

    def test_lowercase_fallback(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["LOWER"])
        out = assemble(vocab, [cc, mimic], seed=0)
        np.testing.assert_array_equal(out[vocab.index["LOWER"]][:3], [9, 9, 9])
        assert coverage_report(vocab, [cc, mimic]).covered == 1

    def test_bitwise_deterministic(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["shared", "only-cc", "neither", "w2"])
        a = assemble(vocab, [cc, mimic], seed=42)
        b = assemble(vocab, [cc, mimic], seed=42)
        assert a.tobytes() == b.tobytes()

    def test_requires_tables_and_vocab(self):
        with pytest.raises(ValueError):
            assemble(build_vocabulary(["a"]), [], seed=0)

    def test_rows_follow_the_vocabulary(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["only-mimic", "shared", "only-cc"])
        out = assemble(vocab, [cc, mimic], seed=3)
        for word in vocab.words:
            alone = assemble(build_vocabulary([word]), [cc, mimic], seed=3)
            assert out[vocab.index[word]].tobytes() == alone[-1].tobytes()

    def test_random_table_is_the_per_word_backfill(self):
        vocab = build_vocabulary(["a", "B", "c"])
        expected = np.stack([hashed_uniform_row(("word-segment", w, 0), 5, 4) for w in vocab.words])
        assert random_table(vocab, 4, seed=5).tobytes() == expected.tobytes()
        assert assemble(vocab, [EmbeddingTable(4, {})], 5).tobytes() == expected.tobytes()

    def test_each_segment_draws_its_missing_words_in_one_call(self, monkeypatch):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["shared", "only-cc", "only-mimic", "neither"])
        calls = []
        real = seqtag.embeddings.hashed_uniform
        monkeypatch.setattr(seqtag.embeddings, "hashed_uniform", lambda groups, seed: calls.append(
            [(keys, dim) for keys, dim in groups]) or real(groups, seed))
        out = assemble(vocab, [cc, mimic], seed=3)
        assert calls == [
            [([("word-segment", w, 0) for w in (UNK, "only-mimic", "neither")], 3)],
            [([("word-segment", w, 1) for w in (UNK, "only-cc", "neither")], 3)],
        ]
        for word in (UNK, "neither"):
            expected = [hashed_uniform_row(("word-segment", word, seg), 3, 3) for seg in (0, 1)]
            assert out[vocab.index[word]].tobytes() == np.concatenate(expected).tobytes()


class TestCoverage:
    def test_full_coverage(self):
        words = [f"w{i}" for i in range(10)]
        table = EmbeddingTable(1, {w: np.zeros(1) for w in words})
        stats = coverage_report(build_vocabulary(words), [table])
        assert stats.percentage == 1.0
        assert f"{stats.percentage:.2%}" == "100.00%"

    def test_half_coverage(self):
        words = [f"w{i}" for i in range(10)]
        table = EmbeddingTable(1, {w: np.zeros(1) for w in words[:5]})
        stats = coverage_report(build_vocabulary(words), [table])
        assert stats.covered == 5 and stats.total_words == 10
        assert stats.percentage == 0.5

    def test_covered_plus_uncovered_is_total(self):
        cc, mimic = two_tables()
        vocab = build_vocabulary(["shared", "only-cc", "nope", "only-mimic"])
        stats = coverage_report(vocab, [cc, mimic])
        uncovered = sum(
            1 for w in vocab.words
            if w != UNK and all(find(t.entries, w) is None for t in (cc, mimic))
        )
        assert stats.covered + uncovered == stats.total_words == 4

    def test_random_table_has_zero_coverage(self):
        vocab = build_vocabulary(["a", "b"])
        stats = coverage_report(vocab, [EmbeddingTable(4, {})])
        assert stats.covered == 0

    def test_word_a_table_holds_only_in_lowercase_is_covered(self):
        table = load_embedding_table("aspirin 0.1 0.2\n")
        stats = coverage_report(build_vocabulary(["Aspirin", "ASPIRIN", "twice"]), [table])
        assert (stats.covered, stats.total_words) == (2, 3)

    def test_coverage_command_draws_no_backfill(self, tmp_path, capsys, monkeypatch):
        def no_draws(groups, seed):
            raise AssertionError("coverage drew a backfill vector")

        monkeypatch.setattr(seqtag.embeddings, "hashed_uniform", no_draws)
        vocab, table = tmp_path / "vocab.conll", tmp_path / "table.txt"
        vocab.write_text("aspirin\tB-drug\ntwice\tO\n\nAspirin\tB-drug\n\n", encoding="utf-8")
        table.write_text("aspirin 0.1 0.2\n", encoding="utf-8")
        assert main(["coverage", "--tables", str(table), "--vocab-from", str(vocab)]) == 0
        assert capsys.readouterr().out == "2/3 words covered (66.67%)\n"


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
        with pytest.raises(DataError):
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
