import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqtag import glove
from seqtag.errors import ConfigError, DataError, NumericError
from seqtag.glove import (
    BLOCK,
    GloveParams,
    _row_disjoint_groups,
    _weights,
    build_cooccurrence,
    count_vocabulary,
    fit_glove,
)


def twin_corpus(seed=0, n_sentences=300, n_contexts=30):
    """Sentences where 'twina' and 'twinb' occur in identical contexts.

    Every sentence containing twina is duplicated with twinb substituted,
    so the two words have bitwise-identical co-occurrence rows.  Context
    words also appear in twin-free sentences so their own contexts vary.
    """
    rng = np.random.default_rng(seed)
    contexts = [f"ctx{i}" for i in range(n_contexts)]
    sentences = []
    for _ in range(n_sentences):
        picked = [contexts[i] for i in rng.integers(0, n_contexts, 4)]
        sentences.append([picked[0], picked[1], "twina", picked[2], picked[3]])
        sentences.append([picked[0], picked[1], "twinb", picked[2], picked[3]])
        filler = [contexts[i] for i in rng.integers(0, n_contexts, 5)]
        sentences.append(filler)
    return sentences, contexts


def hub_corpus(seed=0, n_sentences=120, n_words=25):
    """Sentences that all contain 'hub', so its rows chain through most pairs."""
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(n_sentences):
        words = [f"w{i}" for i in rng.integers(0, n_words, int(rng.integers(2, 9)))]
        words.insert(int(rng.integers(0, len(words) + 1)), "hub")
        sentences.append(words)
    return sentences


def reference_cooccurrence(corpus, index, window):
    """One event at a time: the loop whose sums build_cooccurrence must equal bitwise.

    Returns a dict from (word, context) to its count.
    """
    counts = {}
    for sentence in corpus:
        ids = [index.get(w) for w in sentence]
        for pos, wid in enumerate(ids):
            if wid is None:
                continue
            for dist in range(1, window + 1):
                other = pos + dist
                if other >= len(ids):
                    break
                oid = ids[other]
                if oid is None:
                    continue
                weight = 1.0 / dist
                counts[(wid, oid)] = counts.get((wid, oid), 0.0) + weight
                counts[(oid, wid)] = counts.get((oid, wid), 0.0) + weight
    return counts


def as_dict(cooc):
    """The (word, context) -> count mapping of a build_cooccurrence array."""
    return {(w, c): x for w, c, x in cooc.tolist()}


def reference_fit(corpus, params):
    """One co-occurrence pair per step: the sequential loop fit_glove must reproduce.

    Returns the per-word vectors and the per-iteration objective.
    """
    sentences = [list(s) for s in corpus]
    vocab = count_vocabulary(sentences, params.min_count)
    index = {w: i for i, w in enumerate(vocab)}
    cooc = build_cooccurrence(sentences, index, params.window)
    n = len(vocab)
    pairs = np.stack([cooc["word"], cooc["context"]], axis=1)
    xs = cooc["count"]
    logx = np.log(xs)
    fx = _weights(xs, params.x_max, params.alpha)

    rng = np.random.default_rng(params.seed)
    scale = 0.5 / (params.dim + 1)
    vectors = rng.uniform(-scale, scale, (2 * n, params.dim))
    biases = rng.uniform(-scale, scale, 2 * n)
    grad_sq_vec = np.ones_like(vectors)
    grad_sq_bias = np.ones_like(biases)
    word_ids = pairs[:, 0]
    ctx_ids = pairs[:, 1] + n
    lr = params.learning_rate

    history = []
    for _ in range(params.iterations):
        for k in rng.permutation(len(pairs)):
            i, j = word_ids[k], ctx_ids[k]
            wi, wj = vectors[i], vectors[j]
            diff = wi @ wj + biases[i] + biases[j] - logx[k]
            fdiff = fx[k] * diff
            grad_i = fdiff * wj
            grad_j = fdiff * wi
            vectors[i] -= lr * grad_i / np.sqrt(grad_sq_vec[i])
            vectors[j] -= lr * grad_j / np.sqrt(grad_sq_vec[j])
            grad_sq_vec[i] += grad_i * grad_i
            grad_sq_vec[j] += grad_j * grad_j
            biases[i] -= lr * fdiff / np.sqrt(grad_sq_bias[i])
            biases[j] -= lr * fdiff / np.sqrt(grad_sq_bias[j])
            grad_sq_bias[i] += fdiff * fdiff
            grad_sq_bias[j] += fdiff * fdiff
        dots = np.einsum("ij,ij->i", vectors[word_ids], vectors[ctx_ids])
        diff = dots + biases[word_ids] + biases[ctx_ids] - logx
        history.append(float(0.5 * np.sum(fx * diff * diff)))
    return {w: vectors[i] + vectors[i + n] for w, i in index.items()}, history


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


@st.composite
def corpora(draw):
    """Sentences over a small vocabulary, with an index that misses some words.

    Small vocabularies make a word next to itself likely; empty sentences
    and sentences shorter than the window are drawn as well.
    """
    words = [f"w{i}" for i in range(draw(st.integers(1, 6)))]
    sentences = draw(st.lists(st.lists(st.sampled_from(words), max_size=12), max_size=8))
    indexed = draw(st.lists(st.sampled_from(words), unique=True))
    return sentences, {w: i for i, w in enumerate(indexed)}, draw(st.integers(1, 6))


class TestCooccurrence:
    def test_adjacent_pair_counts(self):
        index = {"a": 0, "b": 1}
        cooc = as_dict(build_cooccurrence([["a", "b"]], index, window=1))
        assert cooc[(0, 1)] == 1.0 and cooc[(1, 0)] == 1.0

    def test_inverse_distance_weighting(self):
        index = {"a": 0, "b": 1, "c": 2}
        cooc = as_dict(build_cooccurrence([["a", "b", "c"]], index, window=5))
        assert cooc[(0, 2)] == pytest.approx(0.5)
        assert cooc[(0, 1)] == pytest.approx(1.0)

    def test_window_does_not_cross_sentences(self):
        index = {"a": 0, "b": 1}
        cooc = build_cooccurrence([["a"], ["b"]], index, window=5)
        assert len(cooc) == 0

    def test_symmetry(self):
        sentences, _ = twin_corpus(seed=1, n_sentences=20)
        vocab = count_vocabulary(sentences, 1)
        index = {w: i for i, w in enumerate(vocab)}
        cooc = as_dict(build_cooccurrence(sentences, index, window=4))
        for (i, j), x in cooc.items():
            assert cooc[(j, i)] == pytest.approx(x)

    def test_twins_have_identical_rows(self):
        sentences, _ = twin_corpus(seed=2, n_sentences=50)
        vocab = count_vocabulary(sentences, 1)
        index = {w: i for i, w in enumerate(vocab)}
        cooc = as_dict(build_cooccurrence(sentences, index, window=10))
        a, b = index["twina"], index["twinb"]
        row_a = {j: x for (i, j), x in cooc.items() if i == a and j not in (a, b)}
        row_b = {j: x for (i, j), x in cooc.items() if i == b and j not in (a, b)}
        assert row_a == row_b

    def test_a_window_past_the_longest_sentence_is_cut_to_it(self):
        sentences = [["a", "b", "c"], ["b", "c", "a", "d"], ["d", "a", "b"]]
        index = {w: i for i, w in enumerate("abcd")}
        tracemalloc.start()
        try:
            wide = build_cooccurrence(sentences, index, window=3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert wide.tobytes() == build_cooccurrence(sentences, index, window=3).tobytes()

    def test_a_long_sentence_costs_the_short_ones_nothing(self):
        # each position gets only the distances left in its own sentence, so
        # 200 short sentences do not pay for the one long sentence's window
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(50)]
        index = {w: i for i, w in enumerate(words)}
        sentences = [[words[i] for i in rng.integers(0, 50, n)] for n in [10] * 200 + [500]]
        tracemalloc.start()
        try:
            cooc = build_cooccurrence(sentences, index, window=500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # padding every sentence to the window would take about 100 MB
        expected = sorted(reference_cooccurrence(sentences, index, 500).items())
        assert [(w, c) for w, c, _ in cooc.tolist()] == [pair for pair, _ in expected]
        assert [x.hex() for x in cooc["count"].tolist()] == [x.hex() for _, x in expected]

    @given(corpora())
    def test_matches_the_one_event_loop_bitwise(self, case):
        sentences, index, window = case
        cooc = build_cooccurrence(sentences, index, window)
        expected = sorted(reference_cooccurrence(sentences, index, window).items())
        assert [(w, c) for w, c, _ in cooc.tolist()] == [pair for pair, _ in expected]
        assert [x.hex() for x in cooc["count"].tolist()] == [x.hex() for _, x in expected]


class TestTraining:
    def test_minimal_two_word_corpus(self):
        params = GloveParams(dim=4, window=1, iterations=5, seed=0)
        table, _ = fit_glove([["a", "b"]] * 3, params)
        assert set(table.entries) == {"a", "b"}
        assert table.dim == 4

    def test_output_dimensionality(self):
        params = GloveParams(dim=50, window=2, iterations=2, seed=0)
        table, _ = fit_glove([["a", "b", "c", "a"]] * 2, params)
        for vec in table.entries.values():
            assert vec.shape == (50,)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            fit_glove([], GloveParams())
        with pytest.raises(DataError):
            fit_glove([["rare"]], GloveParams(min_count=2))

    def test_deterministic_for_fixed_seed(self):
        sentences, _ = twin_corpus(seed=4, n_sentences=30)
        params = GloveParams(dim=8, window=4, iterations=3, seed=11)
        t1, h1 = fit_glove(sentences, params)
        t2, h2 = fit_glove(sentences, params)
        assert h1 == h2
        for w in t1.entries:
            assert t1.entries[w].tobytes() == t2.entries[w].tobytes()

    def test_min_count_filters_vocabulary(self):
        sentences = [["a", "b"], ["a", "c"], ["a", "b"]]
        assert count_vocabulary(sentences, 2) == ["a", "b"]

    def test_objective_non_increasing_on_twin_corpus(self):
        sentences, _ = twin_corpus(seed=5)
        params = GloveParams(dim=16, window=5, iterations=25, seed=1)
        _, history = fit_glove(sentences, params)
        assert len(history) == 25
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev + 1e-12

    def test_twins_end_up_similar(self):
        sentences, contexts = twin_corpus(seed=6)
        params = GloveParams(dim=16, window=5, iterations=40, seed=2)
        table, _ = fit_glove(sentences, params)
        a, b = table.entries["twina"], table.entries["twinb"]
        twin_sim = cosine(a, b)
        others = [cosine(a, table.entries[c]) for c in contexts]
        beaten = sum(1 for s in others if twin_sim > s)
        assert beaten / len(others) >= 0.95

    def test_memory_grows_with_the_vocabulary_not_the_pairs(self, monkeypatch):
        monkeypatch.setattr(glove, "BLOCK", 16)
        sentences = hub_corpus(seed=11, n_sentences=600, n_words=60)
        vocab = count_vocabulary(sentences, 1)
        n = len(vocab)
        pairs = len(build_cooccurrence(sentences, {w: i for i, w in enumerate(vocab)}, 10))
        peaks = {}
        for dim in (8, 64):
            tracemalloc.start()
            try:
                fit_glove(sentences, GloveParams(dim=dim, window=10, iterations=1))
                _, peaks[dim] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # the extra 56 floats per row, for a few copies of the 2n-row table;
        # two (pairs, dim) gathers would add 2 * pairs * 56 floats instead
        bound = 8 * 2 * n * 56 * 8
        assert 4 * bound < 2 * pairs * 56 * 8
        assert peaks[64] - peaks[8] < bound


class TestMatchesSequentialReference:
    @pytest.mark.parametrize("corpus, params, block", [
        (twin_corpus(seed=7, n_sentences=40)[0],
         GloveParams(dim=12, window=4, iterations=2, seed=3), BLOCK),
        (hub_corpus(seed=8), GloveParams(dim=10, window=6, iterations=2, seed=4), BLOCK),
        (twin_corpus(seed=9, n_sentences=25)[0],
         GloveParams(dim=8, window=10, iterations=4, seed=5, learning_rate=0.2), BLOCK),
        # 502 pairs, so the last chunk and block hold one pair
        (hub_corpus(seed=10, n_sentences=40), GloveParams(dim=6, window=5, iterations=3, seed=6), 3),
    ], ids=["twin", "hub", "four_iterations", "hub_blocks_of_3"])
    def test_history_and_vectors_match(self, corpus, params, block, monkeypatch):
        monkeypatch.setattr(glove, "BLOCK", block)
        table, history = fit_glove(corpus, params)
        expected_vectors, expected_history = reference_fit(corpus, params)
        assert len(history) == params.iterations
        assert history == expected_history
        assert set(table.entries) == set(expected_vectors)
        for word, vec in expected_vectors.items():
            assert np.array_equal(table.entries[word], vec)


@st.composite
def pair_lists(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 40))
    words = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    ctxs = draw(st.lists(st.integers(n, 2 * n - 1), min_size=m, max_size=m))
    order = draw(st.permutations(range(m)))
    return np.array([words, ctxs], dtype=np.int64).T, np.array(order, dtype=np.int64)


class TestRowDisjointGroups:
    @pytest.mark.parametrize("block", [BLOCK, 1, 3], ids=["default", "1", "3"])
    @given(case=pair_lists())
    def test_partition_without_repeats_keeping_order(self, block, case):
        rows, order = case
        with mock.patch.object(glove, "BLOCK", block):
            grouped, sizes = _row_disjoint_groups(rows, order)
        assert sizes.sum() == len(grouped)
        groups = np.split(grouped, np.cumsum(sizes)[:-1])
        assert sorted(grouped.tolist()) == list(range(len(rows)))
        group_of = {}
        for g, ks in enumerate(groups):
            assert len(ks) > 0
            touched = rows[ks].ravel()
            assert len(set(touched.tolist())) == len(touched)
            for k in ks.tolist():
                group_of[k] = g
        position = {k: p for p, k in enumerate(order.tolist())}
        for a in range(len(rows)):
            for b in range(len(rows)):
                if position[a] < position[b] and set(rows[a]) & set(rows[b]):
                    assert group_of[a] < group_of[b]


class TestNumericGuards:
    @pytest.mark.parametrize("field", ["x_max", "alpha", "learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            GloveParams(**{field: value})

    @pytest.mark.parametrize("value", [0, -3])
    def test_min_count_below_one_rejected(self, value):
        with pytest.raises(ConfigError, match="min_count"):
            GloveParams(min_count=value)

    @pytest.mark.parametrize("block", [2, BLOCK], ids=["2", "default"])
    def test_divergence_names_the_iteration(self, block, monkeypatch):
        monkeypatch.setattr(glove, "BLOCK", block)
        sentences, _ = twin_corpus(seed=3, n_sentences=10)
        params = GloveParams(dim=8, window=4, iterations=3, learning_rate=1e6)
        with pytest.raises(NumericError, match="iteration 0"):
            fit_glove(sentences, params)
