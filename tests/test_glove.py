import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqtag.errors import DataError, NumericError
from seqtag.glove import (
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


def reference_fit(corpus, params):
    """One co-occurrence pair per step: the sequential loop fit_glove must reproduce.

    Returns the per-word vectors and the per-iteration objective.
    """
    sentences = [list(s) for s in corpus]
    vocab = count_vocabulary(sentences, params.min_count)
    index = {w: i for i, w in enumerate(vocab)}
    cooc = build_cooccurrence(sentences, index, params.window)
    n = len(vocab)
    pairs = np.array(sorted(cooc), dtype=np.int64)
    xs = np.array([cooc[tuple(p)] for p in pairs], dtype=np.float64)
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


class TestCooccurrence:
    def test_adjacent_pair_counts(self):
        index = {"a": 0, "b": 1}
        cooc = build_cooccurrence([["a", "b"]], index, window=1)
        assert cooc[(0, 1)] == 1.0 and cooc[(1, 0)] == 1.0

    def test_inverse_distance_weighting(self):
        index = {"a": 0, "b": 1, "c": 2}
        cooc = build_cooccurrence([["a", "b", "c"]], index, window=5)
        assert cooc[(0, 2)] == pytest.approx(0.5)
        assert cooc[(0, 1)] == pytest.approx(1.0)

    def test_window_does_not_cross_sentences(self):
        index = {"a": 0, "b": 1}
        cooc = build_cooccurrence([["a"], ["b"]], index, window=5)
        assert cooc == {}

    def test_symmetry(self):
        sentences, _ = twin_corpus(seed=1, n_sentences=20)
        vocab = count_vocabulary(sentences, 1)
        index = {w: i for i, w in enumerate(vocab)}
        cooc = build_cooccurrence(sentences, index, window=4)
        for (i, j), x in cooc.items():
            assert cooc[(j, i)] == pytest.approx(x)

    def test_twins_have_identical_rows(self):
        sentences, _ = twin_corpus(seed=2, n_sentences=50)
        vocab = count_vocabulary(sentences, 1)
        index = {w: i for i, w in enumerate(vocab)}
        cooc = build_cooccurrence(sentences, index, window=10)
        a, b = index["twina"], index["twinb"]
        row_a = {j: x for (i, j), x in cooc.items() if i == a and j not in (a, b)}
        row_b = {j: x for (i, j), x in cooc.items() if i == b and j not in (a, b)}
        assert row_a == row_b


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


class TestMatchesSequentialReference:
    @pytest.mark.parametrize("corpus, params", [
        (twin_corpus(seed=7, n_sentences=40)[0],
         GloveParams(dim=12, window=4, iterations=2, seed=3)),
        (hub_corpus(seed=8), GloveParams(dim=10, window=6, iterations=2, seed=4)),
        (twin_corpus(seed=9, n_sentences=25)[0],
         GloveParams(dim=8, window=10, iterations=4, seed=5, learning_rate=0.2)),
    ], ids=["twin", "hub", "four_iterations"])
    def test_history_and_vectors_match(self, corpus, params):
        table, history = fit_glove(corpus, params)
        expected_vectors, expected_history = reference_fit(corpus, params)
        assert len(history) == params.iterations
        np.testing.assert_allclose(history, expected_history, rtol=1e-12, atol=0)
        assert set(table.entries) == set(expected_vectors)
        for word, vec in expected_vectors.items():
            np.testing.assert_allclose(table.entries[word], vec, rtol=0, atol=1e-12)


@st.composite
def pair_lists(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 40))
    words = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    ctxs = draw(st.lists(st.integers(n, 2 * n - 1), min_size=m, max_size=m))
    order = draw(st.permutations(range(m)))
    return np.array([words, ctxs], dtype=np.int64).T, np.array(order, dtype=np.int64)


class TestRowDisjointGroups:
    @given(pair_lists())
    def test_partition_without_repeats_keeping_order(self, case):
        rows, order = case
        groups = _row_disjoint_groups(rows, order)
        flat = np.concatenate(groups)
        assert sorted(flat.tolist()) == list(range(len(rows)))
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
        with pytest.raises(ValueError, match=field):
            GloveParams(**{field: value})

    def test_divergence_names_the_iteration(self):
        sentences, _ = twin_corpus(seed=3, n_sentences=10)
        params = GloveParams(dim=8, window=4, iterations=3, learning_rate=1e6)
        with pytest.raises(NumericError, match="iteration 0"):
            fit_glove(sentences, params)
