import copy
import math

import numpy as np
import pytest
from gradcheck import check_model_gradients, zero_everything
from reference import (
    bilstm,
    char_embed,
    char_vector,
    lstm_step,
    run_lstm,
    token_representation,
)
from reference import sentence_logits as reference_logits
from hypothesis import given, settings
from hypothesis import strategies as st
from test_autograd import random_cell

from seqtag import autograd as ag
from seqtag.corpus import Sentence, TagScheme, Token
from seqtag.embeddings import build_vocabulary, find, random_table
from seqtag.errors import ConfigError
from seqtag.features import encode_surface
from seqtag.network import (
    CELL_FIELDS,
    VARIANTS,
    _char_final_states,
    _LeafSet,
    _representation_graph,
    crf_inputs,
    dense_arrays,
    encode,
    init_model,
    loss_and_gradients,
    predict_tag_ids,
    sentence_logits,
)
from seqtag.training import TrainConfig

SCHEME = TagScheme(("x",))  # K = 3


def make_sentence(surfaces, tags=None):
    tags = tags or ["O"] * len(surfaces)
    return Sentence(tuple(Token(s, t) for s, t in zip(surfaces, tags)))


def make_model(
    variant="blstm_crf",
    use_char=True,
    use_features=False,
    d_w=4,
    d_c=3,
    H_w=3,
    H_c=2,
    seed=0,
    words=("felbatol", "was", "given", "daily", "spare"),
):
    vocab = build_vocabulary(words)
    table = random_table(vocab, d_w, seed)
    chars = sorted({ch for w in words for ch in w})
    config = TrainConfig(
        variant=variant, use_char=use_char, use_features=use_features,
        d_w=d_w, d_c=d_c, H_w=H_w, H_c=H_c, seed=seed,
    )
    return init_model(config, SCHEME, vocab, table, words, chars)


def zero_cell(hidden, inputs):
    shapes = {"W_x": (hidden, inputs), "W_h": (hidden, hidden)}
    return {f: np.zeros(shapes.get(f[:3], (hidden,))) for f in CELL_FIELDS}


def sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


class TestLstmStep:
    def test_zero_parameters_keep_zero_states(self):
        cell = zero_cell(4, 3)
        h, c = np.zeros(4), np.zeros(4)
        rng = np.random.default_rng(0)
        for _ in range(5):
            h, c = lstm_step(cell, rng.normal(size=3), h, c)
            np.testing.assert_array_equal(h, np.zeros(4))
            np.testing.assert_array_equal(c, np.zeros(4))

    def test_scalar_hand_evaluation(self):
        cell = zero_cell(1, 1)
        h, c = lstm_step(cell, np.zeros(1), np.zeros(1), np.ones(1))
        # i = 0.5, candidate = 0, c = 0.5, o = 0.5, h = 0.5 * tanh(0.5)
        assert c[0] == pytest.approx(0.5, abs=1e-15)
        assert h[0] == pytest.approx(0.5 * math.tanh(0.5), abs=1e-12)
        assert h[0] == pytest.approx(0.231059, abs=1e-6)

    def test_input_peephole_reads_previous_cell(self):
        cell = zero_cell(1, 1)
        cell["w_ci"][0] = 1.0
        h, c = lstm_step(cell, np.zeros(1), np.zeros(1), np.ones(1))
        i = sigmoid(1.0)  # gate sees w_ci * c_prev = 1
        assert c[0] == pytest.approx((1 - i) * 1.0, abs=1e-12)
        assert h[0] == pytest.approx(0.5 * math.tanh(1 - i), abs=1e-12)

    def test_output_peephole_reads_new_cell(self):
        cell = zero_cell(1, 1)
        cell["w_co"][0] = 2.0
        h, c = lstm_step(cell, np.zeros(1), np.zeros(1), np.ones(1))
        assert c[0] == pytest.approx(0.5, abs=1e-12)
        o = sigmoid(2.0 * 0.5)  # o reads c_t = 0.5, not c_prev = 1
        assert h[0] == pytest.approx(o * math.tanh(0.5), abs=1e-12)

    def test_coupled_gate_cell_bound(self):
        rng = np.random.default_rng(1)
        cell = random_cell(3, 4, rng)
        c = rng.uniform(-2, 2, 4)
        h = rng.uniform(-1, 1, 4)
        for _ in range(300):
            x = rng.normal(size=3)
            h, c_new = lstm_step(cell, x, h, c)
            assert np.all(np.abs(c_new) <= np.maximum(np.abs(c), 1.0) + 1e-12)
            assert np.all(np.abs(h) < 1.0)
            c = c_new

    def test_dimension_mismatch(self):
        cell = zero_cell(2, 3)
        with pytest.raises(ValueError):
            lstm_step(cell, np.zeros(5), np.zeros(2), np.zeros(2))


class TestBilstm:
    def test_single_step_concatenation(self):
        rng = np.random.default_rng(2)
        fwd, bwd = random_cell(3, 2, rng), random_cell(3, 2, rng)
        x = rng.normal(size=3)
        out = bilstm(fwd, bwd, [x])
        np.testing.assert_allclose(out[0][:2], run_lstm(fwd, [x])[0])
        np.testing.assert_allclose(out[0][2:], run_lstm(bwd, [x])[0])

    def test_reversal_swaps_directions(self):
        rng = np.random.default_rng(3)
        fwd, bwd = random_cell(3, 2, rng), random_cell(3, 2, rng)
        xs = [rng.normal(size=3) for _ in range(5)]
        fwd_states = run_lstm(fwd, xs)
        fwd_on_reversed = run_lstm(fwd, xs[::-1])
        np.testing.assert_allclose(fwd_on_reversed, run_lstm(fwd, xs[::-1]))
        # forward pass over reversed input equals what the backward wrapper sees
        out = bilstm(bwd, fwd, xs[::-1])
        for t, state in enumerate(fwd_states):
            np.testing.assert_allclose(out[len(xs) - 1 - t][2:], state)

    def test_zero_parameters_zero_outputs(self):
        fwd, bwd = zero_cell(2, 3), zero_cell(2, 3)
        out = bilstm(fwd, bwd, [np.ones(3), np.ones(3)])
        for state in out:
            np.testing.assert_array_equal(state, np.zeros(4))

    def test_empty_sequence_rejected(self):
        fwd, bwd = zero_cell(2, 3), zero_cell(2, 3)
        with pytest.raises(ValueError):
            bilstm(fwd, bwd, [])


class TestCharEmbed:
    def test_output_length_is_twice_hidden(self):
        model = make_model(H_c=2)
        assert char_embed("felbatol", model).shape == (4,)
        model25 = make_model(H_c=25)
        assert char_embed("felbatol", model25).shape == (50,)

    def test_single_character_word(self):
        model = make_model()
        vec = char_vector(model, "a")
        views = dense_arrays(model)
        cells = ({f: views[f"char_{d}.{f}"] for f in CELL_FIELDS} for d in ("fwd", "bwd"))
        h_f, h_b = (lstm_step(cell, vec, np.zeros(2), np.zeros(2))[0] for cell in cells)
        np.testing.assert_allclose(char_embed("a", model), np.concatenate([h_f, h_b]))

    def test_shared_reversed_prefix_gives_equal_backward_steps(self):
        model = make_model(words=("tetracycline", "oxytetracycline"))
        short, long = "tetracycline", "oxytetracycline"
        assert long.endswith(short)
        rev_short = [char_vector(model, ch) for ch in reversed(short)]
        rev_long = [char_vector(model, ch) for ch in reversed(long)]
        views = dense_arrays(model)
        char_bwd = {f: views[f"char_bwd.{f}"] for f in CELL_FIELDS}
        states_short = run_lstm(char_bwd, rev_short)
        states_long = run_lstm(char_bwd, rev_long)
        for a, b in zip(states_short, states_long):
            np.testing.assert_allclose(a, b, atol=1e-15)
        # and the final backward halves differ (extra prefix characters)
        assert not np.allclose(states_short[-1], states_long[-1])

    def test_unknown_characters_fall_back_deterministically(self):
        model = make_model()
        a = char_embed("zzz", model)
        b = char_embed("zzz", model)
        np.testing.assert_array_equal(a, b)


# spellings from the model's characters plus z and q, which are outside its char
# vocabulary; a pool of six per example, so sentences repeat words
SPELLINGS = st.text(alphabet="felbatowasgivndyzq", min_size=1, max_size=7)


def char_states(model, sentences):
    """Each token's char-BiLSTM states: its spelling's row."""
    enc = encode(model, sentences)
    return _char_final_states(model, _LeafSet(model), enc).data[enc.spellings]


class TestDistinctSpellings:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_spelling_is_encoded_once_and_tokens_read_their_own(self, data):
        model = make_model()
        pool = data.draw(st.lists(SPELLINGS, min_size=1, max_size=6, unique=True), "pool")
        word = st.sampled_from(pool + ["a", "z"])  # with a seen and an unseen 1-character word
        sentences = [make_sentence(s) for s in data.draw(
            st.lists(st.lists(word, min_size=1, max_size=8), min_size=1, max_size=3), "sentences")]
        surfaces = [w for sent in sentences for w in sent.surfaces]
        enc = encode(model, sentences)
        distinct = list(dict.fromkeys(surfaces))
        assert enc.word_lengths.tolist() == [len(w) for w in distinct]
        index = model.char_vocab.index
        assert enc.chars.tolist() == [index.get(ch, 0) for w in distinct for ch in w]
        assert [distinct[k] for k in enc.spellings] == surfaces
        states = char_states(model, sentences)
        alone = {w: char_states(model, [make_sentence([w])])[0] for w in distinct}
        np.testing.assert_allclose(states, [alone[w] for w in surfaces], rtol=0, atol=1e-12)
        np.testing.assert_allclose(states, [char_embed(w, model) for w in surfaces], atol=1e-12)

    def test_a_model_without_chars_encodes_spellings_but_no_chars(self):
        # a recurrent model decodes each distinct surface once, with or without chars
        enc = encode(make_model(use_char=False), [make_sentence(["was", "Was", "was"])])
        assert enc.chars.size == enc.word_lengths.size == 0
        assert enc.spellings.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_encodes_spellings(self, variant):
        # a batch numbers its surfaces across sentences
        model = make_model(variant=variant, use_char=False, use_features=True)
        enc = encode(model, [make_sentence(["was", "Was"]), make_sentence(["was"])])
        assert enc.spellings.tolist() == [0, 1, 0]


# a batch's words: vocabulary words, their case variants, and words outside the
# vocabulary, some of whose prefixes and suffixes no feature table holds
BATCH_WORDS = st.one_of(
    st.sampled_from(("felbatol", "was", "given", "daily", "spare")).flatmap(
        lambda w: st.sampled_from((w, w.upper(), w.title()))),
    SPELLINGS,
)


class TestEncodedFormat:
    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_table_read_through_spellings_is_the_per_token_oracle(self, variant, data):
        model = make_model(variant=variant, use_char=variant != "crf", use_features=True)
        pool = data.draw(st.lists(BATCH_WORDS, min_size=1, max_size=6), "pool")
        sentences = [make_sentence(s) for s in data.draw(st.lists(
            st.lists(st.sampled_from(pool), min_size=1, max_size=8), min_size=2, max_size=4),
            "sentences")]
        surfaces = [w for sent in sentences for w in sent.surfaces]
        distinct = list(dict.fromkeys(surfaces))
        enc = encode(model, sentences)
        assert len(enc) == len(surfaces) and len(enc.words) == len(distinct)
        assert [distinct[k] for k in enc.spellings] == surfaces
        assert enc.words[enc.spellings].tolist() == [find(model.vocab.index, w, 0) for w in surfaces]
        encoder = model.feature_encoder
        gathered = np.concatenate([rows.gather(fam.table, enc.spellings)
                                   for rows, fam in zip(enc.features, encoder.families)], axis=1)
        expected = np.stack([encode_surface(w, encoder) for w in surfaces])
        assert gathered.tobytes() == expected.tobytes()
        if model.use_char:
            index = model.char_vocab.index
            chars = np.split(enc.chars, np.cumsum(enc.word_lengths)[:-1])
            assert [c.tolist() for c in chars] == [[index.get(ch, 0) for ch in w] for w in distinct]
        inputs = crf_inputs(model, enc, enc.spellings)
        assert crf_inputs(model, enc, slice(None))[enc.spellings].tobytes() == inputs.tobytes()
        split = np.split(inputs, np.cumsum(enc.lengths)[:-1])
        for got, alone in zip(split, sentences, strict=True):
            one = encode(model, [alone])
            want = crf_inputs(model, one, one.spellings)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestTokenRepresentation:
    def test_word_plus_char_dimension(self):
        model = make_model(d_w=4, H_c=2)
        rep = token_representation(model, "felbatol")
        assert rep.shape == (4 + 4,)

    def test_full_configuration_dimension(self):
        model = make_model(use_features=True, d_w=6, H_c=2)
        rep = token_representation(model, "felbatol")
        assert rep.shape == (6 + 4 + 146,)

    def test_infer_mode_is_deterministic(self):
        model = make_model(use_features=True)
        sent = make_sentence(["was", "given"])
        a, b = (
            _representation_graph(
                model, _LeafSet(model), encode(model, [sent]), train=False, dropout=0.5, rng=None
            )[0]
            for _ in range(2)
        )
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_allclose(a.data[1], token_representation(model, "given"), atol=1e-12)

    def test_train_mode_drops_and_scales(self):
        model = make_model()
        sent = make_sentence(["felbatol"])
        rep = _representation_graph(
            model, _LeafSet(model), encode(model, [sent]),
            train=True, dropout=0.5, rng=np.random.default_rng(4),
        )[0].data[0]
        base = token_representation(model, "felbatol")
        kept = rep != 0
        np.testing.assert_allclose(rep[kept], 2.0 * base[kept], atol=1e-12)
        assert kept.sum() < rep.size  # with seed 4 some coordinates drop


class TestForwardBlstm:
    def test_zero_parameters_give_uniform_posteriors(self):
        # equal logits in a row: its softmax is uniform
        model = make_model(variant="blstm")
        zero_everything(model)
        sent = encode(model, [make_sentence(["was", "given"])])
        np.testing.assert_array_equal(sentence_logits(model, sent), np.zeros((2, 3)))

    def test_batched_path_matches_public_op_composition(self):
        # oracle: per-token representations -> bilstm -> projection
        model = make_model(variant="blstm", use_features=True)
        surfaces = ["felbatol", "unseen-word", "daily"]
        logits = reference_logits(model, surfaces)
        logits_now = sentence_logits(model, encode(model, [make_sentence(surfaces)]))
        np.testing.assert_allclose(logits_now, logits, atol=1e-12)

    @pytest.mark.parametrize("variant", ["blstm", "blstm_crf"])
    def test_gathered_path_matches_reference_on_unseen_inputs(self, variant):
        model = make_model(variant=variant, use_features=True)
        # a repeated word, an unseen word with unseen characters (q, u, k) and
        # unseen prefix and suffix values, and a seen word in upper case
        surfaces = ["daily", "Quokka", "was", "daily", "FELBATOL"]
        families = {fam.name: fam for fam in model.feature_encoder.families}
        assert "Quokka" not in model.vocab.index and "q" not in model.char_vocab.index
        assert "quo" not in families["prefix3"].index
        logits = sentence_logits(model, encode(model, [make_sentence(surfaces)]))
        np.testing.assert_allclose(logits, reference_logits(model, surfaces), atol=1e-12)


class TestDistinctInputRows:
    # sentences of unequal length with repeated words, two unseen words that
    # share the <unk> row, unseen characters (Q, u, k, z, q) and a seen word in
    # upper case
    BATCH = (
        ["daily", "was", "daily", "given"],
        ["Quokka"],
        ["was", "FELBATOL", "daily", "Quokka", "zq", "was", "spare"],
    )

    @pytest.mark.parametrize("variant, use_char, use_features", [
        ("blstm_crf", True, True), ("blstm", False, False),
    ])
    def test_a_batch_decodes_each_sentence_as_the_reference(self, variant, use_char,
                                                             use_features):
        model = make_model(variant=variant, use_char=use_char, use_features=use_features)
        logits = sentence_logits(model, encode(model, [make_sentence(s) for s in self.BATCH]))
        bounds = np.cumsum([0] + [len(s) for s in self.BATCH])
        for surfaces, a, b in zip(self.BATCH, bounds, bounds[1:]):
            np.testing.assert_allclose(
                logits[a:b], reference_logits(model, surfaces), rtol=0, atol=1e-12)

    def test_decoding_projects_each_distinct_surface_and_character_once(self, monkeypatch):
        model = make_model(use_features=True)
        projected, bilstm = [], ag.bilstm

        def counting(xs, steps, *weights):
            projected.append(len(xs.data))
            return bilstm(xs, steps, *weights)

        monkeypatch.setattr(ag, "bilstm", counting)
        surfaces = [w for s in self.BATCH for w in s]
        index = model.char_vocab.index
        chars = len({index.get(ch, 0) for w in surfaces for ch in w})
        sentence_logits(model, encode(model, [make_sentence(s) for s in self.BATCH]))
        assert projected == [chars, len(set(surfaces))]
        # training reads one row per token: dropout and the <unk> swap are per token
        projected.clear()
        sent = self.BATCH[2]
        loss_and_gradients(model, encode(model, [make_sentence(sent)]), ["O"] * len(sent))
        assert projected == [len({index.get(ch, 0) for w in sent for ch in w}), len(sent)]


class TestLossAndGradients:
    def test_blstm_zero_parameters_uniform_loss(self):
        model = make_model(variant="blstm")
        zero_everything(model)
        sent = encode(model, [make_sentence(["felbatol", "was", "given", "daily"])])
        loss, _ = loss_and_gradients(model, sent, ["O", "O", "B-x", "I-x"])
        assert loss == pytest.approx(4 * math.log(3), abs=1e-12)

    @pytest.mark.parametrize("variant", ["blstm", "blstm_crf"])
    def test_gradients_match_finite_differences(self, variant):
        model = make_model(variant=variant)
        # "never-seen" is outside the vocabulary, so the <unk> row is checked too
        sent = encode(model, [make_sentence(["felbatol", "was", "never-seen", "given", "daily"])])
        gold = ["B-x", "I-x", "O", "O", "B-x"]
        worst, checked = check_model_gradients(model, sent, gold)
        assert checked > 300
        assert worst < 1e-4

    def test_char_gradients_of_a_repeated_word_match_finite_differences(self):
        # both "daily" tokens read one spelling, so their gradients add up in it
        model = make_model()
        sent = encode(model, [make_sentence(["daily", "was", "daily", "a"])])
        assert sent.spellings.tolist() == [0, 1, 0, 2]
        worst, _ = check_model_gradients(model, sent, ["B-x", "O", "B-x", "O"])
        assert worst < 1e-4

    def test_feature_encoding_gradients(self):
        model = make_model(variant="blstm", use_char=False, use_features=True, d_w=3)
        sent = encode(model, [make_sentence(["felbatol", "40"])])
        _, grads = loss_and_gradients(model, sent, ["B-x", "O"])
        assert any(name.startswith("feature:") for name in grads.rows)
        worst, _ = check_model_gradients(model, sent, ["B-x", "O"])
        assert worst < 1e-4

    def test_absent_word_has_no_gradient(self):
        model = make_model()
        sent = encode(model, [make_sentence(["felbatol", "was"])])
        _, grads = loss_and_gradients(model, sent, ["B-x", "O"])
        spare = model.vocab.index["spare"]
        assert spare not in grads.rows["word_table"].index
        touched = {model.vocab.index["felbatol"], model.vocab.index["was"]}
        assert set(grads.rows["word_table"].index) == touched

    def test_unseen_word_trains_unk_row(self):
        model = make_model()
        sent = encode(model, [make_sentence(["felbatol", "never-seen", "daily"])])
        _, grads = loss_and_gradients(model, sent, ["B-x", "I-x", "O"])
        assert set(grads.rows["word_table"].index) == {
            0, model.vocab.index["felbatol"], model.vocab.index["daily"]
        }
        rows = grads.rows["word_table"]  # ascending, so the <unk> row comes first
        assert rows.index[0] == 0 and np.any(rows.grad[0] != 0.0)

    def test_unseen_character_reads_and_trains_the_char_unk_row(self):
        model = make_model()
        sent = encode(model, [make_sentence(["felbatol", "zq", "daily"])])
        assert "z" not in model.char_vocab.index and "q" not in model.char_vocab.index
        np.testing.assert_array_equal(char_vector(model, "z"), model.char_table[0])
        before = sentence_logits(model, sent)
        model.char_table[0] += 0.25
        after = sentence_logits(model, sent)
        assert not np.array_equal(after[1], before[1])
        _, grads = loss_and_gradients(model, sent, ["B-x", "O", "O"])
        assert 0 in grads.rows["char_table"].index
        rows = grads.rows["char_table"]
        assert rows.index[0] == 0 and np.any(rows.grad[0] != 0.0)
        # with every character seen, exactly the characters read get a row
        sent = encode(model, [make_sentence(["felbatol", "was"])])
        _, grads = loss_and_gradients(model, sent, ["B-x", "O"])
        assert set(grads.rows["char_table"].index) == {
            model.char_vocab.index[ch] for ch in "felbatowas"
        }

    def test_singleton_swap_replaces_only_the_word_lookup(self):
        model = make_model()
        sent = encode(model, [make_sentence(["felbatol", "was", "given"])])
        gold = ["B-x", "O", "O"]
        felbatol = model.vocab.index["felbatol"]
        # the same model with felbatol's own row overwritten by the <unk> row:
        # its char BiLSTM and features still see "felbatol"
        as_unk = copy.deepcopy(model)
        as_unk.word_table[felbatol] = model.word_table[0]
        swapped_loss, _ = loss_and_gradients(as_unk, sent, gold)
        kept_loss, _ = loss_and_gradients(model, sent, gold)
        outcomes = set()
        for seed in range(20):
            loss, grads = loss_and_gradients(
                model, sent, gold, dropout_seed=seed, singletons=frozenset({"felbatol"})
            )
            rows = set(grads.rows["word_table"].index)
            if 0 in rows:
                assert felbatol not in rows
                assert loss == swapped_loss
            else:
                assert felbatol in rows
                assert loss == kept_loss
            outcomes.add(0 in rows)
        assert outcomes == {True, False}

    def test_fixed_dropout_seed_is_bitwise_reproducible(self):
        model = make_model()
        sent = encode(model, [make_sentence(["felbatol", "was", "given"])])
        gold = ["B-x", "O", "O"]
        l1, g1 = loss_and_gradients(model, sent, gold, dropout=0.5, dropout_seed=7)
        l2, g2 = loss_and_gradients(model, sent, gold, dropout=0.5, dropout_seed=7)
        assert l1 == l2
        for name in g1.dense:
            assert g1.dense[name].tobytes() == g2.dense[name].tobytes()

    def test_different_dropout_seeds_differ(self):
        model = make_model()
        sent = encode(model, [make_sentence(["felbatol", "was", "given"])])
        gold = ["B-x", "O", "O"]
        l1, _ = loss_and_gradients(model, sent, gold, dropout=0.5, dropout_seed=1)
        l2, _ = loss_and_gradients(model, sent, gold, dropout=0.5, dropout_seed=2)
        assert l1 != l2

    def test_crf_variant_not_handled_here(self):
        model = make_model(variant="crf", use_char=False, use_features=True)
        with pytest.raises(ConfigError):
            loss_and_gradients(model, encode(model, [make_sentence(["was"])]), ["O"])


class TestUnfilledGradient:
    """The flat gradient starts unfilled: every dense view is written by the
    backward pass or zero-filled after it, never left holding its old bytes."""

    @staticmethod
    def gradients(model, monkeypatch, *, zero_initialised=False):
        # the flat gradient starts NaN-filled, so a view nothing writes shows
        empty_like = np.empty_like
        monkeypatch.setattr(
            np, "empty_like",
            lambda a, *args, **kw: np.full_like(a, np.nan) if a is model.buffer
            else empty_like(a, *args, **kw),
        )
        if zero_initialised:  # every view zeroed up front, and every contribution added
            dense_leaf = _LeafSet.dense_leaf

            def zeroed(self, name):
                leaf = dense_leaf(self, name)
                if leaf.unwritten:
                    leaf.grad.fill(0.0)
                    leaf.unwritten = False
                return leaf

            monkeypatch.setattr(_LeafSet, "dense_leaf", zeroed)
        sent = encode(model, [make_sentence(["felbatol", "was", "never-seen", "given", "daily"])])
        _, grads = loss_and_gradients(
            model, sent, ["B-x", "I-x", "O", "O", "B-x"],
            dropout=0.5, dropout_seed=3, singletons=frozenset({"was"}),
        )
        monkeypatch.undo()
        return grads

    @pytest.mark.parametrize("use_features", [False, True])
    @pytest.mark.parametrize("use_char", [False, True])
    @pytest.mark.parametrize("variant", ["blstm", "blstm_crf"])
    def test_every_dense_view_is_written(self, variant, use_char, use_features, monkeypatch):
        model = make_model(variant=variant, use_char=use_char, use_features=use_features)
        grads = self.gradients(model, monkeypatch)
        expected = self.gradients(model, monkeypatch, zero_initialised=True)
        assert np.isfinite(expected.flat).all()
        assert grads.dense.keys() == expected.dense.keys()
        for name, view in grads.dense.items():
            assert np.isfinite(view).all(), name
            assert np.array_equal(view, expected.dense[name]), name

    def test_a_view_no_operation_reaches_reads_zero(self):
        model = make_model(variant="blstm")
        flat = np.full_like(model.buffer, np.nan)
        leaves = _LeafSet(model, flat)
        projection = leaves.dense_leaf("projection")
        assert leaves.dense_leaf("projection") is projection  # one leaf writes a view
        fresh = ag.leaf(model.params["projection"])
        hidden = ag.Tensor(np.random.default_rng(4).normal(size=(2, fresh.shape[0])))
        for leaf in (projection, fresh):  # only the projection is read
            ag.backward(ag.softmax_cross_entropy(ag.matmul(hidden, leaf), np.array([0, 2])))
        leaves.zero_unwritten()
        assert np.isfinite(flat).all()
        for name, view in leaves.grads.items():
            if name == "projection":
                assert view.tobytes() == fresh.grad.tobytes()
            else:
                assert not view.any(), name


class TestTapeSize:
    def test_tape_size_does_not_depend_on_length(self, monkeypatch):
        # one leaf per lookup table and one fused node per LSTM direction
        words = tuple(f"w{i}" for i in range(40))
        model = make_model(variant="blstm_crf", use_features=True, words=words)
        losses = []
        backward = ag.backward
        monkeypatch.setattr(ag, "backward", lambda loss: (losses.append(loss), backward(loss)))

        def tape_nodes(n):
            loss_and_gradients(model, encode(model, [make_sentence(words[:n])]), ["O"] * n)
            seen, todo = set(), [losses.pop()]
            while todo:
                node = todo.pop()
                if node.tracked and id(node) not in seen:
                    seen.add(id(node))
                    todo.extend(node.parents)
            return len(seen)

        assert tape_nodes(40) == tape_nodes(5)


class TestCrfInputs:
    def test_gather_matches_per_token_reference_bitwise(self):
        model = make_model(variant="crf", use_char=False, use_features=True)
        families = {fam.name: fam for fam in model.feature_encoder.families}
        # a seen word, a lowercase-only match, an unseen word whose prefix and
        # suffix are seen, and a surface whose prefix and suffix values are unseen
        sent = make_sentence(["felbatol", "WAS", "givily", "Quokka"])
        assert "WAS" not in model.vocab.index and "givily" not in model.vocab.index
        for name in ("prefix3", "suffix3"):
            fam = families[name]
            assert fam.fn("givily") in fam.index and fam.fn("Quokka") not in fam.index
        # felbatol reads its own row, WAS the row of was, and the unseen words <unk>
        words = [model.vocab.index["felbatol"], model.vocab.index["was"], 0, 0]

        def reference():
            return np.stack([
                np.concatenate([model.word_table[row], encode_surface(w, model.feature_encoder)])
                for row, w in zip(words, ("felbatol", "WAS", "givily", "Quokka"))
            ])

        encoded = encode(model, [sent])
        assert len(encoded) == 4
        np.testing.assert_array_equal(crf_inputs(model, encoded, encoded.spellings), reference())

        before = crf_inputs(model, encoded, encoded.spellings)
        prefix = families["prefix3"]
        prefix.table[prefix.index["fel"]] += 0.5
        after = crf_inputs(model, encoded, encoded.spellings)
        np.testing.assert_array_equal(after, reference())
        assert not np.array_equal(after[0], before[0])


class TestPrediction:
    def test_blstm_argmax_ties_break_low(self):
        model = make_model(variant="blstm")
        zero_everything(model)
        sent = encode(model, [make_sentence(["was", "given"])])
        assert predict_tag_ids(model, sent) == [0, 0]

    def test_blstm_crf_uses_viterbi(self):
        model = make_model(variant="blstm_crf")
        zero_everything(model)
        # bias transitions so tag 1 always wins from the start state
        model.params["crf.transitions"][[3, 1], 1] = 5.0
        sent = encode(model, [make_sentence(["was", "given"])])
        assert predict_tag_ids(model, sent) == [1, 1]

    def test_crf_baseline_inputs_and_prediction(self):
        model = make_model(variant="crf", use_char=False, use_features=True, d_w=3)
        sent = encode(model, [make_sentence(["felbatol", "was"])])
        inputs = crf_inputs(model, sent, sent.spellings)
        assert inputs.shape == (2, 3 + 146)
        ids = predict_tag_ids(model, sent)
        assert len(ids) == 2 and all(0 <= k < 3 for k in ids)

    def test_char_requested_for_crf_variant_rejected(self):
        with pytest.raises(ConfigError):
            make_model(variant="crf", use_char=True)


class TestWordLookup:
    def test_lowercase_fallback(self):
        model = make_model()
        enc = encode(model, [make_sentence(["FELBATOL", "felbatol"])])
        assert enc.words[enc.spellings].tolist() == [model.vocab.index["felbatol"]] * 2

    def test_oov_deterministic_in_range(self):
        model = make_model()
        # every unseen word reads the shared <unk> row
        enc = encode(model, [make_sentence(["never-seen", "never-seen", "also-unseen"])])
        assert enc.words[enc.spellings].tolist() == [0, 0, 0]
        assert np.all(np.abs(model.word_table[0]) <= 1.0)
