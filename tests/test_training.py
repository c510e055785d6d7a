import copy
import functools
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqtag import features, network, training
from seqtag.corpus import (
    Dataset,
    Sentence,
    TagScheme,
    Token,
    extract_entities,
    parse_conll,
    repair_bio,
    split_train_valid,
)
from seqtag.embeddings import UNK
from seqtag.errors import ConfigError, DataError, NumericError, TagValidationError
from seqtag.evaluation import evaluate, span_counts
from seqtag.network import (
    VARIANTS,
    batches,
    dense_arrays,
    encode,
    loss_and_gradients,
    sentence_logits,
    table_arrays,
)
from seqtag.synth import default_spec, generate
from seqtag.training import (
    Checkpoint,
    TrainConfig,
    build_model,
    crf_baseline_loss_and_gradients,
    derive_scheme,
    load_checkpoint,
    parse_kv_lines,
    save_checkpoint,
    sgd_update,
    tag,
    tag_with_model,
    train,
)

DATA = Path(__file__).parent / "data"
FAST = dict(d_w=12, d_c=6, H_w=8, H_c=6, init="scaled")
# quick-convergence knobs for unit-scale corpora (not the protocol defaults)
EAGER = dict(learning_rate=0.05, dropout=0.1, **FAST)


def small_corpus(seed=0, n_train=40, n_test=10, **overrides):
    overrides.setdefault("test_overlap", 1.0)
    overrides.setdefault("density", 0.35)
    overrides.setdefault("length_range", (4, 9))
    spec = default_spec(seed=seed, n_train=n_train, n_test=n_test, **overrides)
    return generate(spec)


@st.composite
def configs(draw):
    """Valid configs with any value of every field; paths hold no separator or space."""
    path = st.text(st.sampled_from("abc/._-0é"), min_size=1, max_size=8)
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    size = st.integers(1, 10**6)
    variant = draw(st.sampled_from(VARIANTS))
    return TrainConfig(
        variant=variant,
        embeddings=tuple(draw(st.lists(path, max_size=3))),
        use_char=variant != "crf" and draw(st.booleans()),
        use_features=draw(st.booleans()),
        d_w=draw(size), d_c=draw(size), H_w=draw(size), H_c=draw(size), epochs=draw(size),
        learning_rate=draw(st.floats(0.0, 1e300, exclude_min=True)),
        dropout=draw(unit),
        split_ratio=draw(unit),
        seed=draw(st.integers(0, 2**70)),
        clip_norm=draw(st.floats(0.0, 1e300)),
        crf_l2=draw(st.floats(0.0, 1e300)),
        init=draw(st.sampled_from(["uniform", "scaled"])),
    )


def model_bytes(model):
    chunks = [arr.tobytes() for arr in dense_arrays(model).values()]
    chunks += [arr.tobytes() for arr in table_arrays(model).values()]
    return b"".join(chunks)


class TestTrainConfig:
    def test_defaults_follow_reference_protocol(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.01
        assert cfg.dropout == 0.5
        assert cfg.epochs == 100
        assert cfg.split_ratio == 0.7
        assert (cfg.H_w, cfg.d_c, cfg.H_c) == (100, 25, 25)
        assert cfg.d_w == 300
        cfg.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variant="hmm"),
            dict(dropout=0.0),
            dict(dropout=1.0),
            dict(epochs=0),
            dict(split_ratio=1.0),
            dict(learning_rate=0.0),
            dict(variant="crf", use_char=True),
            dict(init="xavier"),
            dict(H_c=0),
            dict(learning_rate=float("nan")),
            dict(clip_norm=-1.0),
            dict(seed=-1),
            dict(crf_l2=float("inf")),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        named = [key for key in kwargs if key != "variant"] or ["variant"]
        with pytest.raises(ConfigError, match=repr(named[0])):
            TrainConfig(**kwargs)

    @given(config=configs(), sep=st.sampled_from([",", "\t"]))
    def test_text_round_trip(self, config, sep):
        text = config.to_text(sep)
        assert list(text) == [f.name for f in fields(TrainConfig)]
        assert TrainConfig.from_text(text, sep) == config
        lines = [f"{key} = {value}" for key, value in text.items()]
        assert TrainConfig.from_text(parse_kv_lines(lines, "lines"), sep) == config

    @pytest.mark.parametrize("word, value", [
        ("true", True), ("True", True), ("YES", True), ("on", True), ("1", True),
        ("false", False), ("False", False), ("no", False), ("Off", False), ("0", False),
    ])
    def test_bool_words(self, word, value):
        assert TrainConfig.from_text({"use_features": word}).use_features is value

    @pytest.mark.parametrize("values", [
        {"use_char": "maybe"}, {"epochs": "2.5"}, {"dropout": "half"}, {"zzz": "1"},
    ])
    def test_text_that_does_not_parse_is_rejected_naming_its_key(self, values):
        with pytest.raises(ConfigError, match=repr(next(iter(values)))):
            TrainConfig.from_text(values)

    def test_overrides_are_put_over_the_text_and_checked_together(self):
        with pytest.raises(ConfigError, match="'use_char'"):
            TrainConfig.from_text({"variant": "crf", "use_char": "true"})


class TestDeriveScheme:
    def test_classes_sorted(self):
        data, _ = small_corpus()
        scheme = derive_scheme(data)
        assert scheme.classes == ("problem", "test", "treatment")

    def test_no_entities_rejected(self):
        scheme = TagScheme(("x",))
        data = parse_conll("a\tO\nb\tO\n", scheme)
        with pytest.raises(DataError):
            derive_scheme(data)

    @pytest.mark.parametrize("tag", ["B", "I-", "X-drug", "drug"])
    @pytest.mark.filterwarnings("ignore:sentence 0")  # "I-" does not continue an entity
    def test_malformed_tag_rejected(self, tag):
        text = f"a\tB-drug\nb\t{tag}\n"
        with pytest.raises(TagValidationError, match=repr(tag)):
            derive_scheme(parse_conll(text, None))
        predictions = parse_conll(text, None, predictions=True)
        with pytest.raises(TagValidationError, match=repr(tag)):
            derive_scheme(parse_conll("a\tB-drug\nb\tO\n", None), predictions)


class TestTrainLoop:
    def test_bitwise_identical_checkpoints_for_fixed_seed(self, tmp_path):
        data, _ = small_corpus()
        cfg = TrainConfig(variant="blstm_crf", epochs=2, seed=9, **FAST)
        a = train(cfg, data)
        b = train(cfg, data)
        assert model_bytes(a.model) == model_bytes(b.model)
        assert a.history == b.history and a.best_epoch == b.best_epoch

    def test_vocabulary_is_learn_split_only(self):
        data, _ = small_corpus()
        cfg = TrainConfig(variant="blstm_crf", epochs=1, seed=9, **FAST)
        ckpt = train(cfg, data)
        learn, valid = split_train_valid(data, cfg.split_ratio, cfg.seed)
        learn_words = dict.fromkeys(t.surface for s in learn for t in s)
        assert ckpt.model.vocab.words == (UNK, *learn_words)
        valid_only = {t.surface for s in valid for t in s} - set(learn_words)
        assert valid_only  # the corpus has validation-only words to leave out
        assert not valid_only & set(ckpt.model.vocab.words)

    def test_history_length_and_best_epoch(self):
        data, _ = small_corpus()
        cfg = TrainConfig(variant="blstm", epochs=3, seed=1, **FAST)
        ckpt = train(cfg, data)
        assert len(ckpt.history) == 3
        assert ckpt.history[ckpt.best_epoch] == max(ckpt.history)
        # earliest epoch wins ties
        assert all(f1 < ckpt.history[ckpt.best_epoch] for f1 in ckpt.history[: ckpt.best_epoch])

    @pytest.mark.parametrize("variant", ["crf", "blstm_crf"])
    def test_the_model_holds_the_best_epoch_parameters(self, variant):
        data, _ = small_corpus(n_train=20)
        cfg = TrainConfig(
            variant=variant, use_char=variant != "crf", use_features=True, epochs=4, seed=1, **FAST
        )
        ckpt = train(cfg, data)
        assert ckpt.best_epoch < cfg.epochs - 1  # later epochs moved the parameters on
        # a run that stops at the best epoch ends with its parameters, tables included
        stopped = train(replace(cfg, epochs=ckpt.best_epoch + 1), data)
        assert stopped.history == ckpt.history[: ckpt.best_epoch + 1]
        assert model_bytes(ckpt.model) == model_bytes(stopped.model)

    def test_training_does_not_mutate_input(self):
        data, _ = small_corpus()
        before = tuple(data)
        cfg = TrainConfig(variant="blstm", epochs=1, seed=0, **FAST)
        train(cfg, data)
        assert tuple(data) == before

    def test_learning_happens(self):
        data, test_data = small_corpus(n_train=80, n_test=15)
        cfg = TrainConfig(variant="blstm_crf", epochs=12, seed=5, **EAGER)
        ckpt = train(cfg, data)
        assert max(ckpt.history) > 0.4
        pred = tag(ckpt, test_data)
        assert evaluate(test_data, pred, ckpt.scheme).micro_f1() > 0.3

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_non_finite_loss_aborts_with_sentence_index(self, variant):
        data, _ = small_corpus(n_train=10)
        cfg = TrainConfig(
            variant=variant, use_char=variant != "crf", epochs=1, seed=0, learning_rate=1e308,
            clip_norm=0.0, **FAST,
        )
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="sentence index"):
            train(cfg, data)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_epoch_that_leaves_non_finite_parameters_aborts(self, variant):
        # one learn sentence: its step diverges, and no later loss would show it
        data, _ = small_corpus(n_train=2)
        cfg = TrainConfig(
            variant=variant, use_char=variant != "crf", epochs=1, seed=0, split_ratio=0.5,
            learning_rate=1e308, clip_norm=0.0, **dict(FAST, init="uniform"),
        )
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="epoch 0 left non-fin"):
            train(cfg, data)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train(TrainConfig(epochs=1, **FAST), Dataset(()))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gold_tag_outside_a_given_scheme_is_rejected(self, variant):
        data, _ = small_corpus(n_train=10)
        cfg = TrainConfig(variant=variant, use_char=False, epochs=1, seed=0, **FAST)
        with pytest.raises(TagValidationError, match="tag scheme"):
            train(cfg, data, TagScheme(("problem",)))

    def test_empty_validation_split_rejected(self):
        data, _ = small_corpus(n_train=2)
        sliced = Dataset(data.sentences[:2])
        cfg = TrainConfig(epochs=1, split_ratio=0.9, **FAST)
        with pytest.raises(DataError, match="validation"):
            train(cfg, sliced)

    def test_crf_variant_loss_decreases_over_first_epochs(self):
        data, _ = small_corpus(n_train=40)
        losses = []
        cfg = TrainConfig(
            variant="crf", use_char=False, epochs=5, seed=2, d_w=12, init="scaled"
        )
        train(cfg, data, progress=lambda e, loss, f1: losses.append(loss))
        assert len(losses) == 5
        assert all(np.isfinite(losses))
        assert losses[4] < losses[0]
        assert all(b <= a * 1.02 for a, b in zip(losses, losses[1:]))  # no blow-ups


class TestCrfBaseline:
    def test_l2_pulls_parameters_toward_zero(self):
        data, _ = small_corpus(n_train=5)
        scheme = derive_scheme(data)
        cfg = TrainConfig(variant="crf", use_char=False, d_w=8, seed=0)
        model = build_model(cfg, scheme, data)
        sent, gold = encode(model, [data[0]]), list(data[0].gold_tags)
        loss_l2, grads_l2 = crf_baseline_loss_and_gradients(model, sent, gold, l2=1.0)
        loss_0, grads_0 = crf_baseline_loss_and_gradients(model, sent, gold, l2=0.0)
        assert loss_l2 > loss_0
        trans = model.params["crf.transitions"]
        np.testing.assert_allclose(
            grads_l2.dense["crf.transitions"] - grads_0.dense["crf.transitions"], trans
        )

    def test_embeddings_stay_frozen(self):
        data, _ = small_corpus(n_train=20)
        cfg = TrainConfig(variant="crf", use_char=False, epochs=1, seed=4, d_w=8)
        scheme = derive_scheme(data)
        model = build_model(cfg, scheme, data)
        word_before = model.word_table.copy()
        sent = data[0]
        _, grads = crf_baseline_loss_and_gradients(
            model, encode(model, [sent]), list(sent.gold_tags), 1e-4
        )
        sgd_update(model, grads, 0.01, 5.0)
        np.testing.assert_array_equal(model.word_table, word_before)

    def test_feature_work_does_not_scale_with_epochs(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def family_value(surface):
                calls[name] += 1
                return fn(surface)

            return family_value

        monkeypatch.setattr(
            features,
            "FAMILY_SPECS",
            tuple((name, dim, counted(name, fn)) for name, dim, fn in features.FAMILY_SPECS),
        )
        data, _ = small_corpus()

        def feature_calls(epochs):
            calls.clear()
            cfg = TrainConfig(
                variant="crf", use_char=False, use_features=True, epochs=epochs, seed=0, **FAST
            )
            train(cfg, data)
            return dict(calls)

        two = feature_calls(2)
        assert set(two) == {name for name, _, _ in features.FAMILY_SPECS}
        assert feature_calls(4) == two


class TestGoldTags:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_gold_tag_outside_the_scheme_raises_in_every_loss(self, variant):
        data, _ = small_corpus(n_train=5)
        model = build_model(TrainConfig(variant=variant, seed=0, **FAST), derive_scheme(data), data)
        sent = data[0]
        gold = ["B-nope", *sent.gold_tags[1:]]
        with pytest.raises(TagValidationError, match="'B-nope'"):
            if variant == "crf":
                crf_baseline_loss_and_gradients(model, encode(model, [sent]), gold, 1e-4)
            else:
                loss_and_gradients(model, encode(model, [sent]), gold)


class TestTag:
    def test_converged_model_reproduces_training_tags(self):
        data, _ = small_corpus(n_train=80)
        cfg = TrainConfig(variant="blstm_crf", epochs=25, seed=5, **EAGER)
        ckpt = train(cfg, data)
        # train() holds roughly 30% of data out for validation (split_ratio
        # 0.7): the learn split must be fitted, the whole of data nearly so
        learn, _ = split_train_valid(data, cfg.split_ratio, cfg.seed)

        def errors_and_total(part):
            pairs = [
                (g, p)
                for gold_sent, pred_sent in zip(part, tag(ckpt, part))
                for g, p in zip(gold_sent.gold_tags, pred_sent.pred_tags)
            ]
            return sum(g != p for g, p in pairs), len(pairs)

        errors, total = errors_and_total(data)
        learn_errors, learn_total = errors_and_total(learn)
        message = (
            f"{learn_errors}/{learn_total} learn-split and "
            f"{errors - learn_errors}/{total - learn_total} held-out tokens mistagged"
        )
        assert (learn_total - learn_errors) / learn_total >= 0.99, message
        assert (total - errors) / total >= 0.99, message

    def test_empty_input_gives_empty_output(self):
        data, _ = small_corpus(n_train=10)
        cfg = TrainConfig(variant="blstm", epochs=1, seed=0, **FAST)
        ckpt = train(cfg, data)
        assert len(tag(ckpt, Dataset(()))) == 0

    def test_repeated_calls_identical(self):
        data, test_data = small_corpus(n_train=15)
        cfg = TrainConfig(variant="blstm_crf", epochs=2, seed=0, **FAST)
        ckpt = train(cfg, data)
        assert tag(ckpt, test_data) == tag(ckpt, test_data)

    def test_predictions_are_valid_bio(self):
        from seqtag.corpus import extract_entities

        data, test_data = small_corpus(n_train=15)
        cfg = TrainConfig(variant="blstm", epochs=1, seed=0, **FAST)
        ckpt = train(cfg, data)
        for sent in tag(ckpt, test_data):
            extract_entities(list(sent.pred_tags))  # must not raise

    def test_tagged_tokens_equal_tokens_built_from_their_fields(self):
        data, test_data = small_corpus(n_train=10)
        ckpt = train(TrainConfig(variant="crf", epochs=1, seed=0, **FAST), data)
        tagged = tag(ckpt, test_data)
        for sent, out in zip(test_data, tagged):
            for token, t in zip(sent, out):
                built = Token(t.surface, t.gold_tag, t.pred_tag)
                assert type(t) is Token and t == built and hash(t) == hash(built)
                assert (t.surface, t.gold_tag) == (token.surface, token.gold_tag)
                assert token.pred_tag is None and t.pred_tag is not None

    def test_scheme_mismatch_rejected(self):
        data, _ = small_corpus(n_train=10)
        cfg = TrainConfig(variant="blstm", epochs=1, seed=0, **FAST)
        ckpt = train(cfg, data)
        other = parse_conll("x\tB-zzz\n", TagScheme(("zzz",)))
        with pytest.raises(TagValidationError):
            tag(ckpt, other)


@functools.cache
def trained_model(variant):
    """A briefly trained model of ``variant`` and sentences of 1 to 9 tokens to tag."""
    data, test_data = small_corpus(n_train=20, n_test=12, length_range=(1, 9))
    cfg = TrainConfig(
        variant=variant, use_char=variant != "crf", use_features=variant != "blstm",
        epochs=2, seed=3, **FAST,
    )
    return train(cfg, data).model, test_data


def tag_all(model, data):
    return tag_with_model(model, batches(model, data))


def record_batches(monkeypatch):
    """Patch ``training.predict_tag_ids`` to log each batch it decodes; returns the log."""
    seen = []
    real = training.predict_tag_ids

    def predict(model, batch):
        seen.append(batch)
        return real(model, batch)

    monkeypatch.setattr(training, "predict_tag_ids", predict)
    return seen


def padded_tokens(batch):
    return len(batch.lengths) * max(batch.lengths)


def padded_chars(batch):
    # the char cap counts every word, though the char BiLSTM runs each spelling once
    return len(batch) * max(batch.word_lengths)


class TestBatchedDecode:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_batch_tags_as_its_sentences_one_at_a_time(self, variant, monkeypatch):
        model, data = trained_model(variant)
        one_by_one = [tags for sent in data for tags in tag_all(model, [sent])]
        assert len(set(map(len, data))) > 1  # the shorter sentences are padded
        seen = record_batches(monkeypatch)
        assert tag_all(model, data) == one_by_one
        assert [b.lengths.tolist() for b in seen] == [[len(sent) for sent in data]]

    def test_crf_inputs_of_a_batch_are_those_of_its_sentences_alone(self, monkeypatch):
        model, data = trained_model("crf")
        alone = [encode(model, [sent]) for sent in data]
        fams = [i for i, fam in enumerate(model.feature_encoder.families)
                if fam.name in ("prefix3", "suffix3")]
        # several sentences read fallback rows for unseen prefixes or suffixes
        assert sum(any(len(enc.features[i].fallback) for i in fams) for enc in alone) > 2
        real, gathered = network.crf_inputs, []
        monkeypatch.setattr(
            network, "crf_inputs",
            lambda m, enc, at: gathered.append(real(m, enc, at)) or gathered[-1],
        )
        batch = encode(model, list(data))
        network.predict_tag_ids(model, batch)
        assert len(gathered) == 1  # one gather per batch, one row per distinct surface
        assert len(gathered[0]) == len(batch.words) < len(batch)
        tokens = np.split(gathered[0][batch.spellings], np.cumsum(batch.lengths)[:-1])
        for inputs, enc in zip(tokens, alone, strict=True):
            expected = real(model, enc, enc.spellings)
            assert inputs.shape == expected.shape and inputs.tobytes() == expected.tobytes()

    def test_crf_decoding_builds_no_batch_wide_input_matrix(self):
        model, data = trained_model("crf")
        longest = [sent for sent in data if len(sent) == max(map(len, data))]
        many = Dataset(tuple(longest[i % len(longest)] for i in range(5000)))
        batch = next(batches(model, many))
        assert padded_tokens(batch) > network.BATCH_TOKENS - max(batch.lengths)
        width = model.d_w + model.feature_encoder.total_dim
        network.predict_tag_ids(model, batch)  # one-time costs, such as lazy imports, go first
        tracemalloc.start()
        try:
            network.predict_tag_ids(model, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(batch) * width * 8  # one (T, D) float64 matrix

    @pytest.mark.parametrize("variant", ["blstm", "blstm_crf"])
    def test_recurrent_logits_agree_with_the_batch_of_one(self, variant):
        model, data = trained_model(variant)
        batch = encode(model, list(data))
        alone = np.concatenate([sentence_logits(model, encode(model, [sent])) for sent in data])
        np.testing.assert_allclose(sentence_logits(model, batch), alone, rtol=0, atol=1e-12)

    def test_crf_lattices_agree_with_each_sentences_own_product(self, monkeypatch):
        # weighing distinct surfaces moves the lattice in the last bits only
        model, data = trained_model("crf")
        real, lattices = network.viterbi, []
        monkeypatch.setattr(
            network, "viterbi", lambda trans, lattice, lengths:
            lattices.append(lattice) or real(trans, lattice, lengths),
        )
        network.predict_tag_ids(model, encode(model, list(data)))
        weights = model.params["crf.emission_weights"].T
        alone = np.concatenate([network.crf_inputs(model, enc, enc.spellings) @ weights
                                for enc in (encode(model, [sent]) for sent in data)])
        assert len(lattices) == 1
        np.testing.assert_allclose(lattices[0], alone, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_chunks_decode_as_one_batch(self, variant, monkeypatch):
        model, data = trained_model(variant)
        whole = tag_all(model, data)
        monkeypatch.setattr(network, "BATCH_TOKENS", 20)
        seen = record_batches(monkeypatch)
        assert tag_all(model, data) == whole
        assert len(seen) > 2
        assert sum((b.lengths.tolist() for b in seen), []) == [len(sent) for sent in data]
        assert all(padded_tokens(b) <= 20 for b in seen)

    def test_char_steps_bound_a_batch(self, monkeypatch):
        model, data = trained_model("blstm_crf")
        whole = tag_all(model, data)
        monkeypatch.setattr(network, "BATCH_CHARS", 120)
        seen = record_batches(monkeypatch)
        assert tag_all(model, data) == whole
        assert len(seen) > 2 and all(padded_tokens(b) <= network.BATCH_TOKENS for b in seen)
        assert all(len(b.lengths) == 1 or padded_chars(b) <= 120 for b in seen)
        assert any(len(b.lengths) > 1 for b in seen)

    def test_a_sentence_longer_than_the_bound_is_a_batch_alone(self, monkeypatch):
        model, data = trained_model("blstm_crf")
        monkeypatch.setattr(network, "BATCH_TOKENS", 3)
        seen = record_batches(monkeypatch)
        tag_all(model, data)
        assert all(len(b.lengths) == 1 or padded_tokens(b) <= 3 for b in seen)
        assert [b.lengths.tolist() for b in seen if max(b.lengths) > 3] == [
            [len(s)] for s in data if len(s) > 3
        ]

    @pytest.mark.parametrize("variant", ["crf", "blstm_crf"])
    def test_ten_thousand_sentences_decode_in_bounded_batches_as_they_are_read(
        self, variant, monkeypatch
    ):
        model, data = trained_model(variant)
        many = Dataset(tuple(data[i % len(data)] for i in range(10_000)))
        each = tag_all(model, data)
        seen = record_batches(monkeypatch)
        encoded = []  # at each encoding, the batches decoded so far
        real_encode = network.encode
        monkeypatch.setattr(
            network, "encode", lambda m, group: encoded.append(len(seen)) or real_encode(m, group)
        )
        tagged = tag_all(model, many)
        assert tagged == [each[i % len(data)] for i in range(10_000)]
        assert len(seen) > 1 and sum(len(b.lengths) for b in seen) == 10_000
        assert all(padded_tokens(b) <= network.BATCH_TOKENS for b in seen)
        if model.use_char:
            assert all(padded_chars(b) <= network.BATCH_CHARS for b in seen)
        # each batch is decoded before the next one is encoded
        assert encoded == list(range(len(seen)))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_validation_scoring_equals_evaluate(self, variant):
        model, data = trained_model(variant)
        predicted = tag_all(model, data)
        pred = Dataset(tuple(
            Sentence(tuple(Token(t.surface, pred_tag=p) for t, p in zip(sent, tags)))
            for sent, tags in zip(data, predicted)
        ))
        spans = [set(extract_entities(repair_bio(sent.gold_tags))) for sent in data]
        counts = span_counts(spans, predicted, model.scheme)
        assert counts == evaluate(data, pred, model.scheme).per_class


class TestCheckpointPersistence:
    def make_checkpoint(self, variant="blstm_crf", use_features=False):
        data, test_data = small_corpus(n_train=12, n_test=5)
        cfg = TrainConfig(
            variant=variant, epochs=2, seed=7, use_features=use_features, **FAST
        )
        return train(cfg, data), test_data

    def test_round_trip_preserves_tensors_and_predictions(self, tmp_path):
        ckpt, test_data = self.make_checkpoint(use_features=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert model_bytes(loaded.model) == model_bytes(ckpt.model)
        assert loaded.history == ckpt.history
        assert loaded.best_epoch == ckpt.best_epoch
        assert loaded.config == ckpt.config
        assert tag(loaded, test_data) == tag(ckpt, test_data)

    def test_round_trip_crf_variant(self, tmp_path):
        data, test_data = small_corpus(n_train=10, n_test=4)
        cfg = TrainConfig(variant="crf", use_char=False, epochs=1, seed=1, d_w=8)
        ckpt = train(cfg, data)
        path = tmp_path / "crf.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert tag(loaded, test_data) == tag(ckpt, test_data)

    def test_corrupt_final_byte_fails_integrity(self, tmp_path):
        from seqtag.errors import IntegrityError

        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_truncated_file_fails_integrity(self, tmp_path):
        from seqtag.errors import IntegrityError

        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_version_mismatch_is_explicit(self, tmp_path):
        from seqtag.checkpoint import MAGIC
        from seqtag.errors import UnsupportedVersionError
        import hashlib

        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        payload = blob[: -(len("[checksum ]\n") + 64)]
        payload = payload.replace(MAGIC, b"SEQTAG-CKPT v99\n", 1)
        digest = hashlib.sha256(payload).hexdigest()
        path.write_bytes(payload + f"[checksum {digest}]\n".encode())
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["blstm_crf_char", "crf_features"])
    def test_saving_a_loaded_checkpoint_writes_its_bytes(self, name, tmp_path):
        path = tmp_path / f"{name}.ckpt"
        ckpt = load_checkpoint(DATA / f"{name}.ckpt")
        save_checkpoint(ckpt, path)
        assert path.read_bytes() == (DATA / f"{name}.ckpt").read_bytes()
        # the feature rows kept while tagging are not written
        text = (DATA / "compat_input.conll").read_text(encoding="utf-8")
        tag(ckpt, parse_conll(text, ckpt.scheme))
        save_checkpoint(ckpt, path)
        assert path.read_bytes() == (DATA / f"{name}.ckpt").read_bytes()

    @pytest.mark.parametrize("name", ["blstm_crf_char", "crf_features"])
    def test_a_model_that_has_tagged_tags_as_a_fresh_one(self, name):
        text = (DATA / "compat_input.conll").read_text(encoding="utf-8")
        used = load_checkpoint(DATA / f"{name}.ckpt")
        first = tag(used, parse_conll(text, used.scheme))
        fresh = load_checkpoint(DATA / f"{name}.ckpt")
        assert tag(used, parse_conll(text, used.scheme)) == first
        assert tag(fresh, parse_conll(text, fresh.scheme)) == first

    @pytest.mark.parametrize("name", ["blstm_crf_char", "crf_features"])
    def test_checkpoint_of_an_earlier_build_tags_as_it_did(self, name):
        # tests/data/README.md says which build wrote these files and how
        ckpt = load_checkpoint(DATA / f"{name}.ckpt")
        text = (DATA / "compat_input.conll").read_text(encoding="utf-8")
        expected = (DATA / f"{name}.tags").read_text(encoding="utf-8")
        assert tag(ckpt, parse_conll(text, ckpt.scheme)) == parse_conll(expected, ckpt.scheme)


class TestDenseBuffer:
    def test_every_dense_array_is_a_view_that_an_update_reaches(self, tmp_path):
        data, _ = small_corpus(n_train=12)
        cfg = TrainConfig(variant="blstm_crf", epochs=1, seed=0, **FAST)
        ckpt = train(cfg, data)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        models = {
            "init_model": build_model(cfg, derive_scheme(data), data),
            "train": ckpt.model,
            "load_checkpoint": load_checkpoint(path).model,
            "deepcopy": copy.deepcopy(ckpt.model),
        }
        assert not np.shares_memory(models["train"].buffer, models["deepcopy"].buffer)
        sent = data[0]
        for source, model in models.items():
            views = dense_arrays(model)
            for name, arr in views.items():
                assert np.shares_memory(arr, model.buffer), (source, name)
            _, grads = loss_and_gradients(model, encode(model, [sent]), list(sent.gold_tags))
            expected = {name: views[name] - 0.01 * g for name, g in grads.dense.items()}
            sgd_update(model, grads, 0.01, 0.0)
            for name, arr in views.items():
                np.testing.assert_array_equal(arr, expected[name], err_msg=f"{source} {name}")


class TestSgdUpdate:
    def gradients(self):
        data, _ = small_corpus(n_train=12)
        cfg = TrainConfig(variant="blstm_crf", use_char=True, epochs=1, seed=0, **FAST)
        model = build_model(cfg, derive_scheme(data), data)
        sent = data[0]
        _, grads = loss_and_gradients(model, encode(model, [sent]), list(sent.gold_tags))
        assert set(grads.rows) == {"word_table", "char_table"}
        return model, grads

    def test_returns_the_norm_before_clipping(self):
        model, grads = self.gradients()
        squares = np.dot(grads.flat, grads.flat)
        squares += sum(np.sum(r.grad * r.grad) for r in grads.rows.values())
        flat = grads.flat.copy()
        norm = sgd_update(model, grads, 0.01, 1e-3)
        assert norm == pytest.approx(np.sqrt(squares), rel=1e-12) and norm > 1e-3
        # the norm was taken before the step scaled the gradients in place
        np.testing.assert_array_equal(grads.flat, flat * (0.01 * (1e-3 / norm)))

    def test_no_norm_without_clipping(self):
        model, grads = self.gradients()
        assert sgd_update(model, grads, 0.01, 0.0) is None
