from collections import Counter

import numpy as np
import pytest

from seqtag import features
from seqtag.corpus import Dataset, TagScheme, parse_conll, split_train_valid
from seqtag.embeddings import UNK
from seqtag.errors import ConfigError, DataError, NumericError, TagValidationError
from seqtag.evaluation import evaluate
from seqtag.network import dense_arrays, table_arrays
from seqtag.synth import default_spec, generate
from seqtag.training import (
    Checkpoint,
    TrainConfig,
    build_model,
    crf_baseline_loss_and_gradients,
    derive_scheme,
    load_checkpoint,
    save_checkpoint,
    sgd_update,
    tag,
    tag_with_model,
    train,
)

FAST = dict(d_w=12, d_c=6, H_w=8, H_c=6, init="scaled")
# quick-convergence knobs for unit-scale corpora (not the protocol defaults)
EAGER = dict(learning_rate=0.05, dropout=0.1, **FAST)


def small_corpus(seed=0, n_train=40, n_test=10, **overrides):
    overrides.setdefault("test_overlap", 1.0)
    overrides.setdefault("density", 0.35)
    overrides.setdefault("length_range", (4, 9))
    spec = default_spec(seed=seed, n_train=n_train, n_test=n_test, **overrides)
    return generate(spec)


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
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs).validate()


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
    def test_malformed_tag_rejected(self, tag):
        data = parse_conll(f"a\tB-drug\nb\t{tag}\n", None, warn_invalid_gold=False)
        with pytest.raises(TagValidationError, match=repr(tag)):
            derive_scheme(data)


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

    def test_non_finite_loss_aborts_with_sentence_index(self):
        data, _ = small_corpus(n_train=10)
        cfg = TrainConfig(
            variant="blstm", epochs=1, seed=0, learning_rate=1e308, clip_norm=0.0, **FAST
        )
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="sentence index"):
            train(cfg, data)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train(TrainConfig(epochs=1, **FAST), Dataset(()))

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
        sent = data[0]
        loss_l2, grads_l2 = crf_baseline_loss_and_gradients(
            model, sent, list(sent.gold_tags), l2=1.0
        )
        loss_0, grads_0 = crf_baseline_loss_and_gradients(
            model, sent, list(sent.gold_tags), l2=0.0
        )
        assert loss_l2 > loss_0
        trans = model.crf.transitions
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
        _, grads = crf_baseline_loss_and_gradients(model, sent, list(sent.gold_tags), 1e-4)
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

    def test_scheme_mismatch_rejected(self):
        data, _ = small_corpus(n_train=10)
        cfg = TrainConfig(variant="blstm", epochs=1, seed=0, **FAST)
        ckpt = train(cfg, data)
        other = parse_conll("x\tB-zzz\n", TagScheme(("zzz",)))
        with pytest.raises(TagValidationError):
            tag(ckpt, other)


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
