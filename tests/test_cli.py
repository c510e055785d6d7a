import builtins
import csv
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqtag
from seqtag.checkpoint import read_container, write_container
from seqtag.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main
from seqtag.corpus import parse_conll, write_conll
from seqtag.embeddings import load_embedding_table
from seqtag.errors import DataError
from seqtag.evaluation import evaluate, report
from seqtag.glove import GloveParams, fit_glove
from seqtag.synth import default_spec, generate
from seqtag.training import (
    TrainConfig, load_checkpoint, load_embedding_tables, save_checkpoint, tag, train,
)


class TestMissingFiles:
    def test_missing_model_exits_with_data_error(self, tmp_path, capsys):
        text = tmp_path / "in.conll"
        text.write_text("aspirin\tB-drug\n\n", encoding="utf-8")
        code = main(["tag", "--model", str(tmp_path / "missing.ckpt"), "--input", str(text)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("error: ") and "missing.ckpt" in err
        assert "Traceback" not in err

    def test_missing_model_from_the_command_line(self, tmp_path):
        text = tmp_path / "in.conll"
        text.write_text("aspirin\tB-drug\n\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "seqtag.cli", "tag", "--model", str(tmp_path / "missing.ckpt"),
             "--input", str(text)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(seqtag.__file__).parents[1])},
        )
        assert proc.returncode == EXIT_DATA
        assert "Traceback" not in proc.stderr


class TestEmbedTrainNumerics:
    @pytest.mark.parametrize("flag, value, code", [
        ("--learning-rate", "1e6", EXIT_NUMERIC),
        ("--alpha", "nan", EXIT_CONFIG),
        ("--min-count", "0", EXIT_CONFIG),
    ])
    def test_bad_numbers_exit_cleanly_without_output(self, tmp_path, capsys, flag, value, code):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("aspirin twice daily\nibuprofen once daily\n" * 5, encoding="utf-8")
        out = tmp_path / "vectors.txt"
        got = main(["embed-train", "--corpus", str(corpus), "--out", str(out),
                    "--dim", "8", "--iterations", "3", flag, value])
        err = capsys.readouterr().err
        assert got == code
        assert "Traceback" not in err
        assert not out.exists()

    def test_corpus_of_one_word_lines_exits_with_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("aspirin\ndaily\naspirin\n", encoding="utf-8")
        out = tmp_path / "vectors.txt"
        assert main(["embed-train", "--corpus", str(corpus), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "no co-occurrence pairs" in err and "Traceback" not in err
        assert not out.exists()


DATA = Path(__file__).parent / "data"
CRF_CHECKPOINT = DATA / "crf_features.ckpt"  # a feature-input baseline


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """A small BiLSTM-CRF with character vectors, trained for one epoch."""
    spec = default_spec(seed=0, n_train=12, n_test=2, length_range=(4, 9), density=0.35)
    data, _ = generate(spec)
    cfg = TrainConfig(variant="blstm_crf", epochs=1, seed=3, d_w=12, d_c=6, H_w=8, H_c=6)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(train(cfg, data), path)
    return path


def tag_with_edited_checkpoint(source, tmp_path, capsys, edit):
    """Exit code and stderr of ``seqtag tag`` on ``source`` after ``edit``
    changed its sections and tensors; the rewrite has a valid checksum."""
    sections, tensors = read_container(source)
    edit(sections, tensors)
    model = tmp_path / "edited.ckpt"
    write_container(model, sections, tensors)
    text = tmp_path / "in.conll"
    text.write_text("aspirin\tO\ntwice\tO\ndaily\tO\n\n", encoding="utf-8")
    code = main(["tag", "--model", str(model), "--input", str(text)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


class TestInconsistentCheckpoint:
    """A checkpoint with a valid checksum but inconsistent contents exits 2."""

    def test_unedited_checkpoint_tags(self, trained_checkpoint, tmp_path, capsys):
        code, _ = tag_with_edited_checkpoint(
            trained_checkpoint, tmp_path, capsys, lambda sections, tensors: None
        )
        assert code == 0

    @pytest.mark.parametrize("key", ["seed", "variant", "best_epoch", "history"])
    def test_missing_meta_line(self, trained_checkpoint, tmp_path, capsys, key):
        def edit(sections, tensors):
            sections["meta"] = [ln for ln in sections["meta"] if not ln.startswith(f"{key} = ")]

        code, err = tag_with_edited_checkpoint(trained_checkpoint, tmp_path, capsys, edit)
        assert code == EXIT_DATA
        assert repr(key) in err

    @pytest.mark.parametrize("variant", ["nope", "blstm"])
    def test_variant_unknown_or_not_the_configured_one(
        self, trained_checkpoint, tmp_path, capsys, variant
    ):
        def edit(sections, tensors):
            sections["meta"] = [
                f"variant = {variant}" if ln.startswith("variant = ") else ln
                for ln in sections["meta"]
            ]

        code, err = tag_with_edited_checkpoint(trained_checkpoint, tmp_path, capsys, edit)
        assert code == EXIT_DATA
        assert "variant" in err and variant in err

    @pytest.mark.parametrize("name, rows", [("word_table", -3), ("char_table", 2)])
    def test_table_rows_do_not_match_vocabulary(
        self, trained_checkpoint, tmp_path, capsys, name, rows
    ):
        def edit(sections, tensors):
            tensors[name] = np.ascontiguousarray(tensors[name][:rows])

        code, err = tag_with_edited_checkpoint(trained_checkpoint, tmp_path, capsys, edit)
        assert code == EXIT_DATA
        assert name in err


    @pytest.mark.parametrize("name, rows, cols", [
        ("word_fwd.W_xi", None, -1),  # the word cell reads one input fewer than a token has
        ("char_bwd.W_xc", None, -1),  # the char cell reads one input fewer than d_c
        ("projection", -1, None),
        ("crf.transitions", -1, -1),
        ("crf.emission_weights", None, -1),
    ])
    def test_dense_tensor_of_the_wrong_shape(
        self, trained_checkpoint, tmp_path, capsys, name, rows, cols
    ):
        def edit(sections, tensors):
            tensors[name] = np.ascontiguousarray(tensors[name][:rows, :cols])

        source = CRF_CHECKPOINT if name == "crf.emission_weights" else trained_checkpoint
        code, err = tag_with_edited_checkpoint(source, tmp_path, capsys, edit)
        assert code == EXIT_DATA
        assert repr(name) in err and "shape" in err

    @pytest.mark.parametrize("prefix, named", [
        ("projection", "projection"),
        ("crf.transitions", "crf.transitions"),
        ("crf.emission_weights", "crf.emission_weights"),
        ("word_bwd.", "word_bwd.W_xi"),  # every tensor of the backward word cell
    ])
    def test_dense_tensor_missing(self, trained_checkpoint, tmp_path, capsys, prefix, named):
        def edit(sections, tensors):
            for key in [k for k in tensors if k.startswith(prefix)]:
                del tensors[key]

        source = CRF_CHECKPOINT if prefix == "crf.emission_weights" else trained_checkpoint
        code, err = tag_with_edited_checkpoint(source, tmp_path, capsys, edit)
        assert code == EXIT_DATA
        assert repr(named) in err

    @pytest.mark.parametrize("edits, named", [
        ([("config", "variant", "nope"), ("meta", "variant", "nope")], "'variant'"),
        ([("config", "dropout", "7")], "'dropout'"),
        ([("config", "use_char", "maybe")], "'use_char'"),
        ([("config", "zzz", "1")], "'zzz'"),
        ([("meta", "seed", "4")], "'seed'"),
        ([("tensors", "word_fwd.W_xz", None)], "'word_fwd.W_xz'"),
        # the trained transitions have no place in a blstm model
        ([("config", "variant", "blstm"), ("meta", "variant", "blstm")], "'crf.transitions'"),
    ])
    def test_invalid_value_or_extra_tensor(self, trained_checkpoint, tmp_path, capsys, edits, named):
        def edit(sections, tensors):
            for section, key, value in edits:
                if section == "tensors":
                    tensors[key] = np.zeros((2, 2))
                    continue
                lines = [ln for ln in sections[section] if not ln.startswith(f"{key} = ")]
                sections[section] = lines + [f"{key} = {value}"]

        code, err = tag_with_edited_checkpoint(trained_checkpoint, tmp_path, capsys, edit)
        assert code == EXIT_DATA
        assert named in err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", [
        "crf.transitions", "word_table", "char_table", "projection", "feature:suffix3",
    ])
    def test_non_finite_tensor(self, tmp_path, capsys, name, bad):
        def edit(sections, tensors):
            tensors[name] = tensors[name].copy()
            tensors[name].flat[-1] = bad

        source = CRF_CHECKPOINT if name.startswith("feature:") else DATA / "blstm_crf_char.ckpt"
        code, err = tag_with_edited_checkpoint(source, tmp_path, capsys, edit)
        assert code == EXIT_DATA
        assert repr(name) in err and "non-finite" in err

    @pytest.mark.parametrize("section, source", [
        ("meta", DATA / "blstm_crf_char.ckpt"),
        ("charvocab", DATA / "blstm_crf_char.ckpt"),
        ("feature-values:case", CRF_CHECKPOINT),
    ])
    def test_missing_section(self, tmp_path, capsys, section, source):
        def edit(sections, tensors):
            del sections[section]

        code, err = tag_with_edited_checkpoint(source, tmp_path, capsys, edit)
        assert code == EXIT_DATA
        assert repr(section) in err

    def test_feature_table_that_mismatches_its_value_list(self, tmp_path, capsys):
        def edit(sections, tensors):
            sections["feature-values:case"] = sections["feature-values:case"][:-1]

        code, err = tag_with_edited_checkpoint(CRF_CHECKPOINT, tmp_path, capsys, edit)
        assert code == EXIT_DATA
        assert "feature table 'case' does not match its value list" in err

    def test_feature_value_listed_twice(self, tmp_path, capsys):
        def edit(sections, tensors):
            values = sections["feature-values:prefix3"]
            values[-1] = values[0]

        code, err = tag_with_edited_checkpoint(CRF_CHECKPOINT, tmp_path, capsys, edit)
        first = read_container(CRF_CHECKPOINT)[0]["feature-values:prefix3"][0]
        assert code == EXIT_DATA
        assert "'prefix3'" in err and f"{first!r} twice" in err

    def test_word_table_missing(self, trained_checkpoint, tmp_path, capsys):
        def edit(sections, tensors):
            del tensors["word_table"]

        code, err = tag_with_edited_checkpoint(trained_checkpoint, tmp_path, capsys, edit)
        assert code == EXIT_DATA
        assert "'word_table'" in err

    @pytest.mark.parametrize("words, problem", [
        (lambda words: [words[1], words[0], *words[2:]], "must reserve '<unk>' at index 0"),
        (lambda words: [*words[:-1], words[1]], "must be unique"),
    ], ids=["unk-not-first", "duplicate"])
    def test_vocab_section_that_is_no_vocabulary(
        self, trained_checkpoint, tmp_path, capsys, words, problem
    ):
        def edit(sections, tensors):
            sections["vocab"] = words(sections["vocab"])

        code, err = tag_with_edited_checkpoint(trained_checkpoint, tmp_path, capsys, edit)
        assert code == EXIT_DATA
        assert "vocabulary" in err and problem in err

    def test_bool_word_in_any_case_loads(self, trained_checkpoint, tmp_path, capsys):
        def edit(sections, tensors):
            sections["config"] = [ln.replace("= True", "= true") for ln in sections["config"]]
            assert "use_char = true" in sections["config"]

        code, _ = tag_with_edited_checkpoint(trained_checkpoint, tmp_path, capsys, edit)
        assert code == 0


class TestUnparsableCheckpointValues:
    """A value that does not parse, under a valid checksum, exits 2 naming its key."""

    @pytest.mark.parametrize("section, key", [("meta", "seed"), ("config", "epochs")])
    def test_value_x(self, trained_checkpoint, tmp_path, capsys, section, key):
        def edit(sections, tensors):
            sections[section] = [
                f"{key} = x" if ln.startswith(f"{key} = ") else ln for ln in sections[section]
            ]

        code, err = tag_with_edited_checkpoint(trained_checkpoint, tmp_path, capsys, edit)
        assert code == EXIT_DATA
        assert repr(key) in err and section in err


@pytest.fixture(scope="module")
def train_file(tmp_path_factory):
    data, _ = generate(default_spec(seed=1, n_train=12, n_test=1, length_range=(4, 9)))
    path = tmp_path_factory.mktemp("corpus") / "train.conll"
    path.write_text(write_conll(data), encoding="utf-8")
    return path


class TestTrainConfigFile:
    """``seqtag train --config``: file values, then flags, then ``SEQTAG_SEED``."""

    SMALL = "d_w = 4\nd_c = 2\nH_c = 2\nH_w = 3\nepochs = 1\n"

    def train(self, tmp_path, train_file, text, *flags):
        """Exit code of ``seqtag train``, and the config its checkpoint holds."""
        config, model = tmp_path / "train.cfg", tmp_path / "model.ckpt"
        config.write_text(text, encoding="utf-8")
        code = main(["train", "--config", str(config), "--train", str(train_file),
                     "--model", str(model), *flags])
        return code, load_checkpoint(model).config if code == 0 else None

    def test_every_value_type(self, tmp_path, capsys, train_file):
        paths = [tmp_path / "general.txt", tmp_path / "domain.txt"]
        paths[0].write_text("aspirin 0.1 0.2 0.3\n", encoding="utf-8")
        paths[1].write_text("aspirin 0.4 0.5\n", encoding="utf-8")
        text = (
            "# a comment line\n\n"
            "variant = blstm\n"
            f"embeddings = {paths[0]}, {paths[1]}\n"
            "use_char = No\n"
            "use_features = yes\n"
            "learning_rate = 0.02\n"
            "init = scaled\n"
        ) + self.SMALL
        code, config = self.train(tmp_path, train_file, text)
        assert code == 0
        assert config == TrainConfig(
            variant="blstm", embeddings=(str(paths[0]), str(paths[1])), use_char=False,
            use_features=True, learning_rate=0.02, init="scaled",
            d_w=4, d_c=2, H_c=2, H_w=3, epochs=1,
        )

    def test_flags_override_the_file(self, tmp_path, capsys, train_file):
        # a crf variant with characters is invalid; the flag makes it valid
        text = "variant = crf\nseed = 1\n" + self.SMALL.replace("epochs = 1", "epochs = 7")
        code, config = self.train(tmp_path, train_file, text, "--no-char", "--epochs", "1")
        assert code == 0
        assert (config.variant, config.use_char, config.epochs, config.seed) == ("crf", False, 1, 1)

    def test_seed_from_the_environment_overrides_file_and_flag(
        self, tmp_path, capsys, train_file, monkeypatch
    ):
        monkeypatch.setenv("SEQTAG_SEED", "3")
        code, config = self.train(tmp_path, train_file, "seed = 1\n" + self.SMALL, "--seed", "2")
        assert code == 0
        assert config.seed == 3

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, capsys, train_file):
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\nvariant = crf\nuse_char = no\n", encoding="utf-8-sig")
        assert config.read_bytes().startswith(b"\xef\xbb\xbfepochs")
        code = main(["train", "--config", str(config), "--train", str(train_file),
                     "--model", str(tmp_path / "model.ckpt")])
        assert code == 0
        assert load_checkpoint(tmp_path / "model.ckpt").config.epochs == 1

    @pytest.mark.parametrize("content", [None, b"epochs = 1\nseed = \xff\n"],
                             ids=["missing", "not-utf-8"])
    def test_unreadable_config_exits_with_config_error(self, tmp_path, capsys, train_file,
                                                      content):
        config = tmp_path / "train.cfg"
        if content is not None:
            config.write_bytes(content)
        code = main(["train", "--config", str(config), "--train", str(train_file),
                     "--model", str(tmp_path / "model.ckpt")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: cannot read config file") and str(config) in err

    def test_seed_from_the_environment_must_be_an_integer(
        self, tmp_path, capsys, train_file, monkeypatch
    ):
        monkeypatch.setenv("SEQTAG_SEED", "1.5")
        code, _ = self.train(tmp_path, train_file, self.SMALL)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and "SEQTAG_SEED" in err

    @pytest.mark.parametrize("line, named", [
        ("zzz = 1", "'zzz'"),
        ("epochs = many", "'epochs'"),
        ("use_char = maybe", "'use_char'"),
        ("dropout = 7", "'dropout'"),
        pytest.param("variant = crf\nuse_char = true", "'use_char'", id="crf-with-chars"),
        ("no equals sign", "train.cfg:6"),
    ])
    def test_invalid_line_exits_with_config_error(self, tmp_path, capsys, train_file, line, named):
        code, _ = self.train(tmp_path, train_file, self.SMALL + line + "\n")
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and named in err
        assert not (tmp_path / "model.ckpt").exists()


class TestDivergingTraining:
    # numpy's floating-point warnings would go to stderr ahead of the abort line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("variant", ["crf", "blstm", "blstm_crf"])
    def test_exits_with_numeric_abort(self, tmp_path, capsys, train_file, variant):
        config = tmp_path / "train.cfg"
        config.write_text(
            TestTrainConfigFile.SMALL + "learning_rate = 1e308\nclip_norm = 0\n", encoding="utf-8"
        )
        code = main(["train", "--config", str(config), "--train", str(train_file),
                     "--model", str(tmp_path / "model.ckpt"), "--variant", variant, "--no-char"])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert err.startswith("numeric abort: ") and "Traceback" not in err
        assert not (tmp_path / "model.ckpt").exists()


class TestEmbeddingTables:
    """``seqtag embed-concat`` and ``seqtag coverage`` over a CoNLL vocabulary."""

    def run(self, tmp_path, command, vocab_text, table_text):
        vocab, table = tmp_path / "vocab.conll", tmp_path / "table.txt"
        vocab.write_text(vocab_text, encoding="utf-8")
        table.write_text(table_text, encoding="utf-8")
        argv = [command, "--tables", str(table), "--vocab-from", str(vocab)]
        if command == "embed-concat":
            argv += ["--out", str(tmp_path / "out.txt")]
        return main(argv)

    def test_coverage_line(self, tmp_path, capsys):
        vocab = "aspirin\tB-drug\ntwice\tO\n\nAspirin\tB-drug\n\n"
        assert self.run(tmp_path, "coverage", vocab, "aspirin 0.1 0.2\n") == 0
        assert capsys.readouterr().out == "2/3 words covered (66.67%)\n"

    def test_concatenated_table(self, tmp_path, capsys):
        vocab = "aspirin\tB-drug\ntwice\tO\n\n"
        assert self.run(tmp_path, "embed-concat", vocab, "aspirin 0.1 0.2\n") == 0
        assert capsys.readouterr().out == "assembled 3 vectors of dim 2; coverage 50.00%\n"
        lines = (tmp_path / "out.txt").read_text(encoding="utf-8").splitlines()
        assert [ln.split(" ")[0] for ln in lines] == ["<unk>", "aspirin", "twice"]
        assert lines[1] == "aspirin 0.1 0.2"

    @pytest.mark.parametrize("command", ["embed-concat", "coverage"])
    @pytest.mark.parametrize("vocab, table", [
        ("aspirin\tB-drug\ntwice\n\n", "aspirin 0.1 0.2\n"),  # columns change at line 2
        ("aspirin\tB-drug\ntwice\tO\n\n", "aspirin 0.1 0.2\ntwice nan 1\n"),
    ], ids=["columns", "nan"])
    def test_bad_line_exits_with_data_error_naming_it(self, tmp_path, capsys, command, vocab,
                                                      table):
        assert self.run(tmp_path, command, vocab, table) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and "Traceback" not in err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("command", ["train", "embed-concat", "coverage"])
    def test_bad_line_of_the_second_table_names_its_file(self, tmp_path, capsys, train_file,
                                                           command):
        tables = [tmp_path / "general.txt", tmp_path / "domain.txt"]
        tables[0].write_text("aspirin 0.1 0.2\ntwice 0.3 0.4\n", encoding="utf-8")
        tables[1].write_text("aspirin 0.5\ntwice x\n", encoding="utf-8")
        argv = ["--tables", *map(str, tables), "--vocab-from", str(train_file)]
        if command == "train":
            argv = ["--train", str(train_file), "--model", str(tmp_path / "m.ckpt"),
                    "--embeddings", *map(str, tables)]
        elif command == "embed-concat":
            argv += ["--out", str(tmp_path / "out.txt")]
        assert main([command, *argv]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: non-numeric vector component")
        assert str(tables[1]) in err and str(tables[0]) not in err

    @pytest.mark.parametrize("command", ["embed-concat", "coverage"])
    def test_vocabulary_without_tokens(self, tmp_path, capsys, command):
        assert self.run(tmp_path, command, "\n\n", "aspirin 0.1 0.2\n") == EXIT_DATA
        assert "contains no tokens" in capsys.readouterr().err


class TestSynthSpecFile:
    def synth(self, tmp_path, text):
        spec = tmp_path / "spec.cfg"
        spec.write_text(text, encoding="utf-8")
        out = [str(tmp_path / "train.conll"), str(tmp_path / "test.conll")]
        return main(["synth", "--spec", str(spec), "--out-train", out[0], "--out-test", out[1]])

    def test_every_value_type(self, tmp_path, capsys):
        text = "n_train = 3\nn_test = 1\nlength_range = 2, 4\ndensity = 0.5\nseed = 9\n"
        assert self.synth(tmp_path, text) == 0
        assert "wrote 3 train and 1 test sentences" in capsys.readouterr().out
        sentences = (tmp_path / "train.conll").read_text(encoding="utf-8").strip().split("\n\n")
        assert all(2 <= len(s.split("\n")) <= 4 for s in sentences)

    @pytest.mark.parametrize("line, named", [
        ("length_range = 4", "'length_range'"),
        ("length_range = 4,x", "'length_range'"),
        ("length_range = 5,2", "'length_range'"),
        ("n_train = 2.5", "'n_train'"),
        ("density = lots", "'density'"),
        ("density = 1.5", "'density'"),
        ("lexicons = a", "'lexicons'"),
        ("zzz = 1", "'zzz'"),
    ])
    def test_invalid_line_exits_with_config_error_naming_the_key(self, tmp_path, capsys, line, named):
        assert self.synth(tmp_path, line + "\n") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "train.conll").exists()


class TestRawText:
    def test_tags_plain_text_into_a_file_that_evaluate_reads(
        self, trained_checkpoint, tmp_path, capsys
    ):
        words = [["aspirin", "twice", "daily"], ["no", "fever", "today", "."]]
        raw = tmp_path / "in.txt"
        raw.write_text("".join(" ".join(s) + "\n" for s in words), encoding="utf-8")
        out = tmp_path / "out.conll"
        code = main(["tag", "--model", str(trained_checkpoint), "--input", str(raw),
                     "--raw-text", "--output", str(out)])
        assert code == 0
        lines = [ln for ln in out.read_text(encoding="utf-8").splitlines() if ln]
        assert [ln.split("\t")[0] for ln in lines] == [w for s in words for w in s]
        assert all(len(ln.split("\t")) == 2 for ln in lines)

        # the gold file names every class the model may predict
        gold_tags = [["B-problem", "O", "O"], ["O", "B-test", "B-treatment", "O"]]
        gold = tmp_path / "gold.conll"
        rows = ["".join(f"{w}\t{t}\n" for w, t in zip(*pair)) for pair in zip(words, gold_tags)]
        gold.write_text("\n".join(rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--gold", str(gold), "--pred", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err


class TestOneColumnInput:
    """CoNLL input without a gold column: 'unlabeled input for tagging'."""

    def test_tag_writes_one_predicted_tag_per_token(self, trained_checkpoint, tmp_path, capsys):
        words = [["aspirin", "twice", "daily"], ["no", "fever"]]
        source = tmp_path / "in.conll"
        source.write_text("".join("\n".join(s) + "\n\n" for s in words), encoding="utf-8")
        out = tmp_path / "out.conll"
        code = main(["tag", "--model", str(trained_checkpoint), "--input", str(source),
                     "--output", str(out)])
        assert code == 0
        scheme = load_checkpoint(trained_checkpoint).scheme
        tagged = parse_conll(out.read_text(encoding="utf-8"), scheme)
        assert [s.surfaces for s in tagged] == words
        assert all(t.gold_tag is not None and t.pred_tag is None for s in tagged for t in s)

    def test_evaluate_against_it_exits_with_data_error(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
        gold.write_text("aspirin\ntwice\n\n", encoding="utf-8")
        pred.write_text("aspirin\tB-drug\ntwice\tO\n\n", encoding="utf-8")
        assert main(["evaluate", "--gold", str(gold), "--pred", str(pred)]) == EXIT_DATA
        assert "untagged" in capsys.readouterr().err


class TestMalformedGoldTag:
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_bare_prefix_exits_with_data_error(self, tmp_path, capsys, command):
        gold = tmp_path / "gold.conll"
        gold.write_text("aspirin\tB\ntwice\tO\n\n", encoding="utf-8")
        if command == "train":
            argv = ["train", "--train", str(gold), "--model", str(tmp_path / "m.ckpt")]
        else:
            argv = ["evaluate", "--gold", str(gold), "--pred", str(gold)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "'B'" in err and "Traceback" not in err

    def test_no_entity_classes_exits_with_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.conll"
        gold.write_text("aspirin\tO\ntwice\tO\n\n", encoding="utf-8")
        code = main(["train", "--train", str(gold), "--model", str(tmp_path / "m.ckpt")])
        assert code == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err


class TestEvaluatePredictedClasses:
    def test_class_absent_from_the_gold_file_counts_as_false_positive(self, tmp_path, capsys):
        gold = tmp_path / "gold.conll"
        gold.write_text("aspirin\tB-problem\ntwice\tO\n\n", encoding="utf-8")
        pred = tmp_path / "pred.conll"
        pred.write_text("aspirin\tB-problem\ntwice\tB-test\n\n", encoding="utf-8")
        out = tmp_path / "metrics.json"
        code = main(["evaluate", "--gold", str(gold), "--pred", str(pred), "--json", str(out)])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        metrics = json.loads(out.read_text(encoding="utf-8"))
        assert metrics["test"]["fp"] == 1
        assert metrics["aggregate"]["precision"] < 1.0
        assert metrics["aggregate"]["recall"] == 1.0


class TestTrainRun:
    """``seqtag train`` on the inputs around the training itself."""

    SMALL = TestTrainConfigFile.SMALL + "variant = crf\nuse_char = no\n"

    def run(self, tmp_path, train, *flags, model=None):
        config = tmp_path / "train.cfg"
        config.write_text(self.SMALL, encoding="utf-8")
        model = model or tmp_path / "model.ckpt"
        return main(["train", "--config", str(config), "--train", str(train),
                     "--model", str(model), *flags])

    def test_test_file_is_scored_after_training(self, tmp_path, capsys, train_file):
        assert self.run(tmp_path, train_file, "--test", str(train_file)) == 0
        out = capsys.readouterr().out
        ckpt = load_checkpoint(tmp_path / "model.ckpt")
        test_data = parse_conll(train_file.read_text(encoding="utf-8"), ckpt.scheme)
        expected = report(evaluate(test_data, tag(ckpt, test_data), ckpt.scheme))
        assert out.endswith(f"checkpoint written to {tmp_path / 'model.ckpt'}\n{expected}\n")

    @pytest.mark.parametrize("text", [None, "aspirin\ntwice\n\n"], ids=["missing", "untagged"])
    def test_unusable_test_file_exits_before_training(self, tmp_path, capsys, train_file, text):
        test = tmp_path / "test.conll"
        if text is not None:
            test.write_text(text, encoding="utf-8")
        code = self.run(tmp_path, train_file, "--test", str(test))
        out, err = capsys.readouterr()
        assert code == EXIT_DATA
        assert err.startswith("error: ") and str(test) in err
        assert "epoch" not in out
        assert not (tmp_path / "model.ckpt").exists()

    def test_crf_variant_reads_no_chars_by_default(self, tmp_path, capsys, train_file):
        config = tmp_path / "train.cfg"
        config.write_text(TestTrainConfigFile.SMALL, encoding="utf-8")
        model = tmp_path / "model.ckpt"
        code = main(["train", "--config", str(config), "--train", str(train_file),
                     "--model", str(model), "--variant", "crf"])
        assert code == 0
        assert load_checkpoint(model).config.use_char is False

    def test_missing_train_file_exits_with_data_error(self, tmp_path, capsys):
        code = self.run(tmp_path, tmp_path / "missing.conll")
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("error: cannot read ") and "missing.conll" in err

    def test_missing_model_directory_exits_before_training(self, tmp_path, capsys, train_file):
        model = tmp_path / "absent" / "model.ckpt"
        code = self.run(tmp_path, train_file, model=model)
        out, err = capsys.readouterr()
        assert code == EXIT_DATA
        assert "directory" in err and str(tmp_path / "absent") in err
        assert "epoch" not in out  # not one epoch ran
        assert not model.parent.exists()

    def test_model_path_that_is_a_directory_exits_before_training(self, tmp_path, capsys,
                                                                 train_file):
        code = self.run(tmp_path, train_file, model=tmp_path)
        out, err = capsys.readouterr()
        assert code == EXIT_DATA
        assert err.startswith(f"error: cannot write {tmp_path}: ") and "epoch" not in out

    @pytest.mark.parametrize("text, flags", [
        ("aspirin\tO\ntwice\tO\n\n", []), ("aspirin twice\n", ["--raw-text"]),
    ], ids=["conll", "raw-text"])
    def test_byte_order_mark_is_not_part_of_the_first_surface(
        self, trained_checkpoint, tmp_path, capsys, text, flags
    ):
        source = tmp_path / "in.txt"
        source.write_text(text, encoding="utf-8-sig")
        out = tmp_path / "out.conll"
        code = main(["tag", "--model", str(trained_checkpoint), "--input", str(source),
                     "--output", str(out), *flags])
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("aspirin\t")

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_conll_file_that_is_not_utf_8_exits_with_data_error(self, tmp_path, capsys, command):
        gold = tmp_path / "gold.conll"
        gold.write_bytes(b"aspirin\tB-drug\ntwice\xff\tO\n\n")
        if command == "train":
            code = self.run(tmp_path, gold)
        else:
            code = main(["evaluate", "--gold", str(gold), "--pred", str(gold)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith(f"error: cannot read {gold}: ") and "Traceback" not in err


class TestEmbeddingCommands:
    def test_embed_train_writes_a_table_that_loads(self, tmp_path, capsys):
        text = "aspirin twice daily\nibuprofen once daily\n" * 5
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text, encoding="utf-8-sig")  # the mark is not part of a word
        out = tmp_path / "vectors.txt"
        code = main(["embed-train", "--corpus", str(corpus), "--out", str(out),
                     "--dim", "8", "--window", "3", "--iterations", "4", "--seed", "2"])
        assert code == 0
        assert capsys.readouterr().out == f"trained 5 vectors of dim 8 -> {out}\n"
        with open(out, encoding="utf-8") as fh:
            table = load_embedding_table(fh)
        sentences = [line.split() for line in text.splitlines()]
        fitted, _ = fit_glove(sentences, GloveParams(dim=8, window=3, iterations=4, seed=2))
        assert list(table.entries) == list(fitted.entries)
        for word, vec in fitted.entries.items():
            np.testing.assert_allclose(table.entries[word], vec, rtol=1e-7)

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_pseudo_corpus_from_a_manifest_and_a_csv_file(self, tmp_path, capsys, encoding):
        table = tmp_path / "notes.csv"
        table.write_text(
            'Chief Complaint,id\nChest pain,1\n,2\n"Fever, chills",3\n', encoding=encoding
        )
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"# table and column\n{table}\tChief Complaint\n", encoding=encoding)
        out = tmp_path / "pseudo.txt"
        assert main(["pseudo-corpus", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 pseudo-sentences to {out}\n"
        assert out.read_text(encoding="utf-8") == (
            "chief complaint chest pain\nchief complaint fever, chills\n"
        )

    def test_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("aspirin 0.1 0.2\ntwice 0.3 0.4\n", encoding="utf-8-sig")
        (table,) = load_embedding_tables([path])
        assert list(table.entries) == ["aspirin", "twice"]

    def test_table_that_is_not_utf_8_names_its_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_bytes(b"aspirin 0.1 0.2\ntw\xffice 0.3 0.4\n")
        with pytest.raises(DataError, match="cannot read .*table.txt"):
            load_embedding_tables([path])

    def test_embed_train_defaults_are_the_glove_params_defaults(self, tmp_path, capsys):
        text = "aspirin twice daily\nibuprofen once daily\n" * 3
        corpus, out = tmp_path / "corpus.txt", tmp_path / "vectors.txt"
        corpus.write_text(text, encoding="utf-8")
        assert main(["embed-train", "--corpus", str(corpus), "--out", str(out),
                     "--iterations", "2"]) == 0
        with open(out, encoding="utf-8") as fh:
            table = load_embedding_table(fh)
        fitted, _ = fit_glove([line.split() for line in text.splitlines()],
                              GloveParams(iterations=2))
        assert table.dim == GloveParams().dim == fitted.dim
        for word, vec in fitted.entries.items():
            np.testing.assert_allclose(table.entries[word], vec, rtol=1e-7)

    @pytest.mark.parametrize("title, cell", [("", "x"), ("a" * 200_000, "x"), ("a", "x" * 200_000)],
                             ids=["empty-title", "long-title", "long-cell"])
    def test_csv_that_is_no_table_exits_with_data_error(self, tmp_path, capsys, monkeypatch,
                                                        title, cell):
        # a field over the reader's limit is no table; lower the limit below the long fields
        monkeypatch.setattr(seqtag.embeddings, "CSV_FIELD_LIMIT", 100_000)
        table = tmp_path / "notes.csv"
        table.write_text(f"id,{title}\n1,{cell}\n", encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{table}\t{title}\n", encoding="utf-8")
        out = tmp_path / "pseudo.txt"
        assert main(["pseudo-corpus", "--manifest", str(manifest), "--out", str(out)]) == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("title, cell", [("a" * 200_000, "x"), ("a", "x" * 200_000)],
                             ids=["long-title", "long-cell"])
    def test_csv_field_longer_than_the_csv_default_limit_is_read(self, tmp_path, capsys,
                                                                 title, cell):
        table = tmp_path / "notes.csv"
        table.write_text(f"id,{title}\n1,{cell}\n", encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{table}\t{title}\n", encoding="utf-8")
        out = tmp_path / "pseudo.txt"
        limit = csv.field_size_limit()
        assert main(["pseudo-corpus", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert csv.field_size_limit() == limit
        assert out.read_text(encoding="utf-8") == f"{title} {cell}\n"


class TestOutputsReplacedWhole:
    OLD = "the output of an earlier run\n"

    def argv(self, command, tmp_path):
        """The command line of ``command`` and the output it writes."""
        conll = tmp_path / "in.conll"
        conll.write_text("aspirin\tB-drug\ntwice\tO\ndaily\tO\n\n", encoding="utf-8")
        (tmp_path / "corpus.txt").write_text("aspirin twice daily\n" * 4, encoding="utf-8")
        (tmp_path / "table.txt").write_text("aspirin 0.1 0.2\ndaily 0.3 0.4\n", encoding="utf-8")
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_train = 3\nn_test = 2\nlength_range = 2, 4\n", encoding="utf-8")
        out = str(tmp_path / "out.txt")
        synth = ["synth", "--spec", str(spec), "--out-train", str(tmp_path / "train.conll"),
                 "--out-test", str(tmp_path / "test.conll")]
        return {
            "tag --output": (["tag", "--model", str(CRF_CHECKPOINT), "--raw-text", "--input",
                              str(tmp_path / "corpus.txt"), "--output", out], out),
            "evaluate --json": (["evaluate", "--gold", str(conll), "--pred", str(conll),
                                 "--json", out], out),
            "synth --out-train": (synth, synth[4]),
            "synth --out-test": (synth, synth[6]),
            "embed-train --out": (["embed-train", "--corpus", str(tmp_path / "corpus.txt"),
                                   "--out", out, "--dim", "8", "--iterations", "2"], out),
            "embed-concat --out": (["embed-concat", "--tables", str(tmp_path / "table.txt"),
                                    "--vocab-from", str(conll), "--out", out], out),
        }[command]

    @pytest.mark.parametrize("command", [
        "tag --output", "evaluate --json", "synth --out-train", "synth --out-test",
        "embed-train --out", "embed-concat --out",
    ])
    def test_a_write_that_fails_midway_leaves_the_old_file(self, tmp_path, capsys, monkeypatch,
                                                           command):
        argv, target = self.argv(command, tmp_path)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(self.OLD)
        before = {p.name for p in tmp_path.iterdir()}
        real_open, failed = open, []

        class DiskFull:
            """A text file that takes 20 characters, then raises ENOSPC midway through a write."""

            def __init__(self, fh):
                self.fh, self.room = fh, 20

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                if len(text) > self.room:
                    self.fh.write(text[: self.room])
                    failed.append(self.fh.name)
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(text)
                return self.fh.write(text)

        def open_on_a_full_disk(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return DiskFull(fh) if str(file).startswith(f"{target}.") and "x" in mode else fh

        monkeypatch.setattr(builtins, "open", open_on_a_full_disk)
        assert main(argv) == EXIT_DATA
        monkeypatch.undo()
        assert failed and "No space left" in capsys.readouterr().err
        assert (tmp_path / target).read_text(encoding="utf-8") == self.OLD
        # synth has replaced --out-train when its --out-test fails
        written = {"train.conll"} if command == "synth --out-test" else set()
        assert {p.name for p in tmp_path.iterdir()} == before | written


class TestTextThatIsNotUtf8:
    """Every text input names its file when a byte does not decode, and exits 2."""

    BAD = b"aspirin daily\ntw\xffice daily\n"

    @pytest.mark.parametrize("name", ["raw-text", "corpus", "manifest", "csv"])
    def test_exits_with_data_error_naming_the_file(self, trained_checkpoint, tmp_path, capsys,
                                                   name):
        bad = tmp_path / f"bad-{name}.txt"
        bad.write_bytes(self.BAD)
        out = str(tmp_path / "out.txt")
        argv = {
            "raw-text": ["tag", "--model", str(trained_checkpoint), "--input", str(bad),
                         "--raw-text"],
            "corpus": ["embed-train", "--corpus", str(bad), "--out", out],
            "manifest": ["pseudo-corpus", "--manifest", str(bad), "--out", out],
            "csv": ["pseudo-corpus", "--manifest", str(tmp_path / "manifest.txt"), "--out", out],
        }[name]
        (tmp_path / "manifest.txt").write_text(f"{bad}\taspirin daily\n", encoding="utf-8")
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("existing", [None, "earlier output\n"], ids=["new", "existing"])
    def test_pseudo_corpus_that_fails_leaves_its_output_as_it_was(self, tmp_path, capsys,
                                                                  existing):
        # the first table is good, so a partial output would hold its sentences
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("note\nchest pain\n", encoding="utf-8")
        bad.write_bytes(b"note\n" + self.BAD)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{good}\tnote\n{bad}\tnote\n", encoding="utf-8")
        out = tmp_path / "pseudo.txt"
        if existing is not None:
            out.write_text(existing, encoding="utf-8")
        assert main(["pseudo-corpus", "--manifest", str(manifest), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["good.csv", "bad.csv", "manifest.txt"] + (["pseudo.txt"] if existing else []))
        if existing is not None:
            assert out.read_bytes() == existing.encode("utf-8")
