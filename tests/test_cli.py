import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqtag
from seqtag.checkpoint import read_container, write_container
from seqtag.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main
from seqtag.synth import default_spec, generate
from seqtag.training import TrainConfig, save_checkpoint, train


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
