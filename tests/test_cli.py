import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqtag
from seqtag.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main


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
