import os
import subprocess
import sys
from pathlib import Path

import seqtag
from seqtag.cli import EXIT_DATA, main


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
