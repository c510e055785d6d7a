"""Smoke test of the in-process A/B runner, ``tools/ab.py``, at the
benchmark's toy sizes."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_working_tree_against_a_copy_of_itself(ab, tmp_path, capsys):
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src" / "seqtag", copy / "seqtag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = [str(copy), "--tiny", "--passes", "3", "--seeds", "3", "4"]
    assert ab.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if not line.startswith(" ")] == [
        f"train_char_crf seed {seed}, 3 passes (ms)" for seed in (3, 4)
    ]
    for line in out:
        assert not line.startswith("  train_ms") or line.endswith(" of 3")
    digests = [line for line in out if line.startswith("  digests:")]
    assert digests == [
        "  digests: losses equal, history equal, params equal, tags equal,"
        " every pass reproduced its tree's first"
    ] * 2


def test_different_trees_report_their_digests_as_different(ab, tmp_path, capsys):
    # a tree that trains one more epoch than it is told has more losses and
    # a longer validation history
    changed = tmp_path / "changed" / "seqtag"
    shutil.copytree(ROOT / "src" / "seqtag", changed, ignore=shutil.ignore_patterns("__pycache__"))
    training = changed / "training.py"
    source = training.read_text(encoding="utf-8")
    assert source.count("range(config.epochs)") == 1
    training.write_text(source.replace("range(config.epochs)", "range(config.epochs + 1)"))
    assert ab.main([str(changed.parent), "--tiny", "--passes", "1", "--seeds", "3"]) == 1
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "digests" in line]
    assert line.startswith("  digests: losses DIFFER, history DIFFER,")


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="not a git checkout")
def test_a_git_revision_is_exported_as_a_package(ab, tmp_path):
    root = ab.package_root("HEAD", tmp_path)
    package = ab.load(root, "seqtag_exported_head")
    assert (root / "seqtag" / "__init__.py").is_file()
    assert callable(package.training.train)
