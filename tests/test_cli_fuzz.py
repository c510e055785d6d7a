"""The command line on mutated inputs: every subcommand, run in process,
returns 0, 2, 3 or 4 and raises nothing.

Text inputs get byte edits (replace, insert, delete).  Config and spec
files get drawn ``key = value`` lines, with numeric values from small
ranges so that every example runs in well under a second.  Checkpoints
get edits of a section line or a tensor under a valid checksum, or byte
edits.  An exception that escapes ``main`` fails the example with its
traceback: a failure that the user caused must be a ``SeqtagError``.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.checkpoint import read_container, write_container
from seqtag.cli import main
from seqtag.corpus import write_conll
from seqtag.synth import default_spec, generate

DATA = Path(__file__).parent / "data"
EXIT_CODES = {0, 2, 3, 4}

EDIT_BYTES = st.binary(max_size=3) | st.sampled_from([
    b"\xff", b"\t", b"\n", b"\n\n", b" ", b"=", b"#", b",", b"-", b"\r", b"\xef\xbb\xbf",
    b"nan", b"1e999", b"B-", b"I-x", b"\"",
])
# no digits, so that a drawn value never makes a long run
WORD = st.text(st.characters(blacklist_categories=("Cs", "Nd"), blacklist_characters="\n\r"),
               max_size=6)
SMALL_INT = st.integers(-1, 4)
FRACTION = st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, float("nan"), float("inf")])
RATE = st.sampled_from([1e-3, 0.05, 0.5, 0.0, -1.0, 1e308, float("nan"), float("inf")])
BOOL = st.sampled_from(["true", "No", "1", "maybe", ""])

TRAIN_VALUES = {
    "variant": st.sampled_from(["crf", "blstm", "blstm_crf", "hmm"]),
    "use_char": BOOL, "use_features": BOOL,
    "d_w": SMALL_INT, "d_c": SMALL_INT, "H_w": SMALL_INT, "H_c": SMALL_INT,
    "epochs": st.integers(-1, 2), "seed": st.integers(-1, 3),
    "learning_rate": RATE, "clip_norm": RATE, "crf_l2": RATE,
    "dropout": FRACTION, "split_ratio": FRACTION,
    "init": st.sampled_from(["uniform", "scaled", "glorot"]),
}
SPEC_VALUES = {
    "n_train": st.integers(-1, 4), "n_test": st.integers(-1, 2), "seed": st.integers(-1, 3),
    "length_range": st.lists(st.integers(-1, 5), max_size=3).map(lambda v: ",".join(map(str, v))),
    "density": FRACTION, "head_fraction": FRACTION, "train_fraction": FRACTION,
    "test_overlap": FRACTION,
    "filler": st.lists(WORD, max_size=3).map(",".join),
    "lexicons": WORD,
}

SMALL_CONFIG = "d_w = 3\nd_c = 2\nH_w = 2\nH_c = 2\nepochs = 1\n"


@st.composite
def edited(draw, data: bytes) -> bytes:
    """``data`` after one to three byte edits."""
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 8)))
        data = data[:start] + draw(EDIT_BYTES) + data[end:]
    return data


@st.composite
def kv_lines(draw, values: dict) -> str:
    """Zero to three drawn lines: a key of ``values`` with a drawn or
    garbage value, or a garbage line."""
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(values)))
        value = str(draw(values[key] | WORD))
        lines.append(draw(st.sampled_from([f"{key} = {value}", f"{key}={value}", value])))
    return "".join(line + "\n" for line in lines)


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # warnings about invalid gold BIO
            code = main([str(a) for a in argv])
    assert code in EXIT_CODES
    return code


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of small valid inputs for every subcommand."""
    root = tmp_path_factory.mktemp("inputs")
    train, test = generate(default_spec(seed=2, n_train=10, n_test=3, length_range=(3, 6),
                                        density=0.4))
    words = sorted({w for s in train for w in s.surfaces})
    texts = {
        "train.conll": write_conll(train),
        "test.conll": write_conll(test),
        "one.conll": "".join("\n".join(s.surfaces) + "\n\n" for s in test),
        "raw.txt": "".join(" ".join(s.surfaces) + "\n" for s in test),
        "corpus.txt": "".join(" ".join(s.surfaces) + "\n" for s in train),
        "general.txt": "".join(f"{w} 0.1 -0.2 {i}\n" for i, w in enumerate(words[::2])),
        "domain.txt": "".join(f"{w.upper()} 1e-3 {i}.5\n" for i, w in enumerate(words[::3])),
        "notes.csv": 'Chief Complaint,id\n"Chest pain, mild",1\n,2\nfever,3\n',
    }
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


@contextlib.contextmanager
def workdir(inputs):
    with tempfile.TemporaryDirectory(dir=inputs) as tmp:
        yield Path(tmp)


def edit_one(data, inputs: Path, tmp: Path, names) -> dict:
    """The path of each file of ``names``; one drawn file is an edited copy in ``tmp``."""
    paths = {name: inputs / name for name in names}
    name = data.draw(st.sampled_from(names))
    paths[name] = tmp / name
    paths[name].write_bytes(data.draw(edited((inputs / name).read_bytes())))
    return paths


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_train(inputs, data):
    with workdir(inputs) as tmp:
        paths = edit_one(data, inputs, tmp, ["train.conll", "test.conll", "general.txt"])
        tables = {"general.txt, domain.txt": f"{paths['general.txt']}, {inputs / 'domain.txt'}",
                  "missing.txt": tmp / "missing.txt"}
        config = tmp / "train.cfg"
        config.write_text(SMALL_CONFIG + data.draw(kv_lines(
            {**TRAIN_VALUES, "embeddings": st.sampled_from(sorted(tables)).map(tables.get)}
        )), encoding="utf-8")
        argv = ["train", "--config", config, "--train", paths["train.conll"],
                "--model", tmp / "model.ckpt"]
        argv += data.draw(st.sampled_from([[], ["--test", paths["test.conll"]]]))
        argv += data.draw(st.sampled_from([[], ["--embeddings", paths["general.txt"]]]))
        argv += data.draw(st.sampled_from([[], ["--variant", "crf"], ["--variant", "blstm"]]))
        argv += data.draw(st.sampled_from([[], ["--no-char"], ["--use-char"], ["--use-features"]]))
        run(argv)


@st.composite
def edited_checkpoint(draw, source: Path, target: Path):
    """Write ``source`` to ``target`` with one section line or tensor edited
    under a valid checksum, or with byte edits."""
    if draw(st.integers(0, 3)) == 0:
        target.write_bytes(draw(edited(source.read_bytes())))
        return
    sections, tensors = read_container(source)
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(sections)))
        lines = sections[name]
        at = draw(st.integers(0, len(lines)))
        meta = {"best_epoch": SMALL_INT, "history": st.lists(FRACTION, max_size=3).map(str)}
        new = draw(kv_lines({**TRAIN_VALUES, **meta}) if name in ("config", "meta") else WORD)
        new_lines = [ln for ln in new.split("\n") if ln][:1]
        drop = draw(st.integers(0, 1))
        sections[name] = lines[:at] + new_lines + lines[at + drop:]
    else:
        name = draw(st.sampled_from(sorted(tensors) + ["extra"]))
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
        value = draw(st.sampled_from([0.0, 1e300, float("nan"), float("inf")]))
        if draw(st.booleans()) or name not in tensors:
            tensors[name] = np.full(shape, value)
        else:
            tensors[name] = tensors[name].copy()
            tensors[name].flat[: draw(st.integers(0, 2))] = value
    write_container(target, sections, tensors)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tag(inputs, data):
    with workdir(inputs) as tmp:
        source = data.draw(st.sampled_from(["blstm_crf_char.ckpt", "crf_features.ckpt"]))
        text = data.draw(st.sampled_from([["train.conll"], ["one.conll"],
                                          ["raw.txt", "--raw-text"]]))
        if data.draw(st.booleans()):
            model, paths = tmp / source, {text[0]: inputs / text[0]}
            data.draw(edited_checkpoint(DATA / source, model))
        else:
            model, paths = DATA / source, edit_one(data, inputs, tmp, [text[0]])
        run(["tag", "--model", model, "--input", paths[text[0]], *text[1:],
             "--output", tmp / "out.conll"])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_evaluate(inputs, data):
    with workdir(inputs) as tmp:
        names = ["compat_input.conll", "blstm_crf_char.tags"]
        paths = edit_one(data, DATA, tmp, names)
        run(["evaluate", "--gold", paths[names[0]], "--pred", paths[names[1]],
             "--json", tmp / "metrics.json"])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_synth(inputs, data):
    with workdir(inputs) as tmp:
        spec = tmp / "spec.cfg"
        spec.write_text("n_train = 3\nn_test = 1\n" + data.draw(kv_lines(SPEC_VALUES)),
                        encoding="utf-8")
        seed = data.draw(st.sampled_from([[], ["--seed", "-1"], ["--seed", "2"]]))
        run(["synth", "--spec", spec, *seed, "--out-train", tmp / "train.conll",
             "--out-test", tmp / "test.conll"])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_embed_train(inputs, data):
    flags = {
        "--dim": SMALL_INT, "--window": SMALL_INT, "--iterations": st.integers(-1, 2),
        "--min-count": SMALL_INT, "--seed": SMALL_INT,
        "--x-max": RATE, "--alpha": FRACTION, "--learning-rate": RATE,
    }
    with workdir(inputs) as tmp:
        paths = edit_one(data, inputs, tmp, ["corpus.txt"])
        argv = ["embed-train", "--corpus", paths["corpus.txt"], "--out", tmp / "vectors.txt",
                "--iterations", "1", "--dim", "3"]
        for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)):
            argv.append(f"{flag}={data.draw(flags[flag])}")
        run(argv)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_embed_concat_and_coverage(inputs, data):
    with workdir(inputs) as tmp:
        paths = edit_one(data, inputs, tmp, ["general.txt", "domain.txt", "train.conll"])
        argv = ["--tables", paths["general.txt"], paths["domain.txt"],
                "--vocab-from", paths["train.conll"]]
        if data.draw(st.booleans()):
            run(["coverage", *argv])
        else:
            run(["embed-concat", *argv, "--out", tmp / "vectors.txt"])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pseudo_corpus(inputs, data):
    with workdir(inputs) as tmp:
        (tmp / "manifest.txt").write_text(f"# notes\n{tmp / 'notes.csv'}\tChief Complaint\n",
                                          encoding="utf-8")
        (tmp / "notes.csv").write_bytes((inputs / "notes.csv").read_bytes())
        paths = edit_one(data, tmp, tmp, ["manifest.txt", "notes.csv"])
        run(["pseudo-corpus", "--manifest", paths["manifest.txt"], "--out", tmp / "pseudo.txt"])
