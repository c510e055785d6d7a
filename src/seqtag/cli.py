"""Command-line interface.

Subcommands: train, tag, evaluate, synth, embed-train, embed-concat,
coverage, pseudo-corpus.  Config files are flat ``key = value`` text,
one :class:`~seqtag.training.TrainConfig` field per line, in the format
a checkpoint's config section uses: bools are words such as ``true`` or
``no``, and ``embeddings`` separates its paths by commas.  Settings come
from the file, then the flags that are set, then ``SEQTAG_SEED`` for the
seed, each put over the ones before, and are then checked once;
``synth --spec`` and ``embed-train`` take theirs the same way.

Exit codes: 0 success, 2 data error, 3 config error, 4 numeric abort.
The class of the exception alone picks the code: a failure the user
caused is a :class:`~seqtag.errors.SeqtagError` (2 for a
:class:`~seqtag.errors.DataError`, 3 for a
:class:`~seqtag.errors.ConfigError`, 4 for a
:class:`~seqtag.errors.NumericError`), and an ``OSError`` from a binary
checkpoint or an output file exits 2.  Anything else is a fault of the
program and ends in a traceback.

Every output file is written beside its target and renamed over it once
whole (:func:`~seqtag.errors.replacing`), so a command that fails leaves
an output it had not finished as it was.  ``synth`` writes
``--out-train`` before ``--out-test``, each whole.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .corpus import Dataset, Sentence, TagScheme, Token, parse_conll, write_conll
from .embeddings import (
    assemble,
    build_vocabulary,
    coverage_report,
    pseudo_corpus_from_manifest,
    write_embedding_table,
)
from .errors import ConfigError, DataError, NumericError, SeqtagError, read_lines, replacing
from .evaluation import evaluate, report, to_mapping
from .glove import GloveParams, fit_glove
from .synth import SynthSpec, default_spec, generate
from .training import (
    TrainConfig,
    derive_scheme,
    load_checkpoint,
    load_embedding_tables,
    parse_kv_lines,
    save_checkpoint,
    tag,
    train,
    typed_fields,
)

EXIT_DATA = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4


def _load_conll(path: str, scheme: TagScheme | None, **kw) -> Dataset:
    return parse_conll(read_lines(path), scheme, **kw)


def _read_token_lines(path: str) -> list[list[str]]:
    """The whitespace-separated words of each non-blank line of ``path``."""
    return [line.split() for line in read_lines(path) if line.strip()]


def _settings(cls, args, path=None, build=None, what="config"):
    """The ``key = value`` file at ``path`` typed by the fields of the
    dataclass ``cls``, with every flag of ``args`` that is set and names a
    field put over it; ``build`` (``cls`` when None) makes the result."""
    lines = read_lines(path, config=True) if path else []
    values = typed_fields(cls, parse_kv_lines(lines, path), ",", what)
    flags = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    values.update((name, value) for name, value in flags.items() if value is not None)
    return (build or cls)(**values)


def cmd_train(args) -> int:
    if "SEQTAG_SEED" in os.environ:
        try:
            args.seed = int(os.environ["SEQTAG_SEED"])
        except ValueError:
            raise ConfigError("SEQTAG_SEED must be an integer") from None
    # --embeddings with no paths leaves the file's value in place
    args.embeddings = tuple(args.embeddings) if args.embeddings else None
    config = _settings(TrainConfig, args, args.config)

    data = _load_conll(args.train, None)
    scheme = derive_scheme(data)
    test_data = _load_conll(args.test, scheme) if args.test else None
    if test_data is not None and any(None in sent.gold_tags for sent in test_data):
        raise DataError(f"{args.test} has no gold tags to score against")
    model_dir = os.path.dirname(args.model) or "."
    if not os.path.isdir(model_dir) or os.path.isdir(args.model):
        raise DataError(f"cannot write {args.model}: not a file path in an existing directory")

    def progress(epoch, loss, f1):
        print(f"epoch {epoch:3d}  train loss {loss:8.4f}  validation F1 {f1:.4f}", flush=True)

    ckpt = train(config, data, scheme, progress=progress)
    print(f"best epoch {ckpt.best_epoch} (validation F1 {max(ckpt.history):.4f})")
    save_checkpoint(ckpt, args.model)
    print(f"checkpoint written to {args.model}")

    if test_data is not None:
        print(report(evaluate(test_data, tag(ckpt, test_data), scheme)))
    return 0


def cmd_tag(args) -> int:
    ckpt = load_checkpoint(args.model)
    if args.raw_text:
        data = Dataset(tuple(
            Sentence(tuple(map(Token, words))) for words in _read_token_lines(args.input)
        ))
    else:
        data = _load_conll(args.input, ckpt.scheme)
    text = write_conll(tag(ckpt, data))
    if args.output:
        with replacing(args.output, encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args) -> int:
    gold = _load_conll(args.gold, None)
    pred = _load_conll(args.pred, None, predictions=True)
    # the scheme takes the predicted classes too: one the gold lacks scores as false positives
    metrics = evaluate(gold, pred, derive_scheme(gold, pred))
    print(report(metrics))
    if args.json:
        with replacing(args.json, encoding="utf-8") as fh:
            json.dump(to_mapping(metrics), fh, indent=2)
            fh.write("\n")
    return 0


def cmd_synth(args) -> int:
    spec = _settings(SynthSpec, args, args.spec, default_spec, "synth spec")
    train_data, test_data = generate(spec)
    for path, data in ((args.out_train, train_data), (args.out_test, test_data)):
        with replacing(path, encoding="utf-8") as fh:
            fh.write(write_conll(data))
    print(f"wrote {len(train_data)} train and {len(test_data)} test sentences")
    return 0


def cmd_embed_train(args) -> int:
    corpus = _read_token_lines(args.corpus)
    table, _ = fit_glove(corpus, _settings(GloveParams, args))
    with replacing(args.out, encoding="utf-8") as fh:
        write_embedding_table(table.entries.items(), fh)
    print(f"trained {len(table)} vectors of dim {table.dim} -> {args.out}")
    return 0


def _vocab_from_conll(path: str):
    data = _load_conll(path, None, predictions=True)
    if not len(data):
        raise DataError(f"{path} contains no tokens")
    return build_vocabulary(t.surface for sent in data for t in sent)


def cmd_embed_concat(args) -> int:
    vocab = _vocab_from_conll(args.vocab_from)
    tables = load_embedding_tables(args.tables)
    matrix = assemble(vocab, tables, args.seed)
    with replacing(args.out, encoding="utf-8") as fh:
        write_embedding_table(zip(vocab.words, matrix), fh)
    stats = coverage_report(vocab, tables)
    print(
        f"assembled {len(matrix)} vectors of dim {matrix.shape[1]}; "
        f"coverage {stats.percentage:.2%}"
    )
    return 0


def cmd_coverage(args) -> int:
    vocab = _vocab_from_conll(args.vocab_from)
    stats = coverage_report(vocab, load_embedding_tables(args.tables))
    print(f"{stats.covered}/{stats.total_words} words covered ({stats.percentage:.2%})")
    return 0


def cmd_pseudo_corpus(args) -> int:
    count = 0
    with replacing(args.out, encoding="utf-8") as fh:  # a failing input leaves --out as it was
        for sentence in pseudo_corpus_from_manifest(args.manifest):
            fh.write(" ".join(sentence) + "\n")
            count += 1
    print(f"wrote {count} pseudo-sentences to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqtag", description="Sequence-labeling toolkit for health-domain NER"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a tagger and write a checkpoint")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--train", required=True, help="gold CoNLL training file")
    p.add_argument("--test", help="optional gold CoNLL test file to score after training")
    p.add_argument("--model", default="model.ckpt", help="checkpoint output path")
    p.add_argument("--variant", choices=("crf", "blstm", "blstm_crf"))
    p.add_argument("--embeddings", nargs="*", help="pretrained embedding table paths")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--split-ratio", dest="split_ratio", type=float)
    p.add_argument("--use-char", dest="use_char", action="store_true", default=None)
    p.add_argument("--no-char", dest="use_char", action="store_false")
    p.add_argument("--use-features", dest="use_features", action="store_true", default=None)
    p.add_argument("--init", choices=("uniform", "scaled"))
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("tag", help="tag sentences with a trained checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument(
        "--raw-text", action="store_true",
        help="treat the input as plain text, one whitespace-tokenized sentence per line",
    )
    p.set_defaults(fn=cmd_tag)

    p = sub.add_parser("evaluate", help="strict entity-level scoring")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--json", help="also write machine-readable metrics here")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic gold corpus")
    p.add_argument("--spec", help="flat key = value synth spec file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("embed-train", help="train word vectors on a token corpus")
    p.add_argument("--corpus", required=True, help="text file, one sentence per line")
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_embed_train)

    p = sub.add_parser("embed-concat", help="concatenate tables over a corpus vocabulary")
    p.add_argument("--tables", nargs="+", required=True)
    p.add_argument("--vocab-from", dest="vocab_from", required=True, help="CoNLL file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_embed_concat)

    p = sub.add_parser("coverage", help="pretrained-vector coverage of a vocabulary")
    p.add_argument("--tables", nargs="+", required=True)
    p.add_argument("--vocab-from", dest="vocab_from", required=True, help="CoNLL file")
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser("pseudo-corpus", help="build pseudo-sentences from CSV tables")
    p.add_argument("--manifest", required=True, help="lines of table_path<TAB>column_name")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pseudo_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SeqtagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
