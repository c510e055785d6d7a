"""Training orchestration: model construction, the SGD epoch loop with
validation-based epoch selection, tagging, and checkpoint persistence.

One run splits its data into a learning part and a validation part,
builds the model (vocabularies included) from the learning part alone,
performs per-sentence stochastic gradient descent for a fixed number of
epochs, scores strict entity F1 on the validation part after every
epoch, and keeps the parameters of the best epoch (earliest on ties).
Validation words that the learning part lacks are thus unseen words, as
they will be at test time: they read the ``<unk>`` row, which the
recurrent taggers train by swapping learn-split singletons for
``<unk>`` (Lample et al. 2016, §4).  A run encodes its two splits to
table rows once (:func:`seqtag.network.encode`), and every epoch's
training and validation gather their inputs from those rows.  Runs are
bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable

import numpy as np

from . import checkpoint as container
from .corpus import Dataset, Sentence, TagScheme, Token, repair_bio, split_train_valid
from .crf import CrfParameters, input_nll_and_gradient
from .embeddings import (
    EmbeddingTable,
    Vocabulary,
    assemble,
    build_vocabulary,
    load_embedding_table,
    random_table,
)
from .errors import ConfigError, DataError, TagValidationError, NumericError
from .evaluation import evaluate
from .features import FAMILY_SPECS, FeatureEncoder, FeatureFamily
from .network import (
    CELL_FIELDS,
    VARIANTS,
    EncodedSentence,
    Gradients,
    LstmCellParameters,
    ModelParameters,
    crf_inputs,
    dense_arrays,
    encode,
    init_model,
    loss_and_gradients,
    predict_tag_ids,
    table_arrays,
)


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters; defaults follow the reference setup."""

    variant: str = "blstm_crf"
    embeddings: tuple[str, ...] = ()  # paths of pretrained tables to concatenate
    use_char: bool = True
    use_features: bool = False
    d_w: int = 300  # used when no pretrained tables are given
    d_c: int = 25
    H_w: int = 100
    H_c: int = 25
    learning_rate: float = 0.01
    dropout: float = 0.5
    epochs: int = 100
    split_ratio: float = 0.7
    seed: int = 0
    clip_norm: float = 5.0
    crf_l2: float = 1e-4
    init: str = "uniform"  # or "scaled" (faster desk-scale convergence)

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.init not in ("uniform", "scaled"):
            raise ConfigError("init must be 'uniform' or 'scaled'")
        if not 0.0 < self.dropout < 1.0:
            raise ConfigError("dropout must lie strictly between 0 and 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must lie strictly between 0 and 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if min(self.d_w, self.d_c, self.H_w, self.H_c) < 1:
            raise ConfigError("model dimensions must be positive")
        if self.variant == "crf" and self.use_char:
            raise ConfigError("the crf variant does not support character-level embeddings")


@dataclass
class Checkpoint:
    version: int
    config: TrainConfig
    model: ModelParameters
    best_epoch: int
    history: list[float] = field(default_factory=list)

    @property
    def scheme(self) -> TagScheme:
        return self.model.scheme


def derive_scheme(data: Dataset) -> TagScheme:
    """Entity classes observed in the gold tags, alphabetically ordered.

    Every tag must be ``O``, ``B-c`` or ``I-c``.
    """
    classes = set()
    for sent in data:
        for tag in sent.gold_tags:
            if tag is None or tag == "O":
                continue
            prefix, _, cls = tag.partition("-")
            if prefix not in ("B", "I") or not cls:
                raise TagValidationError(f"gold tag {tag!r} is not O, B-<class> or I-<class>")
            classes.add(cls)
    if not classes:
        raise DataError("no entity classes found in the gold tags")
    return TagScheme(tuple(sorted(classes)))


def load_embedding_tables(paths) -> list[EmbeddingTable]:
    """Read each text-format embedding table in ``paths``."""
    tables = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tables.append(load_embedding_table(fh))
    return tables


def build_model(config: TrainConfig, scheme: TagScheme, data: Dataset) -> ModelParameters:
    """Vocabulary, embedding assembly, and parameter initialization.

    The word and character vocabularies and the feature values are those
    of ``data``; :func:`train` passes its learning split.  Row 0 of the
    word table is the ``<unk>`` row that words outside ``data`` read.
    """
    surfaces = [t.surface for s in data for t in s]
    vocab = build_vocabulary(surfaces)
    if config.embeddings:
        word_table = assemble(vocab, load_embedding_tables(config.embeddings), config.seed)
    else:
        word_table = random_table(vocab, config.d_w, config.seed)
    chars = sorted({ch for s in surfaces for ch in s})
    return init_model(
        scheme,
        vocab,
        word_table,
        variant=config.variant,
        use_char=config.use_char,
        use_features=config.use_features,
        d_c=config.d_c,
        H_c=config.H_c,
        H_w=config.H_w,
        seed=config.seed,
        feature_surfaces=dict.fromkeys(surfaces),
        char_alphabet=chars,
        init=config.init,
    )


def sgd_update(model: ModelParameters, grads: Gradients, lr: float, clip_norm: float):
    """One clipped stochastic gradient step, in place."""
    if clip_norm:
        norm = grads.l2_norm()
        if norm > clip_norm:
            grads.scale(clip_norm / norm)
    dense = dense_arrays(model)
    tables = table_arrays(model)
    for name, g in grads.dense.items():
        dense[name] -= lr * g
    for table_name, rows in grads.rows.items():
        matrix = tables[table_name]
        for idx, g in rows.items():
            matrix[idx] -= lr * g


def crf_baseline_loss_and_gradients(
    model: ModelParameters, sentence: Sentence | EncodedSentence, gold_tags, l2: float
) -> tuple[float, Gradients]:
    """Regularized NLL for the feature-input baseline (embeddings frozen).

    ``sentence`` may be already encoded (see :func:`seqtag.network.encode`).
    """
    gold = [model.scheme.index[t] for t in gold_tags]
    inputs = crf_inputs(model, sentence)
    nll, grads = input_nll_and_gradient(model.crf, inputs, gold)
    trans, weights = model.crf.transitions, model.crf.emission_weights
    loss = nll + 0.5 * l2 * (float((trans * trans).sum()) + float((weights * weights).sum()))
    return loss, Gradients(
        dense={
            "crf.transitions": grads.transitions + l2 * trans,
            "crf.emission_weights": grads.emission_weights + l2 * weights,
        },
        rows={},
    )


def tag_with_model(model: ModelParameters, data: Iterable[Sentence | EncodedSentence]) -> Dataset:
    """Predict, repair, and attach BIO tags to every sentence, plain or encoded."""
    tagged = []
    for inputs in data:
        sent = inputs.sentence if isinstance(inputs, EncodedSentence) else inputs
        for t in sent.gold_tags:
            if t is not None and t not in model.scheme:
                raise TagValidationError(
                    f"input tag {t!r} does not belong to the model's tag scheme "
                    f"{model.scheme.classes}"
                )
        ids = predict_tag_ids(model, inputs)
        tags = repair_bio([model.scheme.tags[k] for k in ids])
        tagged.append(
            Sentence(
                tuple(
                    Token(tok.surface, tok.gold_tag, pred)
                    for tok, pred in zip(sent.tokens, tags)
                )
            )
        )
    return Dataset(tuple(tagged))


def train(
    config: TrainConfig,
    train_data: Dataset,
    scheme: TagScheme | None = None,
    progress: Callable[[int, float, float], None] | None = None,
) -> Checkpoint:
    """Full training run; returns the best-validation-epoch checkpoint.

    ``1 - config.split_ratio`` of ``train_data`` is held out for
    validation; the model and its vocabulary are built from the rest.
    The recurrent taggers swap each learning-split singleton for
    ``<unk>`` with probability one half, drawn ahead of the dropout
    masks from the sentence's ``(seed, epoch, index)`` generator.

    ``progress``, when given, is called after each epoch with
    ``(epoch, mean training loss, validation F1)``.
    """
    config.validate()
    if len(train_data) == 0:
        raise DataError("training dataset is empty")
    if any(t.gold_tag is None for s in train_data for t in s):
        raise DataError("training data must be fully gold-tagged")

    scheme = scheme or derive_scheme(train_data)
    learn, valid = split_train_valid(train_data, config.split_ratio, config.seed)
    if len(valid) == 0:
        raise DataError("validation split is empty; lower split_ratio or add sentences")

    model = build_model(config, scheme, learn)
    learn_encoded = [encode(model, s) for s in learn]
    valid_encoded = [encode(model, s) for s in valid]
    counts = Counter(t.surface for s in learn for t in s)
    singletons = frozenset(w for w, n in counts.items() if n == 1)

    best_f1 = -1.0
    best_epoch = -1
    best_state: ModelParameters | None = None
    history: list[float] = []

    for epoch in range(config.epochs):
        order = np.random.default_rng((config.seed, epoch)).permutation(len(learn))
        total_loss = 0.0
        for idx in order:
            sent = learn_encoded[int(idx)]
            gold = list(sent.sentence.gold_tags)
            if config.variant == "crf":
                loss, grads = crf_baseline_loss_and_gradients(model, sent, gold, config.crf_l2)
            else:
                loss, grads = loss_and_gradients(
                    model,
                    sent,
                    gold,
                    config.variant,
                    dropout=config.dropout,
                    dropout_seed=(config.seed, epoch, int(idx)),
                    singletons=singletons,
                )
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, sentence index {int(idx)}"
                )
            total_loss += loss
            sgd_update(model, grads, config.learning_rate, config.clip_norm)

        f1 = evaluate(valid, tag_with_model(model, valid_encoded), scheme).micro_f1()
        history.append(f1)
        if f1 > best_f1:
            best_f1, best_epoch = f1, epoch
            best_state = copy.deepcopy(model)
        if progress is not None:
            progress(epoch, total_loss / len(learn), f1)

    return Checkpoint(container.VERSION, config, best_state, best_epoch, history)


def tag(checkpoint: Checkpoint, sentences: Dataset) -> Dataset:
    """Decode (argmax or Viterbi per variant), then repair the tags."""
    return tag_with_model(checkpoint.model, sentences)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _config_lines(config: TrainConfig) -> list[str]:
    lines = []
    for f in fields(TrainConfig):
        value = getattr(config, f.name)
        if f.name == "embeddings":
            value = "\t".join(value)
        lines.append(f"{f.name} = {value!r}" if isinstance(value, float) else f"{f.name} = {value}")
    return lines


def _parse_value(section: str, key: str, text: str, parse: Callable):
    try:
        return parse(text)
    except ValueError:
        raise DataError(f"checkpoint {section} value {key!r} does not parse: {text!r}") from None


def _parse_config(lines: list[str]) -> TrainConfig:
    raw: dict[str, str] = {}
    for ln in lines:
        key, _, value = ln.partition(" = ")
        raw[key] = value
    kwargs = {}
    for f in fields(TrainConfig):
        if f.name not in raw:
            continue
        text = raw[f.name]
        if f.name == "embeddings":
            kwargs[f.name] = tuple(p for p in text.split("\t") if p)
        elif f.type == "bool":
            kwargs[f.name] = text == "True"
        elif f.type in ("int", "float"):
            kwargs[f.name] = _parse_value("config", f.name, text, int if f.type == "int" else float)
        else:
            kwargs[f.name] = text
    return TrainConfig(**kwargs)


def save_checkpoint(ckpt: Checkpoint, path):
    model = ckpt.model
    sections: dict[str, list[str]] = {
        "config": _config_lines(ckpt.config),
        "scheme": list(model.scheme.classes),
        "vocab": list(model.vocab.words),
        "meta": [
            f"best_epoch = {ckpt.best_epoch}",
            "history = " + " ".join(repr(v) for v in ckpt.history),
            f"seed = {model.seed}",
            f"variant = {model.variant}",
        ],
    }
    if model.char_vocab is not None:
        sections["charvocab"] = list(model.char_vocab.words)
    if model.feature_encoder is not None:
        for fam in model.feature_encoder.families:
            sections[f"feature-values:{fam.name}"] = list(fam.values)
    tensors = dict(dense_arrays(model))
    tensors.update(table_arrays(model))
    container.write_container(path, sections, tensors)


def _rebuild_cell(tensors: dict[str, np.ndarray], name: str) -> LstmCellParameters | None:
    if f"{name}.W_xi" not in tensors:
        return None
    return LstmCellParameters(**{f: tensors[f"{name}.{f}"] for f in CELL_FIELDS})


def _rebuild_features(
    sections: dict[str, list[str]], tensors: dict[str, np.ndarray], seed: int
) -> FeatureEncoder | None:
    if not any(name.startswith("feature-values:") for name in sections):
        return None
    families = []
    for name, dim, fn in FAMILY_SPECS:
        values = sections.get(f"feature-values:{name}", [])
        table = tensors.get(f"feature:{name}", np.zeros((0, dim)))
        if table.shape != (len(values), dim):
            raise DataError(f"feature table {name!r} does not match its value list")
        families.append(
            FeatureFamily(name, dim, fn, list(values), {v: i for i, v in enumerate(values)}, table)
        )
    return FeatureEncoder(families, seed)


def _vocabulary_table(tensors: dict[str, np.ndarray], name: str, vocab: Vocabulary) -> np.ndarray:
    """The lookup table ``name``, checked to have one row per vocabulary entry."""
    table = tensors.get(name)
    if table is None:
        raise DataError(f"checkpoint has no {name!r} tensor")
    if table.ndim != 2 or table.shape[0] != len(vocab):
        raise DataError(
            f"checkpoint tensor {name!r} has shape {table.shape}, "
            f"but its vocabulary has {len(vocab)} entries"
        )
    return table


def load_checkpoint(path) -> Checkpoint:
    sections, tensors = container.read_container(path)
    for required in ("config", "scheme", "vocab", "meta"):
        if required not in sections:
            raise DataError(f"checkpoint is missing its {required!r} section")
    config = _parse_config(sections["config"])
    scheme = TagScheme(tuple(sections["scheme"]))
    vocab = Vocabulary(tuple(sections["vocab"]))

    meta = dict(ln.partition(" = ")[::2] for ln in sections["meta"])
    for key in ("seed", "variant", "best_epoch", "history"):
        if key not in meta:
            raise DataError(f"checkpoint meta is missing its {key!r} line")
    seed = _parse_value("meta", "seed", meta["seed"], int)
    variant = meta["variant"]
    if variant != config.variant:  # TrainConfig has checked config.variant is in VARIANTS
        raise DataError(
            f"checkpoint meta 'variant' is {variant!r} but its config says {config.variant!r}"
        )
    best_epoch = _parse_value("meta", "best_epoch", meta["best_epoch"], int)
    history = _parse_value(
        "meta", "history", meta["history"], lambda text: [float(v) for v in text.split()]
    )
    char_vocab = Vocabulary(tuple(sections["charvocab"])) if "charvocab" in sections else None

    crf = None
    if "crf.transitions" in tensors:
        crf = CrfParameters(tensors["crf.transitions"], tensors.get("crf.emission_weights"))

    model = ModelParameters(
        scheme=scheme,
        variant=variant,
        vocab=vocab,
        word_table=_vocabulary_table(tensors, "word_table", vocab),
        seed=seed,
        char_vocab=char_vocab,
        char_table=(
            _vocabulary_table(tensors, "char_table", char_vocab)
            if char_vocab is not None
            else tensors.get("char_table")
        ),
        feature_encoder=_rebuild_features(sections, tensors, seed),
        char_fwd=_rebuild_cell(tensors, "char_fwd"),
        char_bwd=_rebuild_cell(tensors, "char_bwd"),
        word_fwd=_rebuild_cell(tensors, "word_fwd"),
        word_bwd=_rebuild_cell(tensors, "word_bwd"),
        projection=tensors.get("projection"),
        crf=crf,
    )
    return Checkpoint(container.VERSION, config, model, best_epoch, history)
