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
training and validation gather their inputs from those rows; the
validation part is encoded in padded batches, and its gold spans are
extracted once.  Runs are bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable

import numpy as np

from . import autograd as ag
from . import checkpoint as container
from .corpus import (
    Dataset, Sentence, TagScheme, extract_entities, repair_bio, split_train_valid,
)
from .crf import input_nll_and_gradient
from .embeddings import (
    EmbeddingTable,
    Vocabulary,
    assemble,
    build_vocabulary,
    load_embedding_table,
    random_table,
)
from .errors import (
    ConfigError, DataError, NumericError, TagValidationError, check_fields, read_lines,
)
from .evaluation import Metrics, span_counts
# train scores through span_counts; evaluate stays bound because benchmarks/spans.py patches it here
from .evaluation import evaluate  # noqa: F401
from .features import FAMILY_SPECS, FeatureEncoder, FeatureFamily
from .network import (
    VARIANTS,
    EncodedSentence,
    Gradients,
    ModelParameters,
    allocate_dense,
    batches,
    crf_inputs,
    dense_arrays,
    encode,
    gold_ids,
    init_model,
    loss_and_gradients,
    predict_tag_ids,
    table_arrays,
)


BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
              "false": False, "no": False, "off": False, "0": False}


def parse_kv_lines(lines: Iterable[str], source: str) -> dict[str, str]:
    """The value text of each ``key = value`` line, by key.

    Both sides are stripped; blank lines and lines that start with '#'
    are skipped.  This reads config files and the text sections of a
    checkpoint.
    """
    out: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        out[key.strip()] = value.strip()
    return out


def typed_fields(cls, values: dict[str, str], sep: str, what: str) -> dict:
    """The value texts ``values`` typed by the fields of the dataclass
    ``cls``, sequences split at ``sep``; an unknown key or a text that
    does not parse raises :class:`ConfigError` naming the key."""
    parsers = {
        "bool": lambda text: BOOL_WORDS[text.lower()], "int": int, "float": float, "str": str,
        "tuple[str, ...]": lambda text: tuple(p.strip() for p in text.split(sep) if p.strip()),
        "tuple[int, int]": lambda text: tuple(int(p) for p in text.split(sep)),
    }
    types = {f.name: t for f in fields(cls) if (t := f.type.removesuffix(" | None")) in parsers}
    out = {}
    for key, text in values.items():
        if key not in types:
            raise ConfigError(f"unknown {what} key {key!r}")
        try:
            out[key] = parsers[types[key]](text)
        except (KeyError, ValueError):  # KeyError: not a bool word
            raise ConfigError(f"{what} value {key!r} is not a {types[key]}: {text!r}") from None
    return out


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters; defaults follow the reference setup.

    An instance is valid: construction raises :class:`ConfigError`,
    naming the key, for a value out of range.  Its text form, read and
    written by :meth:`from_text` and :meth:`to_text`, is one ``key =
    value`` line per field, in config files and in a checkpoint's config
    section alike.  A bool is one of :data:`BOOL_WORDS` (any case) and
    ``embeddings`` lists its paths split by a separator: ``,`` in config
    files and a tab in checkpoints.  ``use_char`` defaults to false for the
    ``crf`` baseline, which reads no characters, and to true otherwise.
    """

    variant: str = "blstm_crf"
    embeddings: tuple[str, ...] = ()  # paths of pretrained tables to concatenate
    use_char: bool | None = None  # None: the variant's default
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
    clip_norm: float = 5.0  # 0 turns clipping off
    crf_l2: float = 1e-4
    init: str = "uniform"  # or "scaled" (faster desk-scale convergence)

    def __post_init__(self):
        if self.use_char is None:
            object.__setattr__(self, "use_char", self.variant != "crf")
        self.validate()

    def validate(self):
        """Raise :class:`ConfigError`, naming the key, for a value out of its range."""
        if self.variant not in VARIANTS:
            raise ConfigError(f"'variant' must be one of {VARIANTS}, got {self.variant!r}")
        if self.init not in ("uniform", "scaled"):
            raise ConfigError(f"'init' must be 'uniform' or 'scaled', got {self.init!r}")
        check_fields(self, (
            (("epochs", "d_w", "d_c", "H_w", "H_c"), lambda v: v >= 1, "at least 1"),
            (("dropout", "split_ratio"), lambda v: 0.0 < v < 1.0, "strictly between 0 and 1"),
            (("learning_rate",), lambda v: 0.0 < v < math.inf, "positive and finite"),
            (("seed", "clip_norm", "crf_l2"), lambda v: 0 <= v < math.inf, "finite, not negative"),
        ))
        if self.variant == "crf" and self.use_char:
            raise ConfigError("'use_char' must be false for the crf variant, which reads no chars")

    @classmethod
    def from_text(cls, values: dict[str, str], sep: str = ",") -> TrainConfig:
        """The config of the value texts ``values``, typed by the fields
        (see :func:`typed_fields`)."""
        return cls(**typed_fields(cls, values, sep, "config"))

    def to_text(self, sep: str = ",") -> dict[str, str]:
        """The value text of each field, in field order, as :meth:`from_text` reads it."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "embeddings":
                value = sep.join(value)
            out[f.name] = repr(value) if isinstance(value, float) else str(value)
        return out


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


def derive_scheme(data: Dataset, predictions: Dataset | None = None) -> TagScheme:
    """Entity classes observed in the gold tags of ``data`` and in the
    predicted tags of ``predictions``, when given, alphabetically ordered.

    Every tag must be ``O``, ``B-c`` or ``I-c``.
    """
    rows = [sent.gold_tags for sent in data]
    if predictions is not None:
        rows += [sent.pred_tags for sent in predictions]
    classes = set()
    for tags in rows:
        for tag in tags:
            if tag is None or tag == "O":
                continue
            prefix, _, cls = tag.partition("-")
            if prefix not in ("B", "I") or not cls:
                raise TagValidationError(f"tag {tag!r} is not O, B-<class> or I-<class>")
            classes.add(cls)
    if not classes:
        raise DataError("no entity classes found in the gold tags")
    return TagScheme(tuple(sorted(classes)))


def load_embedding_tables(paths) -> list[EmbeddingTable]:
    """Read each text-format embedding table in ``paths``; an error names its file."""
    return [load_embedding_table(read_lines(path), path) for path in paths]


def build_model(config: TrainConfig, scheme: TagScheme, data: Dataset) -> ModelParameters:
    """Vocabulary, embedding assembly, and parameter initialization.

    The word vocabulary, the feature values and a char model's characters
    are those of ``data``; :func:`train` passes its learning split.  Row 0 of
    the word table is the ``<unk>`` row that words outside ``data`` read.
    """
    surfaces = [t.surface for s in data for t in s]
    vocab = build_vocabulary(surfaces)
    if config.embeddings:
        word_table = assemble(vocab, load_embedding_tables(config.embeddings), config.seed)
    else:
        word_table = random_table(vocab, config.d_w, config.seed)
    distinct = dict.fromkeys(surfaces)
    chars = sorted(set("".join(distinct))) if config.use_char else ()
    return init_model(config, scheme, vocab, word_table, distinct, chars)


def sgd_update(
    model: ModelParameters, grads: Gradients, lr: float, clip_norm: float
) -> float | None:
    """One clipped stochastic gradient step, in place; it scales the
    gradient arrays of ``grads`` in place.

    The squared norm sums one dot product per gradient array, the
    Gram-matrix sum of each :class:`seqtag.autograd.Outer` and one
    reduction per table.  The norm is returned as it was before clipping
    (None when ``clip_norm`` is 0).  One loop over ``grads.arrays``
    updates the buffer: an array is scaled and subtracted from its
    parameter, and an Outer is subtracted one block of rows at a time.
    One fancy-index subtract updates each table.
    """
    step, norm = lr, None
    if clip_norm:
        squares = sum(
            g.squared_norm() if isinstance(g, ag.Outer) else np.vdot(g, g)
            for g in grads.arrays.values()
        )
        squares += sum(np.vdot(r.grad, r.grad) for r in grads.rows.values())
        norm = math.sqrt(squares)
        if norm > clip_norm:
            step = lr * (clip_norm / norm)
    params = model.params
    for name, g in grads.arrays.items():
        if isinstance(g, ag.Outer):
            g.subtract_from(params[name], step)
        else:
            g *= step
            params[name] -= g
    tables = table_arrays(model)
    for name, (index, grad) in grads.rows.items():
        tables[name][index] -= step * grad
    return norm


def _non_finite(model: ModelParameters) -> list[str]:
    """The names of ``model``'s parameter tensors that hold a NaN or an infinity."""
    arrays = {**dense_arrays(model), **table_arrays(model)}
    return [name for name, arr in arrays.items() if not np.isfinite(arr).all()]


def crf_baseline_loss_and_gradients(
    model: ModelParameters, sentence: EncodedSentence, gold_tags, l2: float
) -> tuple[float, Gradients]:
    """Regularized NLL for the feature-input baseline (embeddings frozen),
    which weighs each distinct surface of ``sentence`` once; a gold tag
    outside the model's scheme raises :class:`TagValidationError`."""
    gold = gold_ids(model.scheme, gold_tags)
    params = model.params
    trans, weights = params["crf.transitions"], params["crf.emission_weights"]
    nll, d_weights, d_trans = input_nll_and_gradient(
        trans, crf_inputs(model, sentence), weights, gold, sentence.spellings)
    loss = nll + 0.5 * l2 * float(np.vdot(trans, trans) + np.vdot(weights, weights))
    d_trans += l2 * trans
    d_weights += l2 * weights
    return loss, Gradients({"crf.transitions": d_trans, "crf.emission_weights": d_weights}, {})


def tag_with_model(model: ModelParameters, encoded: Iterable[EncodedSentence]) -> list[list[str]]:
    """The repaired predicted BIO tags of every sentence of the decoding
    batches ``encoded`` (see :func:`seqtag.network.batches`), in order.

    Each batch is one forward pass over its distinct surfaces, so the
    recurrent logits and the crf lattices are bitwise reproducible for the
    same grouping of sentences only: BLAS rounds a product by its batch
    size, and a near-tie may then decode differently.  The input order and
    the caps fix the grouping, so the same input gives the same tags.
    """
    out = []
    for batch in encoded:
        tags = [model.scheme.tags[k] for k in predict_tag_ids(model, batch)]
        ends = np.cumsum(batch.lengths).tolist()
        out += [repair_bio(tags[end - n : end]) for n, end in zip(batch.lengths.tolist(), ends)]
    return out


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # NumericError reports divergence
def train(
    config: TrainConfig,
    train_data: Dataset,
    scheme: TagScheme | None = None,
    progress: Callable[[int, float, float], None] | None = None,
) -> Checkpoint:
    """Full training run; returns the best-validation-epoch checkpoint.

    ``1 - config.split_ratio`` of ``train_data`` is set aside for
    validation; the model and its vocabulary are built from the rest.
    The recurrent taggers swap each learning-split singleton for
    ``<unk>`` with probability one half, drawn ahead of the dropout
    masks from the sentence's ``(seed, epoch, index)`` generator.

    A non-finite loss, or an epoch that leaves a non-finite parameter,
    raises :class:`NumericError`.  ``progress``, when given, is called
    after each epoch with ``(epoch, mean training loss, validation F1)``.
    """
    if len(train_data) == 0:
        raise DataError("training dataset is empty")
    if any(t.gold_tag is None for s in train_data for t in s):
        raise DataError("training data must be fully gold-tagged")

    scheme = scheme or derive_scheme(train_data)
    learn, valid = split_train_valid(train_data, config.split_ratio, config.seed)
    if len(valid) == 0:
        raise DataError("validation split is empty; lower split_ratio or add sentences")

    model = build_model(config, scheme, learn)
    learn_encoded = [encode(model, [s]) for s in learn]
    valid_batches = list(batches(model, valid))
    valid_spans = [set(extract_entities(repair_bio(s.gold_tags))) for s in valid]
    counts = Counter(t.surface for s in learn for t in s)
    singletons = frozenset(w for w, n in counts.items() if n == 1)

    best_f1 = -1.0
    best_epoch = -1
    # the arrays that training updates in place, and their values at the best epoch
    state = [model.buffer, *table_arrays(model).values()]
    best_state = [np.empty_like(arr) for arr in state]
    history: list[float] = []

    for epoch in range(config.epochs):
        order = np.random.default_rng((config.seed, epoch)).permutation(len(learn))
        total_loss = 0.0
        for idx in order:
            sent = learn_encoded[int(idx)]
            gold = learn[int(idx)].gold_tags
            if config.variant == "crf":
                loss, grads = crf_baseline_loss_and_gradients(model, sent, gold, config.crf_l2)
            else:
                loss, grads = loss_and_gradients(
                    model,
                    sent,
                    gold,
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
        bad = _non_finite(model)
        if bad:
            raise NumericError(f"epoch {epoch} left non-finite values in {', '.join(bad)}")

        f1 = Metrics(span_counts(valid_spans, tag_with_model(model, valid_batches), scheme)).micro_f1()
        history.append(f1)
        if f1 > best_f1:
            best_f1, best_epoch = f1, epoch
            for arr, kept in zip(state, best_state):
                np.copyto(kept, arr)
        if progress is not None:
            progress(epoch, total_loss / len(learn), f1)

    for arr, kept in zip(state, best_state):
        np.copyto(arr, kept)
    return Checkpoint(container.VERSION, config, model, best_epoch, history)


def tag(checkpoint: Checkpoint, sentences: Dataset) -> Dataset:
    """Decode (argmax or Viterbi per variant), repair the tags and attach them.

    A tag of ``sentences`` outside the model's scheme raises
    :class:`TagValidationError`.
    """
    model = checkpoint.model
    return Dataset(tuple(
        Sentence(tuple(t.predicted(p) for t, p in zip(sent, tags)))
        for sent, tags in zip(sentences, tag_with_model(model, batches(model, sentences)))
    ))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _kv_lines(values: dict) -> list[str]:
    return [f"{key} = {value}" for key, value in values.items()]


def _meta_value(meta: dict[str, str], key: str, parse: Callable):
    if key not in meta:
        raise DataError(f"checkpoint meta is missing its {key!r} line")
    try:
        return parse(meta[key])
    except ValueError:
        raise DataError(f"checkpoint meta value {key!r} does not parse: {meta[key]!r}") from None


def save_checkpoint(ckpt: Checkpoint, path):
    model = ckpt.model
    sections: dict[str, list[str]] = {
        "config": _kv_lines(ckpt.config.to_text(sep="\t")),
        "scheme": list(model.scheme.classes),
        "vocab": list(model.vocab.words),
        "meta": _kv_lines({
            "best_epoch": ckpt.best_epoch,
            "history": " ".join(repr(v) for v in ckpt.history),
            "seed": ckpt.config.seed,
            "variant": model.variant,
        }),
    }
    if model.char_vocab is not None:
        sections["charvocab"] = list(model.char_vocab.words)
    if model.feature_encoder is not None:
        for fam in model.feature_encoder.families:
            sections[f"feature-values:{fam.name}"] = list(fam.values)
    tensors = dict(dense_arrays(model))
    tensors.update(table_arrays(model))
    container.write_container(path, sections, tensors)


def _rebuild_features(
    sections: dict[str, list[str]], tensors: dict[str, np.ndarray], config: TrainConfig,
    vocab: Vocabulary,
) -> FeatureEncoder:
    families = []
    for name, dim, fn in FAMILY_SPECS:
        values = sections.get(f"feature-values:{name}")
        if values is None:
            raise DataError(f"checkpoint is missing its 'feature-values:{name}' section")
        table = tensors.get(f"feature:{name}", np.zeros((0, dim))).copy()
        if table.shape != (len(values), dim):
            raise DataError(f"feature table {name!r} does not match its value list")
        index = {v: i for i, v in enumerate(values)}
        if len(index) != len(values):  # a repeated value would leave a row that is never read
            twice = next(v for i, v in enumerate(values) if index[v] != i)
            raise DataError(f"checkpoint feature values of {name!r} list {twice!r} twice")
        families.append(FeatureFamily(name, dim, fn, list(values), index, table))
    return FeatureEncoder(families, config.seed, vocab.index)


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
    return table.copy()


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``; contents that do not fit together, or a
    non-finite parameter value, raise :class:`DataError` naming them."""
    sections, tensors = container.read_container(path)
    for required in ("config", "scheme", "vocab", "meta"):
        if required not in sections:
            raise DataError(f"checkpoint is missing its {required!r} section")
    try:
        meta = parse_kv_lines(sections["meta"], "meta")
        config = TrainConfig.from_text(parse_kv_lines(sections["config"], "config"), sep="\t")
        scheme = TagScheme(tuple(sections["scheme"]))
        vocab = Vocabulary(tuple(sections["vocab"]))
        char_vocab = Vocabulary(tuple(sections["charvocab"])) if "charvocab" in sections else None
    except (ConfigError, ValueError) as exc:  # a vocabulary or scheme raises ValueError
        raise DataError(f"checkpoint: {exc}") from None
    for key in ("seed", "variant"):  # the model's come from the config
        value = getattr(config, key)
        if _meta_value(meta, key, type(value)) != value:
            raise DataError(
                f"checkpoint meta {key!r} is {meta[key]!r} but its config says {value!r}"
            )
    best_epoch = _meta_value(meta, "best_epoch", int)
    history = _meta_value(meta, "history", lambda text: [float(v) for v in text.split()])
    features = _rebuild_features(sections, tensors, config, vocab) if config.use_features else None
    model = ModelParameters(
        scheme, config.variant, vocab, _vocabulary_table(tensors, "word_table", vocab),
        feature_encoder=features,
    )
    if config.use_char:
        if char_vocab is None:
            raise DataError("checkpoint is missing its 'charvocab' section")
        model.char_vocab = char_vocab
        model.char_table = _vocabulary_table(tensors, "char_table", model.char_vocab)
    allocate_dense(model, config.H_c, config.H_w)
    slots = dense_arrays(model)
    extra = sorted(tensors.keys() - slots.keys() - table_arrays(model).keys())
    if extra:
        raise DataError(f"checkpoint tensors {extra} belong to no parameter its config gives")
    for name, slot in slots.items():
        tensor = tensors.get(name)
        if tensor is None:
            raise DataError(f"checkpoint has no {name!r} tensor")
        if tensor.shape != slot.shape:
            raise DataError(
                f"checkpoint tensor {name!r} has shape {tensor.shape}, but the config, "
                f"scheme and vocabularies give it {slot.shape}"
            )
        slot[...] = tensor
    bad = _non_finite(model)
    if bad:
        raise DataError(f"checkpoint tensor {bad[0]!r} holds a non-finite value")
    return Checkpoint(container.VERSION, config, model, best_epoch, history)
