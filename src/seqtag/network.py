"""The neural taggers: gated recurrent cells, character-level word
vectors, token representations, and loss gradients.

The recurrent cell uses a coupled input gate (the memory carry-over
weight is one minus the input gate) and diagonal peephole connections:

    i_t = sigmoid(W_xi x_t + W_hi h_{t-1} + w_ci * c_{t-1} + b_i)
    c_t = (1 - i_t) * c_{t-1} + i_t * tanh(W_xc x_t + W_hc h_{t-1} + b_c)
    o_t = sigmoid(W_xo x_t + W_ho h_{t-1} + w_co * c_t + b_o)
    h_t = o_t * tanh(c_t)

Note that the output gate reads the new cell state.  Bidirectional
wrappers concatenate the left-to-right and right-to-left hidden states
per position; the character-level word vector is the concatenation of
the final forward and final backward states over a word's characters.

Two output couplings are supported: per-token softmax (``blstm``) and a
transition-structured output layer decoded with Viterbi (``blstm_crf``).

A word that misses the vocabulary, even after a lowercase fallback,
reads the ``<unk>`` row at index 0 of the word table.  That row is a
trainable parameter like any other; training keeps it informed by
swapping learn-split singletons for ``<unk>`` at random (see
:func:`loss_and_gradients`).

Every tagger reads a sentence through :func:`encode`, which maps each
token to its word-table row, its characters' char-table rows and its
feature-family rows once; a character outside the char vocabulary reads
that table's ``<unk>`` row 0, as words do.  A forward pass makes one
leaf per lookup table holding the distinct rows the sentence reads, and
the tokens gather from it with :func:`seqtag.autograd.take`.

Training gradients come from the reverse-mode tape in
:mod:`seqtag.autograd`; the binding correctness contract is agreement
with central finite differences, which the test suite checks for every
parameter family.

The dense parameters live in one flat float64 buffer.  Each BiLSTM
stacks its weights by direction (forward, backward) and, within one, by
gate (input, candidate, output; row blocks of H): ``W_x`` (2, 3H, D),
``W_h`` (2, 3H, H), ``b`` (2, 3H), ``w_ci`` and ``w_co`` (2, H).  The
checkpoint names of :class:`LstmCellParameters` (``word_fwd.W_xi`` and
so on) are views of those blocks.  A forward pass makes one leaf per
stacked array and runs both directions of each BiLSTM as one fused tape
node, :func:`seqtag.autograd.bilstm`: the word BiLSTM runs the sentence
as a batch of one, forward and reversed, and the char BiLSTM runs all
words as one batch whose carry mask stops a word at its last character.
The backward pass accumulates straight into one flat gradient laid out
like the buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import autograd as ag
from .corpus import Sentence, TagScheme
from .crf import CrfParameters, crf_nll_op, viterbi
from .embeddings import EmbeddingTable, Vocabulary
from .errors import ConfigError, TagValidationError
from .features import FamilyRows, FeatureEncoder
# no tagger calls encode_surface; it stays bound because benchmarks/spans.py patches it here
from .features import encode_surface  # noqa: F401

if TYPE_CHECKING:
    from .training import TrainConfig

CELL_FIELDS = ("W_xi", "W_hi", "w_ci", "W_xc", "W_hc", "W_xo", "W_ho", "w_co", "b_i", "b_c", "b_o")

VARIANTS = ("crf", "blstm", "blstm_crf")

UNK_SWAP_RATE = 0.5  # chance that a training singleton reads <unk> (Lample et al. 2016, §4)


@dataclass
class LstmCellParameters:
    """Weights of one directional cell; peepholes are diagonal (vectors)."""

    W_xi: np.ndarray  # (H, D)
    W_hi: np.ndarray  # (H, H)
    w_ci: np.ndarray  # (H,)
    W_xc: np.ndarray
    W_hc: np.ndarray
    W_xo: np.ndarray
    W_ho: np.ndarray
    w_co: np.ndarray
    b_i: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.W_xi.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_xi.shape[1]


def _carve(layout: dict[str, tuple[int, ...]], flat: np.ndarray) -> dict[str, np.ndarray]:
    """Each array of ``layout`` as a view into the flat vector ``flat``, in order."""
    out, start = {}, 0
    for name, shape in layout.items():
        size = math.prod(shape)
        out[name] = flat[start : start + size].reshape(shape)
        start += size
    return out


def _named(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``params`` by checkpoint name: each BiLSTM direction's per-gate views, then the rest."""
    out: dict[str, np.ndarray] = {}
    for prefix in ("char", "word"):
        if f"{prefix}.W_x" not in params:
            continue
        H = params[f"{prefix}.w_ci"].shape[1]
        for d, direction in enumerate(("fwd", "bwd")):
            for f in CELL_FIELDS:
                if f.startswith("w_c"):  # a peephole vector
                    view = params[f"{prefix}.{f}"][d]
                else:  # W_x?, W_h? or b_?: the gate's row block of the stacked array
                    k = "ico".index(f[-1])
                    view = params[f"{prefix}.{f[:-1].rstrip('_')}"][d, k * H : (k + 1) * H]
                out[f"{prefix}_{direction}.{f}"] = view
    out.update((k, v) for k, v in params.items() if not k.startswith(("char.", "word.")))
    return out


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------


@dataclass
class ModelParameters:
    """Every trainable tensor of one tagger, plus its lookup vocabularies.

    ``layout`` names and shapes the stacked dense arrays in ``buffer``
    order.  ``params``, the cells, ``projection`` and ``crf`` are views
    carved from ``buffer`` on each access, so a copy reads its own buffer.
    """

    scheme: TagScheme
    variant: str
    vocab: Vocabulary
    word_table: np.ndarray  # (V, d_w)
    seed: int  # keys only the checkpoint meta and the feature fallbacks
    char_vocab: Vocabulary | None = None
    char_table: np.ndarray | None = None  # (C, d_c)
    feature_encoder: FeatureEncoder | None = None
    layout: dict[str, tuple[int, ...]] = field(default_factory=dict)
    buffer: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Each stacked dense array by its layout name, as a view into ``buffer``."""
        return _carve(self.layout, self.buffer)

    def _cell(self, name: str) -> LstmCellParameters | None:
        views = dense_arrays(self)
        if f"{name}.W_xi" not in views:
            return None
        return LstmCellParameters(**{f: views[f"{name}.{f}"] for f in CELL_FIELDS})

    char_fwd = property(lambda self: self._cell("char_fwd"))
    char_bwd = property(lambda self: self._cell("char_bwd"))
    word_fwd = property(lambda self: self._cell("word_fwd"))
    word_bwd = property(lambda self: self._cell("word_bwd"))

    @property
    def projection(self) -> np.ndarray | None:  # (2*H_w, K)
        return self.params.get("projection")

    @property
    def crf(self) -> CrfParameters | None:
        params = self.params
        if "crf.transitions" not in params:
            return None
        return CrfParameters(params["crf.transitions"], params.get("crf.emission_weights"))

    @property
    def d_w(self) -> int:
        return self.word_table.shape[1]

    @property
    def use_char(self) -> bool:
        return self.char_table is not None

    @property
    def use_features(self) -> bool:
        return self.feature_encoder is not None

    @property
    def num_tags(self) -> int:
        return len(self.scheme)


def allocate_dense(model: ModelParameters, H_c: int, H_w: int):
    """Lay out the dense parameters that ``model``'s variant, tables and
    scheme imply in one new, uninitialised buffer: each BiLSTM's stacked
    arrays (char, then word), then those of the output layer."""
    K = model.num_tags
    input_dim = model.d_w + (model.feature_encoder.total_dim if model.use_features else 0)
    if model.variant == "crf":
        layout = {"crf.transitions": (K + 1, K + 1), "crf.emission_weights": (K, input_dim)}
    else:
        cells = [("word", input_dim, H_w)]
        if model.use_char:
            cells = [("char", model.char_table.shape[1], H_c), ("word", input_dim + 2 * H_c, H_w)]
        layout = {}
        for prefix, D, H in cells:
            layout.update({
                f"{prefix}.W_x": (2, 3 * H, D), f"{prefix}.W_h": (2, 3 * H, H),
                f"{prefix}.b": (2, 3 * H), f"{prefix}.w_ci": (2, H), f"{prefix}.w_co": (2, H),
            })
        layout["projection"] = (2 * H_w, K)
        if model.variant == "blstm_crf":
            layout["crf.transitions"] = (K + 1, K + 1)
    model.layout = layout
    model.buffer = np.empty(sum(math.prod(shape) for shape in layout.values()))


def init_model(
    config: TrainConfig,
    scheme: TagScheme,
    vocab: Vocabulary,
    word_table: EmbeddingTable,
    feature_surfaces=(),
    char_alphabet=(),
) -> ModelParameters:
    """Build the model that ``config`` describes; the default
    initialization is uniform [-1, 1].

    Word vectors are copied from the (already assembled) ``word_table``;
    everything else, including feature-value encodings, is random.
    Lookup tables always use [-1, 1] regardless of the ``init`` mode;
    ``init="scaled"`` switches the network weights to fan-scaled ranges:
    Glorot-uniform matrices, small peepholes and zero biases, which
    converge much faster at desk scale but are not the faithful default.
    Each dense array is drawn in place into the buffer, in the order of
    :func:`dense_arrays`.
    """
    rng = np.random.default_rng(config.seed)
    matrix = np.stack([word_table.entries[w] for w in vocab.words])
    model = ModelParameters(scheme, config.variant, vocab, matrix, config.seed)
    if config.use_features:
        from .features import build_feature_encoder

        model.feature_encoder = build_feature_encoder(feature_surfaces, config.seed)
    if config.use_char:
        from .embeddings import build_vocabulary

        model.char_vocab = build_vocabulary(char_alphabet)
        model.char_table = rng.uniform(-1.0, 1.0, (len(model.char_vocab), config.d_c))
    allocate_dense(model, config.H_c, config.H_w)

    for name, arr in dense_arrays(model).items():
        kind = name.rpartition(".")[2]
        if config.init == "scaled" and kind.startswith("b_"):
            arr[...] = 0.0
        elif config.init == "scaled" and kind.startswith("w_c"):
            arr[...] = rng.uniform(-0.1, 0.1, arr.shape)
        else:
            arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
            if config.init == "scaled":
                arr *= np.sqrt(6.0 / sum(arr.shape))
    return model


def dense_arrays(model: ModelParameters) -> dict[str, np.ndarray]:
    """Every non-lookup parameter array, keyed by a stable name; views into ``model.buffer``."""
    return _named(model.params)


def table_arrays(model: ModelParameters) -> dict[str, np.ndarray]:
    """Every lookup-table parameter matrix (rows updated sparsely)."""
    out = {"word_table": model.word_table}
    if model.char_table is not None:
        out["char_table"] = model.char_table
    if model.feature_encoder is not None:
        for fam in model.feature_encoder.families:
            if len(fam.values):
                out[f"feature:{fam.name}"] = fam.table
    return out


# ---------------------------------------------------------------------------
# encoding and the tape-building forward pass (training and inference)
# ---------------------------------------------------------------------------


def _word_index(model: ModelParameters, surface: str) -> int:
    """Exact match, then lowercased; the ``<unk>`` row (0) when both miss."""
    idx = model.vocab.index.get(surface)
    if idx is None:
        idx = model.vocab.index.get(surface.lower(), 0)
    return idx


def word_vector(model: ModelParameters, surface: str) -> np.ndarray:
    """The word-table row of ``surface``; unseen words share the ``<unk>`` row."""
    return model.word_table[_word_index(model, surface)]


@dataclass(frozen=True)
class EncodedSentence:
    """A sentence as table rows: word rows, char rows and each feature family's rows.

    It holds indices, not vectors, so every forward pass reads the live
    tables when it gathers.
    """

    sentence: Sentence
    words: np.ndarray  # (T,) word-table rows
    chars: np.ndarray  # every word's char-table rows, concatenated; empty without chars
    word_lengths: np.ndarray  # (T,) characters per word; empty without chars
    features: tuple[FamilyRows, ...]  # one per feature family; empty without features

    def __len__(self) -> int:
        return len(self.words)


def encode(model: ModelParameters, sentence: Sentence) -> EncodedSentence:
    """Map each token to its word-, char- and feature-table rows.

    A word or a character outside its vocabulary reads the ``<unk>`` row 0.
    """
    surfaces = sentence.surfaces
    words = np.array([_word_index(model, w) for w in surfaces], dtype=np.intp)
    chars = lengths = np.zeros(0, dtype=np.intp)
    if model.use_char:
        index = model.char_vocab.index
        chars = np.array([index.get(ch, 0) for w in surfaces for ch in w], dtype=np.intp)
        lengths = np.array([len(w) for w in surfaces], dtype=np.intp)
    features = model.feature_encoder.rows(surfaces) if model.use_features else ()
    return EncodedSentence(sentence, words, chars, lengths, features)


def _encoded(model: ModelParameters, sentence: Sentence | EncodedSentence) -> EncodedSentence:
    return sentence if isinstance(sentence, EncodedSentence) else encode(model, sentence)


class _LeafSet:
    """Parameter leaves of one forward pass: one per stacked dense array, and
    for each lookup table one leaf of the distinct rows the sentence reads.
    Given a flat gradient, each dense leaf's gradient is preset to its view
    of it, so the backward pass accumulates straight into it."""

    def __init__(self, model: ModelParameters, grad: np.ndarray | None = None):
        self.params = model.params
        self.grads = {} if grad is None else _carve(model.layout, grad)
        self.tables: dict[str, tuple[np.ndarray, ag.Tensor]] = {}

    def dense_leaf(self, name: str) -> ag.Tensor:
        leaf = ag.leaf(self.params[name])
        leaf.grad = self.grads.get(name)
        return leaf

    def bilstm(self, prefix: str, xs: ag.Tensor, mask: np.ndarray | None) -> ag.Tensor:
        """:func:`seqtag.autograd.bilstm` over the stacked weights of BiLSTM ``prefix``."""
        weights = (self.dense_leaf(f"{prefix}.{k}") for k in ("W_x", "W_h", "b", "w_ci", "w_co"))
        return ag.bilstm(xs, mask, *weights)

    def table_rows(
        self, name: str, matrix: np.ndarray, rows: np.ndarray, fallback: np.ndarray | None = None
    ) -> tuple[ag.Tensor, np.ndarray]:
        """The leaf of the distinct ``rows`` of ``matrix``, and where each row sits in it.

        A row of -1 reads the next row of the untracked ``fallback``,
        which is stacked under the leaf.
        """
        seen = rows >= 0
        distinct, inverse = np.unique(rows[seen], return_inverse=True)
        leaf = ag.leaf(matrix[distinct])
        self.tables[name] = (distinct, leaf)
        if len(inverse) == len(rows):
            return leaf, inverse
        index = np.empty(len(rows), dtype=np.intp)
        index[seen] = inverse
        index[~seen] = len(distinct) + np.arange(len(fallback))
        return ag.concat([leaf, ag.Tensor(fallback)], axis=0), index


def _char_final_states(model: ModelParameters, leaves: _LeafSet, enc: EncodedSentence) -> ag.Tensor:
    """(T, 2*H_c) final char-BiLSTM states for all tokens, from one fused op.

    Each direction gathers a (max_len, T, d_c) batch with every word's
    characters, reversed for the backward direction, from step 0 on.
    The carry mask is 0 past a word's end, so that word's state stops
    updating, and the last step holds each word's final state.  A padded
    step re-reads the sentence's first character: a masked step passes
    no gradient to its input, so padding adds no row to the gradient.
    """
    chars, index = leaves.table_rows("char_table", model.char_table, enc.chars)
    lengths = enc.word_lengths
    steps = np.arange(lengths.max())[:, None]
    mask = steps < lengths[None, :]  # (max_len, T)
    ends = np.cumsum(lengths)
    positions = np.stack([ends - lengths + steps, ends - 1 - steps])  # (2, max_len, T)
    states = leaves.bilstm("char", ag.take(chars, index[np.where(mask, positions, 0)]), mask)
    return ag.concat([ag.take(states, (0, -1)), ag.take(states, (1, -1))], axis=1)


def _representation_graph(
    model: ModelParameters,
    leaves: _LeafSet,
    enc: EncodedSentence,
    *,
    train: bool,
    dropout: float,
    rng: np.random.Generator | None,
    singletons: frozenset[str] = frozenset(),
) -> ag.Tensor:
    words = enc.words
    if train and singletons:
        # only the word lookup becomes <unk>; the char BiLSTM sees the real word
        swap = [t.surface in singletons and rng.random() < UNK_SWAP_RATE for t in enc.sentence]
        words = np.where(swap, 0, words)
    parts = [ag.take(*leaves.table_rows("word_table", model.word_table, words))]
    if model.use_char:
        parts.append(_char_final_states(model, leaves, enc))
    if model.use_features:
        for fam, rows in zip(model.feature_encoder.families, enc.features):
            name = f"feature:{fam.name}"
            parts.append(ag.take(*leaves.table_rows(name, fam.table, rows.rows, rows.fallback)))
    rep = ag.concat(parts, axis=1)
    if train and dropout > 0.0:
        mask = (rng.random(rep.shape) >= dropout) / (1.0 - dropout)
        rep = rep * ag.Tensor(mask)
    return rep


def _logits_graph(
    model: ModelParameters,
    leaves: _LeafSet,
    enc: EncodedSentence,
    *,
    train: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    singletons: frozenset[str] = frozenset(),
) -> ag.Tensor:
    rep = _representation_graph(
        model, leaves, enc, train=train, dropout=dropout, rng=rng, singletons=singletons
    )
    # each direction is a batch of one sequence; the backward one reads it reversed
    steps = np.arange(len(enc))
    order = np.stack([steps, steps[::-1]])
    states = leaves.bilstm("word", ag.take(rep, order[:, :, None]), None)  # (2, T, 1, H_w)
    hidden = ag.concat([ag.take(states, (d, order[d], 0)) for d in (0, 1)], axis=1)
    return ag.matmul(hidden, leaves.dense_leaf("projection"))


class TableRows(NamedTuple):
    """The distinct rows of one lookup table that a loss read, and their gradients."""

    index: np.ndarray  # (n,) table rows, ascending
    grad: np.ndarray  # (n, dim)

    def items(self):  # (row, gradient) pairs
        return zip(self.index.tolist(), self.grad)


@dataclass
class Gradients:
    """Gradients of one loss: ``flat`` is laid out like the model's
    buffer (by ``layout``), and ``rows`` holds the rows each lookup
    table gave the loss."""

    flat: np.ndarray
    rows: dict[str, TableRows]
    layout: dict[str, tuple[int, ...]]

    @property
    def dense(self) -> dict[str, np.ndarray]:
        """The dense gradients by the names of :func:`dense_arrays`, as views into ``flat``."""
        return _named(_carve(self.layout, self.flat))


def _gold_ids(scheme: TagScheme, gold_tags) -> np.ndarray:
    ids = []
    for tag in gold_tags:
        if tag not in scheme.index:
            raise TagValidationError(f"gold tag {tag!r} is not in the scheme")
        ids.append(scheme.index[tag])
    return np.asarray(ids, dtype=np.int64)


def loss_and_gradients(
    model: ModelParameters,
    sentence: Sentence | EncodedSentence,
    gold_tags,
    *,
    dropout: float = 0.0,
    dropout_seed: int = 0,
    singletons: frozenset[str] = frozenset(),
) -> tuple[float, Gradients]:
    """Sentence loss and gradients for every trainable parameter.

    ``blstm`` sums per-token cross-entropies; ``blstm_crf`` is the
    sequence NLL on the projected emission lattice.  Each token whose
    surface is in ``singletons`` reads the ``<unk>`` row instead of its
    own with probability ``UNK_SWAP_RATE``, so the row that unseen words
    get at inference is trained.  The swap and the dropout masks are
    drawn from one generator seeded by ``dropout_seed``: one draw per
    singleton token in token order, then the mask.  With a fixed seed
    the result is bitwise reproducible.
    """
    if model.variant not in ("blstm", "blstm_crf"):
        raise ConfigError(f"loss_and_gradients handles recurrent variants, not {model.variant!r}")
    if len(gold_tags) != len(sentence):
        raise ValueError("gold tag count must equal sentence length")

    gold = _gold_ids(model.scheme, gold_tags)
    grad = np.zeros_like(model.buffer)
    leaves = _LeafSet(model, grad)
    rng = np.random.default_rng(dropout_seed) if dropout > 0.0 or singletons else None
    logits = _logits_graph(
        model, leaves, _encoded(model, sentence),
        train=True, dropout=dropout, rng=rng, singletons=singletons,
    )
    if model.variant == "blstm":
        loss = ag.softmax_cross_entropy(logits, gold)
    else:
        loss = crf_nll_op(logits, leaves.dense_leaf("crf.transitions"), gold)
    ag.backward(loss)
    rows = {name: TableRows(index, leaf.grad) for name, (index, leaf) in leaves.tables.items()}
    return float(loss.data), Gradients(grad, rows, model.layout)


def sentence_logits(model: ModelParameters, sentence: Sentence | EncodedSentence) -> np.ndarray:
    """(T, K) emission/logit lattice with no dropout and no tape."""
    with ag.no_grad():
        return _logits_graph(model, _LeafSet(model), _encoded(model, sentence)).data


def forward_blstm(model: ModelParameters, sentence: Sentence | EncodedSentence) -> np.ndarray:
    """(T, K) per-token class posteriors; rows sum to one."""
    if model.variant != "blstm":
        raise ConfigError("forward_blstm applies to the softmax-output variant only")
    return ag.rows_softmax(sentence_logits(model, sentence))


def crf_inputs(model: ModelParameters, sentence: Sentence | EncodedSentence) -> np.ndarray:
    """(T, D) feature matrix for the transition-baseline tagger; one gather per table."""
    enc = _encoded(model, sentence)
    parts = [model.word_table[enc.words]]
    if model.use_features:
        families = model.feature_encoder.families
        parts += [rows.gather(fam.table) for rows, fam in zip(enc.features, families)]
    return np.concatenate(parts, axis=1)


def predict_tag_ids(model: ModelParameters, sentence: Sentence | EncodedSentence) -> list[int]:
    """Most likely tag indices; argmax per token or Viterbi per variant."""
    if model.variant == "crf":
        from .crf import emissions_from_inputs

        crf = model.crf  # carved from the buffer and checked on each access
        return viterbi(crf, emissions_from_inputs(crf, crf_inputs(model, sentence)))
    logits = sentence_logits(model, sentence)
    if model.variant == "blstm":
        return [int(k) for k in logits.argmax(axis=1)]
    return viterbi(model.crf, logits)
