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

A word that misses the vocabulary, even after the lowercase fallback of
:func:`seqtag.embeddings.find`, reads the ``<unk>`` row at index 0 of the
word table.  That row is a trainable parameter like any other; training
keeps it informed by swapping learn-split singletons for ``<unk>`` at
random (see :func:`loss_and_gradients`).

Every tagger reads a sentence, or a batch, through :func:`encode`, which
maps each distinct surface, first seen first, to its word-table row, its
characters' char-table rows and its feature-family rows once, and each
token to its surface; a character outside the char vocabulary reads that
table's ``<unk>`` row 0, as words do.  A forward pass makes one leaf per
lookup table holding the distinct rows the sentence reads, and the
tokens gather from it with :func:`seqtag.autograd.take`.

Training gradients come from the reverse-mode tape in
:mod:`seqtag.autograd`; the binding correctness contract is agreement
with central finite differences, which the test suite checks for every
parameter family.

The dense parameters live in one flat float64 buffer.  Each BiLSTM
stacks its weights by direction (forward, backward) and, within one, by
gate (input, candidate, output; row blocks of H): ``W_x`` (2, 3H, D),
``W_h`` (2, 3H, H), ``b`` (2, 3H), ``w_ci`` and ``w_co`` (2, H).  The
checkpoint names that :func:`dense_arrays` gives each direction's gate
weights (``word_fwd.W_xi`` and so on) are views of those blocks.  A
forward pass makes one leaf per stacked array and runs both directions
of each BiLSTM as one fused tape node, :func:`seqtag.autograd.bilstm`:
the char BiLSTM runs the distinct spellings, and the word BiLSTM the
sentences, of a batch, each forward and reversed and unmasked: a word
reads its final states at its last character, and a token its states
at its own step, before any padding.  The op projects each of its input
rows once, and each step gathers its row's projection.  Its loops keep
their data time-major, every gate of a step one contiguous (2, B, H)
block, since numpy's cost per call about doubles on strided operands
of these sizes; the (2, L, B, H) states it returns are a view.  The char
BiLSTM's rows are the batch's distinct characters.  The word BiLSTM's
are one per token in training, where dropout and the ``<unk>`` swap are
drawn per token, and one per distinct surface when decoding, where a
surface's representation is the same wherever it occurs.  Each dense
array's gradient is the one value its leaf holds after the backward
pass (see :class:`Gradients`): the array its first contribution made,
with any later ones added, or, for a BiLSTM's ``W_x`` on a short
sentence, its two factors (see :func:`seqtag.autograd.bilstm`).  An
array that no operation reached has no gradient.

Training runs that forward pass on one sentence at a time; tagging and
validation run it, once, on each batch of :func:`batches`, whose padded
words and padded characters are capped by :data:`BATCH_TOKENS` and
:data:`BATCH_CHARS`, so the arrays of a long input stay bounded.  The
crf baseline has no recurrent pass: training and decoding both gather
and weigh one input row per distinct surface of a sentence or batch, not
per token (:func:`crf_inputs`), and each token reads its surface's
lattice row.  Decoding runs one Viterbi call per batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import autograd as ag
from .corpus import Sentence, TagScheme
from .crf import crf_nll_op, viterbi
from .embeddings import Vocabulary, build_vocabulary, find
from .errors import ConfigError, TagValidationError
from .features import FamilyRows, FeatureEncoder, build_feature_encoder
# no tagger calls encode_surface; it stays bound because benchmarks/spans.py patches it here
from .features import encode_surface  # noqa: F401

if TYPE_CHECKING:
    from .training import TrainConfig

CELL_FIELDS = ("W_xi", "W_hi", "w_ci", "W_xc", "W_hc", "W_xo", "W_ho", "w_co", "b_i", "b_c", "b_o")

VARIANTS = ("crf", "blstm", "blstm_crf")

UNK_SWAP_RATE = 0.5  # chance that a training singleton reads <unk> (Lample et al. 2016, §4)

# Caps on one decoding batch (see batches): padded tokens (sentences times
# the longest) and padded characters (words times the longest word).  At
# the paper's dimensions with features, decoding a batch of distinct words
# at the token cap peaks at about 28 MB of arrays, and one at the char cap
# at about 10 MB; a larger cap tagged at most 10% faster.
BATCH_TOKENS = 2048
BATCH_CHARS = 4096


def carve(layout: dict[str, tuple[int, ...]], flat: np.ndarray) -> dict[str, np.ndarray]:
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
    order.  ``params`` holds views carved from ``buffer`` on each access,
    so a copy reads its own buffer.
    """

    scheme: TagScheme
    variant: str
    vocab: Vocabulary
    word_table: np.ndarray  # (V, d_w)
    char_vocab: Vocabulary | None = None
    char_table: np.ndarray | None = None  # (C, d_c)
    feature_encoder: FeatureEncoder | None = None
    layout: dict[str, tuple[int, ...]] = field(default_factory=dict)
    buffer: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Each stacked dense array by its layout name, as a view into ``buffer``."""
        return carve(self.layout, self.buffer)

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
    word_table: np.ndarray,
    feature_surfaces: Iterable[str],
    char_alphabet: Iterable[str],
) -> ModelParameters:
    """Build the model that ``config`` describes; the default
    initialization is uniform [-1, 1].

    The model's word table is ``word_table`` itself, not a copy: one row
    per word of ``vocab``, in order (see :func:`seqtag.embeddings.assemble`);
    everything else, including feature-value encodings, is random.
    Lookup tables always use [-1, 1] regardless of the ``init`` mode;
    ``init="scaled"`` switches the network weights to fan-scaled ranges:
    Glorot-uniform matrices, small peepholes and zero biases, which
    converge much faster at desk scale but are not the faithful default.
    Each dense array is drawn in place into the buffer, in the order of
    :func:`dense_arrays`.
    """
    rng = np.random.default_rng(config.seed)
    model = ModelParameters(scheme, config.variant, vocab, word_table)
    if config.use_features:
        model.feature_encoder = build_feature_encoder(feature_surfaces, config.seed, vocab.index)
    if config.use_char:
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


@dataclass(frozen=True)
class EncodedSentence:
    """A sentence, or a batch of sentences end to end, as the table rows
    of its S distinct surfaces, first seen first, and each of its T
    tokens' surface.  It holds indices, not vectors, so every forward
    pass reads the live tables when it gathers.
    """

    surfaces: tuple[str, ...]  # (T,)
    words: np.ndarray  # (S,) word-table rows
    chars: np.ndarray  # each distinct surface's char-table rows, concatenated
    word_lengths: np.ndarray  # (S,) characters of each distinct surface
    spellings: np.ndarray  # (T,) each token's distinct surface
    features: tuple[FamilyRows, ...]  # (S,) rows per feature family; empty without features
    lengths: np.ndarray  # (B,) tokens of each sentence, in order

    def __len__(self) -> int:
        return len(self.spellings)


def encode(model: ModelParameters, sentences: Sequence[Sentence]) -> EncodedSentence:
    """Number the distinct surfaces of ``sentences``, end to end as one
    batch, first seen first, and map each to its word-, char- and
    feature-table rows once, so the char BiLSTM runs it, and decoding
    represents it, once.  A word or a character outside its vocabulary
    reads the ``<unk>`` row 0.  The encoder keeps the feature rows of an
    exact vocabulary word the first time they are met (see
    :meth:`FeatureEncoder.rows`), so a later batch computes family values
    only for the other surfaces.
    A tag outside the model's scheme raises :class:`TagValidationError`.
    """
    surfaces = tuple(w for sent in sentences for w in sent.surfaces)
    for tag in (t for sent in sentences for t in sent.gold_tags):
        if tag is not None and tag not in model.scheme:
            raise TagValidationError(
                f"input tag {tag!r} does not belong to the model's tag scheme {model.scheme.classes}"
            )
    first: dict[str, int] = {}  # each distinct surface's entry, in first-seen order
    spellings = np.array([first.setdefault(w, len(first)) for w in surfaces], dtype=np.intp)
    distinct = list(first)
    words = np.array([find(model.vocab.index, w, 0) for w in distinct], dtype=np.intp)
    chars = lengths = np.zeros(0, dtype=np.intp)
    if model.use_char:
        index = model.char_vocab.index
        chars = np.array([index.get(ch, 0) for w in distinct for ch in w], dtype=np.intp)
        lengths = np.array([len(w) for w in distinct], dtype=np.intp)
    features = model.feature_encoder.rows(distinct) if model.use_features else ()
    sizes = np.array([len(sent) for sent in sentences])
    return EncodedSentence(surfaces, words, chars, lengths, spellings, features, sizes)


def batches(model: ModelParameters, sentences: Iterable[Sentence]) -> Iterator[EncodedSentence]:
    """The decoding batches of ``sentences``, grouped in input order and
    encoded one at a time.

    A batch grows while both of its padded sizes stay within the caps:
    sentences times the longest sentence within :data:`BATCH_TOKENS`, and,
    for a char model, words times the longest word within
    :data:`BATCH_CHARS`.  A sentence over either cap is a batch alone.
    The char cap counts every word, not only the distinct spellings the
    char BiLSTM runs: that keeps the grouping, and so the word BiLSTM's
    products, which BLAS rounds by batch size, bitwise as they were.
    """
    group, longest, words, longest_word = [], 0, 0, 0
    for sent in sentences:
        n = len(sent)
        word = max(map(len, sent.surfaces), default=0) if model.use_char else 0
        if group and (
            (len(group) + 1) * max(longest, n) > BATCH_TOKENS
            or (words + n) * max(longest_word, word) > BATCH_CHARS
        ):
            yield encode(model, group)
            group, longest, words, longest_word = [], 0, 0, 0
        group.append(sent)
        longest, words, longest_word = max(longest, n), words + n, max(longest_word, word)
    if group:
        yield encode(model, group)


def _time_first(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (2, L, B) row each step of B sequences stored end to end reads,
    forward and backward, and the (L, B) mask of steps within a sequence.
    A step past a sequence's end reads row 0 and, read by no caller,
    passes it no gradient."""
    steps = np.arange(lengths.max())[:, None]
    mask = steps < lengths[None, :]
    ends = np.cumsum(lengths)
    rows = np.stack([ends - lengths + steps, ends - 1 - steps])
    return np.where(mask, rows, 0), mask


class _LeafSet:
    """Parameter leaves of one forward pass: one per stacked dense array, and
    for each lookup table one leaf of the distinct rows the sentence reads."""

    def __init__(self, model: ModelParameters):
        self.params = model.params
        self.dense: dict[str, ag.Tensor] = {}  # one leaf per name, so one gradient per array
        self.tables: dict[str, tuple[np.ndarray, ag.Tensor]] = {}

    def dense_leaf(self, name: str) -> ag.Tensor:
        leaf = self.dense.get(name)
        if leaf is None:
            leaf = self.dense[name] = ag.leaf(self.params[name])
        return leaf

    def gradients(self) -> Gradients:
        """The gradients the backward pass left on the leaves."""
        rows = {name: TableRows(index, leaf.grad) for name, (index, leaf) in self.tables.items()}
        arrays = {name: leaf.grad for name, leaf in self.dense.items() if leaf.grad is not None}
        return Gradients(arrays, rows)

    def bilstm(self, prefix: str, xs: ag.Tensor, steps: np.ndarray) -> ag.Tensor:
        """:func:`seqtag.autograd.bilstm` over the stacked weights of BiLSTM ``prefix``."""
        weights = (self.dense_leaf(f"{prefix}.{k}") for k in ("W_x", "W_h", "b", "w_ci", "w_co"))
        return ag.bilstm(xs, steps, *weights)

    def table_rows(
        self, name: str, matrix: np.ndarray, rows: np.ndarray, fallback: np.ndarray | None = None
    ) -> tuple[ag.Tensor, np.ndarray]:
        """The leaf of the distinct ``rows`` of ``matrix``, and where each row sits in it.

        A row ``-1 - k`` reads row ``k`` of the untracked ``fallback``,
        which is stacked under the leaf.
        """
        seen = rows >= 0
        distinct, inverse = np.unique(rows[seen], return_inverse=True)
        leaf = ag.leaf(matrix[distinct])
        self.tables[name] = (distinct, leaf)
        if len(inverse) == len(rows):
            return leaf, inverse
        index = len(distinct) - 1 - rows  # fallback row k sits at len(distinct) + k
        index[seen] = inverse
        return ag.concat([leaf, ag.Tensor(fallback)], axis=0), index


def _char_final_states(model: ModelParameters, leaves: _LeafSet, enc: EncodedSentence) -> ag.Tensor:
    """(S, 2*H_c) final char-BiLSTM states of each distinct spelling, from one fused op.

    The op projects each distinct character of the batch once; each
    direction's step reads its spelling's character, the backward
    direction from the last one, from step 0 on.  A spelling's states
    are both directions' at its own last step, before any padding.
    """
    chars, index = leaves.table_rows("char_table", model.char_table, enc.chars)
    states = leaves.bilstm("char", chars, index[_time_first(enc.word_lengths)[0]])
    ends, spelling = enc.word_lengths - 1, np.arange(len(enc.word_lengths))
    return ag.concat([ag.take(states, (d, ends, spelling)) for d in (0, 1)], axis=1)


def _representation_graph(
    model: ModelParameters,
    leaves: _LeafSet,
    enc: EncodedSentence,
    *,
    train: bool,
    dropout: float,
    rng: np.random.Generator | None,
    singletons: frozenset[str] = frozenset(),
) -> tuple[ag.Tensor, np.ndarray]:
    """The word BiLSTM's input rows and the (T,) row each token reads.

    Training makes one row per token, since dropout and the ``<unk>``
    swap are drawn per token; decoding makes one per distinct surface.
    """
    # training gathers each token's surface rows; decoding reads the distinct rows as they are
    at, reads = (enc.spellings, np.arange(len(enc))) if train else (slice(None), enc.spellings)
    words = enc.words[at]
    if train and singletons:
        # only the word lookup becomes <unk>; the char BiLSTM sees the real word
        swap = [w in singletons and rng.random() < UNK_SWAP_RATE for w in enc.surfaces]
        words = np.where(swap, 0, words)
    parts = [ag.take(*leaves.table_rows("word_table", model.word_table, words))]
    if model.use_char:
        parts.append(ag.take(_char_final_states(model, leaves, enc), at))
    if model.use_features:
        for fam, rows in zip(model.feature_encoder.families, enc.features):
            name = f"feature:{fam.name}"
            found = leaves.table_rows(name, fam.table, rows.rows[at], rows.fallback)
            parts.append(ag.take(*found))
    rep = ag.concat(parts, axis=1)
    if train and dropout > 0.0:
        mask = (rng.random(rep.shape) >= dropout) / (1.0 - dropout)
        rep = ag.mul(rep, ag.Tensor(mask))
    return rep, reads


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
    rep, reads = _representation_graph(
        model, leaves, enc, train=train, dropout=dropout, rng=rng, singletons=singletons
    )
    # one sequence per sentence; the backward direction reads each reversed
    rows, mask = _time_first(enc.lengths)
    states = leaves.bilstm("word", rep, reads[rows])
    sent, pos = np.nonzero(mask.T)  # each token's sentence and position, in token order
    back = (0, pos, sent), (1, enc.lengths[sent] - 1 - pos, sent)
    hidden = ag.concat([ag.take(states, index) for index in back], axis=1)
    return ag.matmul(hidden, leaves.dense_leaf("projection"))


class TableRows(NamedTuple):
    """The distinct rows of one lookup table that a loss read, and their gradients."""

    index: np.ndarray  # (n,) table rows, ascending
    grad: np.ndarray  # (n, dim)


@dataclass
class Gradients:
    """Gradients of one loss.  ``arrays`` holds each stacked dense array's
    gradient by its layout name: an array of its shape, or an
    :class:`seqtag.autograd.Outer` that stands for one.  An array that
    no operation reached has no entry.  ``rows`` holds the rows each
    lookup table gave the loss.  No two of these arrays share memory,
    and none shares it with the model, so an update may scale them in
    place."""

    arrays: dict[str, np.ndarray | ag.Outer]
    rows: dict[str, TableRows]

    @property
    def dense(self) -> dict[str, np.ndarray]:
        """The dense gradients by the names of :func:`dense_arrays`, each
        :class:`seqtag.autograd.Outer` written out into a new array."""
        return _named({
            name: g.fill() if isinstance(g, ag.Outer) else g for name, g in self.arrays.items()
        })


def gold_ids(scheme: TagScheme, gold_tags) -> np.ndarray:
    """Each gold tag's index; a tag outside ``scheme`` raises :class:`TagValidationError`."""
    try:
        return np.array([scheme.index[tag] for tag in gold_tags], dtype=np.int64)
    except KeyError as missing:
        raise TagValidationError(f"gold tag {missing.args[0]!r} is not in the scheme") from None


def loss_and_gradients(
    model: ModelParameters,
    sentence: EncodedSentence,
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

    gold = gold_ids(model.scheme, gold_tags)
    leaves = _LeafSet(model)
    rng = np.random.default_rng(dropout_seed) if dropout > 0.0 or singletons else None
    logits = _logits_graph(
        model, leaves, sentence,
        train=True, dropout=dropout, rng=rng, singletons=singletons,
    )
    if model.variant == "blstm":
        loss = ag.softmax_cross_entropy(logits, gold)
    else:
        loss = crf_nll_op(logits, leaves.dense_leaf("crf.transitions"), gold)
    ag.backward(loss)
    return float(loss.data), leaves.gradients()


def sentence_logits(model: ModelParameters, enc: EncodedSentence) -> np.ndarray:
    """(T, K) emission/logit lattice with no dropout and no tape; a batch's are stacked."""
    with ag.no_grad():
        return _logits_graph(model, _LeafSet(model), enc).data


def crf_inputs(model: ModelParameters, enc: EncodedSentence) -> np.ndarray:
    """The crf baseline's (S, D) inputs, word then feature vectors, of the
    distinct surfaces of ``enc``, each table gathered once; in training and
    decoding alike, token t reads row ``enc.spellings[t]``."""
    parts = [model.word_table[enc.words]]
    if model.use_features:
        families = model.feature_encoder.families
        parts += [r.gather(fam.table) for r, fam in zip(enc.features, families)]
    return np.concatenate(parts, axis=1)


def predict_tag_ids(model: ModelParameters, enc: EncodedSentence) -> list[int]:
    """Most likely tag indices, argmax per token or Viterbi per variant; a
    batch (see :func:`batches`) is decoded at once and its ids stacked.

    The crf baseline weighs the inputs of the batch's distinct surfaces
    with one product, and each token's lattice row is its surface's.
    BLAS rounds a row by the product's size, so the lattices, like the
    recurrent logits, are bitwise those of the same batch only.
    """
    if model.variant == "crf":
        params = model.params
        weighed = crf_inputs(model, enc) @ params["crf.emission_weights"].T
        return viterbi(params["crf.transitions"], weighed[enc.spellings], enc.lengths)
    logits = sentence_logits(model, enc)
    if model.variant == "blstm":
        return logits.argmax(axis=1).tolist()
    return viterbi(model.params["crf.transitions"], logits, enc.lengths)
