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
parameter family.  Each directional LSTM is one fused tape node,
:func:`seqtag.autograd.lstm`, over a padded (steps, batch, input)
array: the word BiLSTM runs the sentence as a batch of one, forward
and reversed, and each char direction runs all words of the sentence
as one batch whose carry mask stops a word's state at its last
character.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .corpus import Sentence, TagScheme
from .crf import CrfParameters, crf_nll_op, viterbi
from .embeddings import EmbeddingTable, Vocabulary
from .errors import ConfigError, TagValidationError
from .features import FamilyRows, FeatureEncoder
# no tagger calls encode_surface; it stays bound because benchmarks/spans.py patches it here
from .features import encode_surface  # noqa: F401

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

    def __post_init__(self):
        h, d = self.W_xi.shape
        expected = {
            "W_xi": (h, d), "W_hi": (h, h), "w_ci": (h,),
            "W_xc": (h, d), "W_hc": (h, h),
            "W_xo": (h, d), "W_ho": (h, h), "w_co": (h,),
            "b_i": (h,), "b_c": (h,), "b_o": (h,),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {getattr(self, name).shape}")


def init_cell(
    input_dim: int, hidden_dim: int, rng: np.random.Generator, init: str = "uniform"
) -> LstmCellParameters:
    """Cell weights: uniform [-1, 1] by default, or fan-scaled.

    The scaled mode draws matrices from the Glorot-uniform range, keeps
    peepholes small, and zeroes biases; it converges much faster at
    desk scale but is not the faithful default.
    """
    if init == "uniform":
        u = lambda *shape: rng.uniform(-1.0, 1.0, shape)  # noqa: E731
        w_x = w_h = u
        peep = lambda h: u(h)  # noqa: E731
        bias = lambda h: u(h)  # noqa: E731
    elif init == "scaled":
        w_x = lambda h, d: rng.uniform(-1.0, 1.0, (h, d)) * np.sqrt(6.0 / (h + d))  # noqa: E731
        w_h = lambda h, h2: rng.uniform(-1.0, 1.0, (h, h2)) * np.sqrt(6.0 / (h + h2))  # noqa: E731
        peep = lambda h: rng.uniform(-0.1, 0.1, h)  # noqa: E731
        bias = lambda h: np.zeros(h)  # noqa: E731
    else:
        raise ValueError(f"unknown init mode {init!r}")
    return LstmCellParameters(
        W_xi=w_x(hidden_dim, input_dim), W_hi=w_h(hidden_dim, hidden_dim), w_ci=peep(hidden_dim),
        W_xc=w_x(hidden_dim, input_dim), W_hc=w_h(hidden_dim, hidden_dim),
        W_xo=w_x(hidden_dim, input_dim), W_ho=w_h(hidden_dim, hidden_dim), w_co=peep(hidden_dim),
        b_i=bias(hidden_dim), b_c=bias(hidden_dim), b_o=bias(hidden_dim),
    )


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------


@dataclass
class ModelParameters:
    """Every trainable tensor of one tagger, plus its lookup vocabularies."""

    scheme: TagScheme
    variant: str
    vocab: Vocabulary
    word_table: np.ndarray  # (V, d_w)
    seed: int  # keys only the checkpoint meta and the feature fallbacks
    char_vocab: Vocabulary | None = None
    char_table: np.ndarray | None = None  # (C, d_c)
    feature_encoder: FeatureEncoder | None = None
    char_fwd: LstmCellParameters | None = None
    char_bwd: LstmCellParameters | None = None
    word_fwd: LstmCellParameters | None = None
    word_bwd: LstmCellParameters | None = None
    projection: np.ndarray | None = None  # (2*H_w, K)
    crf: CrfParameters | None = None

    @property
    def d_w(self) -> int:
        return self.word_table.shape[1]

    @property
    def use_char(self) -> bool:
        return self.char_fwd is not None

    @property
    def use_features(self) -> bool:
        return self.feature_encoder is not None

    @property
    def num_tags(self) -> int:
        return len(self.scheme)

    @property
    def rep_dim(self) -> int:
        dim = self.d_w
        if self.use_char:
            dim += 2 * self.char_fwd.hidden_dim
        if self.use_features:
            dim += self.feature_encoder.total_dim
        return dim


def init_model(
    scheme: TagScheme,
    vocab: Vocabulary,
    word_table: EmbeddingTable,
    *,
    variant: str,
    use_char: bool,
    use_features: bool,
    d_c: int,
    H_c: int,
    H_w: int,
    seed: int,
    feature_surfaces=(),
    char_alphabet=(),
    init: str = "uniform",
) -> ModelParameters:
    """Build a model; the default initialization is uniform [-1, 1].

    Word vectors are copied from the (already assembled) ``word_table``;
    everything else, including feature-value encodings, is random.
    Lookup tables always use [-1, 1] regardless of the ``init`` mode;
    ``init="scaled"`` switches the network weights to fan-scaled ranges.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "crf" and use_char:
        raise ConfigError("character-level embeddings are only available in the recurrent taggers")

    rng = np.random.default_rng(seed)
    K = len(scheme)

    def dense_init(*shape):
        if init == "scaled":
            return rng.uniform(-1.0, 1.0, shape) * np.sqrt(6.0 / sum(shape))
        return rng.uniform(-1.0, 1.0, shape)

    matrix = np.stack([word_table.entries[w] for w in vocab.words])
    model = ModelParameters(scheme, variant, vocab, matrix, seed)

    if use_features:
        from .features import build_feature_encoder

        model.feature_encoder = build_feature_encoder(feature_surfaces, seed)

    if variant == "crf":
        crf_dim = model.d_w + (model.feature_encoder.total_dim if use_features else 0)
        model.crf = CrfParameters(
            dense_init(K + 1, K + 1),
            dense_init(K, crf_dim),
        )
        return model

    if use_char:
        from .embeddings import build_vocabulary

        model.char_vocab = build_vocabulary(char_alphabet)
        model.char_table = rng.uniform(-1.0, 1.0, (len(model.char_vocab), d_c))
        model.char_fwd = init_cell(d_c, H_c, rng, init)
        model.char_bwd = init_cell(d_c, H_c, rng, init)

    model.word_fwd = init_cell(model.rep_dim, H_w, rng, init)
    model.word_bwd = init_cell(model.rep_dim, H_w, rng, init)
    model.projection = dense_init(2 * H_w, K)
    if variant == "blstm_crf":
        model.crf = CrfParameters(dense_init(K + 1, K + 1))
    return model


def dense_arrays(model: ModelParameters) -> dict[str, np.ndarray]:
    """Every non-lookup parameter array, keyed by a stable name."""
    out: dict[str, np.ndarray] = {}
    for cell_name in ("char_fwd", "char_bwd", "word_fwd", "word_bwd"):
        cell = getattr(model, cell_name)
        if cell is not None:
            for f in CELL_FIELDS:
                out[f"{cell_name}.{f}"] = getattr(cell, f)
    if model.projection is not None:
        out["projection"] = model.projection
    if model.crf is not None:
        out["crf.transitions"] = model.crf.transitions
        if model.crf.emission_weights is not None:
            out["crf.emission_weights"] = model.crf.emission_weights
    return out


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
    """Parameter leaves of one forward pass: each dense array, and for each
    lookup table one leaf of the distinct rows the sentence reads."""

    def __init__(self):
        self.dense: dict[str, ag.Tensor] = {}
        self.tables: dict[str, tuple[np.ndarray, ag.Tensor]] = {}

    def dense_leaf(self, name: str, arr: np.ndarray) -> ag.Tensor:
        t = self.dense.get(name)
        if t is None:
            t = self.dense[name] = ag.leaf(arr)
        return t

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


def _cell_leaves(leaves: _LeafSet, name: str, cell: LstmCellParameters) -> dict[str, ag.Tensor]:
    return {f: leaves.dense_leaf(f"{name}.{f}", getattr(cell, f)) for f in CELL_FIELDS}


def _char_final_states(model: ModelParameters, leaves: _LeafSet, enc: EncodedSentence) -> ag.Tensor:
    """(T, 2*H_c) final char-BiLSTM states for all tokens, one fused op per direction.

    Each direction gathers a (max_len, T, d_c) batch with every word's
    characters, reversed for the backward cell, from step 0 on.  The
    carry mask is 0 past a word's end, so that word's state stops
    updating, and the last step holds each word's final state.  A padded
    step re-reads the sentence's first character: a masked step passes
    no gradient to its input, so padding adds no row to the gradient.
    """
    chars, index = leaves.table_rows("char_table", model.char_table, enc.chars)
    lengths = enc.word_lengths
    steps = np.arange(lengths.max())[:, None]
    mask = steps < lengths[None, :]  # (max_len, T)
    ends = np.cumsum(lengths)
    finals = []
    starts = ends - lengths
    for cell_name, position in (("char_fwd", starts + steps), ("char_bwd", ends - 1 - steps)):
        batch = ag.take(chars, index[np.where(mask, position, 0)])
        states = ag.lstm(batch, mask, _cell_leaves(leaves, cell_name, getattr(model, cell_name)))
        finals.append(ag.take(states, -1))
    return ag.concat(finals, axis=1)


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
    # each direction is a batch of one sequence; the backward cell reads it reversed
    steps = np.arange(len(enc))
    hidden = []
    for cell_name, order in (("word_fwd", steps), ("word_bwd", steps[::-1])):
        cl = _cell_leaves(leaves, cell_name, getattr(model, cell_name))
        states = ag.lstm(ag.take(rep, order[:, None]), None, cl)  # (T, 1, H_w)
        hidden.append(ag.take(states, (order, 0)))  # back to sentence order
    hidden = ag.concat(hidden, axis=1)
    return ag.matmul(hidden, leaves.dense_leaf("projection", model.projection))


@dataclass
class Gradients:
    """Gradients of one loss: dense arrays plus sparse lookup-table rows."""

    dense: dict[str, np.ndarray]
    rows: dict[str, dict[int, np.ndarray]]

    def l2_norm(self) -> float:
        total = sum(float((g * g).sum()) for g in self.dense.values())
        total += sum(
            float((g * g).sum()) for table in self.rows.values() for g in table.values()
        )
        return float(np.sqrt(total))

    def scale(self, factor: float):
        for g in self.dense.values():
            g *= factor
        for table in self.rows.values():
            for g in table.values():
                g *= factor


def _gold_ids(scheme: TagScheme, gold_tags) -> np.ndarray:
    ids = []
    for tag in gold_tags:
        if tag not in scheme.index:
            raise TagValidationError(f"gold tag {tag!r} is not in the scheme")
        ids.append(scheme.index[tag])
    return np.asarray(ids, dtype=np.int64)


def _harvest(leaves: _LeafSet) -> Gradients:
    """Dense gradients by name, and each table leaf's gradient split back into its rows."""
    grad = lambda t: t.grad if t.grad is not None else np.zeros_like(t.data)  # noqa: E731
    dense = {name: grad(t) for name, t in leaves.dense.items()}
    rows = {
        table: dict(zip(distinct.tolist(), grad(t)))
        for table, (distinct, t) in leaves.tables.items()
        if len(distinct)
    }
    return Gradients(dense, rows)


def loss_and_gradients(
    model: ModelParameters,
    sentence: Sentence | EncodedSentence,
    gold_tags,
    variant: str | None = None,
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
    variant = variant or model.variant
    if variant not in ("blstm", "blstm_crf"):
        raise ConfigError(f"loss_and_gradients handles the recurrent variants, not {variant!r}")
    if variant == "blstm_crf" and model.crf is None:
        raise ConfigError("model has no transition parameters for the blstm_crf variant")
    if len(gold_tags) != len(sentence):
        raise ValueError("gold tag count must equal sentence length")

    gold = _gold_ids(model.scheme, gold_tags)
    leaves = _LeafSet()
    rng = np.random.default_rng(dropout_seed) if dropout > 0.0 or singletons else None
    logits = _logits_graph(
        model, leaves, _encoded(model, sentence),
        train=True, dropout=dropout, rng=rng, singletons=singletons,
    )
    if variant == "blstm":
        loss = ag.softmax_cross_entropy(logits, gold)
    else:
        transitions = leaves.dense_leaf("crf.transitions", model.crf.transitions)
        loss = crf_nll_op(logits, transitions, gold)
    ag.backward(loss)
    return float(loss.data), _harvest(leaves)


def sentence_logits(model: ModelParameters, sentence: Sentence | EncodedSentence) -> np.ndarray:
    """(T, K) emission/logit lattice with no dropout and no tape."""
    with ag.no_grad():
        return _logits_graph(model, _LeafSet(), _encoded(model, sentence)).data


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

        emissions = emissions_from_inputs(model.crf, crf_inputs(model, sentence))
        return viterbi(model.crf, emissions)
    logits = sentence_logits(model, sentence)
    if model.variant == "blstm":
        return [int(k) for k in logits.argmax(axis=1)]
    return viterbi(model.crf, logits)
