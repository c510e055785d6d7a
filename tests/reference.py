"""Plain-numpy reference forward pass: the oracle the taped taggers are tested against.

One token at a time, one recurrence step at a time, no tape and no
dropout.  Words and characters outside their vocabularies read the
``<unk>`` row 0 of their table, as in :func:`seqtag.network.encode`.
"""

import numpy as np

from seqtag.errors import ConfigError
from seqtag.features import encode_surface
from seqtag.network import LstmCellParameters, ModelParameters, word_vector


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def lstm_step(
    cell: LstmCellParameters, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One recurrence step on plain numpy vectors; returns (h_t, c_t)."""
    x, h_prev, c_prev = np.asarray(x), np.asarray(h_prev), np.asarray(c_prev)
    if x.shape != (cell.input_dim,) or h_prev.shape != (cell.hidden_dim,) or c_prev.shape != (cell.hidden_dim,):
        raise ValueError(
            f"expected x ({cell.input_dim},), h and c ({cell.hidden_dim},); "
            f"got {x.shape}, {h_prev.shape}, {c_prev.shape}"
        )
    i = _sigmoid(cell.W_xi @ x + cell.W_hi @ h_prev + cell.w_ci * c_prev + cell.b_i)
    c = (1.0 - i) * c_prev + i * np.tanh(cell.W_xc @ x + cell.W_hc @ h_prev + cell.b_c)
    o = _sigmoid(cell.W_xo @ x + cell.W_ho @ h_prev + cell.w_co * c + cell.b_o)
    h = o * np.tanh(c)
    return h, c


def run_lstm(cell: LstmCellParameters, xs) -> list[np.ndarray]:
    """Hidden states over a sequence, starting from zero states."""
    h = np.zeros(cell.hidden_dim)
    c = np.zeros(cell.hidden_dim)
    states = []
    for x in xs:
        h, c = lstm_step(cell, x, h, c)
        states.append(h)
    return states


def bilstm(cell_fwd: LstmCellParameters, cell_bwd: LstmCellParameters, xs) -> list[np.ndarray]:
    """Per-position concatenation of forward and backward hidden states."""
    xs = list(xs)
    if not xs:
        raise ValueError("bilstm needs a non-empty input sequence")
    fwd = run_lstm(cell_fwd, xs)
    bwd = run_lstm(cell_bwd, xs[::-1])[::-1]
    return [np.concatenate([f, b]) for f, b in zip(fwd, bwd)]


def char_vector(model: ModelParameters, ch: str) -> np.ndarray:
    """The char-table row of ``ch``; unseen characters share the ``<unk>`` row."""
    return model.char_table[model.char_vocab.index.get(ch, 0)]


def char_embed(word: str, model: ModelParameters) -> np.ndarray:
    """Character-level word vector: final forward state ++ final backward state."""
    if not word:
        raise ValueError("cannot embed an empty word")
    if not model.use_char:
        raise ConfigError("model has no character-level components")
    vecs = [char_vector(model, ch) for ch in word]
    fwd = run_lstm(model.char_fwd, vecs)[-1]
    bwd = run_lstm(model.char_bwd, vecs[::-1])[-1]
    return np.concatenate([fwd, bwd])


def token_representation(model: ModelParameters, surface: str) -> np.ndarray:
    """Input vector of one token at inference: word ++ char-level vector ++ features."""
    parts = [word_vector(model, surface)]
    if model.use_char:
        parts.append(char_embed(surface, model))
    if model.use_features:
        parts.append(encode_surface(surface, model.feature_encoder))
    return np.concatenate(parts)


def sentence_logits(model: ModelParameters, surfaces) -> np.ndarray:
    """(T, K) logits: per-token representations, the word BiLSTM, the projection."""
    xs = [token_representation(model, w) for w in surfaces]
    return np.stack(bilstm(model.word_fwd, model.word_bwd, xs)) @ model.projection
