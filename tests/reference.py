"""Plain-numpy reference forward pass: the oracle the taped taggers are tested against.

One token at a time, one recurrence step at a time, no tape and no
dropout.  Words and characters outside their vocabularies read the
``<unk>`` row 0 of their table, as in :func:`seqtag.network.encode`.

The per-key random draw is here too, one numpy ``Generator`` per key: the
oracle of :func:`seqtag.embeddings.hashed_uniform`, which draws every
row of a call at once.  So is a plain clipped SGD step on whole dense
gradients, the oracle of :func:`seqtag.training.sgd_update`.
"""

import hashlib
import math

import numpy as np

from seqtag.errors import ConfigError
from seqtag.features import encode_surface
from seqtag.network import CELL_FIELDS, ModelParameters, dense_arrays, table_arrays


def key_seed(key, seed: int) -> int:
    """The 64-bit seed of ``key``: the first 8 bytes, little-endian, of the
    SHA-256 digest of its parts and ``seed`` joined by ``"\\x1f"``."""
    material = "\x1f".join(str(k) for k in key) + f"\x1f{seed}"
    return int.from_bytes(hashlib.sha256(material.encode("utf-8")).digest()[:8], "little")


def seeded_uniform(seed64: int, dim: int) -> np.ndarray:
    """numpy's uniform [-1, 1] vector of ``dim`` values for the 64-bit seed ``seed64``."""
    return np.random.Generator(np.random.PCG64(seed64)).uniform(-1.0, 1.0, dim)


def hashed_uniform_row(key, seed: int, dim: int) -> np.ndarray:
    """The deterministic uniform [-1, 1] vector of ``(key, seed)``, drawn alone."""
    return seeded_uniform(key_seed(key, seed), dim)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def lstm_step(
    cell: dict[str, np.ndarray], x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One recurrence step on plain numpy vectors; returns (h_t, c_t).

    ``cell`` holds one direction's weights by the names of ``CELL_FIELDS``.
    """
    x, h_prev, c_prev = np.asarray(x), np.asarray(h_prev), np.asarray(c_prev)
    H, D = cell["W_xi"].shape
    if x.shape != (D,) or h_prev.shape != (H,) or c_prev.shape != (H,):
        raise ValueError(
            f"expected x ({D},), h and c ({H},); got {x.shape}, {h_prev.shape}, {c_prev.shape}"
        )
    i = _sigmoid(cell["W_xi"] @ x + cell["W_hi"] @ h_prev + cell["w_ci"] * c_prev + cell["b_i"])
    c = (1.0 - i) * c_prev + i * np.tanh(cell["W_xc"] @ x + cell["W_hc"] @ h_prev + cell["b_c"])
    o = _sigmoid(cell["W_xo"] @ x + cell["W_ho"] @ h_prev + cell["w_co"] * c + cell["b_o"])
    h = o * np.tanh(c)
    return h, c


def run_lstm(cell: dict[str, np.ndarray], xs) -> list[np.ndarray]:
    """Hidden states over a sequence, starting from zero states."""
    h = np.zeros(len(cell["W_xi"]))
    c = np.zeros(len(cell["W_xi"]))
    states = []
    for x in xs:
        h, c = lstm_step(cell, x, h, c)
        states.append(h)
    return states


def bilstm(cell_fwd: dict, cell_bwd: dict, xs) -> list[np.ndarray]:
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
    views = dense_arrays(model)
    fwd, bwd = ({f: views[f"char_{d}.{f}"] for f in CELL_FIELDS} for d in ("fwd", "bwd"))
    return np.concatenate([run_lstm(fwd, vecs)[-1], run_lstm(bwd, vecs[::-1])[-1]])


def token_representation(model: ModelParameters, surface: str) -> np.ndarray:
    """Input vector of one token at inference: word ++ char-level vector ++ features."""
    index = model.vocab.index  # exact match, then lowercased, then <unk>
    parts = [model.word_table[index.get(surface, index.get(surface.lower(), 0))]]
    if model.use_char:
        parts.append(char_embed(surface, model))
    if model.use_features:
        parts.append(encode_surface(surface, model.feature_encoder))
    return np.concatenate(parts)


def sentence_logits(model: ModelParameters, surfaces) -> np.ndarray:
    """(T, K) logits: per-token representations, the word BiLSTM, the projection."""
    xs = [token_representation(model, w) for w in surfaces]
    views = dense_arrays(model)
    fwd, bwd = ({f: views[f"word_{d}.{f}"] for f in CELL_FIELDS} for d in ("fwd", "bwd"))
    return np.stack(bilstm(fwd, bwd, xs)) @ model.params["projection"]


def sgd_update(model: ModelParameters, dense: dict, rows: dict, lr: float, clip_norm: float):
    """The arrays one clipped SGD step would give ``model``, and the norm.

    ``dense`` holds a whole gradient for each stacked array of
    ``model.params`` by its layout name; ``rows`` holds ``(index, grad)``
    for each lookup table by its :func:`table_arrays` name.  Returns new
    arrays by those names and the gradient norm before clipping (None
    when ``clip_norm`` is 0); ``model`` is left as it is.
    """
    grads = [*dense.values(), *(grad for _, grad in rows.values())]
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    step = lr * clip_norm / norm if clip_norm and norm > clip_norm else lr
    out = {name: arr - step * dense[name] for name, arr in model.params.items()}
    tables = table_arrays(model)
    for name, (index, grad) in rows.items():
        out[name] = tables[name].copy()
        out[name][index] -= step * grad
    return out, (norm if clip_norm else None)
