"""Word-vector training from windowed co-occurrence counts.

Counts are collected symmetrically over a fixed window with 1/distance
weighting in one vectorized pass, each pair's events summed in corpus
order, into a (word, context, count) array.  Word and context vectors
plus biases are then fitted by minimizing the weighted least-squares objective

    J = 1/2 * sum_ij f(X_ij) (w_i . c_j + b_i + b_j - log X_ij)^2,
    f(x) = min(1, (x / x_max)^alpha)

with per-coordinate adaptive-gradient (AdaGrad) updates, one nonzero
entry (pair) at a time in a fresh shuffled order each iteration.  The
returned embedding for a word is the sum of its word and context
vectors.  Training is single-threaded and deterministic for a fixed
seed.

A pair's update reads and writes only two parameter rows: its word's
(vector and bias) and its context's.  So each iteration's shuffled
order is split into row-disjoint groups: a pair joins the group after
the last one that touched either of its rows.  Pairs that share a row
keep their relative order, and pairs within a group share no row, so
their updates commute.  Running the groups in order, each as one
vectorized gather, gradient and scatter, therefore applies exactly the
updates of the one-pair-at-a-time loop.  A stacked matmul computes each
of a group's dot products as a single ``w @ c`` would, so the rounding
matches as well.

Memory is O(pairs) scalars plus vocabulary × dim: the objective and the
group walk take the pairs ``BLOCK`` at a time, so no array of pairs × dim
floats and no Python list as long as the pairs is ever built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError, NumericError, check_fields

PAIRS = np.dtype([("word", np.int64), ("context", np.int64), ("count", np.float64)])
# Pairs per objective chunk and per block of the group walk.  In 20 s
# benchmark runs on a 2-vCPU VM, 256 to 1024 fitted equally fast with the
# same peak RSS; 2048 and 8192 (the whole benchmark input) raised peak RSS
# by about 2 and 5 MB on train_crf_feat_long.
BLOCK = 1024


@dataclass(frozen=True)
class GloveParams:
    dim: int = 50
    window: int = 10
    x_max: float = 100.0
    alpha: float = 0.75
    learning_rate: float = 0.05
    iterations: int = 50
    min_count: int = 1
    seed: int = 0

    def __post_init__(self):
        check_fields(self, (
            (("dim", "window", "iterations", "min_count"), lambda v: v >= 1, "at least 1"),
            (("x_max", "learning_rate"), lambda v: 0.0 < v < math.inf, "positive and finite"),
            (("alpha",), math.isfinite, "finite"),
            (("seed",), lambda v: v >= 0, "at least 0"),
        ))


def count_vocabulary(corpus: Iterable[Sequence[str]], min_count: int) -> list[str]:
    counts = Counter()
    for sentence in corpus:
        counts.update(sentence)
    kept = [w for w, c in counts.items() if c >= min_count]
    # frequency-descending, ties alphabetic: stable across runs
    kept.sort(key=lambda w: (-counts[w], w))
    return kept


def build_cooccurrence(
    corpus: Iterable[Sequence[str]], index: dict[str, int], window: int
) -> np.ndarray:
    """Symmetric windowed counts with 1/distance weighting: a ``PAIRS`` array
    of the distinct (word, context) pairs, sorted by word, then context.

    Windows do not cross sentence boundaries: each position gets only
    the distances ``1 .. min(window, tokens left in its sentence)``, so
    one long sentence costs the short ones nothing.  Words missing
    from ``index`` are skipped but still occupy positions (distance is
    positional, not filtered).  Each (position, distance) event adds
    1/distance to (word, other), then to (other, word); ``np.bincount``
    sums each count's events in that order from 0.0, as a loop would.
    """
    corpus = list(corpus)
    lengths = np.array([len(s) for s in corpus], dtype=np.int64)
    ids = np.array([index.get(w, -1) for s in corpus for w in s], dtype=np.int64)
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(ids)) - 1
    spans = np.minimum(window, left)  # each position's distances, in its own sentence
    position = np.repeat(np.arange(len(ids)), spans)  # (position, distance) order
    distance = np.arange(1, len(position) + 1) - np.repeat(np.cumsum(spans) - spans, spans)
    first, other = ids[position], ids[position + distance]
    del position, left, spans  # few live temporaries keep the heap small
    event = (first >= 0) & (other >= 0)
    first, other, distance = first[event], other[event], distance[event]
    n = max(index.values(), default=0) + 1
    keys = np.minimum(first, other) * n + np.maximum(first, other)
    del first, other, event
    twice = 1 + (keys % (n + 1) == 0)  # key w * (n + 1): a word next to itself, events twice
    keys = np.repeat(keys, twice)
    weights = np.repeat(1.0 / distance, twice)
    unique = np.sort(keys)  # np.unique would hash, and its small allocations grow the heap
    unique = unique[np.diff(unique, prepend=-1) != 0]  # keys are at least 0
    sums = np.bincount(np.searchsorted(unique, keys), weights, len(unique))
    mirror = unique % (n + 1) != 0  # two words' other order has the same events, same sum
    keys = np.concatenate([unique, unique[mirror] % n * n + unique[mirror] // n])
    order = np.argsort(keys)
    pairs = np.empty(len(keys), PAIRS)
    pairs["word"], pairs["context"] = np.divmod(keys[order], n)
    pairs["count"] = np.concatenate([sums, sums[mirror]])[order]
    return pairs


def _weights(x: np.ndarray, x_max: float, alpha: float) -> np.ndarray:
    return np.minimum(1.0, (x / x_max) ** alpha)


def _row_disjoint_groups(rows: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split ``order`` into a sequence of groups in which no row occurs twice.

    ``rows[k]`` holds the parameter rows that pair ``k`` updates.  Walking
    ``order`` once, each pair joins the group after the last one that
    touched any of its rows.  So pairs that share a row keep their order
    across groups, and the pairs of one group touch distinct rows.
    Returns ``order`` stably sorted by group, and each group's size.
    The walk takes ``BLOCK`` pairs at a time, so Python ints exist for
    one block only.
    """
    last = [-1] * (int(rows.max()) + 1)
    group = np.empty(len(order), dtype=np.int64)
    for start in range(0, len(order), BLOCK):
        ordered = rows[order[start:start + BLOCK]]
        ids = []
        for a, b in zip(ordered[:, 0].tolist(), ordered[:, 1].tolist()):
            la, lb = last[a], last[b]
            last[a] = last[b] = g = (la if la > lb else lb) + 1
            ids.append(g)
        group[start:start + BLOCK] = ids
    return order[np.argsort(group, kind="stable")], np.bincount(group)


def fit_glove(
    corpus: Iterable[Sequence[str]], params: GloveParams
) -> tuple[EmbeddingTable, list[float]]:
    """Train embeddings; returns the table and the per-iteration objective.

    Beyond the corpus itself, memory is O(pairs) scalars plus
    vocabulary × dim floats.  Raises ``NumericError`` naming the iteration
    (from 0) whose objective is not finite.
    """
    sentences = [list(s) for s in corpus]
    vocab = count_vocabulary(sentences, params.min_count)
    if not vocab:
        raise DataError("corpus is empty after minimum-count filtering")
    index = {w: i for i, w in enumerate(vocab)}
    cooc = build_cooccurrence(sentences, index, params.window)
    if len(cooc) == 0:
        raise DataError("no co-occurrence pairs; corpus may be all length-1 sentences")

    n, dim, lr = len(vocab), params.dim, params.learning_rate
    rows = np.stack([cooc["word"], cooc["context"] + n])  # word row i, context row n + j
    logx = np.log(cooc["count"])
    fx = _weights(cooc["count"], params.x_max, params.alpha)

    rng = np.random.default_rng(params.seed)
    scale = 0.5 / (dim + 1)
    # one row per word and per context: its vector, then its bias
    table = np.empty((2 * n, dim + 1))
    table[:, :dim] = rng.uniform(-scale, scale, (2 * n, dim))
    table[:, dim] = rng.uniform(-scale, scale, 2 * n)
    grad_sq = np.ones_like(table)
    word_rows, ctx_rows = rows

    def objective() -> float:
        # a row's dot does not depend on the chunk it is in, and the sum
        # below runs over all pairs at once, so chunking changes no bit
        dots = np.empty(len(fx))
        for a in range(0, len(fx), BLOCK):
            w, c = table[rows[:, a:a + BLOCK], :dim]
            dots[a:a + BLOCK] = np.einsum("ij,ij->i", w, c)
        diff = dots + table[word_rows, dim] + table[ctx_rows, dim] - logx
        return float(0.5 * np.sum(fx * diff * diff))

    history: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        for iteration in range(params.iterations):
            ks, sizes = _row_disjoint_groups(rows.T, rng.permutation(len(fx)))
            group_rows, group_fx, group_logx = rows[:, ks], fx[ks], logx[ks]
            ends = np.cumsum(sizes)
            for a, b in zip((ends - sizes).tolist(), ends.tolist()):
                both = group_rows[:, a:b]  # the group's word rows, then its context rows
                p = table.take(both, axis=0)
                w, c = p
                dots = (w[:, None, :dim] @ c[:, :dim, None])[:, 0, 0]
                fdiff = group_fx[a:b] * (dots + w[:, dim] + c[:, dim] - group_logx[a:b])
                # each row's gradient is fdiff times its partner row, 1 for the bias
                grad = p[::-1] * fdiff[:, None]
                grad[:, :, dim] = fdiff
                acc = grad_sq.take(both, axis=0)
                # a group's rows are distinct, so each scatter writes a row once
                table[both] = p - lr * grad / np.sqrt(acc)
                grad_sq[both] = acc + grad * grad
            history.append(objective())
            if not math.isfinite(history[-1]):
                raise NumericError(f"non-finite GloVe objective at iteration {iteration}")

    entries = {w: table[i, :dim] + table[i + n, :dim] for w, i in index.items()}
    return EmbeddingTable(dim, entries), history
