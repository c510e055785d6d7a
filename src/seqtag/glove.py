"""Word-vector training from windowed co-occurrence counts.

Counts are collected symmetrically over a fixed window with 1/distance
weighting, then word and context vectors plus biases are fitted by
minimizing the weighted least-squares objective

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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .embeddings import PRETRAINED, EmbeddingTable
from .errors import DataError, NumericError


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
        if self.dim < 1 or self.window < 1 or self.iterations < 1:
            raise ValueError("dim, window, and iterations must be positive")
        for name in ("x_max", "alpha", "learning_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.x_max <= 0 or self.learning_rate <= 0:
            raise ValueError("x_max and learning_rate must be positive")


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
) -> dict[tuple[int, int], float]:
    """Symmetric windowed counts with 1/distance weighting.

    Windows do not cross sentence boundaries.  Words missing from
    ``index`` are skipped but still occupy positions (distance is
    positional, not filtered).
    """
    counts: dict[tuple[int, int], float] = {}
    for sentence in corpus:
        ids = [index.get(w) for w in sentence]
        for pos, wid in enumerate(ids):
            if wid is None:
                continue
            for dist in range(1, window + 1):
                other = pos + dist
                if other >= len(ids):
                    break
                oid = ids[other]
                if oid is None:
                    continue
                weight = 1.0 / dist
                counts[(wid, oid)] = counts.get((wid, oid), 0.0) + weight
                counts[(oid, wid)] = counts.get((oid, wid), 0.0) + weight
    return counts


def _weights(x: np.ndarray, x_max: float, alpha: float) -> np.ndarray:
    return np.minimum(1.0, (x / x_max) ** alpha)


def _row_disjoint_groups(rows: np.ndarray, order: np.ndarray) -> list[np.ndarray]:
    """Split ``order`` into a sequence of groups in which no row occurs twice.

    ``rows[k]`` holds the parameter rows that pair ``k`` updates.  Walking
    ``order`` once, each pair joins the group after the last one that
    touched any of its rows.  So pairs that share a row keep their order
    across groups, and the pairs of one group touch distinct rows.  Each
    returned group is a subsequence of ``order``.
    """
    last = [-1] * (int(rows.max()) + 1)
    group = []
    ordered = rows[order]
    for a, b in zip(ordered[:, 0].tolist(), ordered[:, 1].tolist()):
        la, lb = last[a], last[b]
        last[a] = last[b] = g = (la if la > lb else lb) + 1
        group.append(g)
    group = np.array(group, dtype=np.int64)
    grouped = order[np.argsort(group, kind="stable")]
    return np.split(grouped, np.cumsum(np.bincount(group))[:-1])


def fit_glove(
    corpus: Iterable[Sequence[str]], params: GloveParams
) -> tuple[EmbeddingTable, list[float]]:
    """Train embeddings; returns the table and the per-iteration objective.

    Raises ``NumericError`` naming the iteration (from 0) whose objective
    is not finite.
    """
    sentences = [list(s) for s in corpus]
    vocab = count_vocabulary(sentences, params.min_count)
    if not vocab:
        raise DataError("corpus is empty after minimum-count filtering")
    index = {w: i for i, w in enumerate(vocab)}
    cooc = build_cooccurrence(sentences, index, params.window)
    if not cooc:
        raise DataError("no co-occurrence pairs; corpus may be all length-1 sentences")

    n, dim, lr = len(vocab), params.dim, params.learning_rate
    keys = np.fromiter(chain.from_iterable(cooc), dtype=np.int64, count=2 * len(cooc))
    keys = keys.reshape(-1, 2)
    sort = np.lexsort((keys[:, 1], keys[:, 0]))
    rows = keys[sort] + [0, n]  # word row i, context row n + j
    xs = np.fromiter(cooc.values(), dtype=np.float64, count=len(cooc))[sort]
    logx = np.log(xs)
    fx = _weights(xs, params.x_max, params.alpha)

    rng = np.random.default_rng(params.seed)
    scale = 0.5 / (dim + 1)
    # one row per word and per context: its vector, then its bias
    table = np.empty((2 * n, dim + 1))
    table[:, :dim] = rng.uniform(-scale, scale, (2 * n, dim))
    table[:, dim] = rng.uniform(-scale, scale, 2 * n)
    grad_sq = np.ones_like(table)
    word_rows, ctx_rows = rows[:, 0], rows[:, 1]

    def objective() -> float:
        dots = np.einsum("ij,ij->i", table[word_rows, :dim], table[ctx_rows, :dim])
        diff = dots + table[word_rows, dim] + table[ctx_rows, dim] - logx
        return float(0.5 * np.sum(fx * diff * diff))

    history: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        for iteration in range(params.iterations):
            for ks in _row_disjoint_groups(rows, rng.permutation(len(rows))):
                m = len(ks)
                both = np.concatenate([word_rows[ks], ctx_rows[ks]])
                p = table[both]
                w, c = p[:m], p[m:]
                dots = (w[:, None, :dim] @ c[:, :dim, None])[:, 0, 0]
                fdiff = fx[ks] * (dots + w[:, dim] + c[:, dim] - logx[ks])
                # each row's gradient is fdiff times its partner row, 1 for the bias
                grad = np.concatenate([c, w])
                grad[:, dim] = 1.0
                grad *= np.concatenate([fdiff, fdiff])[:, None]
                acc = grad_sq[both]
                # a group's rows are distinct, so each scatter writes a row once
                table[both] = p - lr * grad / np.sqrt(acc)
                grad_sq[both] = acc + grad * grad
            history.append(objective())
            if not math.isfinite(history[-1]):
                raise NumericError(f"non-finite GloVe objective at iteration {iteration}")

    entries = {w: table[i, :dim] + table[i + n, :dim] for w, i in index.items()}
    return EmbeddingTable(dim, entries, {w: PRETRAINED for w in vocab}), history
