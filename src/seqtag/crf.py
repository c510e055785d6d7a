"""Linear-chain CRF: scoring, exact log-partition, gradients, decoding.

The model assigns a sequence ``y`` the score

    score(y) = sum_t emissions[t, y_t]
             + transitions[START, y_0]
             + sum_t transitions[y_{t-1}, y_t]
             + transitions[y_{T-1}, STOP]

whose exponential, normalized by the partition sum over all K^T
sequences, is the conditional probability.  Emissions are a (T, K)
real matrix (the lattice); the transition matrix is (K+1, K+1) with the
extra index acting as the virtual start state (as a source row) and the
virtual stop state (as a target column).

The forward-backward recursions run in probability space with
per-position scaling (Rabiner, 1989; Sutton & McCallum,
arXiv:1011.4088, §4.1).  The transition scores are shifted by their
maximum ``s`` and each lattice row by its own maximum ``m_t``, so that
the factors ``exp(transitions - s)`` and ``X = exp(emissions - m)``
have largest entry 1.  Each forward step is then one small
matrix-vector product, renormalized by its sum ``c_t``, and the
backward step reuses the same ``c_t``.  ``log Z`` is the sum of the
``log c_t``, of the ``m_t``, of the log of the final dot product with
the stop column and ``(T + 1) * s``.

Scaling is exact only while no term that underflows could carry the
result.  Emission factors may underflow to 0 (a row spread of 1000
nats is fine), because every step mixes all states through transition
factors of at least ``exp(-300)``.  A transition spread beyond 300 nats
breaks that: with ``exp(-900)`` flushed to 0, a path through it is
lost, and later small scale factors can make it the dominant one.  So
such a transition matrix, and a lattice whose scaling is not finite
(NaN or infinite scores, which then give a non-finite loss), take the
log-space recursions with the shifted logsumexp trick instead.  The
pairwise marginals that the transition gradient sums are one
(T-1, K, K) broadcast (Sutton & McCallum, §4).  Viterbi stays max-plus
in log space.  It decodes a batch of end-aligned lattices stored
tag-major, (L, K, B).  Each step adds into its own (K, K, B) slice of
one kept (L-1, K, K, B) block of step scores, the next tag on the
slice's leading axis, and keeps its max over that axis.  The table of
best successors marks where the kept scores equal their max, so no
score is added twice; the block holds (L-1)·K²·B floats.  Ties go to
the lexicographically smallest path.

Every function takes the (K+1, K+1) transition matrix as a plain array,
its first argument, and checks only shapes: parameter values are
checked for finiteness where they enter the program (a loaded
checkpoint, an epoch of training).  The module is pure numpy and serves
both the standalone baseline, whose lattice is ``inputs @ weights.T``
(:func:`input_nll_and_gradient`), and the recurrent taggers (emissions
projected from hidden states, with gradients flowing back through
:func:`crf_nll_op`).
"""

from __future__ import annotations

import math

import numpy as np

from . import autograd as ag


def _check_lattice(trans: np.ndarray, emissions: np.ndarray):
    if trans.ndim != 2 or trans.shape[0] != trans.shape[1] or trans.shape[0] < 2:
        raise ValueError(f"transitions must be square (K+1, K+1), got {trans.shape}")
    if emissions.ndim != 2 or emissions.shape[0] < 1:
        raise ValueError(f"emission lattice must be (T, K) with T >= 1, got {emissions.shape}")
    if emissions.shape[1] != len(trans) - 1:
        raise ValueError(
            f"lattice has {emissions.shape[1]} tags but transitions expect {len(trans) - 1}"
        )


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.exp(a - m).sum(axis=axis))


def sequence_score(trans: np.ndarray, emissions: np.ndarray, y) -> float:
    """Unnormalized log-score of one tag sequence."""
    _check_lattice(trans, emissions)
    y = np.asarray(y, dtype=np.int64)
    T, K = emissions.shape
    if len(y) != T:
        raise ValueError(f"tag sequence length {len(y)} != lattice length {T}")
    score = float(emissions[np.arange(T), y].sum())
    score += trans[K, y[0]]
    score += float(trans[y[:-1], y[1:]].sum())
    score += trans[y[-1], K]
    return score


def _forward(trans: np.ndarray, emissions: np.ndarray) -> tuple[np.ndarray, float]:
    T, K = emissions.shape
    alpha = np.empty((T, K))
    alpha[0] = trans[K, :K] + emissions[0]
    for t in range(1, T):
        alpha[t] = emissions[t] + _logsumexp(alpha[t - 1][:, None] + trans[:K, :K], axis=0)
    log_z = float(_logsumexp(alpha[T - 1] + trans[:K, K], axis=0))
    return alpha, log_z


def _backward_pass(trans: np.ndarray, emissions: np.ndarray) -> np.ndarray:
    T, K = emissions.shape
    beta = np.empty((T, K))
    beta[T - 1] = trans[:K, K]
    for t in range(T - 2, -1, -1):
        beta[t] = _logsumexp(trans[:K, :K] + (emissions[t + 1] + beta[t + 1])[None, :], axis=1)
    return beta


def _log_space_forward_backward(
    trans: np.ndarray, emissions: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """What :func:`_forward_backward` returns, from the log-space recursions."""
    K = emissions.shape[1]
    alpha, log_z = _forward(trans, emissions)
    beta = _backward_pass(trans, emissions)
    marginals = np.exp(alpha + beta - log_z)
    pairs = np.exp(
        alpha[:-1, :, None] + trans[:K, :K] + (emissions[1:] + beta[1:])[:, None, :] - log_z
    )
    return log_z, marginals, pairs


# Widest spread, in nats, of the transition scores the scaled recursion
# accepts.  Each forward step multiplies the normalized vector by the
# shifted transition factors, all of them in [exp(-300), 1], so every
# entry of that product stays above exp(-300) ~ 5e-131 and the terms lost
# to underflow (below 2.2e-308 each) cannot carry the result.  Emission
# factors may underflow to 0: the next step mixes every state again.
_MAX_TRANSITION_RANGE = 300.0


def _forward_backward(
    trans: np.ndarray, emissions: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """log Z, the (T, K) marginals and the (T-1, K, K) pairwise marginals.

    Runs the scaled recursions, and the log-space ones when the
    transition scores are too far apart or the scaling is not finite
    (see the module docstring).
    """
    T, K = emissions.shape
    # the transition scores the model reads: every entry but the last,
    # trans[K, K] (start to stop), which no sequence uses
    read = trans.ravel()[:-1]
    shift, lowest = read.max(), read.min()
    log_z = math.nan
    if shift - lowest <= _MAX_TRANSITION_RANGE:
        m = emissions.max(axis=1)
        scale = np.empty(T + 1)  # c_0 .. c_{T-1}, then the final dot product
        with np.errstate(all="ignore"):  # a non-finite lattice is caught below
            P = np.exp(trans - shift)
            X = np.exp(emissions - m[:, None])
            EX = P[:K, :K] * X[:, None, :]  # EX[t, i, j] = P[i, j] * X[t, j]
            ones = np.ones(K)
            a = P[K, :K] * X[0]
            alphas = []
            for t in range(T):
                if t:
                    a = a.dot(EX[t])
                c = a.dot(ones)
                a = a / c
                alphas.append(a)
                scale[t] = c
            stop = P[:K, K]
            tail = scale[T] = a.dot(stop)
            log_z = float(np.log(scale).sum() + m.sum() + (T + 1) * shift)
    if not math.isfinite(log_z):
        return _log_space_forward_backward(trans, emissions)

    EX /= scale[:T, None, None]
    b = stop / tail
    betas = [b]
    for t in range(T - 1, 0, -1):
        b = EX[t].dot(b)
        betas.append(b)
    alpha = np.array(alphas)
    beta = np.array(betas[::-1])
    marginals = alpha * beta  # (T, K), rows sum to 1
    # pairwise marginals of all T-1 adjacent positions at once; empty when T == 1
    pairs = alpha[:-1, :, None] * EX[1:] * beta[1:, None, :]
    return log_z, marginals, pairs


def nll_and_gradient(
    trans: np.ndarray, emissions: np.ndarray, y
) -> tuple[float, np.ndarray, np.ndarray]:
    """Conditional negative log-likelihood and its exact gradients with
    respect to the emissions and the transitions.

    Gradients are expected sufficient statistics minus the empirical
    ones, from the forward-backward marginals.  The emission gradient is
    returned so an upstream network can continue backpropagation.
    """
    _check_lattice(trans, emissions)
    y = np.asarray(y, dtype=np.int64)
    T, K = emissions.shape
    if len(y) != T:
        raise ValueError(f"tag sequence length {len(y)} != lattice length {T}")

    log_z, marginals, pairs = _forward_backward(trans, emissions)

    nll = log_z - sequence_score(trans, emissions, y)

    d_emissions = marginals.copy()
    d_emissions[np.arange(T), y] -= 1.0

    d_trans = np.zeros_like(trans)
    d_trans[:K, :K] = pairs.sum(axis=0)
    np.add.at(d_trans, (y[:-1], y[1:]), -1.0)
    d_trans[K, :K] += marginals[0]
    d_trans[K, y[0]] -= 1.0
    d_trans[:K, K] += marginals[T - 1]
    d_trans[y[-1], K] -= 1.0

    return nll, d_emissions, d_trans


def input_nll_and_gradient(
    trans: np.ndarray, inputs: np.ndarray, weights: np.ndarray, y
) -> tuple[float, np.ndarray, np.ndarray]:
    """NLL and gradients, with respect to the emission weights and the
    transitions, for the feature-input baseline.

    ``inputs`` is (T, D) and ``weights`` (K, D); the lattice is
    ``inputs @ weights.T`` and the weight gradient is chained from the
    lattice one.
    """
    nll, d_emissions, d_trans = nll_and_gradient(trans, inputs @ weights.T, y)
    return nll, d_emissions.T @ inputs, d_trans


def viterbi(trans: np.ndarray, emissions: np.ndarray, lengths) -> list[int]:
    """Highest-scoring tag sequence of each lattice of a batch, stacked.

    ``emissions`` stacks the (T_b, K) lattices of the batch on axis 0 and
    ``lengths``, a non-empty 1-D sequence, gives each T_b.
    Exact ties are broken toward the lexicographically smallest
    tag-index sequence: suffix maxima are computed right-to-left and
    tags chosen greedily left-to-right, taking the smallest index that
    still attains the optimum.  The lattices are aligned at their ends in
    a tag-major (L, K, B) array.  Each of the L - 1 steps writes its
    scores into its own (K, K, B) slice of one kept block, the next tag
    on the slice's leading axis, so its max is an elementwise maximum of
    K contiguous (K, B) slabs, and keeps that max.  The table of best
    successors comes from those same scores: the smallest next tag whose
    score equals the max, or is NaN when the max is, which is the tag
    argmax picks.  It is found for the whole block by a few elementwise
    passes and one more max over the next tag, with no argmax, whose
    reduction over a leading axis would copy the block.  The block
    holds (L-1)·K²·B floats.
    """
    _check_lattice(trans, emissions)
    T, K = emissions.shape
    lengths = np.array(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0:
        raise ValueError(f"lattice lengths must be a non-empty 1-D list, got {lengths.tolist()}")
    if lengths.min() < 1 or lengths.sum() != T:
        raise ValueError(f"lattice lengths {lengths.tolist()} do not split {T} rows")
    B, L = len(lengths), int(lengths.max())
    start = L - lengths  # the aligned step of each lattice's first position
    steps = np.arange(T) + np.repeat(start - np.cumsum(lengths) + lengths, lengths)
    lattice = np.zeros((L, K, B))  # the steps before a start are padding
    lattice[steps, :, np.repeat(np.arange(B), lengths)] = emissions

    # delta[s, k, b]: best score of lattice b's suffix from step s given tag k there
    delta = np.empty((L, K, B))
    delta[L - 1] = lattice[L - 1] + trans[:K, K, None]
    scores = np.empty((L - 1, K, K, B))  # scores[s, j, i, b]: tag i at step s, then j
    tops = np.empty((L - 1, 1, K, B))  # tops[s, 0, i, b]: the max of scores[s, :, i, b]
    pairs = trans[:K, :K].T[:, :, None]  # pairs[j, i, 0] = trans[i, j]
    afters = delta[:0:-1, :, None]  # delta[s + 1] as (K, 1, B), from the last step back
    steps_back = zip(delta[-2::-1], afters, lattice[-2::-1], scores[::-1], tops[::-1, 0])
    for here, after, emitted, step, top in steps_back:
        np.add(pairs, after, out=step)
        np.maximum.reduce(step, axis=0, out=top)
        np.add(top, emitted, out=here)

    firsts = np.argmax(trans[K, :K] + delta[start, :, np.arange(B)], axis=1).tolist()
    # a max is NaN only where some score is, and argmax then picks the first NaN
    hit = scores == tops
    hit |= scores != scores
    # the smallest hit j is K minus the largest K - j over the hits
    rank = np.arange(K, 0, -1, dtype=np.min_scalar_type(K))[:, None, None]
    # nexts[b][s][i]: the smallest best tag at step s + 1 after tag i at step s
    nexts = (K - np.maximum.reduce(hit * rank, axis=1)).transpose(2, 0, 1).tolist()
    path = []
    for y, rows, s in zip(firsts, nexts, start.tolist()):
        path.append(y)
        for row in rows[s:]:
            y = row[y]
            path.append(y)
    return path


def crf_nll_op(emissions: ag.Tensor, transitions: ag.Tensor, y) -> ag.Tensor:
    """Autograd node wrapping :func:`nll_and_gradient`.

    The forward value is the NLL; the backward pass feeds the analytic
    emission gradient into the upstream graph and accumulates the
    transition gradient on its leaf.
    """
    nll, d_emissions, d_trans = nll_and_gradient(transitions.data, emissions.data, y)
    if not (emissions.tracked or transitions.tracked):
        return ag.Tensor(nll)

    def bw(g):
        if emissions.tracked:
            emissions.accumulate(g * d_emissions)
        if transitions.tracked:
            transitions.accumulate(g * d_trans)

    return ag.Tensor(nll, (emissions, transitions), bw, True)
