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

The forward-backward recursions run in probability space (Rabiner, 1989;
Sutton & McCallum, arXiv:1011.4088, §4.1).  The transition scores are
shifted by their maximum ``s`` and each lattice row by its own maximum
``m_t``, so that ``P = exp(transitions - s)`` and ``X = exp(emissions -
m)`` have largest entry 1.  Each position of each recursion is one
vector-matrix product with ``EX[t] = P * X[t]`` into a (T, K) array.
The rows run unnormalized, and every r-th one is multiplied by the exact
power of two that brings its max into [1/2, 1).  ``log Z`` adds ``ln 2``
times the exponents taken out to the log of the last forward row's
product with the stop column, the ``m_t`` and ``(T + 1) * s``.  The
marginals are the rows' products, normalized per row.  The transition
gradient needs the pairwise marginals only summed over positions (the
expected pair counts, Sutton & McCallum, §4), and they come from one
product, with no (T-1, K, K) array (see :func:`_forward_backward`).

Rescaling is exact only while no term that underflows could carry the
result (:func:`_forward_backward` gives r and the bound).  Emission
factors may underflow to 0, because every step mixes all states through
transition factors of at least ``exp(-300)``.  A transition spread
beyond 300 nats breaks that: with ``exp(-900)`` flushed to 0, a path
through it is lost, and later small factors can make it the dominant
one.  So such a matrix, and a lattice whose ``log Z`` is not finite (NaN
or infinite scores, which then give a non-finite loss), take the log-space
recursions with the shifted logsumexp trick instead.  Viterbi stays max-plus
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
both the standalone baseline, whose lattice weighs each distinct surface
once (:func:`input_nll_and_gradient`), and the recurrent taggers (emissions
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


def _log_space_forward_backward(
    trans: np.ndarray, emissions: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """What :func:`_forward_backward` returns, from the log-space recursions."""
    T, K = emissions.shape
    alpha, beta = np.empty((T, K)), np.empty((T, K))
    alpha[0], beta[T - 1] = trans[K, :K] + emissions[0], trans[:K, K]
    for t in range(1, T):
        alpha[t] = emissions[t] + _logsumexp(alpha[t - 1][:, None] + trans[:K, :K], axis=0)
    for t in range(T - 2, -1, -1):
        beta[t] = _logsumexp(trans[:K, :K] + (emissions[t + 1] + beta[t + 1])[None, :], axis=1)
    log_z = float(_logsumexp(alpha[T - 1] + trans[:K, K], axis=0))
    marginals = np.exp(alpha + beta - log_z)
    marginals /= marginals.sum(axis=1, keepdims=True)  # takes out log Z's rounding, as below
    pairs = np.exp(
        alpha[:-1, :, None] + trans[:K, :K] + (emissions[1:] + beta[1:])[:, None, :] - log_z
    )
    pairs /= pairs.sum(axis=(1, 2), keepdims=True)  # takes out log Z's rounding, ~|log Z|
    return log_z, marginals, pairs.sum(axis=0)


_MAX_TRANSITION_RANGE = 300.0  # nats; see _forward_backward


def _chain(rows: np.ndarray, factors: np.ndarray, every: int) -> int:
    """``rows[t + 1] = rows[t] @ factors[t]`` from ``rows[0]``, each
    ``every``-th row (``rows[0]`` first) multiplied by the power of two
    that brings its max into [1/2, 1); returns the exponents taken out.
    ``ndarray.dot`` skips the dispatch of ``np.dot``, a third of a step."""
    taken = 0
    for s in range(0, len(rows), every):
        e = math.frexp(rows[s].max())[1]
        rows[s] *= 2.0**-e
        taken += e
        for a, f, b in zip(rows[s:], factors[s : s + every], rows[s + 1 :]):
            a.dot(f, out=b)
    return taken


def _forward_backward(
    trans: np.ndarray, emissions: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """log Z, the (T, K) marginals and the (K, K) pairwise marginals summed over positions.

    Rescales every r-th row, with ``r * d <= 360`` and ``K**r < exp(700)``
    for the spread ``d`` of the scores read, and takes the log-space
    recursions when ``d > 300`` or log Z is not finite.  A step raises a
    row's max by at most K.  A forward step lowers it by at most
    ``exp(-d)`` (the column where ``X[t]`` is 1 takes every entry through a
    factor of at least ``exp(-d)``), so every max stays in ``(2**-521,
    exp(700))``.  A term lost to underflow, below ``2**-1022``, is then
    below ``2**-501`` of its row's max, and through transition factors at
    most ``exp(300) < 2**433`` apart it moves no later entry by more than
    ``2**-68`` relative: the argument behind ``_MAX_TRANSITION_RANGE``.  A
    backward row is ``P`` times a nonnegative vector, so its min is at
    least ``exp(-d)`` of its max and falls by at most ``exp(-d)`` a step:
    every entry stays above ``exp(-660) / 2 > 2**-954``, and a lost term
    below ``2**-68`` of it.  Rows normalized to sum 1 keep every
    product's max above ``exp(-600) / K**2``.  The pair sums are one
    product, ``P ⊙ (Ũᵀ @ W)``, with ``W = X[1:] ⊙ v[1:]`` and ``Ũ`` the rows
    of ``u[:-1]`` over their normalizers ``u[t-1] @ P @ W[t-1]``.  With ``u``
    and ``v`` summing to 1, a normalizer is above ``exp(-2d) / K``: the 1 of
    ``X[t]`` reads every ``u`` entry through a factor of at least ``exp(-d)``,
    and a backward row's entry there is at least ``exp(-d)`` of its max.
    """
    T, K = emissions.shape
    # the transition scores the model reads: every entry but the last,
    # trans[K, K] (start to stop), which no sequence uses
    read = trans.ravel()[:-1]
    shift, lowest = read.max(), read.min()
    log_z = math.nan
    if shift - lowest <= _MAX_TRANSITION_RANGE:
        every = int(min(360.0 / max(shift - lowest, 1.0), 700.0 / math.log(K + 1)))
        m = emissions.max(axis=1)
        u, v = np.empty((T, K)), np.empty((T, K))
        with np.errstate(all="ignore"):  # a non-finite lattice is caught below
            P = np.exp(trans - shift)
            X = np.exp(emissions - m[:, None])
            EX = np.einsum("ij,tj->tij", P[:K, :K], X)  # EX[t, i, j] = P[i, j] * X[t, j]
            np.multiply(P[K, :K], X[0], out=u[0])
            taken = _chain(u, EX[1:], every)
            v[T - 1] = P[:K, K]
            log_z = float(np.log(u[T - 1].dot(v[T - 1])) + taken * math.log(2.0) + m.sum()
                          + (T + 1) * shift)
    if not math.isfinite(log_z):
        return _log_space_forward_backward(trans, emissions)

    _chain(v[::-1], EX[:0:-1].transpose(0, 2, 1), every)  # v[t-1] = EX[t] @ v[t]
    ones = np.ones(K)
    u /= (u @ ones)[:, None]
    v /= (v @ ones)[:, None]
    marginals = u * v
    marginals /= (marginals @ ones)[:, None]
    # pair (i, j) at t is u[t-1, i] P[i, j] W[t-1, j] over its sum; all zero when T == 1
    W = X[1:] * v[1:]
    U = u[:-1] / (((u[:-1] @ P[:K, :K]) * W) @ ones)[:, None]
    return log_z, marginals, P[:K, :K] * (U.T @ W)


def nll_and_gradient(
    trans: np.ndarray, emissions: np.ndarray, y
) -> tuple[float, np.ndarray, np.ndarray]:
    """Conditional negative log-likelihood and its exact gradients with
    respect to the emissions and the transitions.

    Gradients are expected sufficient statistics minus the empirical
    ones, from the forward-backward marginals.  The emission gradient is
    returned, written over the marginals, so an upstream network can
    continue backpropagation.
    """
    score = sequence_score(trans, emissions, y)  # checks the lattice and the path
    y = np.asarray(y, dtype=np.int64)
    T, K = emissions.shape
    log_z, marginals, pairs = _forward_backward(trans, emissions)

    d_trans = np.zeros_like(trans)
    d_trans[:K, :K], d_trans[K, :K], d_trans[:K, K] = pairs, marginals[0], marginals[T - 1]
    path = np.concatenate(([K], y, [K]))  # the gold transitions, from start to stop
    np.add.at(d_trans, (path[:-1], path[1:]), -1.0)
    marginals[np.arange(T), y] -= 1.0
    return log_z - score, marginals, d_trans


def input_nll_and_gradient(
    trans: np.ndarray, inputs: np.ndarray, weights: np.ndarray, y, at
) -> tuple[float, np.ndarray, np.ndarray]:
    """NLL and gradients, with respect to the emission weights and the
    transitions, for the feature-input baseline.

    ``inputs`` (S, D) holds one row per distinct surface, ``at`` each of
    the T tokens' row, and ``weights`` is (K, D).  The lattice is
    ``(inputs @ weights.T)[at]`` and the weight gradient ``d_rows.T @ inputs``,
    with ``d_rows`` each row's lattice gradients summed over its tokens.
    """
    nll, d_emissions, d_trans = nll_and_gradient(trans, (inputs @ weights.T)[at], y)
    d_rows = np.zeros((len(inputs), len(weights)))
    np.add.at(d_rows, at, d_emissions)
    return nll, d_rows.T @ inputs, d_trans


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
    hit = scores == tops
    # a max is NaN only where some score is, and argmax then picks the first NaN
    if np.isnan(tops).any():
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
