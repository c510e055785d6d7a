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
in log space; its backtrace reads a (T-1, K) table of best successors
built with one argmax.

This module is pure numpy and serves both the standalone baseline
(emissions built from input features via ``emission_weights``) and the
recurrent taggers (emissions projected from hidden states, with
gradients flowing back through :func:`crf_nll_op`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag


@dataclass
class CrfParameters:
    """Transition scores plus, for the feature-input baseline, emission weights."""

    transitions: np.ndarray  # (K+1, K+1), index K = virtual start/stop
    emission_weights: np.ndarray | None = None  # (K, D)

    @property
    def num_tags(self) -> int:
        return self.transitions.shape[0] - 1

    def __post_init__(self):
        t = self.transitions
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 2:
            raise ValueError(f"transitions must be square (K+1, K+1), got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("transitions must be finite")
        if self.emission_weights is not None and self.emission_weights.shape[0] != self.num_tags:
            raise ValueError("emission_weights rows must equal the tag count")


@dataclass
class CrfGradients:
    emissions: np.ndarray  # (T, K)
    transitions: np.ndarray  # (K+1, K+1)
    emission_weights: np.ndarray | None = None


def _check_lattice(params: CrfParameters, emissions: np.ndarray):
    if emissions.ndim != 2 or emissions.shape[0] < 1:
        raise ValueError(f"emission lattice must be (T, K) with T >= 1, got {emissions.shape}")
    if emissions.shape[1] != params.num_tags:
        raise ValueError(
            f"lattice has {emissions.shape[1]} tags but transitions expect {params.num_tags}"
        )


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.exp(a - m).sum(axis=axis))


def sequence_score(params: CrfParameters, emissions: np.ndarray, y) -> float:
    """Unnormalized log-score of one tag sequence."""
    _check_lattice(params, emissions)
    y = np.asarray(y, dtype=np.int64)
    T, K = emissions.shape
    if len(y) != T:
        raise ValueError(f"tag sequence length {len(y)} != lattice length {T}")
    trans = params.transitions
    score = float(emissions[np.arange(T), y].sum())
    score += trans[K, y[0]]
    score += float(trans[y[:-1], y[1:]].sum())
    score += trans[y[-1], K]
    return score


def _forward(params: CrfParameters, emissions: np.ndarray) -> tuple[np.ndarray, float]:
    T, K = emissions.shape
    trans = params.transitions
    alpha = np.empty((T, K))
    alpha[0] = trans[K, :K] + emissions[0]
    for t in range(1, T):
        alpha[t] = emissions[t] + _logsumexp(alpha[t - 1][:, None] + trans[:K, :K], axis=0)
    log_z = float(_logsumexp(alpha[T - 1] + trans[:K, K], axis=0))
    return alpha, log_z


def _backward_pass(params: CrfParameters, emissions: np.ndarray) -> np.ndarray:
    T, K = emissions.shape
    trans = params.transitions
    beta = np.empty((T, K))
    beta[T - 1] = trans[:K, K]
    for t in range(T - 2, -1, -1):
        beta[t] = _logsumexp(trans[:K, :K] + (emissions[t + 1] + beta[t + 1])[None, :], axis=1)
    return beta


def _log_space_forward_backward(
    params: CrfParameters, emissions: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """What :func:`_forward_backward` returns, from the log-space recursions."""
    K = emissions.shape[1]
    trans = params.transitions
    alpha, log_z = _forward(params, emissions)
    beta = _backward_pass(params, emissions)
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
    params: CrfParameters, emissions: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """log Z, the (T, K) marginals and the (T-1, K, K) pairwise marginals.

    Runs the scaled recursions, and the log-space ones when the
    transition scores are too far apart or the scaling is not finite
    (see the module docstring).
    """
    T, K = emissions.shape
    trans = params.transitions
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
        return _log_space_forward_backward(params, emissions)

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


def log_partition(params: CrfParameters, emissions: np.ndarray) -> float:
    """log sum over all K^T sequences of exp(sequence_score)."""
    _check_lattice(params, emissions)
    return _forward_backward(params, emissions)[0]


def nll_and_gradient(
    params: CrfParameters, emissions: np.ndarray, y
) -> tuple[float, CrfGradients]:
    """Conditional negative log-likelihood and its exact gradients.

    Gradients are expected sufficient statistics minus the empirical
    ones, from the forward-backward marginals.  The emission gradient is
    returned so an upstream network can continue backpropagation.
    """
    _check_lattice(params, emissions)
    y = np.asarray(y, dtype=np.int64)
    T, K = emissions.shape
    if len(y) != T:
        raise ValueError(f"tag sequence length {len(y)} != lattice length {T}")
    trans = params.transitions

    log_z, marginals, pairs = _forward_backward(params, emissions)

    nll = log_z - sequence_score(params, emissions, y)

    d_emissions = marginals.copy()
    d_emissions[np.arange(T), y] -= 1.0

    d_trans = np.zeros_like(trans)
    d_trans[:K, :K] = pairs.sum(axis=0)
    np.add.at(d_trans, (y[:-1], y[1:]), -1.0)
    d_trans[K, :K] += marginals[0]
    d_trans[K, y[0]] -= 1.0
    d_trans[:K, K] += marginals[T - 1]
    d_trans[y[-1], K] -= 1.0

    return nll, CrfGradients(d_emissions, d_trans)


def emissions_from_inputs(params: CrfParameters, inputs: np.ndarray) -> np.ndarray:
    """(T, K) lattice from per-token feature vectors via the emission weights."""
    if params.emission_weights is None:
        raise ValueError("this parameter set has no emission weights")
    return inputs @ params.emission_weights.T


def input_nll_and_gradient(
    params: CrfParameters, inputs: np.ndarray, y
) -> tuple[float, CrfGradients]:
    """NLL and gradients for the feature-input baseline.

    ``inputs`` is (T, D); the lattice is ``inputs @ emission_weights.T``
    and the emission-weight gradient is chained from the lattice one.
    """
    emissions = emissions_from_inputs(params, inputs)
    nll, grads = nll_and_gradient(params, emissions, y)
    grads.emission_weights = grads.emissions.T @ inputs
    return nll, grads


def viterbi(params: CrfParameters, emissions: np.ndarray) -> list[int]:
    """Highest-scoring tag sequence.

    Exact ties are broken toward the lexicographically smallest
    tag-index sequence: suffix maxima are computed right-to-left and
    tags chosen greedily left-to-right, taking the smallest index that
    still attains the optimum.
    """
    _check_lattice(params, emissions)
    T, K = emissions.shape
    trans = params.transitions

    # delta[t, k]: best score of the suffix starting at t given y_t = k
    delta = np.empty((T, K))
    delta[T - 1] = emissions[T - 1] + trans[:K, K]
    for t in range(T - 2, -1, -1):
        delta[t] = emissions[t] + np.max(trans[:K, :K] + delta[t + 1][None, :], axis=1)

    path = [int(np.argmax(trans[K, :K] + delta[0]))]
    if T > 1:
        # best[t - 1][j]: the smallest best tag at t after tag j at t - 1
        best = np.argmax(trans[:K, :K][None] + delta[1:, None, :], axis=2).tolist()
        for row in best:
            path.append(row[path[-1]])
    return path


def crf_nll_op(emissions: ag.Tensor, transitions: ag.Tensor, y) -> ag.Tensor:
    """Autograd node wrapping :func:`nll_and_gradient`.

    The forward value is the NLL; the backward pass feeds the analytic
    emission gradient into the upstream graph and accumulates the
    transition gradient on its leaf.
    """
    params = CrfParameters(transitions.data)
    nll, grads = nll_and_gradient(params, emissions.data, y)
    if not (emissions.tracked or transitions.tracked):
        return ag.Tensor(nll)

    def bw(g):
        if emissions.tracked:
            emissions.accumulate(g * grads.emissions)
        if transitions.tracked:
            transitions.accumulate(g * grads.transitions)

    return ag.Tensor(nll, (emissions, transitions), bw, True)
