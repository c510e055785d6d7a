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

All dynamic programs run in log space with the shifted logsumexp trick,
so sequence length in the hundreds is safe.  The forward and backward
recursions loop over positions; the pairwise marginals that the
transition gradient sums are one (T-1, K, K) broadcast (Sutton &
McCallum, arXiv:1011.4088, §4), and the Viterbi backtrace reads a
(T-1, K) table of best successors built with one argmax.  This module
is pure numpy and serves both the standalone baseline (emissions built
from input features via ``emission_weights``) and the recurrent taggers
(emissions projected from hidden states, with gradients flowing back
through :func:`crf_nll_op`).
"""

from __future__ import annotations

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


def log_partition(params: CrfParameters, emissions: np.ndarray) -> float:
    """log sum over all K^T sequences of exp(sequence_score)."""
    _check_lattice(params, emissions)
    _, log_z = _forward(params, emissions)
    return log_z


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

    alpha, log_z = _forward(params, emissions)
    beta = _backward_pass(params, emissions)

    nll = log_z - sequence_score(params, emissions, y)

    marginals = np.exp(alpha + beta - log_z)  # (T, K), rows sum to 1
    d_emissions = marginals.copy()
    d_emissions[np.arange(T), y] -= 1.0

    # pairwise marginals of all T-1 adjacent positions at once; empty when T == 1
    pairs = np.exp(
        alpha[:-1, :, None] + trans[:K, :K] + (emissions[1:] + beta[1:])[:, None, :] - log_z
    )
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
