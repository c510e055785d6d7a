"""Minimal reverse-mode differentiation over numpy arrays.

A :class:`Tensor` records the operation that produced it and its input
tensors; :func:`backward` walks the tape in reverse topological order and
accumulates gradients into every tracked ancestor.  A gradient is one
value: None until a contribution arrives, then an array or an
:class:`Outer`.  The first contribution is kept as it is, since every
operation passes a new array, a slice of its own output's gradient, or
an :class:`Outer`; later ones are added in place, and an :class:`Outer`
is written out before the first addition.  :func:`bilstm` gives its
input weight's first gradient as an :class:`Outer` when the two factors
are smaller than their product.  Only the operations the taggers call
exist, and every operand is a :class:`Tensor`.  Nothing broadcasts:
:func:`mul` takes two operands of the same shape.  Shapes follow a row
convention where batches and sequences sit on axis 0.

Gradient recording can be suspended with :func:`no_grad` for inference,
in which case the same functions compute values without building a tape.
"""

from __future__ import annotations

import contextlib
from typing import NamedTuple

import numpy as np

_grad_enabled = True

# Rows of one block of an :class:`Outer` product.  At the paper's
# dimensions a block of the word BiLSTM's W_x gradient is 75 x 350 floats
# (210 KB), so it stays in L2 from its product to its use.  In a scan of
# 25-300 rows over the BiLSTM-CRF + char training steps of the seed-1
# benchmark inputs (2-vCPU Xeon VM, 2 MB of L2 per core), the SGD update
# took least time at 75 rows and most at 300, unblocked.
OUTER_ROWS = 75


@contextlib.contextmanager
def no_grad():
    """Run the enclosed forward passes without recording gradients."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Outer(NamedTuple):
    """The stacked products ``a[d].T @ x``, kept as their factors: ``a``
    (S, N, M) and ``x`` (N, D) stand for an (S, M, D) array of rank at
    most N per product.

    Every reader of the product goes through :meth:`blocks`, so each
    reads the same bits.
    """

    a: np.ndarray
    x: np.ndarray

    def blocks(self):
        """Each ``(d, rows, block)``: rows ``rows`` of product ``d``, made
        :data:`OUTER_ROWS` at a time into one reused block."""
        S, _, M = self.a.shape
        reused = np.empty((min(M, OUTER_ROWS), self.x.shape[1]))
        for d in range(S):
            for start in range(0, M, OUTER_ROWS):
                rows = slice(start, min(start + OUTER_ROWS, M))
                block = reused[: rows.stop - start]
                np.matmul(self.a[d, :, rows].T, self.x, out=block)
                yield d, rows, block

    def fill(self) -> np.ndarray:
        """The products, written out into a new array."""
        out = np.empty((self.a.shape[0], self.a.shape[2], self.x.shape[1]))
        for d, rows, block in self.blocks():
            out[d, rows] = block
        return out

    def subtract_from(self, out: np.ndarray, scale: float):
        """``out -= scale * products``, one block at a time."""
        for d, rows, block in self.blocks():
            block *= scale
            out[d, rows] -= block

    def squared_norm(self) -> float:
        """The products' sum of squares from N x N Gram matrices:
        the sum over d of <a_d a_d^T, x x^T>."""
        grams = np.matmul(self.a, self.a.transpose(0, 2, 1)).sum(axis=0)
        return float(np.vdot(grams, self.x @ self.x.T))


class Tensor:
    __slots__ = ("data", "grad", "parents", "bw", "tracked")

    def __init__(self, data, parents=(), bw=None, tracked=False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None  # None, an array, or an Outer
        self.parents = parents
        self.bw = bw
        self.tracked = tracked

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g):
        """Add ``g`` to the gradient.  The first contribution is kept as it
        is; a later one is added in place, after an :class:`Outer` is
        written out."""
        if self.grad is None:
            self.grad = g
        else:
            grad = self.written()
            grad += g

    def written(self) -> np.ndarray:
        """The gradient as an array, an :class:`Outer` written out first."""
        if isinstance(self.grad, Outer):
            self.grad = self.grad.fill()
        return self.grad


def leaf(data) -> Tensor:
    """A tracked graph input (parameter or parameter row)."""
    return Tensor(data, tracked=_grad_enabled)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """The elementwise product of two tensors of the same shape."""
    out = a.data * b.data
    if not (_grad_enabled and (a.tracked or b.tracked)):
        return Tensor(out)

    def bw(g):
        if a.tracked:
            a.accumulate(g * b.data)
        if b.tracked:
            b.accumulate(g * a.data)

    return Tensor(out, (a, b), bw, True)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data @ b.data
    if not (_grad_enabled and (a.tracked or b.tracked)):
        return Tensor(out)

    def bw(g):
        if a.tracked:
            a.accumulate(g @ b.data.T)
        if b.tracked:
            b.accumulate(a.data.T @ g)

    return Tensor(out, (a, b), bw, True)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    """Join tensors along ``axis``; each part gets its slice of the gradient."""
    out = np.concatenate([p.data for p in parts], axis=axis)
    if not (_grad_enabled and any(p.tracked for p in parts)):
        return Tensor(out)
    bounds = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def bw(g):
        for p, piece in zip(parts, np.split(g, bounds, axis=axis)):
            if p.tracked:
                p.accumulate(piece)

    return Tensor(out, tuple(parts), bw, True)


def take(a: Tensor, index) -> Tensor:
    """``a.data[index]`` for any numpy index; repeated entries add their gradients."""
    out = a.data[index]
    if not (_grad_enabled and a.tracked):
        return Tensor(out)

    def bw(g):
        # C order, so that the scatter adds through a flat view and not into a copy
        a.grad = np.zeros(a.data.shape) if a.grad is None else np.ascontiguousarray(a.written())
        # each read element's flat position, for a 1-D scatter in index order
        positions = np.arange(a.data.size).reshape(a.data.shape)[index]
        np.add.at(a.grad.reshape(-1), positions.reshape(-1), g.reshape(-1))

    return Tensor(out, (a,), bw, True)


def bilstm(xs: Tensor, steps: np.ndarray, W_x, W_h, b, w_ci, w_co) -> Tensor:
    """Hidden states of both directions of a coupled-gate peephole BiLSTM.

    Each weight stacks the forward and backward directions on axis 0,
    and within a direction the input gate, candidate and output gate in
    row blocks of H: ``W_x`` (2, 3H, D), ``W_h`` (2, 3H, H), ``b``
    (2, 3H); the diagonal peepholes ``w_ci`` and ``w_co`` are (2, H).
    ``xs`` (N, D) holds the input rows, and the integer ``steps``
    (2, L, B) the row each direction's step reads in each of B
    sequences, so the backward direction reads its rows in reverse.  A
    row read by several steps is projected once: one GEMM per direction
    makes every row's input projection, and each step gathers its own.
    Every sequence runs all L steps, so a shorter one is read at its own
    last step: padding after it changes none of its states up to there,
    and a state nobody reads gets a zero gradient.  Returns the
    (2, L, B, H) hidden states as one tape node.  One loop runs both
    directions, and the hand-written BPTT scatter-adds each step's
    projection gradient into its row, then makes each stacked weight
    gradient with one batched GEMM or one reduction, once per call, and
    accumulates it on its leaf.

    The loops keep their per-step data time-major, so that a step's
    gates, states and peepholes are contiguous (2, B, H) blocks: the
    projections are gathered as (L, 3, 2, B, H), by step and gate, the
    states kept as (L+1, 2, B, H), of which the result is a view, the
    recorded gates as (L, 3, 2, B, H), and the peepholes broadcast to
    (2, B, H) once.  Numpy takes about twice as long per call on a
    strided gate slice or per-step view as on a contiguous block of the
    same shape.  The recurrent products and the (2, L, B, 3H) projection
    gradients keep the gates on the last axis, and the weight gradients
    read direction-major copies of the states, so that every product
    and sum reads the layout it always has, and gives the same bits.

    ``W_x``'s gradient is ``d_rows[d].T @ xs`` for the (2, N, 3H) row
    gradients, of rank at most N.  When it is the leaf's first
    contribution and the factors hold fewer floats than the product,
    N (3H + D) < 3H D, the leaf keeps them as an :class:`Outer`;
    otherwise one batched GEMM makes the product.
    """
    params = (W_x, W_h, b, w_ci, w_co)
    w_x, w_h, bias, ci, co = (p.data for p in params)
    _, L, B = steps.shape
    N, D = xs.data.shape
    H = ci.shape[1]
    ci, co = (np.broadcast_to(w[:, None, :], (2, B, H)).copy() for w in (ci, co))
    w_hT = w_h.transpose(0, 2, 1)
    direction = np.arange(2)[:, None]
    proj = (xs.data @ w_x.transpose(0, 2, 1) + bias[:, None, :]).reshape(2, N, 3, H)
    pre = proj[direction, steps.transpose(1, 0, 2)[:, None], np.arange(3)[:, None, None]]
    record = _grad_enabled and (xs.tracked or any(p.tracked for p in params))

    hs = np.zeros((L + 1, 2, B, H))
    cs = np.zeros((L + 1, 2, B, H))
    if record:
        gates = np.empty((L, 3, 2, B, H))  # i, tanh candidate, o
        tanh_cs = np.empty((L, 2, B, H))
    for t in range(L):
        h, c = hs[t], cs[t]
        z = pre[t] + (h @ w_hT).reshape(2, B, 3, H).transpose(2, 0, 1, 3)
        i = 1.0 / (1.0 + np.exp(-(z[0] + c * ci)))
        g = np.tanh(z[1])
        c_new = (1.0 - i) * c + i * g
        o = 1.0 / (1.0 + np.exp(-(z[2] + c_new * co)))
        tanh_c = np.tanh(c_new)
        hs[t + 1], cs[t + 1] = o * tanh_c, c_new
        if record:
            gates[t, 0], gates[t, 1], gates[t, 2] = i, g, o
            tanh_cs[t] = tanh_c
    out = hs[1:].transpose(1, 0, 2, 3)
    if not record:
        return Tensor(out)

    def bw(g_out):
        g_out = np.ascontiguousarray(g_out.transpose(1, 0, 2, 3))
        d_pre = np.empty((2, L, B, 3 * H))
        dh = np.zeros((2, B, H))
        dc = np.zeros((2, B, H))
        for t in range(L - 1, -1, -1):
            dh = dh + g_out[t]
            (i, g, o), tanh_c, d = gates[t], tanh_cs[t], d_pre[:, t]
            da_o = dh * tanh_c * o * (1.0 - o)
            dc_total = dc + dh * o * (1.0 - tanh_c * tanh_c) + da_o * co
            da_i = dc_total * (g - cs[t]) * i * (1.0 - i)
            d[..., :H] = da_i
            d[..., H : 2 * H] = dc_total * i * (1.0 - g * g)
            d[..., 2 * H :] = da_o
            dc = dc_total * (1.0 - i) + da_i * ci
            dh = d @ w_h
        # the states direction-major, (2, L+1, B, H), as the weight gradients read them
        hs_d, cs_d = (np.ascontiguousarray(a.transpose(1, 0, 2, 3)) for a in (hs, cs))
        d_rows = np.zeros((2, N, 3 * H))  # each row's projection gradient, per direction
        # a 1-D scatter of each step's elements into their rows' flat positions
        positions = ((direction[:, None] * N + steps) * (3 * H))[..., None] + np.arange(3 * H)
        np.add.at(d_rows.reshape(-1), positions.reshape(-1), d_pre.reshape(-1))
        if xs.tracked:
            xs.accumulate(d_rows[0] @ w_x[0] + d_rows[1] @ w_x[1])
        factored = W_x.grad is None and N * (3 * H + D) < 3 * H * D  # the factors are smaller
        flat = d_pre.reshape(2, L * B, 3 * H)
        grads = (
            lambda: Outer(d_rows, xs.data) if factored
            else np.matmul(d_rows.transpose(0, 2, 1), xs.data),
            lambda: np.matmul(flat.transpose(0, 2, 1), hs_d[:, :-1].reshape(2, L * B, H)),
            lambda: flat.sum(axis=1),
            lambda: (d_pre[..., :H] * cs_d[:, :-1]).sum(axis=(1, 2)),
            lambda: (d_pre[..., 2 * H :] * cs_d[:, 1:]).sum(axis=(1, 2)),
        )
        for param, grad in zip(params, grads):
            if param.tracked:
                param.accumulate(grad())

    return Tensor(out, (xs, *params), bw, True)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Summed cross-entropy of row-wise softmax against integer targets."""
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    exp = np.exp(z - zmax)
    probs = exp / exp.sum(axis=1, keepdims=True)
    log_z = np.log(exp.sum(axis=1)) + zmax[:, 0]
    idx = np.arange(len(targets))
    loss = float(np.sum(log_z - z[idx, targets]))
    if not (_grad_enabled and logits.tracked):
        return Tensor(loss)

    def bw(g):
        d = probs.copy()
        d[idx, targets] -= 1.0
        logits.accumulate(g * d)

    return Tensor(loss, (logits,), bw, True)


def backward(loss: Tensor):
    """Accumulate d(loss)/d(ancestor) into every tracked tensor's ``grad``."""
    if not loss.tracked:
        raise ValueError("loss tensor is not part of a recorded graph")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.tracked and id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node.bw is not None and node.grad is not None:
            node.bw(node.grad)
