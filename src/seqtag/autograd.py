"""Minimal reverse-mode differentiation over numpy arrays.

A :class:`Tensor` records the operation that produced it and its input
tensors; :func:`backward` walks the tape in reverse topological order and
accumulates gradients into every tracked ancestor.  Only the operations
the taggers call exist, and every operand is a :class:`Tensor`.  Nothing
broadcasts: :func:`mul` takes two operands of the same shape.  Shapes
follow a row convention where batches and sequences sit on axis 0.

Gradient recording can be suspended with :func:`no_grad` for inference,
in which case the same functions compute values without building a tape.
"""

from __future__ import annotations

import contextlib

import numpy as np

_grad_enabled = True


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


class Tensor:
    __slots__ = ("data", "grad", "parents", "bw", "tracked")

    def __init__(self, data, parents=(), bw=None, tracked=False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.bw = bw
        self.tracked = tracked

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g


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
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, index, g)

    return Tensor(out, (a,), bw, True)


def bilstm(xs: Tensor, mask: np.ndarray | None, W_x, W_h, b, w_ci, w_co) -> Tensor:
    """Hidden states of both directions of a coupled-gate peephole BiLSTM.

    Each weight stacks the forward and backward directions on axis 0,
    and within a direction the input gate, candidate and output gate in
    row blocks of H: ``W_x`` (2, 3H, D), ``W_h`` (2, 3H, H), ``b``
    (2, 3H); the diagonal peepholes ``w_ci`` and ``w_co`` are (2, H).
    ``xs`` (2, L, B, D) holds each direction's time-first padded batch,
    so the backward direction gets its input already reversed.  Where
    the (L, B) carry ``mask`` is 0, that row of both directions keeps
    its previous h and c.  Returns the (2, L, B, H) hidden states as one
    tape node.  One batched GEMM makes every input projection, one loop
    runs both directions, and the hand-written BPTT makes each stacked
    weight gradient with one batched GEMM.
    """
    params = (W_x, W_h, b, w_ci, w_co)
    w_x, w_h, bias, ci, co = (p.data for p in params)
    _, L, B, D = xs.data.shape
    H = ci.shape[1]
    ci, co = ci[:, None, :], co[:, None, :]  # broadcast over the batch
    w_hT = w_h.transpose(0, 2, 1)
    pre = xs.data.reshape(2, L * B, D) @ w_x.transpose(0, 2, 1) + bias[:, None, :]
    pre = pre.reshape(2, L, B, 3 * H)
    keep = None if mask is None else np.asarray(mask, dtype=bool)[:, :, None]
    record = _grad_enabled and (xs.tracked or any(p.tracked for p in params))

    hs = np.zeros((2, L + 1, B, H))
    cs = np.zeros((2, L + 1, B, H))
    if record:
        gates = np.empty((2, L, B, 3 * H))  # i, tanh candidate, o
        tanh_cs = np.empty((2, L, B, H))
    for t in range(L):
        h, c = hs[:, t], cs[:, t]
        z = pre[:, t] + h @ w_hT
        i = 1.0 / (1.0 + np.exp(-(z[..., :H] + c * ci)))
        g = np.tanh(z[..., H : 2 * H])
        c_new = (1.0 - i) * c + i * g
        o = 1.0 / (1.0 + np.exp(-(z[..., 2 * H :] + c_new * co)))
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        if keep is None:
            hs[:, t + 1], cs[:, t + 1] = h_new, c_new
        else:
            hs[:, t + 1] = np.where(keep[t], h_new, h)
            cs[:, t + 1] = np.where(keep[t], c_new, c)
        if record:
            gate = gates[:, t]
            gate[..., :H], gate[..., H : 2 * H], gate[..., 2 * H :] = i, g, o
            tanh_cs[:, t] = tanh_c
    out = hs[:, 1:]
    if not record:
        return Tensor(out)

    def bw(g_out):
        d_pre = np.empty((2, L, B, 3 * H))
        dh = np.zeros((2, B, H))
        dc = np.zeros((2, B, H))
        for t in range(L - 1, -1, -1):
            dh = dh + g_out[:, t]
            if keep is None:
                dh_new, dc_new = dh, dc
            else:
                # a kept row passes its gradient straight to the previous step
                dh_new, dc_new = np.where(keep[t], dh, 0.0), np.where(keep[t], dc, 0.0)
                dh, dc = np.where(keep[t], 0.0, dh), np.where(keep[t], 0.0, dc)
            gate, d = gates[:, t], d_pre[:, t]
            i, g, o = gate[..., :H], gate[..., H : 2 * H], gate[..., 2 * H :]
            tanh_c = tanh_cs[:, t]
            da_o = dh_new * tanh_c * o * (1.0 - o)
            dc_total = dc_new + dh_new * o * (1.0 - tanh_c * tanh_c) + da_o * co
            da_i = dc_total * (g - cs[:, t]) * i * (1.0 - i)
            d[..., :H] = da_i
            d[..., H : 2 * H] = dc_total * i * (1.0 - g * g)
            d[..., 2 * H :] = da_o
            dc_prev = dc_total * (1.0 - i) + da_i * ci
            dh_prev = d @ w_h
            if keep is None:
                dh, dc = dh_prev, dc_prev
            else:
                dh, dc = dh + dh_prev, dc + dc_prev
        flat = d_pre.reshape(2, L * B, 3 * H)
        if xs.tracked:
            xs.accumulate((flat @ w_x).reshape(2, L, B, D))
        flat_t = flat.transpose(0, 2, 1)
        grads = (
            flat_t @ xs.data.reshape(2, L * B, D),
            flat_t @ hs[:, :-1].reshape(2, L * B, H),
            flat.sum(axis=1),
            (d_pre[..., :H] * cs[:, :-1]).sum(axis=(1, 2)),
            # a kept row has a zero d_pre, so cs[:, 1:] may stand for c_new
            (d_pre[..., 2 * H :] * cs[:, 1:]).sum(axis=(1, 2)),
        )
        for param, grad in zip(params, grads):
            if param.tracked:
                param.accumulate(grad)

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
