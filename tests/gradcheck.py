"""Finite-difference gradient checking shared by unit and acceptance tests."""

import numpy as np

from seqtag.network import dense_arrays, loss_and_gradients, table_arrays


def central_diff(loss_fn, arr, i, h):
    flat = arr.ravel()
    orig = flat[i]
    flat[i] = orig + h
    hi = loss_fn()
    flat[i] = orig - h
    lo = loss_fn()
    flat[i] = orig
    return (hi - lo) / (2 * h)


def rel_error(analytic, numeric, floor=1e-8, atol=1e-9):
    """Relative error with an absolute guard for near-zero coordinate pairs."""
    if abs(analytic - numeric) < atol:
        return 0.0
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def coordinate_ok(analytic, numeric, rtol=1e-4):
    return rel_error(analytic, numeric) < rtol


def check_model_gradients(model, sentence, gold, h=1e-5):
    """Check every parameter coordinate of a model against central differences.

    Returns (worst relative error, number of coordinates checked); raises
    AssertionError naming the offending parameter on failure.
    """
    _, grads = loss_and_gradients(model, sentence, gold, dropout=0.0)

    def loss_fn():
        return loss_and_gradients(model, sentence, gold, dropout=0.0)[0]

    worst = 0.0
    checked = 0
    for name, arr in dense_arrays(model).items():
        g = grads.dense[name].ravel()
        for i in range(arr.size):
            numeric = central_diff(loss_fn, arr, i, h)
            assert coordinate_ok(g[i], numeric), (
                f"{name}[{i}]: analytic {g[i]!r} vs numeric {numeric!r}"
            )
            worst = max(worst, rel_error(g[i], numeric))
            checked += 1

    for table_name, matrix in table_arrays(model).items():
        for idx, row_grad in grads.rows.get(table_name, {}).items():
            row = matrix[idx]
            for j in range(row.size):
                numeric = central_diff(loss_fn, row, j, h)
                assert coordinate_ok(row_grad[j], numeric), (
                    f"{table_name}[{idx}][{j}]: analytic {row_grad[j]!r} vs numeric {numeric!r}"
                )
                worst = max(worst, rel_error(row_grad[j], numeric))
                checked += 1
    return worst, checked


def zero_everything(model):
    for arr in dense_arrays(model).values():
        arr[...] = 0.0
    for arr in table_arrays(model).values():
        arr[...] = 0.0
    model.word_table[...] = 0.0
