import numpy as np
import pytest
from reference import run_lstm

from seqtag import autograd as ag
from seqtag.network import CELL_FIELDS


def finite_diff(fn, arrays, h=1e-6):
    """Central-difference gradients of a scalar function of numpy arrays."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = fn()
            flat[i] = orig - h
            lo = fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def check_grads(build, arrays, rtol=1e-6, atol=1e-8):
    """Compare autodiff gradients of build(leaves) against finite differences."""
    leaves = [ag.leaf(a) for a in arrays]
    loss = build(leaves)
    ag.backward(loss)
    numeric = finite_diff(lambda: float(build([ag.Tensor(a) for a in arrays]).data), arrays)
    for tensor, num in zip(leaves, numeric):
        np.testing.assert_allclose(tensor.grad, num, rtol=rtol, atol=atol)


class TestElementwiseOps:
    def test_mul_chain(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))

        def build(leaves):
            x, y = leaves
            s = ag.mul(ag.mul(x, y), x)
            return ag.softmax_cross_entropy(s, np.array([0, 1, 2]))

        check_grads(build, [a, b])

    def test_mask_column_broadcast(self):
        # a dropout mask has the shape of the representation it scales
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        mask = np.repeat([[1.0], [0.0], [1.0], [0.5]], 3, axis=1)

        def build(leaves):
            (xs,) = leaves
            return ag.softmax_cross_entropy(ag.mul(xs, ag.Tensor(mask)), np.array([0, 1, 2, 0]))

        check_grads(build, [x])


class TestMatmulAndActivations:
    def test_linear_sigmoid_tanh(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 5))
        w = rng.normal(size=(5, 3))

        def build(leaves):
            xs, ws = leaves
            return ag.softmax_cross_entropy(ag.matmul(xs, ws), np.array([2, 0]))

        check_grads(build, [x, w])


class TestStructuralOps:
    def test_concat_columns(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 4))

        def build(leaves):
            xs, ys = leaves
            return ag.softmax_cross_entropy(ag.concat([xs, ys], axis=1), np.array([0, 5, 3]))

        check_grads(build, [a, b])

    def test_concat_rows(self):
        # an untracked block stacked under the leaves, read through take with repeats
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 4))
        b = rng.normal(size=(1, 4))
        fixed = ag.Tensor(rng.normal(size=(2, 4)))

        def build(leaves):
            m = ag.concat([*leaves, fixed], axis=0)
            return ag.softmax_cross_entropy(ag.take(m, [4, 0, 2, 0, 3]), np.array([1, 3, 0, 2, 1]))

        check_grads(build, [a, b])

    def test_shared_subexpression_accumulates(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 2))

        def build(leaves):
            (xs,) = leaves
            y = ag.concat([ag.mul(xs, xs), ag.take(xs, [1, 0])], axis=1)
            return ag.softmax_cross_entropy(y, np.array([0, 1]))

        check_grads(build, [x])


def random_cell(input_dim, hidden_dim, rng):
    """A cell's weights by field name, uniform in [-1, 1], drawn field by field."""
    shapes = {"W_x": (hidden_dim, input_dim), "W_h": (hidden_dim, hidden_dim)}
    return {f: rng.uniform(-1.0, 1.0, shapes.get(f[:3], (hidden_dim,))) for f in CELL_FIELDS}


def stacked(fwd, bwd):
    """The (W_x, W_h, b, w_ci, w_co) that ag.bilstm reads: directions on axis 0,
    and the input gate, candidate and output gate in row blocks."""
    def gates(cell, prefix):
        return np.concatenate([cell[prefix + g] for g in "ico"])

    out = [np.stack([gates(fwd, prefix), gates(bwd, prefix)]) for prefix in ("W_x", "W_h", "b_")]
    return out + [np.stack([fwd["w_ci"], bwd["w_ci"]]), np.stack([fwd["w_co"], bwd["w_co"]])]


def bilstm_inputs(L=4, B=3, D=2, H=3, seed=11):
    """Inputs of both directions and two different cells."""
    rng = np.random.default_rng(seed)
    cells = random_cell(D, H, rng), random_cell(D, H, rng)
    return rng.normal(size=(2, L, B, D)), cells


class TestLstm:
    # ragged: column 0 runs 4 steps, column 1 stops after 2, column 2 skips steps 1 and 2
    MASK = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0], [1, 0, 1]], dtype=bool)

    def test_gradients_of_every_input_match_finite_differences(self):
        xs, cells = bilstm_inputs()
        L, B = self.MASK.shape
        dirs = np.repeat([0, 1], L * B)
        steps = np.tile(np.repeat(np.arange(L), B), 2)
        rows = np.tile(np.arange(B), 2 * L)
        targets = np.arange(2 * L * B) % 3

        def build(leaves):
            states = ag.bilstm(leaves[0], self.MASK, *leaves[1:])
            return ag.softmax_cross_entropy(ag.take(states, (dirs, steps, rows)), targets)

        check_grads(build, [xs, *stacked(*cells)])

    def test_masked_row_keeps_its_state(self):
        xs, cells = bilstm_inputs()
        states = ag.bilstm(ag.Tensor(xs), self.MASK, *map(ag.Tensor, stacked(*cells))).data
        for d in (0, 1):
            np.testing.assert_array_equal(states[d, 3, 1], states[d, 1, 1])
            np.testing.assert_array_equal(states[d, 2, 2], states[d, 0, 2])
            assert not np.array_equal(states[d, 3, 2], states[d, 2, 2])

    def test_no_grad_output_is_bitwise_equal_to_taped_output(self):
        xs, cells = bilstm_inputs()
        taped = ag.bilstm(ag.leaf(xs), self.MASK, *map(ag.leaf, stacked(*cells)))
        with ag.no_grad():
            plain = ag.bilstm(ag.leaf(xs), self.MASK, *map(ag.leaf, stacked(*cells)))
        assert taped.tracked and not plain.tracked
        assert taped.data.tobytes() == plain.data.tobytes()

    def test_each_direction_matches_the_reference_lstm(self):
        # each batch column of each direction is one reference pass over its active steps
        xs, cells = bilstm_inputs(L=5, B=3, D=4, H=3, seed=13)
        mask = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0], [1, 0, 1], [1, 0, 1]], dtype=bool)
        for m in (None, mask):
            states = ag.bilstm(ag.Tensor(xs), m, *map(ag.Tensor, stacked(*cells))).data
            for d, cell in enumerate(cells):
                for b in range(3):
                    active = np.flatnonzero(mask[:, b]) if m is not None else np.arange(5)
                    expected = run_lstm(cell, xs[d, active, b])
                    np.testing.assert_allclose(states[d, active, b], expected, atol=1e-12)

    def test_take_with_repeated_index_adds_gradients(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(3, 4))

        def build(leaves):
            (ms,) = leaves
            return ag.softmax_cross_entropy(ag.take(ms, [2, 0, 2]), np.array([1, 3, 0]))

        check_grads(build, [m])


class TestCrossEntropy:
    def test_matches_log_softmax_definition(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(5, 4))
        targets = np.array([0, 3, 2, 1, 0])
        loss = ag.softmax_cross_entropy(ag.Tensor(z), targets)
        expected = np.sum(np.log(np.exp(z).sum(axis=1)) - z[np.arange(5), targets])
        assert float(loss.data) == pytest.approx(expected, rel=1e-12)

    def test_uniform_logits_loss(self):
        loss = ag.softmax_cross_entropy(ag.Tensor(np.zeros((3, 4))), np.array([0, 1, 2]))
        assert float(loss.data) == pytest.approx(3 * np.log(4))


class TestNoGrad:
    def test_no_tape_is_built(self):
        x = ag.leaf(np.ones((2, 2)))
        with ag.no_grad():
            y = ag.mul(x, x)
        assert not y.tracked and y.parents == ()

    def test_values_match_graph_mode(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 3))
        on = ag.matmul(ag.leaf(x), ag.leaf(w)).data
        with ag.no_grad():
            off = ag.matmul(ag.leaf(x), ag.leaf(w)).data
        np.testing.assert_array_equal(on, off)

    def test_backward_requires_tracked_loss(self):
        with pytest.raises(ValueError):
            ag.backward(ag.Tensor(1.0))
