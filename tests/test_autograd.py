import numpy as np
import pytest
from reference import bilstm as reference_bilstm
from reference import run_lstm

from seqtag import autograd as ag
from seqtag.network import CELL_FIELDS, _time_first


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
        np.testing.assert_allclose(tensor.written(), num, rtol=rtol, atol=atol)


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
    """Inputs of both directions, one row per step, the (2, L, B) row
    each step reads, and two different cells."""
    rng = np.random.default_rng(seed)
    cells = random_cell(D, H, rng), random_cell(D, H, rng)
    xs = rng.normal(size=(2 * L * B, D))  # the draws of a (2, L, B, D) batch
    return xs, np.arange(2 * L * B).reshape(2, L, B), cells


def per_step(xs, steps):
    """The (2, L, B, D) view of inputs stored one row per step."""
    return xs.reshape(*steps.shape, -1)


def last_steps(lengths):
    """The (direction, step, row) index of each sequence's final states, both directions."""
    rows = np.tile(np.arange(len(lengths)), 2)
    return np.repeat([0, 1], len(lengths)), np.tile(np.asarray(lengths) - 1, 2), rows


def shared_steps():
    """(2, 4, 3) steps over 4 rows for sequences of ``TestLstm.LENGTHS``:
    row 1 is read by several steps of both directions, row 0 by steps
    within a sequence and by padded ones, and row 3 by padded steps only."""
    steps = np.empty((2, 4, 3), dtype=np.intp)
    for b, (seq, pad) in enumerate([([0, 1, 0, 1], 0), ([2, 1], 3), ([1], 0)]):
        for d, order in enumerate((seq, seq[::-1])):
            steps[d, : len(seq), b], steps[d, len(seq) :, b] = order, pad
    return steps


def steps_within(lengths):
    """The (direction, step, sequence) index of every state before padding."""
    d, t, b = zip(*[(d, t, b) for d in (0, 1) for b, n in enumerate(lengths) for t in range(n)])
    return np.array(d), np.array(t), np.array(b)


class TestLstm:
    # ragged: column 0 runs all 4 steps, column 1 ends after 2 and column 2 after 1
    LENGTHS = (4, 2, 1)

    def test_gradients_of_every_input_match_finite_differences(self):
        # each sequence is read at its own last step only, as the char BiLSTM reads words
        xs, steps, cells = bilstm_inputs()
        targets = np.arange(2 * len(self.LENGTHS)) % 3

        def build(leaves):
            states = ag.bilstm(leaves[0], steps, *leaves[1:])
            return ag.softmax_cross_entropy(ag.take(states, last_steps(self.LENGTHS)), targets)

        check_grads(build, [xs, *stacked(*cells)])

    def test_padding_after_the_end_changes_no_state_up_to_the_last_step(self):
        xs, steps, cells = bilstm_inputs()
        weights = [ag.Tensor(w) for w in stacked(*cells)]
        other = xs.copy()
        for b, n in enumerate(self.LENGTHS):
            pad = per_step(other, steps)[:, n:, b]
            pad[...] = np.random.default_rng(b).normal(size=pad.shape)
        states = ag.bilstm(ag.Tensor(xs), steps, *weights).data
        padded = ag.bilstm(ag.Tensor(other), steps, *weights).data
        for b, n in enumerate(self.LENGTHS):
            assert states[:, :n, b].tobytes() == padded[:, :n, b].tobytes()
        assert not np.array_equal(states[:, 2:, 1], padded[:, 2:, 1])

    def test_a_step_past_the_end_gets_a_zero_gradient(self):
        xs, steps, cells = bilstm_inputs()
        leaves = [ag.leaf(xs), *map(ag.leaf, stacked(*cells))]
        states = ag.bilstm(leaves[0], steps, *leaves[1:])
        targets = np.zeros(2 * len(self.LENGTHS), dtype=np.intp)
        ag.backward(ag.softmax_cross_entropy(ag.take(states, last_steps(self.LENGTHS)), targets))
        grad = per_step(leaves[0].grad, steps)
        for b, n in enumerate(self.LENGTHS):
            assert not np.any(grad[:, n:, b])
            assert np.all(np.any(grad[:, :n, b], axis=-1))

    def test_no_grad_output_is_bitwise_equal_to_taped_output(self):
        xs, steps, cells = bilstm_inputs()
        taped = ag.bilstm(ag.leaf(xs), steps, *map(ag.leaf, stacked(*cells)))
        with ag.no_grad():
            plain = ag.bilstm(ag.leaf(xs), steps, *map(ag.leaf, stacked(*cells)))
        assert taped.tracked and not plain.tracked
        assert taped.data.tobytes() == plain.data.tobytes()

    def test_each_direction_matches_the_reference_lstm(self):
        # each column of each direction, up to its last step, is one reference pass over it
        xs, steps, cells = bilstm_inputs(L=5, B=3, D=4, H=3, seed=13)
        states = ag.bilstm(ag.Tensor(xs), steps, *map(ag.Tensor, stacked(*cells))).data
        for d, cell in enumerate(cells):
            for b, n in enumerate((5, 2, 1)):
                expected = run_lstm(cell, per_step(xs, steps)[d, :n, b])
                np.testing.assert_allclose(states[d, :n, b], expected, atol=1e-12)

    def test_a_row_read_by_many_steps_gets_the_gradient_of_every_read(self):
        xs, _, cells = bilstm_inputs()
        rows, steps = xs[:4], shared_steps()
        index = steps_within(self.LENGTHS)
        targets = np.arange(len(index[0])) % 3

        def build(leaves):
            states = ag.bilstm(leaves[0], steps, *leaves[1:])
            return ag.softmax_cross_entropy(ag.take(states, index), targets)

        check_grads(build, [rows, *stacked(*cells)])
        leaves = [ag.leaf(rows), *map(ag.leaf, stacked(*cells))]
        ag.backward(build(leaves))
        assert not np.any(leaves[0].grad[3])  # read by padded steps only
        assert np.all(np.any(leaves[0].grad[:3], axis=-1))

    def test_shared_rows_give_the_states_of_one_row_per_step(self):
        xs, own, cells = bilstm_inputs()
        rows, steps = xs[:4], shared_steps()
        weights = [ag.Tensor(w) for w in stacked(*cells)]
        shared = ag.bilstm(ag.Tensor(rows), steps, *weights).data
        each = ag.bilstm(ag.Tensor(rows[steps].reshape(-1, rows.shape[1])), own, *weights).data
        np.testing.assert_allclose(shared, each, rtol=0, atol=1e-12)

    def test_no_grad_output_on_shared_rows_is_bitwise_equal_to_taped_output(self):
        xs, _, cells = bilstm_inputs()
        rows, steps = xs[:4], shared_steps()
        taped = ag.bilstm(ag.leaf(rows), steps, *map(ag.leaf, stacked(*cells)))
        with ag.no_grad():
            plain = ag.bilstm(ag.leaf(rows), steps, *map(ag.leaf, stacked(*cells)))
        assert taped.tracked and not plain.tracked
        assert taped.data.tobytes() == plain.data.tobytes()

    def test_take_with_repeated_index_adds_gradients(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(3, 4))

        def build(leaves):
            (ms,) = leaves
            return ag.softmax_cross_entropy(ag.take(ms, [2, 0, 2]), np.array([1, 3, 0]))

        check_grads(build, [m])


# The shapes the taggers give the op: each case's sequences of input
# rows, the number of rows N, and the input width D.
CALLER_SHAPES = {
    # the training word BiLSTM: one sentence, one row per token
    "one_unpadded_sequence": ([[0, 1, 2, 3, 4]], 5, 4),
    # decoding: sentences of unequal lengths, padded to the longest
    "three_padded_sequences": ([[0, 1, 2, 3], [4, 5], [6]], 7, 4),
    # the char BiLSTM: words over their distinct characters; row 3 is unread
    "rows_read_by_several_steps": ([[0, 1, 0, 1], [2, 1], [1]], 4, 4),
    # the same at D = 8, where 4 (9 + 8) < 9 * 8 keeps W_x's gradient as its factors
    "factored_input_weight": ([[0, 1, 0, 1], [2, 1], [1]], 4, 8),
}


def caller_inputs(shape, H=3, seed=17):
    """The rows, the (2, L, B) steps as the taggers lay them out, the
    sequences and two cells of one of :data:`CALLER_SHAPES`."""
    sequences, N, D = CALLER_SHAPES[shape]
    rng = np.random.default_rng(seed)
    cells = random_cell(D, H, rng), random_cell(D, H, rng)
    rows = rng.normal(size=(N, D))
    lengths = np.array([len(seq) for seq in sequences])
    return rows, np.concatenate(sequences)[_time_first(lengths)[0]], sequences, cells


@pytest.mark.parametrize("shape", CALLER_SHAPES)
class TestCallerShapes:
    def test_no_grad_output_is_bitwise_equal_to_taped_output(self, shape):
        rows, steps, _, cells = caller_inputs(shape)
        taped = ag.bilstm(ag.leaf(rows), steps, *map(ag.leaf, stacked(*cells)))
        with ag.no_grad():
            plain = ag.bilstm(ag.leaf(rows), steps, *map(ag.leaf, stacked(*cells)))
        assert taped.tracked and not plain.tracked
        assert taped.data.tobytes() == plain.data.tobytes()

    def test_states_match_the_reference_bilstm_per_sequence(self, shape):
        # the backward direction's step s holds position n - 1 - s of a sequence
        rows, steps, sequences, cells = caller_inputs(shape)
        states = ag.bilstm(ag.Tensor(rows), steps, *map(ag.Tensor, stacked(*cells))).data
        for b, seq in enumerate(sequences):
            n = len(seq)
            got = np.concatenate([states[0, :n, b], states[1, :n, b][::-1]], axis=1)
            want = reference_bilstm(*cells, rows[seq])
            np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self, shape):
        rows, steps, sequences, cells = caller_inputs(shape)
        index = steps_within([len(seq) for seq in sequences])
        targets = np.arange(len(index[0])) % 3

        def build(leaves):
            states = ag.bilstm(leaves[0], steps, *leaves[1:])
            return ag.softmax_cross_entropy(ag.take(states, index), targets)

        w_x = grads_of(build, [rows, *stacked(*cells)])[1]
        assert isinstance(w_x, ag.Outer) == (shape == "factored_input_weight")
        check_grads(build, [rows, *stacked(*cells)])


def grads_of(build, arrays):
    """The gradient ``build`` leaves on a fresh leaf of each array."""
    leaves = [ag.leaf(a) for a in arrays]
    ag.backward(build(leaves))
    return [leaf.grad for leaf in leaves]


class TestAccumulation:
    """A gradient's first contribution is kept, and later ones add to it."""

    def test_a_weight_with_two_consumers_gets_the_sum_of_both(self):
        rng = np.random.default_rng(21)
        x, y, w = rng.normal(size=(4, 3)), rng.normal(size=(2, 3)), rng.normal(size=(3, 5))
        targets = np.array([0, 4, 1, 2, 3, 0])

        def build(leaves):
            ws, vs = leaves * (3 - len(leaves))  # one leaf read twice, or two leaves once each
            both = ag.concat([ag.matmul(ag.Tensor(x), ws), ag.matmul(ag.Tensor(y), vs)], axis=0)
            return ag.softmax_cross_entropy(both, targets)

        (shared,) = grads_of(build, [w])
        first, second = grads_of(build, [w, w])
        assert shared.tobytes() == (first + second).tobytes()
        check_grads(build, [w])

    def test_a_bilstm_weight_read_by_two_calls_gets_the_sum_of_both(self):
        # the first call's gradients are kept, and the second call's are added
        xs, steps, cells = bilstm_inputs()
        other = np.random.default_rng(3).normal(size=xs.shape)
        targets = np.arange(4 * len(TestLstm.LENGTHS)) % 3
        index = last_steps(TestLstm.LENGTHS)

        def build(leaves):
            weights = (leaves, leaves) if len(leaves) == 5 else (leaves[:5], leaves[5:])
            states = [ag.bilstm(ag.Tensor(x), steps, *w) for x, w in zip((xs, other), weights)]
            picked = ag.concat([ag.take(s, index) for s in states], axis=0)
            return ag.softmax_cross_entropy(picked, targets)

        shared = grads_of(build, stacked(*cells))
        each = grads_of(build, stacked(*cells) * 2)
        for g, first, second in zip(shared, each[:5], each[5:]):
            assert g.tobytes() == (first + second).tobytes()
        check_grads(build, stacked(*cells))

    def test_a_bilstm_input_weight_keeps_its_gradient_as_factors_when_they_are_smaller(self):
        # 4 rows of D = 8 against 3H = 9: 4 * (9 + 8) < 9 * 8, so W_x's gradient is an Outer
        xs, _, cells = bilstm_inputs(D=8)
        rows, steps = xs[:4], shared_steps()
        targets = np.arange(2 * len(TestLstm.LENGTHS)) % 3
        index = last_steps(TestLstm.LENGTHS)

        def build(leaves, *inputs):
            states = [ag.bilstm(ag.Tensor(x), steps, *leaves) for x in inputs]
            picked = ag.concat([ag.take(s, index) for s in states], axis=0)
            return ag.softmax_cross_entropy(picked, np.tile(targets, len(inputs)))

        once = grads_of(lambda leaves: build(leaves, rows), stacked(*cells))
        assert isinstance(once[0], ag.Outer)
        assert all(isinstance(g, np.ndarray) for g in once[1:])
        check_grads(lambda leaves: build(leaves, rows), stacked(*cells))
        # a second contribution writes the factors out before it adds
        other = np.random.default_rng(5).normal(size=rows.shape)
        twice = grads_of(lambda leaves: build(leaves, rows, other), stacked(*cells))
        assert all(isinstance(g, np.ndarray) for g in twice)
        check_grads(lambda leaves: build(leaves, rows, other), stacked(*cells))


class TestTakeScatter:
    """``take``'s backward adds into the flat positions of its gradient;
    the oracle is the row-wise ``np.add.at`` over the same index."""

    @staticmethod
    def grad_and_oracle(leaf, index, first=None):
        """The gradient ``take`` leaves on ``leaf``, and the oracle's, from
        ``first`` (zeros when None) plus the output's gradient."""
        out = ag.take(leaf, index)
        targets = np.arange(len(out.data)) % out.shape[1]
        ag.backward(ag.softmax_cross_entropy(out, targets))
        expected = np.zeros(leaf.shape) if first is None else first.copy()
        np.add.at(expected, index, out.grad)
        return leaf.grad, expected

    @pytest.mark.parametrize("shape, index", [
        ((4, 3), [2, 0, 2, 2, 3, 2]),  # repeated rows
        ((2, 5, 3), (np.array([0, 1, 0, 0, 1]), np.array([2, 2, 4, 2, 2]))),  # leading axes
    ])
    def test_matches_the_row_scatter_bitwise(self, shape, index):
        rng = np.random.default_rng(23)
        leaf = ag.leaf(rng.normal(size=shape))
        got, expected = self.grad_and_oracle(leaf, index)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_adds_after_an_earlier_contribution_bitwise(self):
        rng = np.random.default_rng(25)
        leaf = ag.leaf(rng.normal(size=(4, 3)))
        first = rng.normal(size=(4, 3)).T.copy().T  # a Fortran-ordered first gradient
        leaf.accumulate(first)
        got, expected = self.grad_and_oracle(leaf, [1, 3, 1], first)
        assert got.flags.c_contiguous and got.tobytes() == expected.tobytes()


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
