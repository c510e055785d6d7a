import itertools
import math
import warnings

import numpy as np
import pytest
from gradcheck import central_diff, coordinate_ok
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqtag import autograd as ag
from seqtag import crf
from seqtag.crf import (
    _forward_backward,
    _log_space_forward_backward,
    crf_nll_op,
    input_nll_and_gradient,
    nll_and_gradient,
    sequence_score,
    viterbi,
)

# ---------------------------------------------------------------------------
# brute-force oracles: direct summation over explicit sequences, written
# independently of the lattice code
# ---------------------------------------------------------------------------


def brute_score(trans, emissions, y):
    T, K = emissions.shape
    total = trans[K, y[0]]
    for t in range(T):
        total += emissions[t, y[t]]
        if t > 0:
            total += trans[y[t - 1], y[t]]
    total += trans[y[-1], K]
    return total


def all_sequences(T, K):
    return itertools.product(range(K), repeat=T)


def brute_log_partition(trans, emissions):
    T, K = emissions.shape
    scores = [brute_score(trans, emissions, y) for y in all_sequences(T, K)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_best(trans, emissions):
    """(max score, lexicographically smallest argmax sequence)."""
    T, K = emissions.shape
    best_score, best_seq = -math.inf, None
    for y in all_sequences(T, K):  # lexicographic iteration order
        s = brute_score(trans, emissions, y)
        if s > best_score + 1e-12:
            best_score, best_seq = s, y
    return best_score, list(best_seq)


def random_instance(rng, T, K):
    trans = rng.normal(scale=1.5, size=(K + 1, K + 1))
    emissions = rng.normal(scale=1.5, size=(T, K))
    return trans, emissions


class TestSequenceScore:
    def test_zero_params_score_zero(self):
        trans = np.zeros((4, 4))
        emissions = np.zeros((5, 3))
        for y in ([0, 1, 2, 0, 1], [2, 2, 2, 2, 2]):
            assert sequence_score(trans, emissions, y) == 0.0

    def test_single_token_zero_transitions(self):
        trans = np.zeros((4, 4))
        emissions = np.array([[1.5, -2.0, 0.25]])
        for k in range(3):
            assert sequence_score(trans, emissions, [k]) == emissions[0, k]

    def test_matches_hand_summed_factors(self):
        rng = np.random.default_rng(0)
        trans, emissions = random_instance(rng, T=3, K=3)
        for y in all_sequences(3, 3):
            assert sequence_score(trans, emissions, list(y)) == pytest.approx(
                brute_score(trans, emissions, y), abs=1e-12
            )

    def test_length_mismatch(self):
        trans = np.zeros((3, 3))
        with pytest.raises(ValueError):
            sequence_score(trans, np.zeros((2, 2)), [0])


class TestLogPartition:
    def test_uniform_model_counts_sequences(self):
        trans = np.zeros((4, 4))
        assert _forward_backward(trans, np.zeros((2, 3)))[0] == pytest.approx(math.log(9))

    def test_single_position_reduces_to_logsumexp(self):
        rng = np.random.default_rng(1)
        trans, emissions = random_instance(rng, T=1, K=4)
        expected = math.log(
            sum(math.exp(trans[4, k] + emissions[0, k] + trans[k, 4]) for k in range(4))
        )
        assert _forward_backward(trans, emissions)[0] == pytest.approx(expected, abs=1e-10)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            T, K = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            trans, emissions = random_instance(rng, T, K)
            assert _forward_backward(trans, emissions)[0] == pytest.approx(
                brute_log_partition(trans, emissions), abs=1e-8
            )

    def test_column_shift_property(self):
        rng = np.random.default_rng(3)
        trans, emissions = random_instance(rng, T=4, K=3)
        z0 = _forward_backward(trans, emissions)[0]
        y = [2, 0, 1, 1]
        s0 = sequence_score(trans, emissions, y)
        v0 = viterbi(trans, emissions, [len(emissions)])
        shifted = emissions.copy()
        shifted[2] += 0.75
        assert _forward_backward(trans, shifted)[0] == pytest.approx(z0 + 0.75, abs=1e-10)
        assert sequence_score(trans, shifted, y) == pytest.approx(s0 + 0.75, abs=1e-10)
        assert viterbi(trans, shifted, [len(shifted)]) == v0


class TestNllAndGradient:
    def test_uniform_model_nll(self):
        trans = np.zeros((4, 4))
        nll = nll_and_gradient(trans, np.zeros((2, 3)), [0, 1])[0]
        assert nll == pytest.approx(2 * math.log(3))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        trans, emissions = random_instance(rng, T=4, K=3)
        y = [0, 2, 1, 2]
        _, d_emissions, d_trans = nll_and_gradient(trans, emissions, y)

        h = 1e-5

        def nll_at():
            return nll_and_gradient(trans, emissions, y)[0]

        for arr, g in ((trans, d_trans), (emissions, d_emissions)):
            flat, gflat = arr.ravel(), g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                hi = nll_at()
                flat[i] = orig - h
                lo = nll_at()
                flat[i] = orig
                numeric = (hi - lo) / (2 * h)
                denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                assert abs(numeric - gflat[i]) / denom < 1e-4

    def test_transition_gradient_equals_enumerated_expectation(self):
        rng = np.random.default_rng(5)
        # T=1 has no adjacent pair, T=2 one; [0, 0, 0, 1] repeats a gold pair
        for y in ([1, 0, 2], [2], [0, 2], [0, 0, 0, 1]):
            T = len(y)
            trans, emissions = random_instance(rng, T=T, K=3)
            d_trans = nll_and_gradient(trans, emissions, y)[2]

            # oracle: expected pair counts under the enumerated distribution
            log_z = brute_log_partition(trans, emissions)
            expected = np.zeros_like(trans)
            for seq in all_sequences(T, 3):
                p = math.exp(brute_score(trans, emissions, seq) - log_z)
                expected[3, seq[0]] += p
                for t in range(1, T):
                    expected[seq[t - 1], seq[t]] += p
                expected[seq[-1], 3] += p
            observed = np.zeros_like(trans)
            observed[3, y[0]] += 1
            for t in range(1, T):
                observed[y[t - 1], y[t]] += 1
            observed[y[-1], 3] += 1
            np.testing.assert_allclose(d_trans, expected - observed, atol=1e-8)

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            T, K = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            trans, emissions = random_instance(rng, T, K)
            log_z = _forward_backward(trans, emissions)[0]
            total = sum(
                math.exp(sequence_score(trans, emissions, list(y)) - log_z)
                for y in all_sequences(T, K)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_score_bounded_by_partition(self):
        rng = np.random.default_rng(7)
        trans, emissions = random_instance(rng, T=4, K=3)
        log_z = _forward_backward(trans, emissions)[0]
        for y in all_sequences(4, 3):
            assert sequence_score(trans, emissions, list(y)) < log_z
        # K = 1: the only sequence carries all the mass
        trans1 = np.array([[0.3, -1.0], [2.0, 0.1]])
        emissions1 = np.array([[0.5], [1.5], [-0.25]])
        assert sequence_score(trans1, emissions1, [0, 0, 0]) == pytest.approx(
            _forward_backward(trans1, emissions1)[0], abs=1e-12
        )


@pytest.fixture
def fallbacks(monkeypatch):
    """Records each call of the log-space fallback made by _forward_backward."""
    calls = []

    def counting(trans, emissions):
        calls.append(emissions.shape)
        return _log_space_forward_backward(trans, emissions)

    monkeypatch.setattr(crf, "_log_space_forward_backward", counting)
    return calls


@pytest.fixture
def periods(monkeypatch):
    """Records the rescale period of each recursion _forward_backward runs."""
    calls = []
    real = crf._chain

    def recording(rows, factors, every):
        calls.append(every)
        return real(rows, factors, every)

    monkeypatch.setattr(crf, "_chain", recording)
    return calls


def spread_instance(rng, T, K, spread, scale=3.0):
    """A random lattice whose transition scores read span exactly ``spread`` nats:
    all in [0, w], w = min(spread, 2), but for one at w - spread.  Scores of a
    few nats keep the log-space oracle's sums, and so its rounding, small."""
    w = min(spread, 2.0)
    trans = rng.uniform(0.0, w, size=(K + 1, K + 1))
    trans[0, 1], trans[1, 0] = w - spread, w
    return trans, rng.normal(scale=scale, size=(T, K))


class TestScaledForwardBackward:
    def assert_matches_log_space(self, trans, emissions):
        log_z, marginals, pairs = _forward_backward(trans, emissions)
        want_z, want_marginals, want_pairs = _log_space_forward_backward(trans, emissions)
        T, K = emissions.shape
        assert marginals.shape == (T, K) and pairs.shape == (T - 1, K, K)
        assert log_z == pytest.approx(want_z, rel=1e-12)
        np.testing.assert_allclose(marginals, want_marginals, rtol=0, atol=1e-10)
        np.testing.assert_allclose(pairs, want_pairs, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("T", [1, 2, 12, 300])
    def test_matches_log_space_recursions(self, fallbacks, T):
        rng = np.random.default_rng(100 + T)
        trans = rng.normal(scale=1.5, size=(8, 8))
        emissions = rng.normal(scale=3.0, size=(T, 7))
        self.assert_matches_log_space(trans, emissions)
        assert fallbacks == []

    def test_emission_spread_above_700(self, fallbacks):
        rng = np.random.default_rng(12)
        emissions = rng.normal(scale=3.0, size=(20, 5))
        emissions[::3, 1] += 400.0
        emissions[::3, 3] -= 400.0
        assert (np.exp(emissions - emissions.max(axis=1, keepdims=True)) == 0.0).any()
        trans = rng.normal(scale=1.5, size=(6, 6))
        self.assert_matches_log_space(trans, emissions)
        assert fallbacks == []

    def test_transitions_at_minus_800(self, fallbacks):
        rng = np.random.default_rng(13)
        trans = -800.0 + rng.normal(scale=0.5, size=(6, 6))
        emissions = rng.normal(scale=3.0, size=(15, 5))
        self.assert_matches_log_space(trans, emissions)
        assert fallbacks == []

    def test_unused_start_to_stop_entry_does_not_matter(self, fallbacks):
        rng = np.random.default_rng(14)
        trans = rng.normal(size=(4, 4))
        emissions = rng.normal(size=(6, 3))
        want = _forward_backward(trans, emissions)
        trans[3, 3] = 5000.0
        got = _forward_backward(trans, emissions)
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])
        assert fallbacks == []

    def test_forced_underflow_falls_back(self, fallbacks):
        # staying on the diagonal costs 2000 a position, leaving it 900;
        # exp(-900) and exp(-2000) are 0 in float64, so scaling has nothing left
        K, T = 3, 4
        trans = np.full((K + 1, K + 1), -900.0)
        np.fill_diagonal(trans, 0.0)
        trans[K, :] = trans[:, K] = 0.0
        emissions = np.full((T, K), -2000.0)
        emissions[np.arange(T), np.arange(T) % K] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_z, marginals, pairs = _forward_backward(trans, emissions)
            nll, _, d_trans = nll_and_gradient(trans, emissions, [0, 1, 2, 0])
        assert fallbacks
        assert log_z == pytest.approx(brute_log_partition(trans, emissions), rel=1e-12)
        assert log_z == pytest.approx(-2700.0, rel=1e-12)
        np.testing.assert_allclose(marginals.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite(nll) and np.all(np.isfinite(d_trans))

    @staticmethod
    def revival_instance(gap):
        # two tags A, B; start -> B and A -> B cost `gap`.  With exp(-900)
        # flushed to 0 a scaled pass would keep only A, with the normal
        # scale factors exp(-600) at t = 1 and 2, and give log Z = -1200,
        # while the path through the lost A -> B term carries log Z ~ -900.
        trans = np.array([[0.0, -gap, 0.0], [0.0, 0.0, 0.0], [0.0, -gap - 100.0, 0.0]])
        emissions = np.array([[0.0, 0.0], [-600.0, 0.0], [-600.0, 0.0]])
        return trans, emissions

    def test_lost_path_that_small_scale_factors_revive_falls_back(self, fallbacks):
        trans, emissions = self.revival_instance(900.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_z = _forward_backward(trans, emissions)[0]
        assert fallbacks
        assert log_z == pytest.approx(brute_log_partition(trans, emissions), rel=1e-12)
        assert log_z == pytest.approx(-900.0, abs=1e-6)

    def test_transition_spread_just_inside_the_limit_stays_scaled(self, fallbacks):
        # the same shape with a spread of 299 nats: exp(-299) survives, so
        # nothing is lost and the scaled pass is exact
        trans, emissions = self.revival_instance(199.0)
        self.assert_matches_log_space(trans, emissions)
        assert _forward_backward(trans, emissions)[0] == pytest.approx(
            brute_log_partition(trans, emissions), rel=1e-12
        )
        assert fallbacks == []

    def test_non_finite_lattice_gives_non_finite_loss(self, fallbacks):
        trans = np.zeros((4, 4))
        for bad in (np.nan, np.inf):
            emissions = np.zeros((3, 3))
            emissions[1, 2] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                nll = nll_and_gradient(trans, emissions, [0, 1, 2])[0]
            assert not np.isfinite(nll)
        assert len(fallbacks) == 2

    # r = min(360 / max(spread, 1), 700 / ln(K + 1)) positions between rescales
    @pytest.mark.parametrize("spread, every", [(0.5, 336), (150.0, 2), (299.0, 1)])
    def test_long_lattices_rescaled_every_r_positions(self, fallbacks, periods, spread, every):
        # T = 2000 rescales 5 times, every 2 positions and every position
        trans, emissions = spread_instance(np.random.default_rng(int(spread)), 2000, 7, spread)
        # the log-space oracle rounds in proportion to its sums, about |log Z|
        # (1e4 here, and 1e-10 off in the marginals against extended precision);
        # one score taken off every position moves log Z alone, to about 0
        emissions -= _log_space_forward_backward(trans, emissions)[0] / len(emissions)
        self.assert_matches_log_space(trans, emissions)
        assert periods == [every, every]  # the forward and the backward recursion
        assert fallbacks == []

    # the fixture's list spans the examples, and stays empty only if each does
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        T=st.integers(1, 300),
        K=st.integers(1, 8),
        spread=st.floats(0.0, 300.0),
        scale=st.floats(0.0, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_lattices_match_log_space_recursions(self, fallbacks, T, K, spread, scale, seed):
        trans, emissions = spread_instance(np.random.default_rng(seed), T, K, spread, scale)
        self.assert_matches_log_space(trans, emissions)
        assert fallbacks == []

    def test_gradients_match_finite_differences_across_rescales(self, fallbacks, periods):
        # one transition at -120 sets the spread, so both recursions rescale
        # every 2 positions, 10 times over 20; the gold path avoids it
        rng = np.random.default_rng(15)
        trans, emissions = random_instance(rng, T=20, K=3)
        trans[0, 1] = -120.0
        y = [2, 0, 0, 2, 1, 1, 2, 0, 2, 2, 1, 0, 0, 0, 2, 1, 2, 0, 2, 1]
        _, d_emissions, d_trans = nll_and_gradient(trans, emissions, y)
        assert set(periods) == {2}
        h = 1e-5
        for arr, grad in ((trans, d_trans), (emissions, d_emissions)):
            for i in range(arr.size):
                numeric = central_diff(lambda: nll_and_gradient(trans, emissions, y)[0], arr, i, h)
                assert coordinate_ok(grad.ravel()[i], numeric), (arr.shape, i)
        assert fallbacks == []


class TestViterbi:
    def test_zero_params_tie_break_to_lowest_index(self):
        trans = np.zeros((5, 5))
        assert viterbi(trans, np.zeros((4, 4)), [4]) == [0, 0, 0, 0]

    def test_zero_transitions_factorizes(self):
        trans = np.zeros((4, 4))
        emissions = np.array([[0.0, 2.0, 1.0], [3.0, 0.0, -1.0], [0.0, 0.5, 4.0]])
        assert viterbi(trans, emissions, [len(emissions)]) == [1, 0, 2]

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            T, K = int(rng.integers(1, 7)), int(rng.integers(2, 5))
            trans, emissions = random_instance(rng, T, K)
            best_score, best_seq = brute_best(trans, emissions)
            got = viterbi(trans, emissions, [len(emissions)])
            assert sequence_score(trans, emissions, got) == pytest.approx(
                best_score, abs=1e-9
            )
            assert got == best_seq

    def test_ties_prefer_lexicographically_smallest(self):
        # two tags made fully symmetric: every maximizer has a mirror
        trans = np.zeros((3, 3))
        emissions = np.tile(np.array([[1.0, 1.0]]), (3, 1))
        assert viterbi(trans, emissions, [len(emissions)]) == [0, 0, 0]

    def test_a_nan_score_is_read_as_argmax_reads_it(self):
        # a NaN max picks the first NaN successor, as np.argmax does; a
        # lattice beside it in the batch decodes as alone
        emissions = np.array([[0.0, 0.0], [0.0, np.nan], [0.0, 0.0], [1.0, 0.0]])
        assert viterbi(np.zeros((3, 3)), emissions, [2, 2]) == [0, 1, 0, 0]

    def test_beats_random_sequences(self):
        rng = np.random.default_rng(9)
        trans, emissions = random_instance(rng, T=8, K=4)
        best = sequence_score(trans, emissions, viterbi(trans, emissions, [len(emissions)]))
        for _ in range(1000):
            y = rng.integers(0, 4, size=8)
            assert sequence_score(trans, emissions, y) <= best + 1e-12


@st.composite
def lattice_batches(draw, bound=2, tags=4, longest=6, min_size=1):
    """Transitions and a batch of lattices of mixed lengths, 1 included;
    the scores are integers in [-bound, bound], so exact ties are common."""
    K = draw(st.integers(1, tags))
    lengths = draw(st.lists(st.integers(1, longest), min_size=min_size, max_size=5))

    def scores(n):
        ints = st.integers(-bound, bound)
        return np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=float)

    trans = scores((K + 1) ** 2).reshape(K + 1, K + 1)
    return trans, scores(sum(lengths) * K).reshape(-1, K), lengths


class TestBatchedViterbi:
    @given(lattice_batches())
    def test_each_lattice_decodes_as_alone_and_as_brute_force(self, batch):
        trans, emissions, lengths = batch
        got = viterbi(trans, emissions, lengths)
        assert len(got) == len(emissions)
        start = 0
        for T in lengths:
            lattice = emissions[start : start + T]
            alone = viterbi(trans, lattice, [len(lattice)])
            assert got[start : start + T] == alone
            if T <= 4:  # lexicographically smallest of the best sequences
                assert alone == brute_best(trans, lattice)[1]
            start += T

    @given(lattice_batches(bound=1, tags=3, longest=5, min_size=2))
    def test_ties_everywhere_decode_to_the_smallest_best_path(self, batch):
        # scores in {-1, 0, 1} make many paths tie exactly; the successor
        # table must still pick the smallest tag that attains each optimum
        trans, emissions, lengths = batch
        got = viterbi(trans, emissions, lengths)
        start = 0
        for T in lengths:
            lattice = emissions[start : start + T]
            best = brute_best(trans, lattice)[1]
            assert got[start : start + T] == best
            assert viterbi(trans, lattice, [T]) == best
            start += T

    @pytest.mark.parametrize("lengths", [[2, 2], [0, 5], [6], [], [[2, 3]]])
    def test_lengths_must_split_the_rows(self, lengths):
        with pytest.raises(ValueError, match="lengths"):
            viterbi(np.zeros((3, 3)), np.zeros((5, 2)), lengths)


class TestInputPath:
    def test_emission_weight_gradient_by_finite_differences(self):
        rng = np.random.default_rng(10)
        K, D, T = 3, 5, 4
        trans, weights = rng.normal(size=(K + 1, K + 1)), rng.normal(size=(K, D))
        inputs = rng.normal(size=(T, D))
        y = [0, 2, 1, 1]
        _, d_weights, _ = input_nll_and_gradient(trans, inputs, weights, y)

        h = 1e-5
        flat = weights.ravel()
        gflat = d_weights.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = input_nll_and_gradient(trans, inputs, weights, y)[0]
            flat[i] = orig - h
            lo = input_nll_and_gradient(trans, inputs, weights, y)[0]
            flat[i] = orig
            numeric = (hi - lo) / (2 * h)
            denom = max(abs(numeric), abs(gflat[i]), 1e-8)
            assert abs(numeric - gflat[i]) / denom < 1e-4

    def test_lattice_shape(self):
        # the lattice is inputs @ weights.T: (5, 4) inputs and (2, 4) weights give (5, 2)
        rng = np.random.default_rng(15)
        trans, weights, inputs = np.zeros((3, 3)), rng.normal(size=(2, 4)), rng.normal(size=(5, 4))
        nll, d_weights, d_trans = input_nll_and_gradient(trans, inputs, weights, [0, 1, 1, 0, 1])
        assert d_weights.shape == (2, 4) and d_trans.shape == (3, 3)
        want = nll_and_gradient(trans, inputs @ weights.T, [0, 1, 1, 0, 1])
        assert nll == want[0] and d_trans.tobytes() == want[2].tobytes()

    def test_weight_rows_must_match_the_tag_count(self):
        with pytest.raises(ValueError, match="lattice has 3 tags but transitions expect 2"):
            input_nll_and_gradient(np.zeros((3, 3)), np.ones((2, 4)), np.ones((3, 4)), [0, 1])


class TestLatticeChecks:
    @pytest.mark.parametrize("shape", [(3, 4), (1, 1), (3,)])
    def test_transitions_must_be_square_and_hold_a_tag(self, shape):
        with pytest.raises(ValueError, match="transitions must be square"):
            viterbi(np.zeros(shape), np.zeros((2, 2)), [2])

    def test_non_finite_transitions_are_not_checked_here(self):
        # values are checked where they enter: a loaded checkpoint, an epoch of training
        trans = np.zeros((3, 3))
        trans[0, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert not np.isfinite(nll_and_gradient(trans, np.zeros((2, 2)), [0, 1])[0])


class TestGraphOp:
    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        K, T = 3, 4
        trans = rng.normal(size=(K + 1, K + 1))
        emissions = rng.normal(size=(T, K))
        y = [2, 0, 1, 0]

        e_leaf, t_leaf = ag.leaf(emissions.copy()), ag.leaf(trans.copy())
        ag.backward(crf_nll_op(e_leaf, t_leaf, y))

        h = 1e-5
        for arr, leaf_grad in ((emissions, e_leaf.grad), (trans, t_leaf.grad)):
            flat = arr.ravel()
            gflat = leaf_grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                hi = nll_and_gradient(trans, emissions, y)[0]
                flat[i] = orig - h
                lo = nll_and_gradient(trans, emissions, y)[0]
                flat[i] = orig
                numeric = (hi - lo) / (2 * h)
                assert abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-8) < 1e-4

    def test_no_grad_mode(self):
        with ag.no_grad():
            out = crf_nll_op(ag.leaf(np.zeros((2, 2))), ag.leaf(np.zeros((3, 3))), [0, 1])
        assert not out.tracked
