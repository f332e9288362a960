import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, traced_peak
from oplu_net import (
    Rng,
    ShapeError,
    expm,
    l2_norm,
    l2_norms,
    random_orthogonal,
    random_orthogonal_rect,
    random_skew_symmetric,
    xavier_init,
)
from oplu_net import linalg
from oplu_net.config import INIT_CHOICES
from oplu_net.linalg import INIT_KINDS, init_weights
from oplu_net.rng import UNIFORM_BLOCK

# the documented SplitMix64 increment, and how far the oracles below draw
# the scalar stream one by one
GAMMA = 0x9E3779B97F4A7C15
SCALAR_REACH = 300


def taylor_expm(s, terms=40):
    """Direct Taylor summation oracle: sum_k s^k / k!."""
    n = s.shape[0]
    total = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ s / k
        total = total + term
    return total


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))

    def test_quarter_turn_rotation(self):
        theta = math.pi / 2
        got = expm(np.array([[0.0, theta], [-theta, 0.0]]))
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.abs(got - expected).max() <= 1e-12

    def test_against_taylor_oracle(self):
        rng = Rng(9)
        for _ in range(25):
            s = random_skew_symmetric(4, 1.0, rng)
            got = expm(s)
            expected = taylor_expm(s)
            rel = np.linalg.norm(got - expected) / np.linalg.norm(expected)
            assert rel <= 1e-12

    def test_large_norm_rotation_blocks(self):
        # S = P blockdiag(theta_i J) P^T with J = [[0, 1], [-1, 0]] has the
        # closed form exp(S) = P blockdiag([[cos, sin], [-sin, cos]]) P^T;
        # angles up to 100 take 8 squarings, the permutation scatters each
        # block over the whole matrix
        rng = Rng(17)
        n = 40
        thetas = rng.uniform_array(n // 2, -100.0, 100.0).tolist()
        thetas[0] = 100.0
        s = np.zeros((n, n))
        expected = np.zeros((n, n))
        for i, theta in enumerate(thetas):
            c, sn = math.cos(theta), math.sin(theta)
            s[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[0.0, theta], [-theta, 0.0]]
            expected[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[c, sn], [-sn, c]]
        order = list(range(n))
        rng.shuffle(order)
        perm = np.eye(n)[order]
        got = expm(perm @ s @ perm.T)
        expected = perm @ expected @ perm.T
        rel = np.linalg.norm(got - expected) / np.linalg.norm(expected)
        assert rel <= 1e-12

    def test_peak_memory_is_four_arrays(self):
        # S^2, S^3 and two ping-pong buffers; the allowance above four
        # arrays is a hundredth of one, for Python objects
        n = 300
        s = random_skew_symmetric(n, math.pi, Rng(2))
        _, peak = traced_peak(lambda: expm(s))
        assert peak <= 4.01 * n * n * 8

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            expm(np.zeros((2, 3)))


class TestRandomSkewSymmetric:
    def test_one_by_one_is_zero(self):
        assert np.array_equal(random_skew_symmetric(1, 1.0, Rng(0)), np.zeros((1, 1)))

    def test_exact_antisymmetry_and_range(self):
        rng = Rng(21)
        for n in (2, 3, 7, 20):
            s = random_skew_symmetric(n, 0.5, rng)
            assert np.array_equal(s + s.T, np.zeros((n, n)))
            assert np.abs(s).max() <= 0.5

    def test_golden_seed7(self):
        # regression lock on the reference stream (verified antisymmetric,
        # entries in range, at freeze time)
        s = random_skew_symmetric(3, 1.0, Rng(7))
        expected_upper = np.array(
            [-0.22034050321745702, -0.9664234109436878, 0.8015213612137668]
        )
        assert np.array_equal(s[np.triu_indices(3, 1)], expected_upper)


class TestRandomOrthogonal:
    def test_one_by_one_is_identity(self):
        assert np.array_equal(random_orthogonal(1, Rng(0)), np.eye(1))

    def test_orthogonality_across_sizes(self):
        # >= 100 random skews across the size grid
        rng = Rng(31)
        for n, reps in ((2, 40), (4, 35), (10, 23), (100, 2)):
            for _ in range(reps):
                q = random_orthogonal(n, rng)
                assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-10

    def test_orthogonal_at_image_width(self):
        q = random_orthogonal(784, Rng(0))
        assert np.abs(q.T @ q - np.eye(784)).max() <= 1e-12

    def test_determinant_plus_one(self):
        rng = Rng(4)
        for n in (2, 5, 12):
            assert abs(np.linalg.det(random_orthogonal(n, rng)) - 1.0) <= 1e-8

    def test_preserves_vector_norms(self):
        rng = Rng(8)
        for n in (2, 6, 40):
            q = random_orthogonal(n, rng)
            v = rng.uniform_array(n, -3, 3)
            assert abs(l2_norm(v @ q) - l2_norm(v)) <= 1e-10 * max(l2_norm(v), 1.0)

    def test_rectangular_slices_are_orthonormal(self):
        rng = Rng(13)
        tall = random_orthogonal_rect(10, 3, rng)
        assert np.abs(tall.T @ tall - np.eye(3)).max() <= 1e-10
        wide = random_orthogonal_rect(2, 10, rng)
        assert np.abs(wide @ wide.T - np.eye(2)).max() <= 1e-10


class TestInitWeights:
    def test_square_orthogonal_is_random_orthogonal_bit_for_bit(self):
        rect_rng, square_rng = Rng(5), Rng(5)
        rect = init_weights("orthogonal", 6, 6, rect_rng)
        assert rect.tobytes() == random_orthogonal(6, square_rng).tobytes()
        assert rect_rng.next_u64() == square_rng.next_u64()  # the same draws, in the same order

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)], ids=["wide", "tall"])
    def test_kinds_are_the_initializers(self, shape):
        assert np.array_equal(init_weights("xavier", *shape, Rng(2)), xavier_init(*shape, Rng(2)))
        assert np.array_equal(init_weights("orthogonal", *shape, Rng(2)),
                              random_orthogonal_rect(*shape, Rng(2)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown init 'glorot'"):
            init_weights("glorot", 2, 2, Rng(0))

    def test_config_offers_every_kind(self):
        assert INIT_CHOICES == ("auto",) + INIT_KINDS


class TestXavierInit:
    def test_bounds(self):
        w = xavier_init(20, 30, Rng(6))
        limit = math.sqrt(6.0 / 50)
        assert np.abs(w).max() <= limit

    def test_tiny_fan_limit_value(self):
        assert math.isclose(math.sqrt(6.0 / (1 + 2)), math.sqrt(2), rel_tol=1e-12)
        w = xavier_init(1, 2, Rng(0))
        assert np.abs(w).max() <= math.sqrt(2)

    def test_sample_variance(self):
        w = xavier_init(300, 300, Rng(17))
        limit = math.sqrt(6.0 / 600)
        expected_var = limit * limit / 3.0
        assert abs(w.var() - expected_var) <= 0.2 * expected_var


class TestL2Norm:
    def test_pythagorean(self):
        assert l2_norm(np.array([3.0, 4.0])) == 5.0

    def test_zero_vector(self):
        assert l2_norm(np.zeros(7)) == 0.0

    def test_against_naive_loop(self):
        rng = Rng(23)
        v = rng.uniform_array(101, -5, 5)
        acc = 0.0
        for x in v:
            acc += float(x) * float(x)
        assert abs(l2_norm(v) - math.sqrt(acc)) <= 1e-14

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, values):
        v = np.array(values)
        assert l2_norm(v) == l2_norm(v[::-1])

    def test_bit_equal_to_scalar_squares(self):
        # oracle: each square as a Python float product, then fsum
        def scalar_norm(v):
            return math.sqrt(math.fsum(float(x) * float(x) for x in v))

        rng = Rng(31)
        for n in (1, 2, 7, 100, 301):
            for scale in (1e-160, 1e-3, 1.0, 1e5, 1e150):
                v = rng.uniform_array(n, -scale, scale)
                order = list(range(n))
                rng.shuffle(order)
                for w in (v, v[order], v.reshape(1, n)):
                    assert l2_norm(w) == scalar_norm(w.ravel())
        tiny = np.array([5e-324, -2.5e-310, 1e-300])
        assert l2_norm(tiny) == scalar_norm(tiny)

    def test_overflowing_square_is_scaled_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert l2_norm(np.array([1e200, 1.0])) == 1e200

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_finite_row_is_inf_only_beyond_the_float_range(self, values):
        # the exact sum of squares as a Fraction: a finite norm is within a
        # few units in the last place of its root, apart from the squares
        # that underflow, and inf only when the root is within 2^-50 of
        # the largest double or beyond it
        norm = l2_norm(np.array(values))
        exact = sum(Fraction(v) ** 2 for v in values)
        if norm == math.inf:
            assert exact >= (Fraction(sys.float_info.max) * (1 - Fraction(1, 2**50))) ** 2
        else:
            assert abs(Fraction(norm) ** 2 - exact) <= Fraction(8, 2**53) * exact + Fraction(len(values), 2**1074)


def reference_norms(rows):
    """An oracle for l2_norms that shares none of its code: the squares of
    each last-axis row as Python float products, then one math.fsum."""
    rows = np.asarray(rows)
    rows = rows.reshape(math.prod(rows.shape[:-1]), rows.shape[-1])
    return [math.sqrt(math.fsum([v * v for v in row])) for row in rows.tolist()]


def same_floats(a, b):
    # repr tells -0.0 from 0.0 and makes every NaN equal to every other
    return [repr(v) for v in a] == [repr(v) for v in b]


def _ordinary(rng, shape):
    return rng.uniform_array(math.prod(shape), -1, 1).reshape(shape)


def _wide_exponents(rng, shape):
    return _ordinary(rng, shape) * 10.0 ** rng.uniform_array(math.prod(shape), -150, 150).reshape(shape)


def _subnormal_squares(rng, shape):
    return _ordinary(rng, shape) * 10.0 ** rng.uniform_array(math.prod(shape), -170, -150).reshape(shape)


def _near_the_top(rng, shape):
    # squares up to 2^1022 / width: sums just below the overflow threshold
    return _ordinary(rng, shape) * (2.0**511 / math.sqrt(max(shape[-1], 1)))


def _signed_zeros(rng, shape):
    x = _ordinary(rng, shape)
    x[x < -0.3] = -0.0
    x[x > 0.3] = 0.0
    return x


def _powers_of_two(rng, shape):
    k = rng.randint_array(math.prod(shape), 120).reshape(shape) - 60
    return np.ldexp(np.sign(_ordinary(rng, shape)), k)


def _binary_tails(rng, shape):
    # a head of 1 and tails on a 2^-80 grid: sums near the midpoints of 1
    x = np.ldexp(rng.randint_array(math.prod(shape), 2**21).reshape(shape) - 2.0**20, -80)
    x[..., :1] = 1.0
    return x


def _non_finite(rng, shape):
    x = _ordinary(rng, shape)
    if shape[-1]:
        x[0::3, 0] = np.inf
        x[1::3, -1] = -np.inf
        x[2::3, shape[-1] // 2] = np.nan
    return x


FAMILIES = [_ordinary, _wide_exponents, _subnormal_squares, _near_the_top, _signed_zeros, _powers_of_two,
            _binary_tails, _non_finite]

# x*x rounds to an even double m, and sqrt(m) and sqrt(m + ulp(m)) differ:
# the squares of [X, 2^-27, 2^-27] sum to the midpoint m + ulp(m)/2, which
# rounds to m, and 2^-80 more makes the sum round up to m + ulp(m)
MIDPOINT_HEAD = float.fromhex("0x1.0af4397524d6bp+0")


class TestL2Norms:
    def test_each_row_equals_l2_norm(self):
        rng = Rng(41)
        rows = rng.uniform_array(4 * 5 * 7, -3, 3).reshape(4, 5, 7)
        rows[0, 0, :2] = 1e200, -1e200  # squares overflow: the row is scaled
        rows[1, 2] = [5e-324, -2.5e-310, 1e-300, 0.0, -0.0, 0.0, 1e-160]
        rows[2, 3] = 1e150
        norms = l2_norms(rows)
        assert norms[0] == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
        assert norms == [l2_norm(row) for row in rows.reshape(-1, 7)]

    def test_list_of_arrays_runs_over_each_arrays_rows_in_turn(self):
        rng = Rng(42)
        blocks = [rng.uniform_array(3 * 4, -1, 1).reshape(3, 4), rng.uniform_array(6, -1, 1),
                  np.zeros((2, 0)), np.array(-2.5), [1e200, 3.0]]
        expected = [l2_norm(row) for row in blocks[0]] + [l2_norm(blocks[1]), 0.0, 0.0, 2.5, 1e200]
        assert l2_norms(blocks) == expected

    def test_no_rows(self):
        assert l2_norms(np.zeros((0, 5))) == []

    def test_overflow_is_scaled_without_warning(self):
        rows = [[1e200, 1.0], [3.0, 4.0], np.full(7, 1e154), [1e308, 1e308], [1.5e308, 1.5e308]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = l2_norms(rows)
        assert norms[:2] == [1e200, 5.0]
        assert norms[2] == pytest.approx(math.sqrt(7) * 1e154, rel=1e-15)
        assert norms[3] == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)
        assert norms[4] == math.inf

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__.strip("_"))
    @pytest.mark.parametrize("width", [0, 1, 2, 3, 5, 7, 33, 64, 100])
    def test_bit_equal_to_the_fsum_reference(self, family, width):
        rows = family(Rng(43 + width), (40, width))
        assert same_floats(l2_norms(rows), reference_norms(rows))

    def test_zero_d_arrays_and_mixed_shapes(self):
        rng = Rng(44)
        blocks = [np.array(-0.0), _wide_exponents(rng, (3, 5)), np.zeros((0, 4)), _ordinary(rng, (2, 3, 5)),
                  np.array(7.5), [0.25, -1.0], _binary_tails(rng, (4, 3)), np.zeros((2, 0))]
        expected = [0.0]
        for b in blocks[1:]:
            expected += reference_norms(np.reshape(b, (-1,)) if np.ndim(b) == 0 else b)
        assert same_floats(l2_norms(blocks), expected)

    def test_rows_on_and_beside_a_midpoint_take_the_fallback(self, monkeypatch):
        # in a block of 64-wide rows, where ordinary data does not fall back
        t = 2.0**-27
        rows = _ordinary(Rng(45), (64, 64))
        rows[:4] = 0.0
        rows[:4, :4] = [[1.0, t, t, 0.0], [1.0, t, t, 2.0**-80],
                        [MIDPOINT_HEAD, t, t, 0.0], [MIDPOINT_HEAD, t, t, 2.0**-80]]
        fsums = count_calls(monkeypatch, linalg.math, "fsum")
        norms = l2_norms(rows)
        assert len(fsums) == 4
        assert norms == reference_norms(rows)
        assert norms[2] == MIDPOINT_HEAD < norms[3]  # the tie rounds down, the row beside it up

    def test_rows_whose_remainders_round_across_a_boundary_take_the_fallback(self, monkeypatch):
        # Each row's float sum of remainders rounds to the other side of a
        # rounding boundary of its exact sum. In the first, the three c^2
        # are lost, so the computed sum lies 2^-104 below a midpoint and the
        # exact one above it: only the slack sends it to the fallback. In
        # the second, the computed sum is the midpoint just below 1, where
        # the gap below is half the gap above, and the exact sum lies under
        # it. Both norms come out one unit in the last place off on the fast
        # path.
        c = 1.4895204919483638e-16  # c^2 = 0.9 * 2^-105 to within rounding
        rows = [[float.fromhex("0x1.2f4d450d7d140p+0"), 2.0**-27, 2.0**-27 - 2.0**-78, c, c, c],
                [1 - 2.0**-53, 2.0**-27, 2.0**-27, float.fromhex("0x1.7bb598c88b4adp-54"), 2.0**-27 - 2.0**-80]]
        fsums = count_calls(monkeypatch, linalg.math, "fsum")
        norms = l2_norms(rows)
        assert len(fsums) == 2
        assert norms == [reference_norms([row])[0] for row in rows] == [1.1847727926188585, 1 - 2.0**-53]

    def test_permutation_never_moves_a_norm_on_the_fast_path(self, monkeypatch):
        rng = Rng(46)
        for family in (_ordinary, _wide_exponents, _powers_of_two):
            rows = family(rng, (50, 33))
            rows[:2] = [[0.0], [-0.0]]  # a row of zeros is exact
            shuffled = rows.copy()
            for row in shuffled:
                order = list(range(len(row)))
                rng.shuffle(order)
                row[:] = row[order]
            fsums = count_calls(monkeypatch, linalg.math, "fsum")
            assert l2_norms(shuffled) == l2_norms(rows)
            assert fsums == []


class TestRng:
    def test_identical_seeds_identical_streams(self):
        a, b = Rng(99), Rng(99)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_reference_stream(self):
        # regression lock on the documented recurrence
        r = Rng(12345)
        assert [r.next_u64() for _ in range(4)] == [
            2454886589211414944,
            3778200017661327597,
            2205171434679333405,
            3248800117070709450,
        ]

    def test_vectorized_block_matches_scalar_stream(self):
        a, b = Rng(7), Rng(7)
        block = a.uniform_array(64, -2.0, 3.0)
        scalars = np.array([b.uniform(-2.0, 3.0) for _ in range(64)])
        assert np.array_equal(block, scalars)
        # streams stay aligned afterwards
        assert a.next_u64() == b.next_u64()

    @pytest.mark.parametrize("n", [0, 1, UNIFORM_BLOCK - 1, UNIFORM_BLOCK, UNIFORM_BLOCK + 1,
                                   3 * UNIFORM_BLOCK + 5])
    def test_blocked_uniform_matches_scalar_stream(self, n):
        a, b = Rng(11), Rng(11)
        block = a.uniform_array(n, -0.5, 2.0)
        scalars = np.array([b.uniform(-0.5, 2.0) for _ in range(n)])
        assert block.dtype == np.float64 and block.shape == (n,)
        assert block.tobytes() == scalars.tobytes()
        assert a.next_u64() == b.next_u64()

    def test_uniform_peak_is_output_plus_few_blocks(self):
        n = 10**6
        _, peak = traced_peak(lambda: Rng(3).uniform_array(n))
        # the reused uint64 block and one block temporary are live at once
        assert peak <= 8 * n + 4 * 8 * UNIFORM_BLOCK

    def test_block_buffers_keep_the_scalar_stream(self):
        # calls whose blocks straddle block edges, then the other
        # block-drawn methods, all on one stream
        a, b = Rng(13), Rng(13)
        for n in (5000, UNIFORM_BLOCK + 4097, 3):
            block = a.uniform_array(n, -1.0, 1.0)
            scalars = np.array([b.uniform(-1.0, 1.0) for _ in range(n)])
            assert block.tobytes() == scalars.tobytes()
        assert a.randint_array(9000, 1000).tolist() == [b.randint(1000) for _ in range(9000)]
        assert a.next_u64() == b.next_u64()

    def test_uniform_peak_is_output_plus_two_blocks(self):
        n = 4 * UNIFORM_BLOCK
        _, peak = traced_peak(lambda: Rng(3).uniform_array(n))
        # the output, the reused uint64 block and one block temporary
        assert peak <= 8 * n + 2 * 8 * UNIFORM_BLOCK + 16 * 1024

    def test_randint_block_matches_scalar(self):
        a, b = Rng(5), Rng(5)
        block = a.randint_array(32, 11)
        scalars = np.array([b.randint(11) for _ in range(32)])
        assert np.array_equal(block, scalars)

    def test_shuffle_deterministic(self):
        items1 = list(range(10))
        items2 = list(range(10))
        Rng(42).shuffle(items1)
        Rng(42).shuffle(items2)
        assert items1 == items2
        assert sorted(items1) == list(range(10))

    def test_shuffle_matches_scalar_fisher_yates(self):
        # the block-drawn swaps equal one randint(i + 1) per position
        for n in (0, 1, 2, 7, 1000):
            shuffled, reference = list(range(n)), list(range(n))
            a, b = Rng(42), Rng(42)
            a.shuffle(shuffled)
            for i in range(n - 1, 0, -1):
                j = b.randint(i + 1)
                reference[i], reference[j] = reference[j], reference[i]
            assert shuffled == reference
            assert a.next_u64() == b.next_u64()

    def test_reseeding_k_increments_on_continues_the_stream(self):
        # the recurrence state += gamma: a generator seeded k increments
        # past another draws what that one draws after k draws, which is
        # the reference the oracles below use for offsets past 2^32
        for seed in (0, 7, 2**64 - 1):
            stream = Rng(seed)
            for k in range(50):
                assert Rng(seed + k * GAMMA).next_u64() == stream.next_u64()

    @given(st.integers(0, 2**64 - 1),
           st.lists(st.one_of(st.integers(0, SCALAR_REACH), st.integers(2**32 - 3, 2**62)),
                    max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_uniform_at_reads_the_scalar_stream(self, seed, offsets):
        # unsorted and repeated offsets, near or past 2^32
        rng = Rng(seed)
        got = rng.uniform_at(np.array(offsets, dtype=np.int64))
        scalar = Rng(seed)
        stream = [scalar.uniform() for _ in range(SCALAR_REACH + 1)]
        expected = [stream[k] if k <= SCALAR_REACH else Rng(seed + k * GAMMA).uniform()
                    for k in offsets]
        assert got.dtype == np.float64 and got.shape == (len(offsets),)
        assert got.tobytes() == np.array(expected, dtype=np.float64).tobytes()
        # the read does not advance the stream
        assert rng.next_u64() == Rng(seed).next_u64()

    def test_uniform_at_keeps_the_offsets_shape(self):
        offsets = np.array([[3, 0, 3], [9, 1, 4]])
        got = Rng(21).uniform_at(offsets)
        stream = Rng(21).uniform_array(10)
        assert got.tobytes() == stream[offsets].tobytes()

    @given(st.integers(0, 2**64 - 1), st.one_of(st.integers(0, SCALAR_REACH), st.integers(2**32, 2**70)))
    @settings(max_examples=150, deadline=None)
    def test_skip_leaves_the_state_of_n_scalar_draws(self, seed, n):
        skipped = Rng(seed)
        skipped.skip(n)
        if n <= SCALAR_REACH:
            drawn = Rng(seed)
            for _ in range(n):
                drawn.uniform()
        else:
            drawn = Rng(seed + n * GAMMA)
        assert skipped.next_u64() == drawn.next_u64()

    def test_spawn_gives_distinct_stream(self):
        parent = Rng(1)
        child = parent.spawn()
        assert [child.next_u64() for _ in range(4)] != [parent.next_u64() for _ in range(4)]
