import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplu_net import (
    Rng,
    ShapeError,
    expm,
    l2_norm,
    random_orthogonal,
    random_orthogonal_rect,
    random_skew_symmetric,
    xavier_init,
)
from oplu_net.rng import UNIFORM_BLOCK


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
        tracemalloc.start()
        try:
            expm(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
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

    def test_overflowing_square_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert l2_norm(np.array([1e200, 1.0])) == math.inf


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
        tracemalloc.start()
        try:
            Rng(3).uniform_array(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # three uint64 block temporaries are live at once
        assert peak <= 8 * n + 4 * 8 * UNIFORM_BLOCK

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

    def test_spawn_gives_distinct_stream(self):
        parent = Rng(1)
        child = parent.spawn()
        assert [child.next_u64() for _ in range(4)] != [parent.next_u64() for _ in range(4)]
