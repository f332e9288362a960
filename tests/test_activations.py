import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplu_net import (
    PairingScheme,
    Rng,
    ShapeError,
    l2_norm,
    materialize_permutation,
    oplu_backward,
    oplu_forward,
    scalar_derivative,
    scalar_forward,
)

PAIR01 = PairingScheme([(0, 1)])


def random_scheme(width, rng):
    idx = list(range(width))
    rng.shuffle(idx)
    return PairingScheme(zip(idx[0::2], idx[1::2]))


class TestPairingScheme:
    def test_adjacent(self):
        scheme = PairingScheme.adjacent(6)
        assert scheme.pairs == ((0, 1), (2, 3), (4, 5))
        assert scheme.width == 6

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            PairingScheme.adjacent(5)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            PairingScheme([(0, 1), (1, 2)])

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            PairingScheme([(0, 0), (1, 2)])

    def test_gap_in_coverage_rejected(self):
        with pytest.raises(ValueError):
            PairingScheme([(0, 2)])


class TestOpluForward:
    def test_swap(self):
        z, mask = oplu_forward(np.array([2.0, 5.0]), PAIR01)
        assert np.array_equal(z, [5.0, 2.0])
        assert mask.tolist() == [True]

    def test_tie_keeps_order(self):
        z, mask = oplu_forward(np.array([3.0, 3.0]), PAIR01)
        assert np.array_equal(z, [3.0, 3.0])
        assert mask.tolist() == [False]

    @pytest.mark.parametrize("adjacent", [True, False])
    def test_signed_zero_and_exact_ties_never_swap(self, adjacent):
        scheme = PairingScheme.adjacent(6) if adjacent else random_scheme(6, Rng(8))
        a = np.empty(6)
        for (i, j), (x, y) in zip(scheme.pairs, [(-0.0, 0.0), (0.0, -0.0), (3.0, 3.0)]):
            a[i], a[j] = x, y
        z, mask = oplu_forward(a, scheme)
        assert not mask.any()
        # equal values; max/min may give a tied pair of zeros one sign
        assert np.array_equal(z, a)
        delta = np.array([-0.0, 0.0, 0.1, -0.2, 5e-324, -3.0])
        back = oplu_backward(delta, mask, scheme)
        assert np.array_equal(back.view(np.uint64), delta.view(np.uint64))
        assert l2_norm(back) == l2_norm(delta)

    def test_two_pairs(self):
        scheme = PairingScheme([(0, 1), (2, 3)])
        z, mask = oplu_forward(np.array([1.0, -2.0, -4.0, 7.0]), scheme)
        assert np.array_equal(z, [1.0, -2.0, 7.0, -4.0])
        assert mask.tolist() == [False, True]

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            oplu_forward(np.zeros(3), PairingScheme([(0, 1)]))

    @pytest.mark.parametrize("adjacent", [True, False])
    def test_out_buffers(self, adjacent):
        # the default adjacent pairs take strided views, others gather
        rng = Rng(12)
        scheme = PairingScheme.adjacent(10) if adjacent else random_scheme(10, rng)
        a = np.round(rng.uniform_array(6 * 10, -2, 2).reshape(6, 10), 1)  # many ties
        z, mask = oplu_forward(a, scheme)
        out = np.empty_like(a)
        assert oplu_forward(a, scheme, out=out)[0] is out
        assert np.array_equal(out, z)
        in_place = a.copy()
        oplu_forward(in_place, scheme, out=in_place)
        assert np.array_equal(in_place, z)
        delta = rng.uniform_array(6 * 10, -1, 1).reshape(6, 10)
        back = oplu_backward(delta, mask, scheme, out=np.empty_like(delta))
        assert np.array_equal(back, oplu_backward(delta, mask, scheme))
        for row in range(6):
            perm = materialize_permutation(mask[row], scheme)
            assert np.array_equal(back[row], delta[row] @ perm)


class TestOpluBackward:
    def test_swapped_pair_swaps_deltas(self):
        out = oplu_backward(np.array([0.1, 0.2]), np.array([True]), PAIR01)
        assert np.array_equal(out, [0.2, 0.1])

    def test_unswapped_pair_passes_through(self):
        out = oplu_backward(np.array([1.0, 2.0]), np.array([False]), PAIR01)
        assert np.array_equal(out, [1.0, 2.0])

    def test_norm_preserved_bit_for_bit(self):
        rng = Rng(3)
        scheme = random_scheme(12, rng)
        for _ in range(50):
            a = rng.uniform_array(12, -4, 4)
            delta = rng.uniform_array(12, -4, 4)
            _, mask = oplu_forward(a, scheme)
            out = oplu_backward(delta, mask, scheme)
            assert l2_norm(out) == l2_norm(delta)

    def test_mask_shape_mismatch(self):
        with pytest.raises(ShapeError):
            oplu_backward(np.zeros(2), np.array([True, False]), PAIR01)


class TestMaterializedPermutation:
    def test_exact_orthogonality_and_action(self):
        rng = Rng(14)
        for width in (2, 6, 10):
            scheme = random_scheme(width, rng)
            for _ in range(30):
                a = rng.uniform_array(width, -2, 2)
                delta = rng.uniform_array(width, -2, 2)
                z, mask = oplu_forward(a, scheme)
                d = materialize_permutation(mask, scheme)
                assert np.array_equal(d.T @ d, np.eye(width))
                assert np.array_equal(a @ d, z)
                assert np.array_equal(
                    delta @ d, oplu_backward(delta, mask, scheme)
                )

    def test_rows_and_columns_single_one(self):
        scheme = PairingScheme.adjacent(8)
        _, mask = oplu_forward(Rng(5).uniform_array(8, -1, 1), scheme)
        d = materialize_permutation(mask, scheme)
        assert np.array_equal(d.sum(axis=0), np.ones(8))
        assert np.array_equal(d.sum(axis=1), np.ones(8))


@st.composite
def vector_pairs(draw):
    n_pairs = draw(st.integers(1, 8))
    width = 2 * n_pairs
    values = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=width,
            max_size=width,
        )
    )
    seed = draw(st.integers(0, 2**32))
    return np.array(values), random_scheme(width, Rng(seed))


class TestOpluProperties:
    @given(vector_pairs())
    @settings(max_examples=200, deadline=None)
    def test_output_is_permutation_of_input(self, case):
        a, scheme = case
        z, _ = oplu_forward(a, scheme)
        assert sorted(z.tolist()) == sorted(a.tolist())

    @given(vector_pairs())
    @settings(max_examples=200, deadline=None)
    def test_sortedness_idempotent(self, case):
        a, scheme = case
        z1, _ = oplu_forward(a, scheme)
        z2, mask2 = oplu_forward(z1, scheme)
        assert np.array_equal(z1, z2)
        assert not mask2.any()

    @given(vector_pairs())
    @settings(max_examples=200, deadline=None)
    def test_backward_norm_exact(self, case):
        delta, scheme = case
        a = Rng(1).uniform_array(scheme.width, -1, 1)
        _, mask = oplu_forward(a, scheme)
        out = oplu_backward(delta, mask, scheme)
        assert l2_norm(out) == l2_norm(delta)

    def test_continuity_at_tie(self):
        # approaching the tie from both sides gives the same output value
        scheme = PAIR01
        eps = 1e-9
        above, _ = oplu_forward(np.array([1.0 + eps, 1.0]), scheme)
        below, _ = oplu_forward(np.array([1.0 - eps, 1.0]), scheme)
        assert np.abs(above - below).max() <= 2 * eps

    def test_directional_derivative_matches_permutation(self):
        # away from the tie line, finite differences reproduce the Jacobian
        rng = Rng(77)
        scheme = random_scheme(6, rng)
        eps = 1e-6
        for _ in range(20):
            a = rng.uniform_array(6, -2, 2)
            gaps = np.abs(a[scheme._first] - a[scheme._second])
            if gaps.min() < 1e-3:
                continue
            z0, mask = oplu_forward(a, scheme)
            d = materialize_permutation(mask, scheme)
            direction = rng.uniform_array(6, -1, 1)
            z_plus, _ = oplu_forward(a + eps * direction, scheme)
            z_minus, _ = oplu_forward(a - eps * direction, scheme)
            numeric = (z_plus - z_minus) / (2 * eps)
            analytic = direction @ d
            assert np.abs(numeric - analytic).max() <= 1e-8


class TestScalarActivations:
    def test_relu_values(self):
        assert np.array_equal(scalar_forward("relu", np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_tanh_odd(self):
        assert scalar_forward("tanh", np.array([0.0]))[0] == 0.0

    def test_sigmoid_midpoint(self):
        assert scalar_forward("sigmoid", np.array([0.0]))[0] == 0.5

    def test_tanh_derivative_max_is_one(self):
        assert scalar_derivative("tanh", np.array([0.0]))[0] == 1.0

    def test_sigmoid_derivative_max_is_quarter(self):
        assert scalar_derivative("sigmoid", np.array([0.0]))[0] == 0.25

    def test_relu_derivative_piecewise(self):
        assert np.array_equal(scalar_derivative("relu", np.array([-3.0, 5.0])), [0.0, 1.0])

    def test_relu_derivative_at_zero_is_zero(self):
        assert scalar_derivative("relu", np.array([0.0]))[0] == 0.0

    def test_oplu_kind_rejected(self):
        with pytest.raises(ValueError):
            scalar_forward("oplu", np.zeros(2))
        with pytest.raises(ValueError):
            scalar_derivative(PAIR01, np.zeros(2))

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = scalar_forward("sigmoid", np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid", "relu", "linear"])
    def test_derivative_matches_finite_differences(self, kind):
        rng = Rng(37)
        x = rng.uniform_array(200, -3, 3)
        if kind == "relu":
            x = x[np.abs(x) > 1e-4]
        eps = 1e-6
        numeric = (scalar_forward(kind, x + eps) - scalar_forward(kind, x - eps)) / (2 * eps)
        analytic = scalar_derivative(kind, x)
        rel = np.abs(numeric - analytic) / np.maximum(np.abs(analytic), 1e-8)
        assert rel.max() <= 1e-8 or np.abs(numeric - analytic).max() <= 1e-8
