import math

import numpy as np
import pytest

from conftest import build_mlp, orthogonal_oplu_net, smooth_mlp_sample
from oplu_net import (
    DenseLayer,
    DenseNet,
    NumericError,
    Rng,
    SgdMomentum,
    ShapeError,
    backprop,
    dense_forward,
    evaluate,
    gen_image_classes,
    l2_norm,
    loss_value,
    output_delta,
    sgd_step,
    train_epoch,
)
from oplu_net.network import _backprop_batch, _forward_batch


class TestDenseForward:
    def test_identity_network(self):
        net = DenseNet([DenseLayer(np.eye(3), np.zeros(3), "linear")], "mse")
        x = np.array([0.5, -1.0, 2.0])
        y, tape = dense_forward(net, x)
        assert np.array_equal(y, x)
        assert np.array_equal(tape.postsyn[0], x)

    def test_relu_with_bias(self):
        net = DenseNet([DenseLayer(np.eye(2), np.array([-1.0, -1.0]), "relu")], "mse")
        y, _ = dense_forward(net, np.array([2.0, 0.5]))
        assert np.array_equal(y, [1.0, 0.0])

    def test_two_layer_oplu_orthogonal_preserves_input_norm(self):
        net = orthogonal_oplu_net(depth=2, width=8, seed=4)
        x = Rng(10).uniform_array(8, -2, 2)
        y, _ = dense_forward(net, x)
        assert abs(l2_norm(y) - l2_norm(x)) <= 1e-10 * l2_norm(x)

    def test_width_mismatch(self):
        net = build_mlp([4, 4, 2], "tanh")
        with pytest.raises(ShapeError):
            dense_forward(net, np.zeros(5))

    def test_non_finite_named_layer(self):
        net = DenseNet(
            [
                DenseLayer(np.eye(2), np.zeros(2), "linear"),
                DenseLayer(np.full((2, 2), 1e308), np.zeros(2), "linear"),
            ],
            "mse",
        )
        with pytest.raises(NumericError, match="layer 1"):
            dense_forward(net, np.array([1.0, 1.0]))


class TestLosses:
    def test_mse_zero_at_target(self):
        y = np.array([1.0, 2.0])
        assert loss_value("mse", y, y) == 0.0
        assert np.array_equal(output_delta("mse", y, y), np.zeros(2))

    def test_mse_half_square(self):
        assert loss_value("mse", np.array([3.0]), np.array([0.0])) == 4.5

    def test_softmax_uniform_logits(self):
        y = np.array([0.0, 0.0])
        t = np.array([1.0, 0.0])
        assert abs(loss_value("softmax_xent", y, t) - math.log(2)) <= 1e-12
        assert np.array_equal(output_delta("softmax_xent", y, t), [-0.5, 0.5])

    def test_softmax_delta_matches_loss_finite_differences(self):
        rng = Rng(15)
        y = rng.uniform_array(5, -2, 2)
        t = np.zeros(5)
        t[2] = 1.0
        delta = output_delta("softmax_xent", y, t)
        eps = 1e-6
        for k in range(5):
            bumped = y.copy()
            bumped[k] += eps
            dipped = y.copy()
            dipped[k] -= eps
            numeric = (loss_value("softmax_xent", bumped, t) - loss_value("softmax_xent", dipped, t)) / (2 * eps)
            assert abs(numeric - delta[k]) <= 1e-8

    def test_mse_delta_matches_loss_finite_differences(self):
        rng = Rng(16)
        y = rng.uniform_array(4, -2, 2)
        t = rng.uniform_array(4, -2, 2)
        delta = output_delta("mse", y, t)
        eps = 1e-6
        for k in range(4):
            bumped = y.copy()
            bumped[k] += eps
            dipped = y.copy()
            dipped[k] -= eps
            numeric = (loss_value("mse", bumped, t) - loss_value("mse", dipped, t)) / (2 * eps)
            assert abs(numeric - delta[k]) <= 1e-8

    def test_softmax_requires_linear_final_layer(self):
        with pytest.raises(ValueError):
            DenseNet([DenseLayer(np.eye(2), np.zeros(2), "tanh")], "softmax_xent")

    def test_logits_far_from_overflow(self):
        y = np.array([1000.0, -1000.0])
        t = np.array([0.0, 1.0])
        assert np.isfinite(loss_value("softmax_xent", y, t))


class TestBackprop:
    def test_single_linear_layer_weight_gradient(self):
        net = DenseNet([DenseLayer(np.zeros((3, 2)), np.zeros(2), "linear")], "mse")
        x = np.array([1.0, -2.0, 0.5])
        delta_out = np.array([0.3, -0.7])
        _, tape = dense_forward(net, x)
        grads = backprop(net, tape, delta_out)
        assert np.array_equal(grads.dw[0], np.outer(x, delta_out))
        assert np.array_equal(grads.db[0], delta_out)
        assert np.array_equal(grads.input_delta, delta_out @ net.layers[0].w.T)

    def test_deep_oplu_orthogonal_preserves_delta_norm(self):
        net = orthogonal_oplu_net(depth=100, width=8, seed=12)
        rng = Rng(3)
        x = rng.uniform_array(8, -1, 1)
        t = rng.uniform_array(8, -1, 1)
        y, tape = dense_forward(net, x)
        grads = backprop(net, tape, output_delta("mse", y, t))
        top = l2_norm(grads.deltas[-1])
        bottom = l2_norm(grads.input_delta)
        assert abs(bottom / top - 1.0) <= 1e-10

    def test_jacobian_factorization_two_layers(self):
        # transport extracted from the backward recursion equals the
        # transpose of the explicitly assembled layer-Jacobian product
        from oplu_net.diagnostics import assemble_dense_jacobian

        net = build_mlp([6, 6, 4], "oplu", init="orthogonal", seed=9)
        x, _ = smooth_mlp_sample(net, seed=2)
        _, tape = dense_forward(net, x)
        forward_product = assemble_dense_jacobian(net, tape)
        transport = np.empty((net.output_dim, net.input_dim))
        for k in range(net.output_dim):
            basis = np.zeros(net.output_dim)
            basis[k] = 1.0
            transport[k] = backprop(net, tape, basis).input_delta
        assert np.abs(transport - forward_product.T).max() <= 1e-10

    def test_matches_finite_differences_three_layer_mixed(self):
        from oplu_net import finite_diff_grad

        net = build_mlp([5, 6, 6, 3], "tanh", seed=42)
        sample = smooth_mlp_sample(net, seed=1)
        assert finite_diff_grad(net, sample).max_relative_error <= 1e-6


class TestSgdMomentum:
    def test_plain_sgd(self):
        p = [np.array([0.0])]
        opt = SgdMomentum(alpha=0.01, mu=0.0)
        sgd_step(opt, p, [np.array([1.0])])
        assert p[0][0] == -0.01

    def test_two_steps_unrolled(self):
        p = [np.array([0.0])]
        opt = SgdMomentum(alpha=0.01, mu=0.9)
        g = [np.array([1.0])]
        sgd_step(opt, p, g)
        assert math.isclose(opt.velocity[0][0], -0.01)
        assert math.isclose(p[0][0], -0.01)
        sgd_step(opt, p, g)
        assert math.isclose(opt.velocity[0][0], -0.019)
        assert math.isclose(p[0][0], -0.029)

    def test_zero_gradient_velocity_decay(self):
        p = [np.array([1.0])]
        opt = SgdMomentum(alpha=0.1, mu=0.5)
        sgd_step(opt, p, [np.array([2.0])])
        v1 = opt.velocity[0][0]
        sgd_step(opt, p, [np.array([0.0])])
        assert math.isclose(opt.velocity[0][0], 0.5 * v1)
        assert math.isclose(p[0][0], 1.0 + v1 + 0.5 * v1)

    def test_shape_mismatch(self):
        opt = SgdMomentum(0.1, 0.0)
        with pytest.raises(ShapeError):
            sgd_step(opt, [np.zeros(2)], [np.zeros(3)])

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SgdMomentum(0.0, 0.5)
        with pytest.raises(ValueError):
            SgdMomentum(0.1, 1.0)


def toy_blobs(n_per_class=40, seed=5):
    """Linearly separable 2-D points, one-hot labels."""
    rng = Rng(seed)
    a = rng.uniform_array(2 * n_per_class).reshape(n_per_class, 2) + np.array([1.5, 1.5])
    b = rng.uniform_array(2 * n_per_class).reshape(n_per_class, 2) - np.array([1.5, 1.5])
    inputs = np.vstack([a, b])
    targets = np.zeros((2 * n_per_class, 2))
    targets[:n_per_class, 0] = 1.0
    targets[n_per_class:, 1] = 1.0
    return inputs, targets


class TestTrainEpoch:
    def test_full_batch_is_single_step(self):
        inputs, targets = toy_blobs(10)
        net = build_mlp([2, 4, 2], "tanh", loss="mse", seed=0)
        twin = build_mlp([2, 4, 2], "tanh", loss="mse", seed=0)
        opt = SgdMomentum(0.05, 0.0)
        train_epoch(net, opt, inputs, targets, batch_size=len(inputs), rng=Rng(1))

        # manual single step on the twin (shuffle does not matter full-batch)
        y, tape = _forward_batch(twin, inputs)
        grads = _backprop_batch(twin, tape, output_delta("mse", y, targets))
        sgd_step(SgdMomentum(0.05, 0.0), twin.parameters(), grads.tensors())
        for got, want in zip(net.parameters(), twin.parameters()):
            assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_fixed_seed_is_bit_reproducible(self):
        inputs, targets = toy_blobs(12)

        def run():
            net = build_mlp([2, 6, 2], "relu", loss="softmax_xent", seed=3)
            opt = SgdMomentum(0.05, 0.9)
            for _ in range(3):
                train_epoch(net, opt, inputs, targets, batch_size=8, rng=Rng(7))
            return net

        first, second = run(), run()
        for a, b in zip(first.parameters(), second.parameters()):
            assert np.array_equal(a, b)

    def test_separable_blobs_reach_perfect_accuracy(self):
        inputs, targets = toy_blobs(40)
        net = build_mlp([2, 8, 2], "tanh", loss="softmax_xent", seed=2)
        opt = SgdMomentum(0.1, 0.9)
        rng = Rng(0)
        for _ in range(50):
            stats = train_epoch(net, opt, inputs, targets, batch_size=16, rng=rng)
        assert evaluate(net, inputs, targets).accuracy == 1.0

    @pytest.mark.parametrize("activation", ["oplu", "relu"])
    def test_byte_pixel_source_equals_float_array(self, activation):
        ds = gen_image_classes(150, Rng(4))
        targets = ds.one_hot_targets()
        results = []
        for inputs in (ds.rows(), ds.pixels / 255.0):
            net = build_mlp([784, 12, 10], activation, loss="softmax_xent", init="orthogonal", seed=1)
            rng = Rng(9)
            stats = train_epoch(net, SgdMomentum(0.05, 0.9), inputs, targets, 32, rng)
            results.append((stats, evaluate(net, inputs, targets, chunk=64), net, rng.next_u64()))
        (stats_a, eval_a, net_a, draw_a), (stats_b, eval_b, net_b, draw_b) = results
        assert ds.pixels.dtype == np.uint8
        assert stats_a == stats_b and eval_a == eval_b and draw_a == draw_b
        for a, b in zip(net_a.parameters(), net_b.parameters()):
            assert np.array_equal(a, b)

    def test_empty_dataset_rejected(self):
        net = build_mlp([2, 2], "linear")
        with pytest.raises(ValueError):
            train_epoch(net, SgdMomentum(0.1, 0.0), np.zeros((0, 2)), np.zeros((0, 2)), 4, Rng(0))

    def test_full_batch_step_decreases_smooth_loss(self):
        inputs, targets = toy_blobs(20)
        net = build_mlp([2, 6, 2], "tanh", loss="mse", seed=8)
        before = evaluate(net, inputs, targets).mean_loss
        train_epoch(net, SgdMomentum(0.01, 0.0), inputs, targets, len(inputs), Rng(0))
        after = evaluate(net, inputs, targets).mean_loss
        assert after < before


class TestBatchEquivalence:
    @pytest.mark.parametrize("activation,loss", [
        ("tanh", "mse"),
        ("oplu", "mse"),
        ("relu", "softmax_xent"),
        ("sigmoid", "softmax_xent"),
        ("linear", "mse"),
    ])
    def test_batch_gradients_equal_mean_of_single(self, activation, loss):
        rng = Rng(19)
        net = build_mlp([6, 6, 4], activation, loss=loss, seed=31)
        x_rows = rng.uniform_array(5 * 6, -1, 1).reshape(5, 6)
        if loss == "softmax_xent":
            t_rows = np.zeros((5, 4))
            t_rows[np.arange(5), rng.randint_array(5, 4)] = 1.0
        else:
            t_rows = rng.uniform_array(5 * 4, -1, 1).reshape(5, 4)
        y_rows, btape = _forward_batch(net, x_rows)
        batch_grads = _backprop_batch(net, btape, output_delta(loss, y_rows, t_rows))
        assert len(batch_grads.deltas) == len(net.layers)

        summed = None
        for i in range(5):
            y, tape = dense_forward(net, x_rows[i])
            assert np.abs(y - y_rows[i]).max() <= 1e-12
            g = backprop(net, tape, output_delta(loss, y, t_rows[i]))
            # one sample's delta is its bias gradient, which the
            # finite-difference oracle pins
            for single, rows, bias in zip(g.deltas, batch_grads.deltas, g.db):
                assert np.array_equal(single, bias)
                assert np.abs(single - rows[i]).max() <= 1e-12
            assert np.abs(g.input_delta - batch_grads.deltas[0][i] @ net.layers[0].w.T).max() <= 1e-12
            if summed is None:
                summed = [t.copy() for t in g.tensors()]
            else:
                for acc, t in zip(summed, g.tensors()):
                    acc += t
        for mean_single, batched in zip((t / 5 for t in summed), batch_grads.tensors()):
            assert np.abs(mean_single - batched).max() <= 1e-12


class TestInitDense:
    def test_oplu_width_validation(self):
        with pytest.raises(ValueError):
            build_mlp([4, 5, 2], "oplu")

    def test_final_layer_is_linear(self):
        net = build_mlp([4, 6, 2], "sigmoid")
        assert net.layers[-1].activation == "linear"
        assert net.layers[0].activation == "sigmoid"

    def test_orthogonal_init_square_hidden(self):
        net = build_mlp([6, 6, 6], "oplu", init="orthogonal", seed=1)
        w = net.layers[0].w
        assert np.abs(w.T @ w - np.eye(6)).max() <= 1e-10
