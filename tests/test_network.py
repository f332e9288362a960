import dataclasses
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
    evaluate,
    gen_image_classes,
    l2_norm,
    loss_value,
    output_delta,
    sgd_step,
    train_epoch,
)
from oplu_net import network
from oplu_net.network import _backprop_batch, _forward_batch, loss_rows, random_target


class TestDenseForward:
    def test_identity_network(self):
        net = DenseNet([DenseLayer(np.eye(3), np.zeros(3), "linear")], "mse")
        x = np.array([0.5, -1.0, 2.0])
        y, tape = net.forward(x[None])
        assert np.array_equal(y[0], x)
        assert np.array_equal(tape.postsyn[0][0], x)

    def test_relu_with_bias(self):
        net = DenseNet([DenseLayer(np.eye(2), np.array([-1.0, -1.0]), "relu")], "mse")
        y, _ = net.forward(np.array([[2.0, 0.5]]))
        assert np.array_equal(y[0], [1.0, 0.0])

    def test_two_layer_oplu_orthogonal_preserves_input_norm(self):
        net = orthogonal_oplu_net(depth=2, width=8, seed=4)
        x = Rng(10).uniform_array(8, -2, 2)
        y, _ = net.forward(x[None])
        assert abs(l2_norm(y[0]) - l2_norm(x)) <= 1e-10 * l2_norm(x)

    def test_width_mismatch(self):
        net = build_mlp([4, 4, 2], "tanh")
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 5)))

    @pytest.mark.parametrize("activation", ["oplu", "relu"])
    def test_tape_holds_inputs_presyn_and_postsyn(self, activation):
        # backward reads each activation derivative off presyn, so no layer
        # may write its values over its presynaptic input
        net = build_mlp([4, 6, 6, 2], activation)
        _, tape = net.forward(Rng(3).uniform_array(3 * 4, -1, 1).reshape(3, 4))
        assert [f.name for f in dataclasses.fields(tape)] == ["x", "presyn", "postsyn"]
        for a, z in zip(tape.presyn, tape.postsyn):
            assert not np.shares_memory(a, z)

    def test_non_finite_named_layer(self):
        net = DenseNet(
            [
                DenseLayer(np.eye(2), np.zeros(2), "linear"),
                DenseLayer(np.full((2, 2), 1e308), np.zeros(2), "linear"),
            ],
            "mse",
        )
        with pytest.raises(NumericError, match="layer 1"):
            net.forward(np.array([[1.0, 1.0]]))


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

    def test_loss_rows_rejects_a_broadcasting_target(self):
        # (2, 1) against (2,) would broadcast to (2, 2) rows
        with pytest.raises(ShapeError):
            loss_rows("mse", np.zeros((2, 1)), np.zeros(2))

    def test_random_target_draws(self):
        one_hot = random_target("softmax_xent", 4, Rng(3))
        assert one_hot.sum() == 1.0 and one_hot[Rng(3).randint(4)] == 1.0
        assert np.array_equal(random_target("mse", 4, Rng(3)), Rng(3).uniform_array(4))


class TestBackprop:
    def test_single_linear_layer_weight_gradient(self):
        net = DenseNet([DenseLayer(np.zeros((3, 2)), np.zeros(2), "linear")], "mse")
        x = np.array([1.0, -2.0, 0.5])
        delta_out = np.array([0.3, -0.7])
        _, tape = net.forward(x[None])
        grads, deltas = _backprop_batch(net, tape, delta_out[None])
        assert np.array_equal(grads[0], np.outer(x, delta_out))
        assert np.array_equal(grads[1], delta_out)
        assert np.array_equal(deltas[0], delta_out[None])

    def test_deep_oplu_orthogonal_preserves_delta_norm(self):
        net = orthogonal_oplu_net(depth=100, width=8, seed=12)
        rng = Rng(3)
        x = rng.uniform_array(8, -1, 1)
        t = rng.uniform_array(8, -1, 1)
        _, deltas = net.gradients(x[None], t[None])
        top = l2_norm(deltas[-1][0])
        bottom = l2_norm(deltas[0][0] @ net.layers[0].w.T)
        assert abs(bottom / top - 1.0) <= 1e-10

    def test_jacobian_factorization_two_layers(self):
        # transport extracted from the backward recursion equals the
        # transpose of the explicitly assembled layer-Jacobian product
        from oplu_net.diagnostics import assemble_dense_jacobian

        net = build_mlp([6, 6, 4], "oplu", init="orthogonal", seed=9)
        x, _ = smooth_mlp_sample(net, seed=2)
        forward_product = assemble_dense_jacobian(net, x)
        # row k backpropagates the k-th basis vector from the output
        _, tape = net.forward(np.repeat(x[None], net.output_dim, axis=0))
        _, deltas = _backprop_batch(net, tape, np.eye(net.output_dim))
        transport = deltas[0] @ net.layers[0].w.T
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
        grads, _ = _backprop_batch(twin, tape, output_delta("mse", y, targets))
        sgd_step(SgdMomentum(0.05, 0.0), twin.parameters(), grads)
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
    def test_byte_pixel_source_equals_float_array(self, activation, monkeypatch):
        monkeypatch.setattr(network, "EVALUATE_CHUNK", 64)  # three chunks, the last one short
        ds = gen_image_classes(150, Rng(4))
        targets = ds.one_hot_targets()
        results = []
        for inputs in (ds.rows(), ds.pixels / 255.0):
            net = build_mlp([784, 12, 10], activation, loss="softmax_xent", init="orthogonal", seed=1)
            rng = Rng(9)
            stats = train_epoch(net, SgdMomentum(0.05, 0.9), inputs, targets, 32, rng)
            results.append((stats, evaluate(net, inputs, targets), net, rng.next_u64()))
        (stats_a, eval_a, net_a, draw_a), (stats_b, eval_b, net_b, draw_b) = results
        assert ds.pixels.dtype == np.uint8
        assert stats_a == stats_b and eval_a == eval_b and draw_a == draw_b
        for a, b in zip(net_a.parameters(), net_b.parameters()):
            assert np.array_equal(a, b)

    def test_empty_dataset_rejected(self):
        net = build_mlp([2, 2], "linear")
        with pytest.raises(ValueError):
            train_epoch(net, SgdMomentum(0.1, 0.0), np.zeros((0, 2)), np.zeros((0, 2)), 4, Rng(0))

    def test_fewer_target_rows_than_inputs_rejected(self):
        net = build_mlp([2, 2], "linear")
        with pytest.raises(ShapeError):
            train_epoch(net, SgdMomentum(0.1, 0.0), np.zeros((6, 2)), np.zeros((4, 2)), 4, Rng(0))

    def test_full_batch_step_decreases_smooth_loss(self):
        inputs, targets = toy_blobs(20)
        net = build_mlp([2, 6, 2], "tanh", loss="mse", seed=8)
        before = evaluate(net, inputs, targets).mean_loss
        train_epoch(net, SgdMomentum(0.01, 0.0), inputs, targets, len(inputs), Rng(0))
        after = evaluate(net, inputs, targets).mean_loss
        assert after < before


class TestEvaluate:
    @pytest.mark.parametrize("shape", [(6, 3), (4, 2), (7, 2)],
                             ids=["wrong-width", "fewer-rows", "more-rows"])
    def test_mismatched_targets_rejected(self, shape):
        net = build_mlp([2, 2], "linear")
        with pytest.raises(ShapeError):
            evaluate(net, np.zeros((6, 2)), np.zeros(shape))

    def test_extra_target_rows_after_whole_chunks_rejected(self, monkeypatch):
        # the chunks of 3 rows never reach the seventh target row
        monkeypatch.setattr(network, "EVALUATE_CHUNK", 3)
        net = build_mlp([2, 2], "linear")
        with pytest.raises(ShapeError):
            evaluate(net, np.zeros((6, 2)), np.zeros((7, 2)))


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
        batch_grads, batch_deltas = _backprop_batch(net, btape, output_delta(loss, y_rows, t_rows))
        assert len(batch_deltas) == len(net.layers)

        summed = None
        for i in range(5):
            y, _ = net.forward(x_rows[i][None])
            assert np.abs(y[0] - y_rows[i]).max() <= 1e-12
            g, deltas = net.gradients(x_rows[i][None], t_rows[i][None])
            # one sample's delta is its bias gradient, which the
            # finite-difference oracle pins
            for single, rows, bias in zip(deltas, batch_deltas, g[1::2]):
                assert np.array_equal(single[0], bias)
                assert np.abs(single[0] - rows[i]).max() <= 1e-12
            if summed is None:
                summed = [t.copy() for t in g]
            else:
                for acc, t in zip(summed, g):
                    acc += t
        for mean_single, batched in zip((t / 5 for t in summed), batch_grads):
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
