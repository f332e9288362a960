import dataclasses

import numpy as np
import pytest

from conftest import build_srn, count_calls, mask_bytes, smooth_srn_sample, srn_row_bytes
from oplu_net import (
    BpttConfig,
    DenseLayer,
    DenseNet,
    NumericError,
    PairingScheme,
    Rng,
    SequenceSample,
    ShapeError,
    Srn,
    bptt,
    evaluate_adding,
    finite_diff_grad,
    gen_adding,
    l2_norm,
    loss_value,
    random_orthogonal,
    srn_forward,
    trace_delta_norms,
)
from oplu_net import activations, diagnostics, linalg
from oplu_net.activations import activate_backward, make_activation
from oplu_net.network import output_delta
from oplu_net.recurrent import _bptt_batch, _srn_forward_batch


class TestSrnForward:
    def test_single_step_is_feedforward(self):
        net = Srn(np.eye(2), np.zeros((2, 2)), np.zeros(2), np.eye(2), np.zeros(2), "linear")
        y, tape = srn_forward(net, np.array([[0.3, -0.8]]))
        assert np.array_equal(y, [0.3, -0.8])
        assert np.array_equal(tape.hidden[0], np.zeros(2))

    def test_oplu_orthogonal_recurrence_preserves_state_norm(self):
        rng = Rng(6)
        h = 8
        net = Srn(
            np.zeros((2, h)),
            random_orthogonal(h, rng),
            np.zeros(h),
            np.zeros((h, 1)),
            np.zeros(1),
            make_activation("oplu", h),
            h0=rng.uniform_array(h, -1, 1),
        )
        steps = 200
        _, tape = srn_forward(net, np.zeros((steps, 2)))
        start = l2_norm(net.h0)
        end = l2_norm(tape.hidden[steps])
        assert abs(end - start) <= 1e-10 * start

    def test_golden_tape_tanh_4_units(self):
        # regression lock; the gradients of this exact configuration were
        # verified against central finite differences before freezing
        net = build_srn(4, "tanh", seed=11)
        inputs = Rng(22).uniform_array(6, -1, 1).reshape(3, 2)
        y, tape = srn_forward(net, inputs)
        assert y[0] == -0.9050977822964494
        expected_presyn = np.array([
            [-0.79069948066357898, -0.17697442056536375, -0.54118624826362205, 0.49341194258194865],
            [-0.21191878104308681, -0.32930410917260583, -0.24452186166934164, 0.26139477301120562],
            [-0.98674510873629750, -0.71285446274632436, -0.37868596262300414, 0.41763271180613537],
        ])
        expected_hidden_last = np.array(
            [-0.75597100619410362, -0.61246367204541230, -0.36156575713647582, 0.39493424700196095]
        )
        assert np.array_equal(tape.presyn, expected_presyn)
        assert np.array_equal(tape.hidden[3], expected_hidden_last)

    def test_width_mismatch(self):
        net = build_srn(4, "tanh")
        with pytest.raises(ShapeError):
            srn_forward(net, np.zeros((3, 5)))

    @pytest.mark.parametrize("activation", ["oplu", "tanh"])
    def test_tape_holds_inputs_presyn_and_hidden(self, activation):
        # BPTT reads each step's activation derivative off presyn, so no
        # hidden state may be written over it
        net = build_srn(4, activation)
        _, tape = net.forward(Rng(3).uniform_array(2 * 5 * 2, -1, 1).reshape(2, 5, 2))
        assert [f.name for f in dataclasses.fields(tape)] == ["inputs", "presyn", "hidden"]
        assert not np.shares_memory(tape.presyn, tape.hidden)

    @pytest.mark.parametrize("shape", [(3, 5, 3), (3, 0, 2), (5, 2)],
                             ids=["wrong-width", "no-steps", "2-D"])
    def test_batched_forward_rejects_bad_shapes(self, shape):
        net = build_srn(4, "tanh")
        with pytest.raises(ShapeError):
            net.forward(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3, 5, 3), (3, 0, 2), (5, 2)],
                             ids=["wrong-width", "no-steps", "2-D"])
    def test_tape_free_forward_rejects_bad_shapes(self, shape):
        net = build_srn(4, "tanh")
        with pytest.raises(ShapeError):
            _srn_forward_batch(net, np.zeros(shape), taped=False)


class TestTargetShapes:
    """Every SRN gradient path rejects a target that does not match the
    readout, instead of broadcasting it against the output rows."""

    def test_gradients_reject_flat_targets(self):
        net = build_srn(4, "tanh")
        with pytest.raises(ShapeError):
            net.gradients(np.zeros((3, 5, 2)), np.ones(3))

    def test_finite_diff_grad_rejects_wide_target(self):
        net = build_srn(4, "tanh")
        with pytest.raises(ShapeError):
            finite_diff_grad(net, (np.zeros((5, 2)), np.ones(2)))

    def test_bptt_rejects_wide_target(self):
        net = build_srn(4, "tanh")
        with pytest.raises(ShapeError):
            bptt(net, SequenceSample(np.zeros((5, 2)), np.ones(2)), BpttConfig(5))

    def test_batch_loss_is_network_mse(self):
        net = build_srn(4, "tanh", seed=3)
        rows = Rng(5).uniform_array(3 * 6 * 2).reshape(3, 6, 2)
        targets = Rng(6).uniform_array(3).reshape(3, 1)
        _, mean_loss, _ = _bptt_batch(net, rows, targets, 6)
        assert mean_loss == loss_value("mse", net.forward(rows)[0], targets)


class TestBptt:
    def test_single_step_reduces_to_dense_backprop(self):
        net = build_srn(6, "tanh", seed=2, input_dim=3, output_dim=2)
        rng = Rng(9)
        x = rng.uniform_array(3, -1, 1)
        target = rng.uniform_array(2, -1, 1)
        grads, trace = bptt(net, SequenceSample(x.reshape(1, 3), target), BpttConfig(1))
        dw_in, _, db_h, dw_out, db_out = grads

        # the equivalent two-layer dense net: hidden layer sees x @ w_in + b_h
        # (w_rec contributes nothing from h0 = 0), then the linear readout
        dense = DenseNet(
            [
                DenseLayer(net.w_in, net.b_h, "tanh"),
                DenseLayer(net.w_out, net.b_out, "linear"),
            ],
            "mse",
        )
        dgrads, _ = dense.gradients(x[None], target[None])
        assert np.abs(dw_in - dgrads[0]).max() <= 1e-14
        assert np.abs(db_h - dgrads[1]).max() <= 1e-14
        assert np.abs(dw_out - dgrads[2]).max() <= 1e-14
        assert np.abs(db_out - dgrads[3]).max() <= 1e-14
        assert trace == [l2_norm(db_h)]  # the one step's delta is db_h

    @pytest.mark.parametrize("activation", ["tanh", "oplu"])
    def test_gradients_match_finite_differences(self, activation):
        init = "orthogonal" if activation == "oplu" else "xavier"
        net = build_srn(6, activation, init=init, seed=5)
        sample = smooth_srn_sample(net, steps=5, seed=3)
        report = finite_diff_grad(net, sample)
        assert report.max_relative_error <= 1e-6, report.worst()

    def test_oplu_orthogonal_delta_trace_constant(self):
        net = build_srn(10, "oplu", init="orthogonal", seed=7)
        rng = Rng(4)
        inputs = rng.uniform_array(100 * 2).reshape(100, 2)
        sample = SequenceSample(inputs, rng.uniform_array(1))
        _, trace = bptt(net, sample, BpttConfig(100))
        trace = np.asarray(trace)
        assert trace.shape == (100,)
        assert trace.max() / trace.min() <= 1 + 1e-8

    def test_horizon_truncation_stops_unrolling(self):
        net = build_srn(4, "tanh", seed=8)
        rng = Rng(1)
        sample = SequenceSample(rng.uniform_array(12).reshape(6, 2), rng.uniform_array(1))
        _, trace_full = bptt(net, sample, BpttConfig(6))
        grads_h2, trace_h2 = bptt(net, sample, BpttConfig(2))
        assert len(trace_full) == 6 and len(trace_h2) == 2
        assert trace_h2 == trace_full[-2:]
        # truncated gradients differ from the full unroll (they drop terms)
        grads_full, _ = bptt(net, sample, BpttConfig(6))
        assert np.abs(grads_h2[1] - grads_full[1]).max() > 0  # w_rec

    def test_horizon_beyond_length_changes_nothing(self):
        net = build_srn(4, "oplu", init="orthogonal", seed=3)
        rng = Rng(2)
        sample = SequenceSample(rng.uniform_array(10).reshape(5, 2), rng.uniform_array(1))
        g1, t1 = bptt(net, sample, BpttConfig(5))
        g2, t2 = bptt(net, sample, BpttConfig(12))
        assert len(g1) == len(g2) == 5
        for a, b in zip(g1, g2):
            assert np.array_equal(a, b)
        assert t1 == t2

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            BpttConfig(0)

    @pytest.mark.parametrize("activation", ["tanh", "oplu"])
    def test_equals_unrolled_tied_dense_network(self, activation):
        # the T-step recurrence with fixed inputs is a dense chain whose
        # layer t has weights w_rec and bias x_t @ w_in + b_h; summing the
        # untied dense gradients over t must reproduce the shared-weight
        # gradients
        steps, hidden = 5, 6
        init = "orthogonal" if activation == "oplu" else "xavier"
        net = build_srn(hidden, activation, init=init, seed=14)
        sample = smooth_srn_sample(net, steps=steps, seed=6)
        grads, _ = bptt(net, sample, BpttConfig(steps))
        dw_in, dw_rec, db_h, dw_out, db_out = grads

        act = net.hidden_activation
        layers = [
            DenseLayer(net.w_rec.copy(), sample.inputs[t] @ net.w_in + net.b_h, act)
            for t in range(steps)
        ]
        layers.append(DenseLayer(net.w_out.copy(), net.b_out.copy(), "linear"))
        unrolled = DenseNet(layers, "mse")
        dgrads, _ = unrolled.gradients(net.h0[None], sample.target[None])
        dw, db = dgrads[0::2], dgrads[1::2]  # per layer

        assert np.abs(dw_rec - sum(dw[t] for t in range(steps))).max() <= 1e-10
        assert np.abs(db_h - sum(db[t] for t in range(steps))).max() <= 1e-10
        dw_in_unrolled = sum(np.outer(sample.inputs[t], db[t]) for t in range(steps))
        assert np.abs(dw_in - dw_in_unrolled).max() <= 1e-10
        assert np.abs(dw_out - dw[steps]).max() <= 1e-10
        assert np.abs(db_out - db[steps]).max() <= 1e-10

    def test_tanh_xavier_delta_norms_shrink_in_the_median(self):
        rng = Rng(25)
        ratios = []
        for trial in range(100):
            net = build_srn(20, "tanh", seed=1000 + trial)
            inputs = rng.uniform_array(30 * 2).reshape(30, 2)
            sample = SequenceSample(inputs, rng.uniform_array(1))
            _, trace = bptt(net, sample, BpttConfig(30))
            ratios.append(trace[0] / trace[-1])  # oldest over newest
        assert np.median(ratios) < 1.0


class TestBatchEquivalence:
    @pytest.mark.parametrize("activation", ["tanh", "oplu", "relu", "sigmoid"])
    def test_batch_bptt_equals_mean_of_single(self, activation):
        init = "orthogonal" if activation == "oplu" else "xavier"
        net = build_srn(6, activation, init=init, seed=21)
        rng = Rng(17)
        batch, steps = 4, 7
        inputs = rng.uniform_array(batch * steps * 2).reshape(batch, steps, 2)
        targets = rng.uniform_array(batch).reshape(batch, 1)
        batch_grads, batch_loss, _ = _bptt_batch(net, inputs, targets, steps)

        summed = None
        loss_sum = 0.0
        for i in range(batch):
            sample = SequenceSample(inputs[i], targets[i])
            g, _ = bptt(net, sample, BpttConfig(steps))
            y, _ = srn_forward(net, inputs[i])
            loss_sum += float(0.5 * np.square(y - targets[i]).sum())
            if summed is None:
                summed = [t.copy() for t in g]
            else:
                for acc, t in zip(summed, g):
                    acc += t
        for mean_single, batched in zip((t / batch for t in summed), batch_grads):
            assert np.abs(mean_single - batched).max() <= 1e-12
        assert abs(loss_sum / batch - batch_loss) <= 1e-12

    def test_batch_forward_matches_single(self):
        net = build_srn(8, "oplu", init="orthogonal", seed=2)
        rng = Rng(3)
        inputs = rng.uniform_array(3 * 5 * 2).reshape(3, 5, 2)
        y_rows, *_ = _srn_forward_batch(net, inputs)
        for i in range(3):
            y, _ = srn_forward(net, inputs[i])
            assert np.abs(y - y_rows[i]).max() <= 1e-12


    @pytest.mark.parametrize("activation", ["oplu", "tanh", "relu"])
    def test_tape_free_forward_matches_batch_forward(self, activation):
        net = build_srn(8, activation, seed=5)
        rng = Rng(6)
        net.b_h[...] = rng.uniform_array(8, -1, 1)
        net.h0[...] = rng.uniform_array(8, -1, 1)
        inputs = rng.uniform_array(9 * 7 * 2).reshape(9, 7, 2)
        y_rows, _ = _srn_forward_batch(net, inputs)
        y_free, tape = _srn_forward_batch(net, inputs, taped=False)
        assert tape is None
        assert np.array_equal(y_free, y_rows)


class TestNonFiniteForward:
    """Both modes of the forward loop fail alike: the taped one checks every
    step's presynaptic values after the loop, the untaped one each step's as
    it goes, and both name the first non-finite step."""

    @staticmethod
    def messages(net, inputs):
        found = []
        for taped in (True, False):
            with pytest.raises(NumericError) as info:
                _srn_forward_batch(net, inputs, taped=taped)
            found.append(str(info.value))
        return found

    def test_overflowing_oplu_states(self):
        # the states grow 1e120-fold a step from a norm of 2.8: 2.8e240 at
        # step 1, inf at step 2
        net = build_srn(8, "oplu", init="orthogonal", seed=3)
        net.w_rec *= 1e120
        net.h0[...] = 1.0
        assert self.messages(net, np.zeros((3, 6, 2))) == [
            "non-finite hidden state at timestep 2"] * 2

    def test_infinite_tanh_presyn_with_finite_states(self):
        # one input of step 3 meets 1e308 weights; tanh maps the infinite
        # presynaptic values to 1, so a check on the hidden states would pass
        net = build_srn(8, "tanh", seed=3)
        net.w_in[...] = 1e308
        inputs = np.zeros((3, 6, 2))
        inputs[1, 3] = 2.0
        h = np.broadcast_to(net.h0, (3, 8))
        with np.errstate(over="ignore"):
            for t in range(6):
                h = np.tanh(inputs[:, t] @ net.w_in + net.b_h + h @ net.w_rec)
                assert np.isfinite(h).all()
        assert self.messages(net, inputs) == ["non-finite hidden state at timestep 3"] * 2

    @pytest.mark.parametrize("activation", ["oplu", "tanh"])
    def test_overflowing_readout(self, activation):
        # the bias keeps every state finite and near 10 or 1; 1e308 weights
        # read them out past the largest double
        net = build_srn(8, activation, seed=4)
        net.b_h[...] = 10.0
        net.w_out[...] = 1e308
        assert self.messages(net, np.zeros((3, 6, 2))) == [
            "non-finite readout after the last timestep"] * 2


class TestEvaluateAdding:
    def test_perfect_predictor(self):
        # constant net predicting exactly the constant target: zero error
        h = 4
        net = Srn(np.zeros((2, h)), np.zeros((h, h)), np.zeros(h),
                  np.zeros((h, 1)), np.array([0.75]), "linear")
        data = gen_adding(8, 40, Rng(9))
        exact = dataclasses.replace(data, targets=np.full((len(data), 1), 0.75))
        mse, success = evaluate_adding(net, exact, threshold=0.04)
        assert mse == 0.0
        assert success == 1.0

    def test_self_predictions_score_perfectly(self):
        net = build_srn(6, "tanh", seed=4)
        data = gen_adding(8, 40, Rng(9))
        predictions = np.vstack([srn_forward(net, data.inputs[i])[0] for i in range(len(data))])
        oracle_set = dataclasses.replace(data, targets=predictions)
        mse, success = evaluate_adding(net, oracle_set, threshold=0.04)
        assert mse <= 1e-30
        assert success == 1.0

    def test_constant_one_predictor_success_rate(self):
        # ^y = 1 against the sum of two uniforms: the target density is
        # triangular with peak 1 at t = 1, so P(|1 - t| < tau) = 2*tau - tau^2
        h = 4
        net = Srn(np.zeros((2, h)), np.zeros((h, h)), np.zeros(h),
                  np.zeros((h, 1)), np.array([1.0]), "linear")
        data = gen_adding(10, 60000, Rng(31))
        tau = 0.04
        _, success = evaluate_adding(net, data, threshold=tau)
        expected = 2 * tau - tau * tau
        assert abs(success - expected) <= 0.005

    def test_untrained_net_is_near_chance(self):
        net = build_srn(10, "tanh", seed=77)
        data = gen_adding(20, 4000, Rng(13))
        _, success = evaluate_adding(net, data, threshold=0.04)
        assert success <= 0.30

    def test_non_finite_readout_raises(self):
        # the bias saturates every tanh unit near +1, so the hidden states
        # stay finite and only the readout, about 4e308, overflows
        net = build_srn(4, "tanh", seed=4)
        net.b_h[...] = 10.0
        net.w_out[...] = 1e308
        with pytest.raises(NumericError, match="non-finite readout"):
            evaluate_adding(net, gen_adding(8, 3, Rng(9)), threshold=0.04)

    def test_empty_dataset_rejected(self):
        net = build_srn(4, "tanh")
        data = gen_adding(5, 3, Rng(0))
        with pytest.raises(ValueError):
            evaluate_adding(net, data.take([]), threshold=0.04)

    def test_model_that_does_not_read_two_channels_rejected(self):
        net = build_srn(4, "tanh", input_dim=3)
        with pytest.raises(ShapeError):
            evaluate_adding(net, gen_adding(5, 3, Rng(0)), threshold=0.04)


class TestSrnValidation:
    def test_odd_hidden_width_with_oplu_rejected(self):
        with pytest.raises(ValueError):
            make_activation("oplu", 5)

    def test_pairing_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Srn(np.zeros((2, 6)), np.zeros((6, 6)), np.zeros(6), np.zeros((6, 1)),
                np.zeros(1), make_activation("oplu", 4))

    def test_default_initial_state_is_zero(self):
        net = build_srn(4, "tanh")
        assert np.array_equal(net.h0, np.zeros(4))


def reference_bptt(net, inputs, targets, horizon):
    """_bptt_batch written one step at a time: each step's activate_backward
    reads its Jacobian off that step's presynaptic values, through the
    kernels' out=None path."""
    y, tape = _srn_forward_batch(net, inputs)
    steps, batch = tape.presyn.shape[0], tape.presyn.shape[1]
    unroll = min(steps, horizon)
    first = steps - unroll
    residual = output_delta(net.loss, y, targets)
    deltas = np.empty((unroll, batch, net.hidden_dim))
    w_rec_t = np.ascontiguousarray(net.w_rec.T)
    delta_hat = residual @ net.w_out.T
    for k in range(unroll - 1, -1, -1):
        t = first + k
        deltas[k] = activate_backward(net.hidden_activation, delta_hat, tape.presyn[t],
                                      tape.hidden[t + 1])
        if k:
            np.matmul(deltas[k], w_rec_t, out=delta_hat)
    d = deltas.reshape(-1, net.hidden_dim)
    grads = [
        tape.inputs[first:].reshape(-1, net.input_dim).T @ d / batch,
        tape.hidden[first:steps].reshape(-1, net.hidden_dim).T @ d / batch,
        d.sum(axis=0) / batch,
        tape.hidden[steps].T @ residual / batch,
        residual.mean(axis=0),
    ]
    return grads, loss_value(net.loss, y, targets), deltas


def oracle_net(activation):
    """An 8-unit SRN with random biases and initial state; "oplu-gathered"
    pairs its units in a shuffled order, which takes the gathered kernels."""
    name = "oplu" if activation.startswith("oplu") else activation
    net = build_srn(8, name, init="orthogonal" if name == "oplu" else "xavier", seed=31)
    rng = Rng(32)
    net.b_h[...] = rng.uniform_array(8, -0.5, 0.5)
    net.h0[...] = rng.uniform_array(8, -1, 1)
    if activation == "oplu-gathered":
        order = list(range(8))
        rng.shuffle(order)
        net = dataclasses.replace(net, hidden_activation=PairingScheme(zip(order[0::2], order[1::2])))
    return net


ORACLE_ACTIVATIONS = ["oplu", "oplu-gathered", "tanh", "relu", "sigmoid", "linear"]


class TestStepOracle:
    @pytest.mark.parametrize("horizon", [7, 3])
    @pytest.mark.parametrize("activation", ORACLE_ACTIVATIONS)
    def test_bptt_batch_equals_per_step_reference(self, activation, horizon):
        net = oracle_net(activation)
        rng = Rng(33)
        inputs = rng.uniform_array(5 * 7 * 2, -1, 1).reshape(5, 7, 2)
        targets = rng.uniform_array(5).reshape(5, 1)
        grads, loss, deltas = _bptt_batch(net, inputs, targets, horizon)
        ref_grads, ref_loss, ref_deltas = reference_bptt(net, inputs, targets, horizon)
        assert deltas.shape == (horizon, 5, 8)
        assert deltas.tobytes() == ref_deltas.tobytes()
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]
        assert loss == ref_loss


class TestCallCounts:
    """Guards the cost of a step: the activation Jacobians of all unrolled
    steps come from one call, and a trace pass takes each step's norms in
    one, whose rows of ordinary data never reach math.fsum."""

    @pytest.mark.parametrize("activation", ["oplu", "tanh"])
    def test_one_factor_call_and_one_apply_per_unrolled_step(self, monkeypatch, activation):
        net = oracle_net(activation)
        factors = count_calls(monkeypatch, activations, "backward_factor")
        masks = count_calls(monkeypatch, activations, "swap_mask")
        applies = count_calls(monkeypatch, activations, "apply_backward")
        rng = Rng(34)
        inputs = rng.uniform_array(3 * 7 * 2).reshape(3, 7, 2)
        targets = rng.uniform_array(3).reshape(3, 1)
        for horizon, unroll in ((7, 7), (3, 3), (20, 7)):
            for calls in (factors, masks, applies):
                calls.clear()
            _bptt_batch(net, inputs, targets, horizon)
            assert len(factors) == 1
            assert len(masks) == (1 if activation == "oplu" else 0)
            assert len(applies) == unroll

    def test_one_norm_call_per_trace_pass(self, monkeypatch):
        steps, hidden = 6, 8
        net = build_srn(hidden, "oplu", init="orthogonal", seed=17)
        # three rows a pass, with a swap mask of one bit a pair: 7 repeats
        # take passes of 3, 3 and 1, and each pass one call a step
        budget = 3 * srn_row_bytes(steps, hidden, mask_bytes(hidden))
        monkeypatch.setattr(diagnostics, "TRACE_TAPE_BYTES", budget)
        batched = count_calls(monkeypatch, linalg, "l2_norms")
        single = count_calls(monkeypatch, linalg, "l2_norm")
        trace_delta_norms(net, SequenceSample(np.zeros((steps, 2)), np.zeros(1)), 7, Rng(40))
        assert len(batched) == 3 * steps
        assert single == []

    def test_a_grad_diag_trace_pass_makes_no_fsum_call(self, monkeypatch):
        # grad-diag's shape: hidden 100 and 100 steps, 4 repeats to a pass
        fsums = count_calls(monkeypatch, linalg.math, "fsum")
        net = build_srn(100, "oplu", init="orthogonal", seed=18)
        trace = trace_delta_norms(net, SequenceSample(np.zeros((100, 2)), np.zeros(1)), 4, Rng(41))
        assert len(trace.norms) == 100
        assert fsums == []

    def test_a_midpoint_row_makes_one_fsum_call(self, monkeypatch):
        # its squares sum to 1 + 2^-53, the midpoint between 1 and the next double
        rows = Rng(42).uniform_array(400 * 100, -1e-3, 1e-3).reshape(400, 100)
        rows[123] = 0.0
        rows[123, :3] = 1.0, 2.0**-27, 2.0**-27
        fsums = count_calls(monkeypatch, linalg.math, "fsum")
        assert linalg.l2_norms(rows)[123] == 1.0
        assert len(fsums) == 1
