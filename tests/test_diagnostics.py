import dataclasses

import numpy as np
import pytest

from conftest import (
    build_mlp,
    build_srn,
    mask_bytes,
    orthogonal_oplu_net,
    smooth_mlp_sample,
    smooth_srn_sample,
    srn_row_bytes,
    traced_peak,
)
from oplu_net import (
    BpttConfig,
    NormTrace,
    NumericError,
    PairingScheme,
    Rng,
    SequenceSample,
    ShapeError,
    bptt,
    finite_diff_grad,
    init_dense,
    l2_norm,
    l2_norms,
    min_nonsmooth_gap,
    trace_delta_norms,
    write_norm_trace_csv,
)
from oplu_net import diagnostics
from oplu_net.diagnostics import assemble_dense_jacobian


class TestFiniteDiffGrad:
    def test_linear_single_layer_is_exact_to_rounding(self):
        # quadratic loss: the central difference has no truncation term, so
        # a wide step leaves only rounding noise
        net = build_mlp([4, 3], "linear", seed=1)
        rng = Rng(2)
        sample = (rng.uniform_array(4, -1, 1), rng.uniform_array(3, -1, 1))
        report = finite_diff_grad(net, sample, epsilon=1e-4)
        assert report.max_relative_error <= 1e-9

    def test_three_layer_tanh(self):
        net = build_mlp([5, 6, 6, 3], "tanh", seed=4)
        sample = smooth_mlp_sample(net, seed=5)
        report = finite_diff_grad(net, sample, epsilon=1e-6)
        assert report.max_relative_error <= 1e-6

    def test_oplu_srn_away_from_ties(self):
        net = build_srn(6, "oplu", init="orthogonal", seed=6)
        sample = smooth_srn_sample(net, steps=5, seed=7)
        report = finite_diff_grad(net, sample, epsilon=1e-6)
        assert report.max_relative_error <= 1e-6

    def test_report_structure(self):
        net = build_mlp([3, 2], "linear", seed=0)
        rng = Rng(1)
        report = finite_diff_grad(net, (rng.uniform_array(3), rng.uniform_array(2)))
        assert set(report.per_tensor) == {"layer0.w", "layer0.b"}
        name, err, coord = report.worst()
        assert name in report.per_tensor
        assert err >= 0
        assert report.epsilon == 1e-6

    def test_invalid_epsilon(self):
        net = build_mlp([2, 2], "linear")
        with pytest.raises(ValueError):
            finite_diff_grad(net, (np.zeros(2), np.zeros(2)), epsilon=0.0)

    @pytest.mark.parametrize("mangle", [
        lambda grads: grads[:4],  # one tensor short
        lambda grads: [grads[0].T] + grads[1:],  # w_in transposed
    ])
    def test_gradients_must_mirror_parameters(self, monkeypatch, mangle):
        # a check that zips the two lists would pass a short list after
        # checking only the tensors it has
        net = build_srn(4, "tanh", seed=1)
        full = net.gradients
        monkeypatch.setattr(net, "gradients",
                            lambda rows, targets: (mangle(full(rows, targets)[0]), None))
        with pytest.raises(ShapeError, match="do not match parameter shapes"):
            finite_diff_grad(net, (np.zeros((3, 2)), np.zeros(1)))


class TestMinNonsmoothGap:
    def test_smooth_network_has_infinite_gap(self):
        net = build_mlp([3, 4, 2], "tanh", seed=3)
        assert min_nonsmooth_gap(net, (np.ones(3), np.zeros(2))) == np.inf

    def test_relu_gap_is_min_abs_preactivation(self):
        net = build_mlp([2, 2, 2], "relu", seed=9)
        x = np.array([0.5, -0.25])
        _, tape = net.forward(x[None])
        expected = np.abs(tape.presyn[0]).min()
        assert min_nonsmooth_gap(net, (x, np.zeros(2))) == expected

    def test_oplu_gap_is_min_pair_difference(self):
        net = build_srn(4, "oplu", init="orthogonal", seed=2)
        sample = smooth_srn_sample(net, steps=3, seed=8)
        gap = min_nonsmooth_gap(net, sample)
        assert 0 < gap < np.inf


class TestTraceDeltaNorms:
    def test_oplu_orthogonal_trace_is_flat(self):
        net = build_srn(16, "oplu", init="orthogonal", seed=10)
        template = SequenceSample(np.zeros((60, 2)), np.zeros(1))
        trace = trace_delta_norms(net, template, repeats=20, rng=Rng(3))
        norms = np.asarray(trace.norms)
        assert norms.shape == (60,)
        assert norms.max() / norms.min() <= 1 + 1e-8

    def test_tanh_xavier_trace_decays(self):
        net = build_srn(30, "tanh", seed=11)
        template = SequenceSample(np.zeros((40, 2)), np.zeros(1))
        trace = trace_delta_norms(net, template, repeats=100, rng=Rng(5))
        norms = np.asarray(trace.norms)
        assert np.all(norms > 0)
        assert norms[0] / norms[-1] < 1.0  # oldest step has lost norm

    def test_depth_one_dense_trace(self):
        net = build_mlp([3, 2], "linear", seed=12)
        trace = trace_delta_norms(net, (np.zeros(3), np.zeros(2)), repeats=1, rng=Rng(21))
        assert len(trace.norms) == 1
        # replay the same stream to recompute the single delta norm
        rng = Rng(21)
        x = rng.uniform_array(3)
        t = rng.uniform_array(2)
        _, deltas = net.gradients(x[None], t[None])
        assert trace.norms[0] == l2_norm(deltas[0][0])

    def test_nan_deltas_raise_numeric_error(self):
        # the states reach 1e200 in 40 steps; the deltas start there and
        # grow on the way back, overflow, and turn NaN in the products
        net = build_srn(8, "linear", init="orthogonal", seed=14)
        net.w_rec *= 1e5
        with pytest.raises(NumericError, match="NaN delta norm"):
            trace_delta_norms(net, (np.zeros((40, 2)), np.zeros(1)), repeats=2, rng=Rng(6))

    def test_dense_trace_runs_first_layer_first(self):
        net = orthogonal_oplu_net(depth=4, width=6, seed=13)
        trace = trace_delta_norms(net, (np.zeros(6), np.zeros(6)), repeats=3, rng=Rng(4))
        assert len(trace.norms) == 4
        norms = np.asarray(trace.norms)
        # all-orthogonal pairwise net: every layer sees the same delta norm
        assert norms.max() / norms.min() <= 1 + 1e-8


class TestSampleForms:
    """A recurrent sample is an (inputs, target) pair, as a tuple or a
    SequenceSample alike."""

    @pytest.fixture
    def net_and_samples(self):
        net = build_srn(6, "oplu", init="orthogonal", seed=20)
        sample = smooth_srn_sample(net, steps=4, seed=21)
        return net, sample, (sample.inputs, sample.target)

    def test_finite_diff_grad(self, net_and_samples):
        net, sample, pair = net_and_samples
        assert finite_diff_grad(net, pair).per_tensor == finite_diff_grad(net, sample).per_tensor

    def test_min_nonsmooth_gap(self, net_and_samples):
        net, sample, pair = net_and_samples
        assert min_nonsmooth_gap(net, pair) == min_nonsmooth_gap(net, sample)

    def test_trace_delta_norms(self, net_and_samples):
        net, sample, pair = net_and_samples
        assert (trace_delta_norms(net, pair, 5, Rng(22)).norms
                == trace_delta_norms(net, sample, 5, Rng(22)).norms)


def _spy_batches(monkeypatch, net):
    """Record the row count of every call to net.delta_norms(rows, targets)."""
    calls = []
    real = type(net).delta_norms

    def spy(net, rows, *args):
        calls.append(len(rows))
        return real(net, rows, *args)

    monkeypatch.setattr(type(net), "delta_norms", spy)
    return calls


# with a budget of three rows: fewer repeats than a pass holds, an exact
# multiple of it, and a partial last pass
PASSES = [(2, [2]), (6, [3, 3]), (7, [3, 3, 1])]


class TestBatchedTraceReplay:
    """trace_delta_norms against a replay of its random stream, one repeat
    at a time through bptt or a dense model's gradients on a batch of one."""

    @pytest.mark.parametrize("repeats,passes", PASSES)
    def test_srn_matches_per_sequence_bptt(self, monkeypatch, repeats, passes):
        steps, hidden = 6, 8
        net = build_srn(hidden, "oplu", init="orthogonal", seed=17)
        # a swap mask of one bit a pair
        budget = 3 * srn_row_bytes(steps, hidden, mask_bytes(hidden))
        monkeypatch.setattr(diagnostics, "TRACE_TAPE_BYTES", budget)
        calls = _spy_batches(monkeypatch, net)
        template = SequenceSample(np.zeros((steps, 2)), np.zeros(1))
        rng = Rng(40)
        trace = trace_delta_norms(net, template, repeats, rng)
        assert calls == passes

        replay = Rng(40)
        total = np.zeros(steps)
        for _ in range(repeats):
            inputs = replay.uniform_array(steps * 2).reshape(steps, 2)
            target = replay.uniform_array(1)
            _, norms = bptt(net, SequenceSample(inputs, target), BpttConfig(steps))
            total += np.asarray(norms)
        expected = total / repeats
        assert np.abs(np.asarray(trace.norms) / expected - 1).max() <= 1e-14
        assert rng.next_u64() == replay.next_u64()

    @pytest.mark.parametrize("model", ["srn", "dense"])
    def test_pass_norms_sum_row_by_row_bit_for_bit(self, monkeypatch, model):
        # each pass replayed through the model's gradients, its norms added
        # one repeat at a time as l2_norm gives them
        if model == "srn":
            net, template = build_srn(8, "tanh", seed=19), (np.zeros((6, 2)), np.zeros(1))
            # a derivative of one float64 a unit
            monkeypatch.setattr(diagnostics, "TRACE_TAPE_BYTES", 3 * srn_row_bytes(6, 8, 8 * 8))
        else:
            net, template = build_mlp([5, 6, 4], "oplu", seed=19), (np.zeros(5), np.zeros(4))
            monkeypatch.setattr(diagnostics, "TRACE_TAPE_BYTES", 3 * (3 * (6 + 4) * 8))
        trace = trace_delta_norms(net, template, 7, Rng(42))

        replay = Rng(42)
        total = 0.0
        for rows in (3, 3, 1):
            draws = [(replay.uniform_array(np.size(template[0])).reshape(np.shape(template[0])),
                      replay.uniform_array(np.size(template[1])))
                     for _ in range(rows)]
            inputs, targets = zip(*draws)
            _, deltas = net.gradients(np.stack(inputs), np.stack(targets))
            for i in range(rows):
                total = total + np.asarray([l2_norm(d[i]) for d in deltas])
        assert trace.norms == [float(v) for v in total / 7]

    @pytest.mark.parametrize("loss", ["softmax_xent", "mse"])
    @pytest.mark.parametrize("repeats,passes", PASSES)
    def test_dense_matches_per_sample_backprop(self, monkeypatch, loss, repeats, passes):
        net = build_mlp([5, 6, 6, 4], "oplu", loss=loss, seed=18)
        monkeypatch.setattr(diagnostics, "TRACE_TAPE_BYTES", 3 * (3 * (6 + 6 + 4) * 8))
        calls = _spy_batches(monkeypatch, net)
        rng = Rng(41)
        trace = trace_delta_norms(net, (np.zeros(5), np.zeros(4)), repeats, rng)
        assert calls == passes

        replay = Rng(41)
        total = np.zeros(3)
        for _ in range(repeats):
            x = replay.uniform_array(5)
            if loss == "softmax_xent":
                target = np.zeros(4)
                target[replay.randint(4)] = 1.0
            else:
                target = replay.uniform_array(4)
            _, deltas = net.gradients(x[None], target[None])
            total += np.asarray([l2_norm(d[0]) for d in deltas])
        expected = total / repeats
        assert np.abs(np.asarray(trace.norms) / expected - 1).max() <= 1e-14
        assert rng.next_u64() == replay.next_u64()

    @pytest.mark.parametrize("model", ["srn", "dense-softmax_xent"])
    def test_one_stream_read_per_pass(self, monkeypatch, model):
        # a repeat takes its inputs' draws and then its target's: 12 + 1
        # for the SRN, 5 + 1 (one class) for the dense net
        if model == "srn":
            net = build_srn(8, "oplu", init="orthogonal", seed=17)
            template = (np.zeros((6, 2)), np.zeros(1))
            budget, draws = 3 * srn_row_bytes(6, 8, mask_bytes(8)), 6 * 2 + 1
        else:
            net = build_mlp([5, 6, 6, 4], "oplu", loss="softmax_xent", seed=18)
            template = (np.zeros(5), np.zeros(4))
            budget, draws = 3 * (3 * (6 + 6 + 4) * 8), 5 + 1
        monkeypatch.setattr(diagnostics, "TRACE_TAPE_BYTES", budget)
        reads = []
        real = Rng._u64_block

        def spy(rng, n, out=None):
            reads.append(n)
            return real(rng, n, out=out)

        monkeypatch.setattr(Rng, "_u64_block", spy)
        rng = Rng(43)
        trace_delta_norms(net, template, 7, rng)
        assert reads == [3 * draws, 3 * draws, draws]
        replay = Rng(43)
        replay.skip(7 * draws)
        assert rng.next_u64() == replay.next_u64()

    def test_pass_size_at_grad_diag_scale(self, monkeypatch):
        # 100 steps of 100 hidden units hold 6,300 bytes a row, a 7-byte
        # mask a step: 166 rows fit, and a pass takes a multiple of four
        net = build_srn(100, "oplu", init="orthogonal", seed=19)
        assert net.delta_norms_row_bytes((100, 2)) == srn_row_bytes(100, 100, 7) == 6_300
        calls = _spy_batches(monkeypatch, net)
        template = SequenceSample(np.zeros((100, 2)), np.zeros(1))
        trace_delta_norms(net, template, 9, Rng(42))
        assert calls == [9]
        calls.clear()
        trace_delta_norms(net, template, 100, Rng(42))
        assert calls == [100]
        calls.clear()
        trace_delta_norms(net, template, 1000, Rng(42))
        assert calls == [164] * 6 + [16]


def oracle_model(model, activation, width=8):
    """An SRN or a dense net with `width`-unit hidden layers of
    `activation`; "oplu-gathered" pairs the units in a shuffled order, which
    takes the gathered kernels."""
    name = "oplu" if activation.startswith("oplu") else activation
    init = "orthogonal" if name == "oplu" else "xavier"
    rng = Rng(50)
    if model == "srn":
        net = build_srn(width, name, init=init, seed=51)
        net.b_h[...] = rng.uniform_array(width, -0.5, 0.5)
        net.h0[...] = rng.uniform_array(width, -1, 1)
    else:
        net = build_mlp([5, width, width, 3], name, init=init, seed=51)
    if activation == "oplu-gathered":
        order = list(range(width))
        rng.shuffle(order)
        scheme = PairingScheme(zip(order[0::2], order[1::2]))
        if model == "srn":
            net = dataclasses.replace(net, hidden_activation=scheme)
        else:
            for layer in net.layers[:-1]:
                layer.activation = scheme
    return net


def norms_of_gradient_deltas(net, inputs, targets):
    """l2_norms of the deltas that net.gradients returns, stage-major."""
    deltas = net.gradients(inputs, targets)[1]
    return np.reshape(l2_norms(deltas), (len(deltas), len(inputs)))


class TestDeltaNormsOracle:
    """A model's delta_norms against l2_norms of its gradients' deltas, bit
    for bit: stage k of row i at [k, i]."""

    @pytest.mark.parametrize("rows", [1, 6, 8])
    @pytest.mark.parametrize("activation",
                             ["oplu", "oplu-gathered", "tanh", "relu", "sigmoid", "linear"])
    @pytest.mark.parametrize("model", ["srn", "dense"])
    def test_equals_norms_of_gradient_deltas(self, model, activation, rows):
        net = oracle_model(model, activation)
        rng = Rng(52)
        shape = (rows, 7, 2) if model == "srn" else (rows, 5)
        inputs = rng.uniform_array(int(np.prod(shape)), -1, 1).reshape(shape)
        targets = rng.uniform_array(rows * net.output_dim).reshape(rows, net.output_dim)
        norms = net.delta_norms(inputs, targets)
        expected = norms_of_gradient_deltas(net, inputs, targets)
        assert norms.shape == expected.shape == (7 if model == "srn" else 3, rows)
        assert norms.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("activation", ["oplu", "oplu-gathered"])
    @pytest.mark.parametrize("width", [2, 18, 34])
    def test_packed_masks_at_pair_counts_off_whole_bytes(self, width, activation):
        # 1, 9 and 17 pairs: the last byte of every packed mask is part padding
        net = oracle_model("srn", activation, width)
        rng = Rng(53)
        inputs = rng.uniform_array(6 * 7 * 2, -1, 1).reshape(6, 7, 2)
        targets = rng.uniform_array(6).reshape(6, 1)
        norms = net.delta_norms(inputs, targets)
        assert norms.tobytes() == norms_of_gradient_deltas(net, inputs, targets).tobytes()

    def test_overflowing_deltas_give_the_same_nans(self):
        # the states reach 1e200 in 40 steps and the deltas overflow on the way back
        net = build_srn(8, "linear", init="orthogonal", seed=14)
        net.w_rec *= 1e5
        rng = Rng(6)
        inputs = rng.uniform_array(3 * 40 * 2).reshape(3, 40, 2)
        targets = rng.uniform_array(3).reshape(3, 1)
        norms = net.delta_norms(inputs, targets)
        assert np.isnan(norms).any()
        assert norms.tobytes() == norms_of_gradient_deltas(net, inputs, targets).tobytes()


class TestTraceMemory:
    """At grad-diag's shape the trace's peak memory is set by
    TRACE_TAPE_BYTES, not by the repeats. A trace through gradients, whose
    tape holds every step's presynaptic values, hidden states and deltas,
    peaked here at 1.51 MiB with the pairwise unit and 1.94 MiB with tanh."""

    @staticmethod
    def peak_bytes(net, repeats):
        return traced_peak(lambda: trace_delta_norms(
            net, (np.zeros((100, 2)), np.zeros(1)), repeats, Rng(61)))[1]

    def test_oplu_peak_does_not_grow_with_repeats(self):
        # 164 rows fill a pass: 200 repeats take a full one, 2,000 take twelve
        net = build_srn(100, "oplu", init="orthogonal", seed=60)
        peak_200, peak_2000 = self.peak_bytes(net, 200), self.peak_bytes(net, 2000)
        assert peak_2000 <= 1.1 * peak_200
        assert max(peak_200, peak_2000) <= 1.51 * 2**20

    def test_tanh_peak_stays_below_the_full_tape(self):
        net = build_srn(100, "tanh", seed=60)
        assert self.peak_bytes(net, 100) <= 1.94 * 2**20


class TestJacobianAssembly:
    def test_all_singular_values_are_one(self):
        net = orthogonal_oplu_net(depth=5, width=8, seed=14)
        sample = smooth_mlp_sample(net, seed=15)
        jac = assemble_dense_jacobian(net, sample[0])
        singular = np.linalg.svd(jac, compute_uv=False)
        assert np.abs(singular - 1.0).max() <= 1e-8

    def test_matches_finite_difference_of_forward(self):
        net = build_mlp([4, 6, 4], "tanh", seed=16)
        x = Rng(6).uniform_array(4, -1, 1)
        jac = assemble_dense_jacobian(net, x)
        eps = 1e-6
        for k in range(4):
            bump = np.zeros(4)
            bump[k] = eps
            y_plus, _ = net.forward((x + bump)[None])
            y_minus, _ = net.forward((x - bump)[None])
            numeric = (y_plus[0] - y_minus[0]) / (2 * eps)
            assert np.abs(numeric - jac[k]).max() <= 1e-8


class TestDepthIsometry:
    """The end-to-end Jacobian of an untrained 50-layer, 100-wide stack
    (the last layer linear): pairwise units with orthogonal weights keep
    every singular value at 1, while relu collapses them and Xavier
    weights spread them."""

    @staticmethod
    def singular_values(activation, init):
        rng = Rng(7)
        net = init_dense([100] * 51, activation, "mse", init, rng)
        jac = assemble_dense_jacobian(net, rng.uniform_array(100, -1, 1))
        return np.linalg.svd(jac, compute_uv=False)

    def test_oplu_orthogonal_is_an_isometry(self):
        assert np.abs(self.singular_values("oplu", "orthogonal") - 1.0).max() <= 1e-12

    def test_relu_orthogonal_collapses(self):
        assert self.singular_values("relu", "orthogonal").max() < 1e-5

    def test_oplu_xavier_is_not_an_isometry(self):
        assert self.singular_values("oplu", "xavier").max() > 2.0


class TestNormTraceCsv:
    def test_golden_format(self, tmp_path):
        trace = NormTrace([1.5, 0.25], {"activation": "tanh", "seed": "1"})
        path = tmp_path / "trace.csv"
        write_norm_trace_csv(path, trace)
        assert path.read_text() == (
            "# activation=tanh\n"
            "# seed=1\n"
            "step,mean_l2_norm\n"
            "1,1.5\n"
            "2,0.25\n"
        )

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError):
            NormTrace([1.0, -2.0])

    def test_nan_norm_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            NormTrace([float("nan"), 1.0])
