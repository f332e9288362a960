import numpy as np
import pytest

from conftest import build_mlp, build_srn, orthogonal_oplu_net, smooth_mlp_sample, smooth_srn_sample
from oplu_net import (
    BpttConfig,
    NormTrace,
    Rng,
    SequenceSample,
    backprop,
    bptt,
    dense_forward,
    finite_diff_grad,
    l2_norm,
    min_nonsmooth_gap,
    output_delta,
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


class TestMinNonsmoothGap:
    def test_smooth_network_has_infinite_gap(self):
        net = build_mlp([3, 4, 2], "tanh", seed=3)
        assert min_nonsmooth_gap(net, (np.ones(3), np.zeros(2))) == np.inf

    def test_relu_gap_is_min_abs_preactivation(self):
        net = build_mlp([2, 2, 2], "relu", seed=9)
        x = np.array([0.5, -0.25])
        _, tape = dense_forward(net, x)
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
        y, tape = dense_forward(net, x)
        grads = backprop(net, tape, output_delta("mse", y, t))
        assert trace.norms[0] == l2_norm(grads.deltas[0])

    def test_dense_trace_runs_first_layer_first(self):
        net = orthogonal_oplu_net(depth=4, width=6, seed=13)
        trace = trace_delta_norms(net, (np.zeros(6), np.zeros(6)), repeats=3, rng=Rng(4))
        assert trace.labels == ["1", "2", "3", "4"]
        norms = np.asarray(trace.norms)
        # all-orthogonal pairwise net: every layer sees the same delta norm
        assert norms.max() / norms.min() <= 1 + 1e-8


def _spy_batches(monkeypatch, name):
    """Record the row count of every call to diagnostics.<name>(net, rows, ...)."""
    calls = []
    real = getattr(diagnostics, name)

    def spy(net, rows, *args):
        calls.append(len(rows))
        return real(net, rows, *args)

    monkeypatch.setattr(diagnostics, name, spy)
    return calls


# with a budget of three rows: fewer repeats than a pass holds, an exact
# multiple of it, and a partial last pass
PASSES = [(2, [2]), (6, [3, 3]), (7, [3, 3, 1])]


class TestBatchedTraceReplay:
    """trace_delta_norms against a replay of its random stream, one repeat
    at a time through the per-sample bptt or dense_forward/backprop."""

    @pytest.mark.parametrize("repeats,passes", PASSES)
    def test_srn_matches_per_sequence_bptt(self, monkeypatch, repeats, passes):
        steps, hidden = 6, 8
        net = build_srn(hidden, "oplu", init="orthogonal", seed=17)
        monkeypatch.setattr(diagnostics, "TRACE_TAPE_BYTES", 3 * (3 * steps * hidden * 8))
        calls = _spy_batches(monkeypatch, "_bptt_batch")
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
            total += np.asarray(norms)[::-1]
        expected = total / repeats
        assert np.abs(np.asarray(trace.norms) / expected - 1).max() <= 1e-14
        assert rng.next_u64() == replay.next_u64()

    @pytest.mark.parametrize("loss", ["softmax_xent", "mse"])
    @pytest.mark.parametrize("repeats,passes", PASSES)
    def test_dense_matches_per_sample_backprop(self, monkeypatch, loss, repeats, passes):
        net = build_mlp([5, 6, 6, 4], "oplu", loss=loss, seed=18)
        monkeypatch.setattr(diagnostics, "TRACE_TAPE_BYTES", 3 * (3 * (6 + 6 + 4) * 8))
        calls = _spy_batches(monkeypatch, "_forward_batch")
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
            y, tape = dense_forward(net, x)
            grads = backprop(net, tape, output_delta(loss, y, target))
            total += np.asarray([l2_norm(d) for d in grads.deltas])
        expected = total / repeats
        assert np.abs(np.asarray(trace.norms) / expected - 1).max() <= 1e-14
        assert rng.next_u64() == replay.next_u64()

    def test_pass_size_at_grad_diag_scale(self, monkeypatch):
        # 100 steps of 100 hidden units keep 240,000 tape bytes a row
        calls = _spy_batches(monkeypatch, "_bptt_batch")
        net = build_srn(100, "oplu", init="orthogonal", seed=19)
        template = SequenceSample(np.zeros((100, 2)), np.zeros(1))
        trace_delta_norms(net, template, 9, Rng(42))
        assert calls == [4, 4, 1]


class TestJacobianAssembly:
    def test_all_singular_values_are_one(self):
        net = orthogonal_oplu_net(depth=5, width=8, seed=14)
        sample = smooth_mlp_sample(net, seed=15)
        _, tape = dense_forward(net, sample[0])
        jac = assemble_dense_jacobian(net, tape)
        singular = np.linalg.svd(jac, compute_uv=False)
        assert np.abs(singular - 1.0).max() <= 1e-8

    def test_matches_finite_difference_of_forward(self):
        net = build_mlp([4, 6, 4], "tanh", seed=16)
        x = Rng(6).uniform_array(4, -1, 1)
        _, tape = dense_forward(net, x)
        jac = assemble_dense_jacobian(net, tape)
        eps = 1e-6
        for k in range(4):
            bump = np.zeros(4)
            bump[k] = eps
            y_plus, _ = dense_forward(net, x + bump)
            y_minus, _ = dense_forward(net, x - bump)
            numeric = (y_plus - y_minus) / (2 * eps)
            assert np.abs(numeric - jac[k]).max() <= 1e-8


class TestNormTraceCsv:
    def test_golden_format(self, tmp_path):
        trace = NormTrace(["1", "2"], [1.5, 0.25], {"activation": "tanh", "seed": "1"})
        path = tmp_path / "trace.csv"
        write_norm_trace_csv(path, trace)
        assert path.read_text() == (
            "# activation=tanh\n"
            "# seed=1\n"
            "step,mean_l2_norm\n"
            "1,1.5\n"
            "2,0.25\n"
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(Exception):
            NormTrace(["1"], [1.0, 2.0])
