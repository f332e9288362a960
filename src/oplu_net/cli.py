"""Command-line experiment harness.

    oplu-net <mnist|adding|grad-diag> [--config PATH] [--show-config] [--key value ...]

Every run is fully determined by its config and seed: CSVs and
checkpoints come out byte-identical across repeats of the same
invocation. Exit codes: 0 success, 1 config error, 2 data error,
3 numeric failure.
"""

import os
import sys
from dataclasses import dataclass

import numpy as np

from .checkpoint import save_checkpoint
from .config import (
    format_config,
    load_config,
    resolve_data_dir,
    resolve_init,
)
from .datasets import gen_adding, load_mnist_idx, split
from .diagnostics import NormTrace, trace_delta_norms, write_norm_trace_csv
from .errors import ConfigError, NumericError, ParseError
from .network import SgdMomentum, evaluate, init_dense, sgd_step, train_epoch
from .recurrent import BpttConfig, SequenceSample, _bptt_batch, bptt, evaluate_adding, init_srn
from .rng import Rng


def _fmt(x: float) -> str:
    return repr(float(x))


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


# ---------------------------------------------------------------------------
# mnist
# ---------------------------------------------------------------------------


@dataclass
class MnistReport:
    initial_test_accuracy: float
    final_test_accuracies: list
    best: float
    mean: float
    csv_path: str
    checkpoint_path: str


def run_mnist(cfg: dict) -> MnistReport:
    init = resolve_init("mnist", cfg)
    hidden = cfg["hidden"]
    widths = (784, hidden, hidden, 10)
    # every run's weights come before the images, so the scratch of an
    # orthogonal init's expm is freed before the data is read; each run
    # keeps its generator for its shuffles
    runs = []
    for run in range(cfg["repeats"]):
        rng = Rng(cfg["seed"] + run)
        runs.append((init_dense(widths, cfg["activation"], "softmax_xent", init, rng), rng))
    data_dir = resolve_data_dir(cfg)

    def locate(name):
        path = cfg[name]
        return path if os.path.isabs(path) else os.path.join(data_dir, path)

    train = load_mnist_idx(locate("train_images"), locate("train_labels"))
    test = load_mnist_idx(locate("test_images"), locate("test_labels"))
    train_targets = train.one_hot_targets()
    test_targets = test.one_hot_targets()
    train_rows, test_rows = train.rows(), test.rows()

    _ensure_dir(cfg["out_dir"])
    csv_path = os.path.join(cfg["out_dir"], f"mnist_{cfg['activation']}.csv")
    ckpt_path = os.path.join(cfg["out_dir"], f"mnist_{cfg['activation']}.ckpt")

    rows = ["run,epoch,train_loss,train_accuracy,test_accuracy"]
    finals = []
    initial_acc = None
    best_net = None
    best_acc = -1.0
    for run, (net, rng) in enumerate(runs):
        opt = SgdMomentum(cfg["alpha"], cfg["mu"])
        # a later run's untrained accuracy is read only if no epoch follows
        if run == 0 or cfg["epochs"] == 0:
            test_acc = evaluate(net, test_rows, test_targets).accuracy
        if run == 0:
            initial_acc = test_acc
        for epoch in range(1, cfg["epochs"] + 1):
            stats = train_epoch(net, opt, train_rows, train_targets, cfg["batch_size"], rng)
            test_acc = evaluate(net, test_rows, test_targets).accuracy
            rows.append(
                f"{run},{epoch},{_fmt(stats.mean_loss)},{_fmt(stats.accuracy)},{_fmt(test_acc)}"
            )
        finals.append(test_acc)
        if test_acc > best_acc:
            best_acc = test_acc
            best_net = net
        print(f"mnist run {run}: activation={cfg['activation']} test_accuracy={test_acc:.4f}")

    with open(csv_path, "w", newline="") as f:
        f.write("\n".join(rows) + "\n")
    save_checkpoint(ckpt_path, best_net)
    report = MnistReport(
        initial_test_accuracy=initial_acc,
        final_test_accuracies=finals,
        best=max(finals),
        mean=float(np.mean(finals)),
        csv_path=csv_path,
        checkpoint_path=ckpt_path,
    )
    print(f"mnist summary: best={report.best:.4f} mean={report.mean:.4f}")
    return report


# ---------------------------------------------------------------------------
# adding
# ---------------------------------------------------------------------------


@dataclass
class AddingReport:
    test_mse: float
    test_success_rate: float
    valid_mse_curve: list
    csv_path: str
    checkpoint_path: str
    diverged_at_epoch: int | None = None


def run_adding(cfg: dict) -> AddingReport:
    root = Rng(cfg["seed"])
    data_rng = root.spawn()
    init_rng = root.spawn()
    train_rng = root.spawn()

    seq_len = cfg["seq_len"]
    total = cfg["train_n"] + cfg["valid_n"] + cfg["test_n"]
    # the parts share the generated set's stream and positions
    train, valid, test = split(gen_adding(seq_len, total, data_rng),
                               cfg["train_n"], cfg["valid_n"], cfg["test_n"], data_rng)

    init = resolve_init("adding", cfg)
    net = init_srn(2, cfg["hidden"], 1, cfg["activation"], init, init_rng)
    opt = SgdMomentum(cfg["alpha"], cfg["mu"])
    # training, the delta trace and its header all unroll this many steps
    horizon = min(cfg["horizon"], seq_len) if cfg["horizon"] > 0 else seq_len

    _ensure_dir(cfg["out_dir"])
    tag = f"adding_{cfg['activation']}_T{seq_len}"
    csv_path = os.path.join(cfg["out_dir"], f"{tag}.csv")
    ckpt_path = os.path.join(cfg["out_dir"], f"{tag}.ckpt")

    params = net.parameters()
    n_train = len(train)
    batch = cfg["batch_size"]
    rows = ["epoch,train_mse,valid_mse"]
    curve = []
    diverged_at = None
    # lowest-validation-MSE parameters so far; the initial ones until an
    # epoch completes
    best = [p.copy() for p in params]
    best_valid = float("inf")
    for epoch in range(1, cfg["epochs"] + 1):
        order = list(range(n_train))
        train_rng.shuffle(order)
        epoch_loss = 0.0
        try:
            for it in range(cfg["iterations_per_epoch"]):
                idx = [order[(it * batch + k) % n_train] for k in range(batch)]
                grads, batch_loss, _ = _bptt_batch(net, train.rows(idx), train.targets[idx], horizon)
                sgd_step(opt, params, grads)
                epoch_loss += batch_loss
            valid_mse, _ = evaluate_adding(net, valid, cfg["threshold"])
        except NumericError:
            # training blew up; report the run as a failed training that
            # keeps its best validated parameters rather than crashing
            diverged_at = epoch
            print(f"adding: training diverged during epoch {epoch}; stopping early")
            break
        if valid_mse < best_valid:
            best_valid = valid_mse
            for p, saved in zip(params, best):
                saved[...] = p
        curve.append(valid_mse)
        rows.append(f"{epoch},{_fmt(epoch_loss / cfg['iterations_per_epoch'])},{_fmt(valid_mse)}")

    # the validation split selects the model: test score, delta trace and
    # checkpoint all come from the lowest-validation-MSE parameters
    for p, saved in zip(params, best):
        p[...] = saved
    test_mse, success = evaluate_adding(net, test, cfg["threshold"])
    with open(csv_path, "w", newline="") as f:
        f.write("\n".join(rows) + "\n")
    # delta-norm trace of the trained model on the first test sequence,
    # oldest unrolled step first
    _, norms = bptt(net, SequenceSample(test.rows(0), test.targets[0]), BpttConfig(horizon))
    trace = NormTrace(norms, {
        "kind": "srn", "horizon": str(horizon), "activation": cfg["activation"],
        "init": init, "seed": str(cfg["seed"]), "repeats": "1",
    })
    write_norm_trace_csv(os.path.join(cfg["out_dir"], f"{tag}_delta_trace.csv"), trace)
    save_checkpoint(ckpt_path, net)
    print(
        f"adding T={seq_len} activation={cfg['activation']}: "
        f"test_mse={test_mse:.6f} success_rate={success:.4f}"
        + (f" (diverged at epoch {diverged_at})" if diverged_at else "")
    )
    return AddingReport(test_mse, success, curve, csv_path, ckpt_path, diverged_at)


# ---------------------------------------------------------------------------
# grad-diag
# ---------------------------------------------------------------------------


@dataclass
class GradDiagReport:
    norms: list  # oldest step first
    decay_ratio: float  # oldest / newest
    flagged: bool
    csv_path: str


def run_grad_diag(cfg: dict) -> GradDiagReport:
    root = Rng(cfg["seed"])
    init_rng = root.spawn()
    trace_rng = root.spawn()

    init = resolve_init("grad-diag", cfg)
    net = init_srn(cfg["input_dim"], cfg["hidden"], 1, cfg["activation"], init, init_rng)

    sample = (np.zeros((cfg["horizon"], cfg["input_dim"])), np.zeros(1))
    trace = trace_delta_norms(net, sample, cfg["repeats"], trace_rng)
    trace.meta.update(
        kind="srn",
        horizon=str(cfg["horizon"]),
        activation=cfg["activation"],
        init=init,
        seed=str(cfg["seed"]),
        repeats=str(cfg["repeats"]),
    )

    _ensure_dir(cfg["out_dir"])
    csv_path = os.path.join(cfg["out_dir"], f"grad_diag_{cfg['activation']}_{init}_h{cfg['horizon']}.csv")
    write_norm_trace_csv(csv_path, trace)

    newest = trace.norms[-1]
    oldest = trace.norms[0]
    ratio = oldest / newest if newest > 0 else float("inf")
    # A relu run is expected to lose gradient; flag it if it somehow did not.
    flagged = cfg["activation"] == "relu" and not ratio <= 1e-2
    status = "FLAGGED" if flagged else "ok"
    print(
        f"grad-diag activation={cfg['activation']} init={init} h={cfg['horizon']}: "
        f"oldest/newest={ratio:.3e} [{status}]"
    )
    return GradDiagReport(trace.norms, ratio, flagged, csv_path)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

_RUNNERS = {"mnist": run_mnist, "adding": run_adding, "grad-diag": run_grad_diag}


def _parse_args(argv: list):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return None
    kind = argv[0]
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown command {kind!r}; expected one of {sorted(_RUNNERS)}")
    config_path = None
    show = False
    overrides = {}
    i = 1
    while i < len(argv):
        token = argv[i]
        if token == "--show-config":
            show = True
            i += 1
            continue
        if not token.startswith("--"):
            raise ConfigError(f"expected --key value, got {token!r}")
        if "=" in token:
            key, value = token[2:].split("=", 1)
            i += 1
        else:
            key = token[2:]
            if i + 1 >= len(argv):
                raise ConfigError(f"missing value for --{key}")
            value = argv[i + 1]
            i += 2
        if key == "config":
            config_path = value
        else:
            overrides[key] = value
    return kind, config_path, overrides, show


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parsed = _parse_args(argv)
        if parsed is None:
            return 0
        kind, config_path, overrides, show = parsed
        cfg = load_config(kind, config_path, overrides)
        if show:
            print(format_config(kind, cfg))
            return 0
        _RUNNERS[kind](cfg)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
