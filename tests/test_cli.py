import os
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls, traced_peak, write_image_fixture
from oplu_net import (
    Rng,
    SgdMomentum,
    evaluate,
    init_dense,
    load_checkpoint,
    load_mnist_idx,
    save_checkpoint,
    train_epoch,
    write_idx_images,
    write_idx_labels,
)
from oplu_net import datasets, linalg
from oplu_net.cli import main, run_adding, run_grad_diag, run_mnist
from oplu_net.config import ConfigError, format_config, load_config


class TestConfig:
    def test_defaults_echo_training_hyperparameters(self):
        text = format_config("adding", load_config("adding"))
        for line in (
            "alpha = 0.0001",
            "mu = 0.9",
            "batch_size = 20",
            "train_n = 20000",
            "valid_n = 1000",
            "test_n = 10000",
            "iterations_per_epoch = 50",
            "seq_len = 30",
            "epochs = 500",
            "threshold = 0.04",
        ):
            assert line in text.splitlines()
        mnist = format_config("mnist", load_config("mnist"))
        assert "alpha = 0.01" in mnist.splitlines()
        assert "mu = 0.9" in mnist.splitlines()

    def test_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seq_len = 12\nalpha = 0.002  # comment\n\n# full line comment\n")
        cfg = load_config("adding", cfg_file, {"epochs": "3"})
        assert cfg["seq_len"] == 12
        assert cfg["alpha"] == 0.002
        assert cfg["epochs"] == 3

    def test_hash_inside_value_is_kept(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("out_dir = runs/#1\n\t# tab-indented comment\nseed = 4\t# after a tab\n")
        cfg = load_config("adding", cfg_file)
        assert cfg["out_dir"] == "runs/#1"
        assert cfg["seed"] == 4

    def test_unknown_key_in_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("learning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            load_config("adding", cfg_file)

    def test_unknown_key_in_file_names_its_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("alpha = 0.01\n\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"unknown config key 'bogus' in .*run\.cfg:3$"):
            load_config("adding", cfg_file)

    def test_bad_value_in_file_names_its_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# epochs next\nepochs = many\n")
        with pytest.raises(ConfigError, match=r"bad value for 'epochs' in .*run\.cfg:2: "):
            load_config("adding", cfg_file)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_utf8_line_in_file(self, tmp_path, newline):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(newline.join([b"alpha = 0.01", b"\xff", b"seed = 2", b""]))
        with pytest.raises(ConfigError, match=r"run\.cfg:2: line is not UTF-8 text"):
            load_config("adding", cfg_file)

    def test_file_is_read_as_utf8(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes("out_dir = runs/\u00e9t\u00e9\r\nseed = 3\n".encode("utf-8"))
        cfg = load_config("adding", cfg_file)
        assert cfg["out_dir"] == "runs/\u00e9t\u00e9" and cfg["seed"] == 3

    @pytest.mark.parametrize("missing", ["file", "directory"])
    def test_unreadable_file(self, tmp_path, missing):
        path = tmp_path / "absent.cfg" if missing == "file" else tmp_path
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config("adding", path)

    def test_unknown_key_on_command_line(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config("adding", overrides={"bogus": "1"})

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="epochs"):
            load_config("adding", overrides={"epochs": "many"})

    def test_odd_oplu_hidden_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            load_config("adding", overrides={"hidden": "7"})

    def test_wide_oplu_hidden_is_checked_without_building_the_pairing(self):
        # the adjacent pairing of 400,000 units takes tens of MiB to build
        cfg, peak = traced_peak(lambda: load_config("grad-diag", overrides={"hidden": "400000"}))
        assert cfg["hidden"] == 400000
        assert peak <= 1 << 20

    def test_checkpoint_activation_token_rejected(self):
        # the pairing list is checkpoint syntax; the CLI takes names only
        with pytest.raises(ConfigError, match="'oplu 0:1,2:3'"):
            load_config("adding", overrides={"activation": "oplu 0:1,2:3"})

    def test_paper_scale_epochs(self):
        assert load_config("adding", overrides={"paper_scale": "true"})["epochs"] == 2000
        assert load_config(
            "adding", overrides={"paper_scale": "true", "seq_len": "100"}
        )["epochs"] == 5000
        # explicit epochs win
        assert load_config(
            "adding", overrides={"paper_scale": "true", "epochs": "7"}
        )["epochs"] == 7


ADDING_SMOKE = {
    "seq_len": "6",
    "epochs": "2",
    "iterations_per_epoch": "4",
    "batch_size": "5",
    "train_n": "40",
    "valid_n": "10",
    "test_n": "10",
    "hidden": "8",
}


class TestRunAdding:
    def test_smoke_outputs(self, tmp_path):
        cfg = load_config("adding", overrides={**ADDING_SMOKE, "out_dir": str(tmp_path)})
        report = run_adding(cfg)
        assert os.path.exists(report.csv_path)
        assert os.path.exists(report.checkpoint_path)
        lines = Path(report.csv_path).read_text().splitlines()
        assert lines[0] == "epoch,train_mse,valid_mse"
        assert len(lines) == 3  # header + 2 epochs
        assert 0.0 <= report.test_success_rate <= 1.0
        net = load_checkpoint(report.checkpoint_path)
        assert net.hidden_dim == 8
        trace_lines = (tmp_path / "adding_oplu_T6_delta_trace.csv").read_text().splitlines()
        trace_rows = [line for line in trace_lines if not line.startswith("#")]
        assert trace_rows[0] == "step,mean_l2_norm"
        assert len(trace_rows) == 7  # header + one row per unrolled step

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        rep_a = run_adding(load_config("adding", overrides={**ADDING_SMOKE, "out_dir": str(out_a)}))
        rep_b = run_adding(load_config("adding", overrides={**ADDING_SMOKE, "out_dir": str(out_b)}))
        assert Path(rep_a.csv_path).read_bytes() == Path(rep_b.csv_path).read_bytes()
        assert Path(rep_a.checkpoint_path).read_bytes() == Path(rep_b.checkpoint_path).read_bytes()

    def test_horizon_default_matches_seq_len(self, tmp_path):
        cfg = load_config("adding", overrides={**ADDING_SMOKE, "out_dir": str(tmp_path)})
        assert cfg["horizon"] == 0  # resolved to seq_len inside the runner
        run_adding(cfg)

    def test_horizon_past_seq_len_is_clamped(self, tmp_path, capsys):
        # training, the delta trace and its header all unroll seq_len steps
        args = ["adding", *(a for k, v in ADDING_SMOKE.items() for a in (f"--{k}", v)),
                "--seq_len", "5"]
        assert main([*args, "--horizon", "9", "--out_dir", str(tmp_path / "h9")]) == 0
        assert main([*args, "--horizon", "5", "--out_dir", str(tmp_path / "h5")]) == 0
        trace = (tmp_path / "h9" / "adding_oplu_T5_delta_trace.csv").read_text().splitlines()
        assert "# horizon=5" in trace
        assert len(trace) == trace.index("step,mean_l2_norm") + 1 + 5
        names = sorted(p.name for p in (tmp_path / "h5").iterdir())
        assert sorted(p.name for p in (tmp_path / "h9").iterdir()) == names
        for name in names:
            assert (tmp_path / "h9" / name).read_bytes() == (tmp_path / "h5" / name).read_bytes()

    # smoke sizes whose validation MSE is not monotone at the rates below
    SELECTION = {**ADDING_SMOKE, "iterations_per_epoch": "5", "batch_size": "4",
                 "valid_n": "20", "test_n": "20"}

    @staticmethod
    def _assert_scores_epoch(tmp_path, overrides, report, epoch):
        """report's test score, checkpoint and delta trace are those of the
        same run stopped after `epoch`, whose last epoch is its best."""
        out = tmp_path / f"stopped_at_{epoch}"
        stopped = run_adding(load_config("adding", overrides={
            **overrides, "epochs": str(epoch), "out_dir": str(out)}))
        assert stopped.diverged_at_epoch is None
        assert (stopped.test_mse, stopped.test_success_rate) == (
            report.test_mse, report.test_success_rate)
        assert Path(stopped.checkpoint_path).read_bytes() == Path(report.checkpoint_path).read_bytes()
        trace = "adding_oplu_T6_delta_trace.csv"
        assert (out / trace).read_bytes() == (tmp_path / "full" / trace).read_bytes()

    def test_scores_lowest_validation_epoch(self, tmp_path):
        overrides = {**self.SELECTION, "epochs": "8", "alpha": "0.01"}
        report = run_adding(load_config("adding", overrides={**overrides, "out_dir": str(tmp_path / "full")}))
        curve = report.valid_mse_curve
        best = int(np.argmin(curve)) + 1
        assert report.diverged_at_epoch is None and len(curve) == 8
        assert best < 8  # the last epoch is not the best
        assert len(Path(report.csv_path).read_text().splitlines()) == 1 + 8
        self._assert_scores_epoch(tmp_path, overrides, report, best)

    @pytest.mark.parametrize("alpha,seed", [
        ("0.05", "5"),  # non-finite values in a training step of epoch 6
        ("0.06", "4"),  # non-finite values in the validation pass of epoch 6
    ])
    def test_divergence_keeps_best_validated_parameters(self, tmp_path, alpha, seed):
        overrides = {**self.SELECTION, "epochs": "12", "alpha": alpha, "seed": seed}
        report = run_adding(load_config("adding", overrides={**overrides, "out_dir": str(tmp_path / "full")}))
        curve = report.valid_mse_curve
        best = int(np.argmin(curve)) + 1
        assert report.diverged_at_epoch == 6 and len(curve) == 5
        assert best < 5  # the last completed epoch is not the best
        assert len(Path(report.csv_path).read_text().splitlines()) == 1 + 5
        self._assert_scores_epoch(tmp_path, overrides, report, best)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", ["2", "4"])
    def test_divergence_raises_no_numpy_warning(self, tmp_path, seed):
        # both seeds overflow in epoch 1: seed 2 at the readout, seed 4 in
        # the backward products and the loss
        report = run_adding(load_config("adding", overrides={
            "seq_len": "6", "hidden": "8", "alpha": "0.1", "epochs": "5",
            "iterations_per_epoch": "20", "train_n": "400", "valid_n": "50", "test_n": "50",
            "seed": seed, "out_dir": str(tmp_path)}))
        assert report.diverged_at_epoch == 1


class TestRunGradDiag:
    def test_single_step_trace(self, tmp_path):
        cfg = load_config(
            "grad-diag",
            overrides={"horizon": "1", "repeats": "2", "hidden": "6", "out_dir": str(tmp_path)},
        )
        report = run_grad_diag(cfg)
        lines = Path(report.csv_path).read_text().splitlines()
        data_rows = [l for l in lines if not l.startswith("#") and "," in l and "step" not in l]
        assert len(data_rows) == 1

    def test_oplu_flat_relu_decaying(self, tmp_path):
        oplu_cfg = load_config(
            "grad-diag",
            overrides={"horizon": "40", "repeats": "5", "hidden": "12", "out_dir": str(tmp_path)},
        )
        oplu_rep = run_grad_diag(oplu_cfg)
        assert abs(oplu_rep.decay_ratio - 1.0) <= 1e-8
        assert not oplu_rep.flagged

        relu_cfg = load_config(
            "grad-diag",
            overrides={
                "activation": "relu",
                "horizon": "40",
                "repeats": "5",
                "hidden": "12",
                "out_dir": str(tmp_path),
            },
        )
        relu_rep = run_grad_diag(relu_cfg)
        assert relu_rep.decay_ratio < 1.0

    def test_metadata_in_csv(self, tmp_path):
        cfg = load_config(
            "grad-diag",
            overrides={"horizon": "3", "repeats": "1", "hidden": "4", "activation": "tanh",
                       "out_dir": str(tmp_path)},
        )
        report = run_grad_diag(cfg)
        text = Path(report.csv_path).read_text()
        assert "# activation=tanh" in text
        assert "# init=xavier" in text
        assert "step,mean_l2_norm" in text
        # every data row is "int,float" parseable and round-trips exactly
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("step"):
                continue
            step, norm = line.split(",")
            int(step)
            assert repr(float(norm)) == norm


MNIST_SMOKE = {
    "hidden": "16",
    "epochs": "1",
    "batch_size": "32",
}


class TestRunMnist:
    def test_smoke_and_untrained_chance_level(self, tmp_path):
        data_dir = tmp_path / "data"
        write_image_fixture(data_dir, n_train=500, n_test=400)
        cfg = load_config(
            "mnist",
            overrides={**MNIST_SMOKE, "epochs": "0", "data_dir": str(data_dir),
                       "out_dir": str(tmp_path / "out")},
        )
        report = run_mnist(cfg)
        assert abs(report.initial_test_accuracy - 0.10) <= 0.05
        assert report.final_test_accuracies == [report.initial_test_accuracy]

    def test_training_improves_and_is_deterministic(self, tmp_path):
        data_dir = tmp_path / "data"
        write_image_fixture(data_dir)
        overrides = {**MNIST_SMOKE, "data_dir": str(data_dir)}
        rep_a = run_mnist(load_config("mnist", overrides={**overrides, "out_dir": str(tmp_path / "a")}))
        rep_b = run_mnist(load_config("mnist", overrides={**overrides, "out_dir": str(tmp_path / "b")}))
        assert rep_a.final_test_accuracies == rep_b.final_test_accuracies
        assert rep_a.best > rep_a.initial_test_accuracy
        assert Path(rep_a.csv_path).read_bytes() == Path(rep_b.csv_path).read_bytes()
        assert Path(rep_a.checkpoint_path).read_bytes() == Path(rep_b.checkpoint_path).read_bytes()
        lines = Path(rep_a.csv_path).read_text().splitlines()
        assert lines[0] == "run,epoch,train_loss,train_accuracy,test_accuracy"

    def test_repeats_report_best_and_mean(self, tmp_path):
        data_dir = tmp_path / "data"
        write_image_fixture(data_dir, n_train=300, n_test=200)
        cfg = load_config(
            "mnist",
            overrides={**MNIST_SMOKE, "repeats": "2", "data_dir": str(data_dir),
                       "out_dir": str(tmp_path / "out")},
        )
        report = run_mnist(cfg)
        assert len(report.final_test_accuracies) == 2
        assert report.best == max(report.final_test_accuracies)
        assert abs(report.mean - np.mean(report.final_test_accuracies)) < 1e-12

    def test_first_weights_are_drawn_before_the_images_are_read(self, tmp_path, monkeypatch):
        # every run's, so the scratch of the orthogonal init's expm (one
        # per layer) is freed before the image sets take their memory
        data_dir = tmp_path / "data"
        write_image_fixture(data_dir, n_train=40, n_test=20)
        calls = []
        count_calls(monkeypatch, linalg, "expm", calls)
        count_calls(monkeypatch, datasets, "load_mnist_idx", calls)
        run_mnist(load_config("mnist", overrides={
            **MNIST_SMOKE, "init": "orthogonal", "repeats": "2", "data_dir": str(data_dir),
            "out_dir": str(tmp_path / "out")}))
        assert calls == ["expm"] * 6 + ["load_mnist_idx"] * 2

    def test_repeats_equal_runs_drawn_after_the_images(self, tmp_path):
        # reference: each run's weights drawn, evaluated untrained and
        # trained in turn, all after the images are read
        data_dir = tmp_path / "data"
        write_image_fixture(data_dir, n_train=300, n_test=200)
        cfg = load_config("mnist", overrides={
            **MNIST_SMOKE, "epochs": "2", "init": "orthogonal", "repeats": "2",
            "data_dir": str(data_dir), "out_dir": str(tmp_path / "out")})
        report = run_mnist(cfg)

        train = load_mnist_idx(data_dir / cfg["train_images"], data_dir / cfg["train_labels"])
        test = load_mnist_idx(data_dir / cfg["test_images"], data_dir / cfg["test_labels"])
        lines = ["run,epoch,train_loss,train_accuracy,test_accuracy"]
        best_net, best_acc = None, -1.0
        for run in range(2):
            rng = Rng(cfg["seed"] + run)
            net = init_dense((784, 16, 16, 10), cfg["activation"], "softmax_xent", "orthogonal", rng)
            opt = SgdMomentum(cfg["alpha"], cfg["mu"])
            test_acc = evaluate(net, test.rows(), test.one_hot_targets()).accuracy
            for epoch in (1, 2):
                stats = train_epoch(net, opt, train.rows(), train.one_hot_targets(),
                                    cfg["batch_size"], rng)
                test_acc = evaluate(net, test.rows(), test.one_hot_targets()).accuracy
                lines.append(f"{run},{epoch},{float(stats.mean_loss)!r},"
                             f"{float(stats.accuracy)!r},{float(test_acc)!r}")
            if test_acc > best_acc:
                best_net, best_acc = net, test_acc
        save_checkpoint(tmp_path / "reference.ckpt", best_net)
        assert Path(report.csv_path).read_text() == "\n".join(lines) + "\n"
        assert (Path(report.checkpoint_path).read_bytes()
                == (tmp_path / "reference.ckpt").read_bytes())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", ["1e3", "1e8"])
    def test_divergence_exits_3_without_outputs(self, tmp_path, capsys, alpha):
        # a non-finite activation stops the run: no CSV, no checkpoint
        data_dir = tmp_path / "data"
        write_image_fixture(data_dir, n_train=160, n_test=40)
        out = tmp_path / "out"
        code = main(["mnist", "--activation", "oplu", "--hidden", "40", "--alpha", alpha,
                     "--epochs", "2", "--batch_size", "32", "--data_dir", str(data_dir),
                     "--out_dir", str(out)])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err
        assert list(out.glob("mnist_*")) == []


class TestMainExitCodes:
    def test_show_config(self, capsys):
        assert main(["adding", "--show-config"]) == 0
        out = capsys.readouterr().out
        assert "alpha = 0.0001" in out

    def test_config_error(self, capsys):
        assert main(["adding", "--bogus", "1"]) == 1
        assert "config error: unknown config key 'bogus' in command line" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"alpha = 0.01\n\xff\n", b"bogus = 1\n"],
                             ids=["missing", "not-utf8", "unknown-key"])
    def test_config_file_problems_exit_1(self, tmp_path, capsys, content):
        cfg = tmp_path / "a.cfg"
        if content is not None:
            cfg.write_bytes(content)
        assert main(["adding", "--config", str(cfg), "--show-config"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "a.cfg" in err

    @pytest.mark.parametrize("key, value", [("input_dim", "0"), ("input_dim", "-1"),
                                            ("horizon", "0")])
    def test_grad_diag_shape_out_of_range(self, tmp_path, capsys, key, value):
        assert main(["grad-diag", f"--{key}", value, "--out_dir", str(tmp_path)]) == 1
        assert key in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, key", [("adding", "alpha"), ("adding", "threshold"),
                                              ("mnist", "alpha")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, command, key, value):
        run = ADDING_SMOKE if command == "adding" else {**MNIST_SMOKE, "data_dir": str(tmp_path)}
        settings = {**run, key: value, "out_dir": str(tmp_path / "out")}
        assert main([command, *[a for k, v in settings.items() for a in (f"--{k}", v)]]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{key} must be finite" in err
        assert os.listdir(tmp_path) == []

    def test_grad_diag_nan_delta_norm_exits_3(self, tmp_path, capsys):
        # linear units with Xavier weights: the deltas overflow on their way
        # back through 14,000 steps
        assert main(["grad-diag", "--activation", "linear", "--init", "xavier",
                     "--horizon", "14000", "--repeats", "1", "--out_dir", str(tmp_path)]) == 3
        assert "NaN delta norm" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_value(self, capsys):
        assert main(["adding", "--alpha"]) == 1

    def test_data_error_for_missing_files(self, tmp_path, capsys):
        assert main([
            "mnist", "--data_dir", str(tmp_path), "--epochs", "0",
            "--out_dir", str(tmp_path / "out"),
        ]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", ["train", "t10k"])
    def test_data_error_for_empty_idx_files(self, tmp_path, capsys, prefix):
        write_image_fixture(tmp_path, n_train=40, n_test=40)
        write_idx_images(tmp_path / f"{prefix}-images-idx3-ubyte", np.zeros((0, 784), dtype=np.uint8))
        write_idx_labels(tmp_path / f"{prefix}-labels-idx1-ubyte", np.zeros(0, dtype=np.uint8))
        args = [a for key, value in MNIST_SMOKE.items() for a in (f"--{key}", value)]
        assert main(["mnist", "--data_dir", str(tmp_path), "--out_dir", str(tmp_path / "out"), *args]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "no records" in err

    def test_help(self, capsys):
        assert main([]) == 0
        assert "oplu-net" in capsys.readouterr().out

    def test_full_run_via_main(self, tmp_path, capsys):
        code = main([
            "grad-diag", "--horizon", "2", "--repeats", "1", "--hidden", "4",
            "--out_dir", str(tmp_path),
        ])
        assert code == 0
        assert "grad-diag" in capsys.readouterr().out

    def test_equals_style_overrides(self, tmp_path):
        code = main([
            "grad-diag", "--horizon=2", "--repeats=1", "--hidden=4",
            f"--out_dir={tmp_path}",
        ])
        assert code == 0

    def test_config_file_via_main(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("horizon = 2\nrepeats = 1\nhidden = 4\n" f"out_dir = {tmp_path}\n")
        assert main(["grad-diag", "--config", str(cfg)]) == 0
