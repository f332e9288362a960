"""The sha256 of every output byte of a few small CLI runs, and of each
checkpoint they write after a load and a re-save.

A change that keeps the order of every floating-point operation (a
refactor, or a speed-up that only moves work around) must leave these
digests as they are. The bytes also depend on numpy, on the BLAS build and
on its thread count, so the digests hold only in the environment that they
were taken in; anywhere else the test skips and names the fields that
differ.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest

from conftest import write_image_fixture
from oplu_net import diagnostics, load_checkpoint, save_checkpoint
from oplu_net.cli import main


def openblas_config():
    """The configuration string of the OpenBLAS that numpy loads at run
    time (with its DYNAMIC_ARCH core), or None if there is none to ask."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            get_config = ctypes.CDLL(path).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        return get_config().decode()
    return None


def environment():
    return {
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas": openblas_config(),
    }


PINNED_ENVIRONMENT = {
    "numpy": "2.4.6",
    "OPENBLAS_NUM_THREADS": None,
    "openblas": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
}

ADDING = ["adding", "--seq_len", "7", "--hidden", "16", "--epochs", "3", "--alpha", "0.01",
          "--batch_size", "5", "--iterations_per_epoch", "10",
          "--train_n", "100", "--valid_n", "40", "--test_n", "600", "--seed", "3"]
GRAD_DIAG = ["grad-diag", "--horizon", "40", "--repeats", "200", "--seed", "3"]
# run on a 2,000/500 synthetic image set written beside the outputs
MNIST = ["mnist", "--hidden", "32", "--epochs", "1", "--repeats", "2"]

# test_n 600 takes two evaluation chunks; tanh also unrolls fewer steps than
# it runs, and 200 grad-diag repeats take one pass with the pairwise unit
# and eight with tanh and relu
RUNS = {
    "adding-oplu": ADDING + ["--activation", "oplu"],
    "adding-tanh": ADDING + ["--activation", "tanh", "--horizon", "4"],
    "grad-diag-oplu": GRAD_DIAG + ["--activation", "oplu"],
    "grad-diag-tanh": GRAD_DIAG + ["--activation", "tanh"],
    "grad-diag-relu": GRAD_DIAG + ["--activation", "relu"],
    "mnist-oplu": MNIST + ["--activation", "oplu"],
    "mnist-relu": MNIST + ["--activation", "relu"],
}

DIGESTS = {
    "adding-oplu": {
        "stdout": "14cbd92c8f24e25ca5ffe741898ea8574cff0b00f4411074ede557ea8b12d9ae",
        "adding_oplu_T7.ckpt": "9261a68e1dbf90858599fcf95e16f1284eee522a6afa31accfc15f9b7118ec11",
        "adding_oplu_T7.ckpt re-saved": "9261a68e1dbf90858599fcf95e16f1284eee522a6afa31accfc15f9b7118ec11",
        "adding_oplu_T7.csv": "683ae5706bd952d6ed6af7138fb74be7881524c9eae33ef6e86d2c76127a121f",
        "adding_oplu_T7_delta_trace.csv": "fef7df58137f60298aa6a075a36b684db920935c0575a955cc91e0dd30cd905d",
    },
    "adding-tanh": {
        "stdout": "b5bff906adce4450cc50c657c91e7d98f16f8f4bad511a4fc96e5ff68315d8f5",
        "adding_tanh_T7.ckpt": "606b9478b978adc45cf778db453e78af65d17bf60893745c344de3dc214e542f",
        "adding_tanh_T7.ckpt re-saved": "606b9478b978adc45cf778db453e78af65d17bf60893745c344de3dc214e542f",
        "adding_tanh_T7.csv": "52e40d14826fac67c7360ab2c5944277c9bd1674091588361c4a9b5364d6d576",
        "adding_tanh_T7_delta_trace.csv": "447deace7ef187807f2d32184b02afbb8c83614d1d7e865aba6f4cc754dd5897",
    },
    "grad-diag-oplu": {
        "stdout": "2a0e8fc523e339979a13e6ef6c259113ad9f1cdc4ae742cd6990c4f848811fae",
        "grad_diag_oplu_orthogonal_h40.csv": "d783c5b6e0d7e2248a65223638de0c8c4b1342699945a4d4647ca7cfff27ab92",
    },
    "grad-diag-relu": {
        "stdout": "1ca0cdaa3babb966ecf927145960e17dbddb2c8104ca211434a1dcc913bd5eb3",
        "grad_diag_relu_xavier_h40.csv": "48ea81d388b231af2b4652f4d40df47edaf123bbb6ab7b2b91f401ccc387d268",
    },
    "grad-diag-tanh": {
        "stdout": "7d7f02ef387bac1ca7cd4c7bbda7a9253a60d1916cb906a6a276abca22ed3b7a",
        "grad_diag_tanh_xavier_h40.csv": "5a60016831341da93e93891a1385785f299dfc19e438be5ad326aa5bb3c43fcc",
    },
    "mnist-oplu": {
        "stdout": "ae7fa6a61250a96056ee08a2906cd2f9c921f3aefab073bd0264d4dfe12c7311",
        "mnist_oplu.ckpt": "b55911be36a188d1a50b84afda90275dfaa949a2e7bc20840ab8e2e1cef17c00",
        "mnist_oplu.ckpt re-saved": "b55911be36a188d1a50b84afda90275dfaa949a2e7bc20840ab8e2e1cef17c00",
        "mnist_oplu.csv": "c6534ca811fc28e6911d2575c09972a299d4a61933439892d438fe8afbf9aec6",
    },
    "mnist-relu": {
        "stdout": "650ee7bcc5f84cbad868b8d5dbed28ba07fe4392bbb1db70402d5f6170cd7a27",
        "mnist_relu.ckpt": "d9adf39fa0c5c189b8b526c6dc360ae20c3663d7711ff1b248dba8e61d414e55",
        "mnist_relu.ckpt re-saved": "d9adf39fa0c5c189b8b526c6dc360ae20c3663d7711ff1b248dba8e61d414e55",
        "mnist_relu.csv": "0d1267aa028696379965b4f82ee89bd12e17b3b1f40ed3e146faa99cb1a97774",
    },
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(argv, out_dir, capsys):
    """{file name or "stdout": sha256} of one CLI run writing into out_dir,
    plus "<name> re-saved" for each checkpoint loaded and saved again."""
    capsys.readouterr()
    assert main(argv + ["--out_dir", str(out_dir)]) == 0
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = sha256(path)
        if path.suffix == ".ckpt":
            resaved = out_dir.parent / f"resaved-{path.name}"
            save_checkpoint(resaved, load_checkpoint(path))
            digests[f"{path.name} re-saved"] = sha256(resaved)
    return digests


def skip_unless_pinned_environment():
    found = environment()
    differ = [f"{key}: {found[key]!r} here, {value!r} pinned"
              for key, value in PINNED_ENVIRONMENT.items() if found[key] != value]
    if differ:
        pytest.skip("digests pinned in another environment; " + "; ".join(differ))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_pinned_digests(name, tmp_path, capsys):
    skip_unless_pinned_environment()
    argv = RUNS[name]
    if argv[0] == "mnist":
        write_image_fixture(tmp_path / "data", n_train=2000, n_test=500)
        argv = argv + ["--data_dir", str(tmp_path / "data")]
    assert run_digests(argv, tmp_path / "out", capsys) == DIGESTS[name]


def test_grad_diag_in_two_passes_keeps_its_earlier_bytes(monkeypatch, tmp_path, capsys):
    # with one byte a pair, 168 rows of 6,160 bytes fit a pass and the 200
    # repeats ran as 168 + 32; a budget of 168 of today's 4,440-byte rows
    # takes the same passes, and the trace's bytes are those it wrote then
    skip_unless_pinned_environment()
    monkeypatch.setattr(diagnostics, "TRACE_TAPE_BYTES", 168 * 4440)
    assert run_digests(RUNS["grad-diag-oplu"], tmp_path / "out", capsys) == {
        **DIGESTS["grad-diag-oplu"],
        "grad_diag_oplu_orthogonal_h40.csv":
            "1c409ba69df864df64602780879a509a2eb610b16de7a2abf9db5c1a24ae51c5",
    }
