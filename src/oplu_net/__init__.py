"""Norm-preserving pairwise permutation activations and the experiments around them.

The package provides a small from-scratch neural network stack: dense and
simple recurrent networks with tanh/sigmoid/relu/linear activations plus a
pairwise permutation unit whose backward pass is an exact permutation of
the deltas, orthogonal weight initialization via the matrix exponential of
random skew-symmetric matrices, gradient-flow diagnostics, and a CLI for
the classification and adding-task experiments.
"""

from .activations import (
    PairingScheme,
    make_activation,
    materialize_permutation,
    oplu_backward,
    oplu_forward,
    scalar_derivative,
    scalar_forward,
    swap_mask,
)
from .errors import ConfigError, NumericError, ParseError, ShapeError
from .linalg import (
    expm,
    l2_norm,
    l2_norms,
    random_orthogonal,
    random_orthogonal_rect,
    random_skew_symmetric,
    xavier_init,
)
from .rng import Rng
from .network import (
    DenseLayer,
    DenseNet,
    SgdMomentum,
    evaluate,
    init_dense,
    loss_value,
    output_delta,
    sgd_step,
    train_epoch,
)
from .recurrent import (
    BpttConfig,
    SequenceSample,
    Srn,
    bptt,
    evaluate_adding,
    init_srn,
    srn_forward,
)
from .datasets import (
    AddingDataset,
    MnistDataset,
    gen_adding,
    gen_image_classes,
    load_mnist_idx,
    split,
    write_idx_images,
    write_idx_labels,
)
from .diagnostics import (
    NormTrace,
    finite_diff_grad,
    min_nonsmooth_gap,
    trace_delta_norms,
    write_norm_trace_csv,
)
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
