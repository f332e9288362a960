import os
import sys
import tracemalloc

import numpy as np

from oplu_net import (
    DenseLayer,
    DenseNet,
    Rng,
    SequenceSample,
    gen_image_classes,
    init_dense,
    init_srn,
    write_idx_images,
    write_idx_labels,
)
from oplu_net.activations import make_activation
from oplu_net.diagnostics import draw_smooth_sample


def build_mlp(widths, activation, loss="mse", init="xavier", seed=0):
    return init_dense(widths, activation, loss, init, Rng(seed))


def build_srn(hidden, activation, init="xavier", seed=0, input_dim=2, output_dim=1):
    return init_srn(input_dim, hidden, output_dim, activation, init, Rng(seed))


def srn_row_bytes(steps, hidden, factor):
    """What an SRN's delta_norms holds per row of (steps, 2) inputs: the
    inputs, a `factor`-byte backward factor and a norm a step, and four
    hidden-width working rows. A pairing's factor is its swap mask packed
    at one bit a pair, mask_bytes(hidden)."""
    return steps * (2 * 8 + factor + 8) + 4 * hidden * 8


def mask_bytes(hidden):
    """Bytes of one row's swap mask over `hidden` units at one bit a pair,
    rounded up to whole bytes."""
    return (hidden // 2 + 7) // 8


def write_image_fixture(dir_path, n_train=600, n_test=300, seed=5):
    """Small synthetic labeled-image dataset in IDX files."""
    ds = gen_image_classes(n_train + n_test, Rng(seed))
    os.makedirs(dir_path, exist_ok=True)

    def dump(images, labels, img_name, lbl_name):
        write_idx_images(os.path.join(dir_path, img_name), (images * 255).round().astype(np.uint8))
        write_idx_labels(os.path.join(dir_path, lbl_name), labels.astype(np.uint8))

    dump(ds.images[:n_train], ds.labels[:n_train], "train-images-idx3-ubyte", "train-labels-idx1-ubyte")
    dump(ds.images[n_train:], ds.labels[n_train:], "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def smooth_mlp_sample(net, seed=0, gap=1e-3):
    """Random (x, target) pair whose forward pass avoids activation kinks."""
    rng = Rng(seed)

    def make(r):
        return (r.uniform_array(net.input_dim, -1, 1),
                r.uniform_array(net.output_dim, -1, 1))

    return draw_smooth_sample(net, rng, make, min_gap=gap)


def smooth_srn_sample(net, steps, seed=0, gap=1e-3):
    rng = Rng(seed)

    def make(r):
        inputs = r.uniform_array(steps * net.input_dim, -1, 1).reshape(steps, net.input_dim)
        return SequenceSample(inputs, r.uniform_array(net.output_dim))

    return draw_smooth_sample(net, rng, make, min_gap=gap)


def orthogonal_oplu_net(depth, width, seed=0, loss="mse"):
    """All-orthogonal, zero-bias, all-pairwise-permutation stack."""
    from oplu_net import random_orthogonal

    rng = Rng(seed)
    layers = [
        DenseLayer(random_orthogonal(width, rng), np.zeros(width), make_activation("oplu", width))
        for _ in range(depth)
    ]
    return DenseNet(layers, loss)


def count_calls(monkeypatch, module, name, calls=None):
    """A list that gains one entry, the name, per call to module.name,
    through module (math.fsum as linalg calls it, say) and through every
    binding of that function in the package's modules. Pass one `calls`
    list to several spies to see the order of their calls."""
    fn = getattr(module, name)
    calls = [] if calls is None else calls

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "oplu_net" or mod_name.startswith("oplu_net."):
            for key, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def traced_peak(fn):
    """fn()'s result and the peak bytes tracemalloc saw allocated while it
    ran; what was allocated before the call does not count."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
