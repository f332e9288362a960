"""Gradient-flow instrumentation and the finite-difference gradient oracle.

The oracle perturbs every scalar parameter by +/- epsilon, evaluates the
loss, and compares the central difference against the analytic gradient.
It is deliberately independent of the backward-pass code so it can certify
it. The norm traces record how large the backpropagated deltas stay as
they travel through layers or timesteps.
"""

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .activations import activation_jacobian
from .errors import NumericError, ShapeError
from .network import DenseNet, loss_value, random_target
from .rng import Rng

# Memory that one pass of trace_delta_norms may hold, in bytes: the rows
# of a pass times the bytes per row that the model's delta_norms keeps.
TRACE_TAPE_BYTES = 1 << 20


@dataclass
class NormTrace:
    """Mean delta norms per layer or timestep, oldest first; the CSV numbers
    them from 1."""

    norms: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not all(n >= 0 for n in self.norms):  # NaN fails too
            raise ValueError("norms must be non-negative")


@dataclass
class GradCheckReport:
    """Worst relative disagreement between analytic and numeric gradients."""

    per_tensor: dict  # name -> (max relative error, argmax coordinate)
    epsilon: float

    @property
    def max_relative_error(self) -> float:
        return max((err for err, _ in self.per_tensor.values()), default=0.0)

    def worst(self):
        name = max(self.per_tensor, key=lambda k: self.per_tensor[k][0])
        return (name,) + self.per_tensor[name]


def _relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def _as_rows(sample):
    """A sample's (input, target) pair as one row of inputs and of targets."""
    x, target = sample
    return np.asarray(x, dtype=np.float64)[None], np.asarray(target, dtype=np.float64)[None]


def _model_loss(model, rows, targets) -> float:
    return loss_value(model.loss, model.forward(rows)[0], targets)


def finite_diff_grad(model, sample, epsilon: float = 1e-6) -> GradCheckReport:
    """Central-difference check of every parameter against the analytic gradient.

    model is a DenseNet or an Srn, and sample its (input, target) pair: an
    input vector, or a (T, input_dim) sequence scored at its final step.
    Relative error per scalar is |g_a - g_f| / max(|g_a|, |g_f|, 1e-8).
    Raises ShapeError unless the gradients match the parameters in count and shape.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    rows, targets = _as_rows(sample)
    analytic, _ = model.gradients(rows, targets)
    shapes = [np.shape(g) for g in analytic]
    expected = [p.shape for _, p in model.named_parameters()]
    if shapes != expected:
        raise ShapeError(f"analytic gradient shapes {shapes} do not match parameter shapes {expected}")
    report = {}
    for (name, param), grad in zip(model.named_parameters(), analytic):
        worst = 0.0
        worst_coord = (0,) * param.ndim
        flat = param.reshape(-1)
        for k in range(flat.shape[0]):
            original = flat[k]
            flat[k] = original + epsilon
            plus = _model_loss(model, rows, targets)
            flat[k] = original - epsilon
            minus = _model_loss(model, rows, targets)
            flat[k] = original
            numeric = (plus - minus) / (2.0 * epsilon)
            err = _relative_error(float(grad.reshape(-1)[k]), numeric)
            if err > worst:
                worst = err
                worst_coord = np.unravel_index(k, param.shape)
        report[name] = (worst, tuple(int(c) for c in worst_coord))
    return GradCheckReport(report, epsilon)


def min_nonsmooth_gap(model, sample) -> float:
    """Distance of the forward pass from the activation kink sets: the
    least kink_gap over all layers or timesteps, infinite when the model has
    no non-smooth activation."""
    _, tape = model.forward(_as_rows(sample)[0])
    return model.kink_gap(tape)


def draw_smooth_sample(model, rng: Rng, make_sample, min_gap: float = 1e-3, attempts: int = 200):
    """Resample until the forward pass stays clear of every activation kink."""
    for _ in range(attempts):
        sample = make_sample(rng)
        if min_nonsmooth_gap(model, sample) > min_gap:
            return sample
    raise RuntimeError(f"could not find a sample with kink gap > {min_gap} in {attempts} tries")


def trace_delta_norms(model, sample, repeats: int, rng: Rng) -> NormTrace:
    """Mean backpropagated delta norms over fresh random inputs and targets.

    The sample's input fixes the shapes (a (T, input_dim) sequence for
    recurrent models, an input vector otherwise); each repeat redraws the
    input uniform in [0, 1] and a fresh random target. Trace entries run
    oldest step (or first layer) to newest.

    The repeats run through the model's delta_norms in passes of as many
    rows as fit in TRACE_TAPE_BYTES at the bytes per row that the model
    reports, so peak memory stays the same however many repeats are asked
    for. Past four rows a pass takes a multiple of four: a BLAS
    matrix-vector kernel, such as OpenBLAS's behind a one-unit readout, may
    take rows in blocks of four and a partial block apart, so a row's last
    bits can depend on its place in a pass modulo four. A pass reads all its
    repeats' draws from rng in one call, in the order that repeat by repeat
    would take them, each repeat's inputs and then its target, and its norms
    join the sum in repeat order, so the random stream is the same for any
    pass size; only the matrix products, whose summation order may depend
    on the rows in a pass, can move the trace in the last bits. Each norm is
    exactly as l2_norm gives it. A NaN norm, from deltas that overflow on
    their way back through the steps or layers, raises NumericError.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    x, _ = sample
    shape = np.shape(x)
    rows = max(1, TRACE_TAPE_BYTES // model.delta_norms_row_bytes(shape))
    rows = min(repeats, rows if rows < 4 else rows - rows % 4)
    inputs = np.empty((rows,) + shape)
    total = 0.0
    for start in range(0, repeats, rows):
        count = min(rows, repeats - start)
        targets = random_target(model.loss, model.output_dim, rng, inputs[:count])
        # stage k of repeat i at [k, i]: the columns join the sum in repeat order
        total = reduce(np.add, model.delta_norms(inputs[:count], targets).T, total)
    if np.isnan(total).any():
        raise NumericError(f"NaN delta norm at trace step {int(np.argmax(np.isnan(total))) + 1}")
    return NormTrace([float(v) for v in total / repeats])


def write_norm_trace_csv(path, trace: NormTrace) -> None:
    """CSV with '#'-prefixed metadata lines, then step,mean_l2_norm rows."""
    lines = [f"# {key}={trace.meta[key]}" for key in sorted(trace.meta)]
    lines.append("step,mean_l2_norm")
    for step, norm in enumerate(trace.norms, start=1):
        lines.append(f"{step},{float(norm)!r}")
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def assemble_dense_jacobian(net: DenseNet, x) -> np.ndarray:
    """End-to-end forward Jacobian at input vector x as a per-layer product.

    Returns M with d(output) = d(input) @ M, the product of each layer's
    weight matrix and its activation_jacobian.
    """
    _, tape = net.forward(np.asarray(x, dtype=np.float64)[None])
    m = np.eye(net.input_dim)
    for layer, a in zip(net.layers, tape.presyn):
        m = m @ layer.w @ activation_jacobian(layer.activation, a[0])
    return m
