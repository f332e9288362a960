"""Gradient-flow instrumentation and the finite-difference gradient oracle.

The oracle perturbs every scalar parameter by +/- epsilon, evaluates the
loss, and compares the central difference against the analytic gradient.
It is deliberately independent of the backward-pass code so it can certify
it. The norm traces record how large the backpropagated deltas stay as
they travel through layers or timesteps.
"""

from dataclasses import dataclass, field

import numpy as np

from .activations import activation_jacobian, kink_gap
from .errors import ShapeError
from .linalg import Rng, l2_norm
from .network import (DenseNet, _backprop_batch, _forward_batch, backprop, dense_forward,
                      loss_value, output_delta)
from .recurrent import BpttConfig, SequenceSample, Srn, _bptt_batch, bptt, sequence_loss, srn_forward

# Tape memory that one pass of trace_delta_norms may hold, in bytes.
TRACE_TAPE_BYTES = 1 << 20


@dataclass
class NormTrace:
    """Mean delta norms per layer or timestep, oldest first."""

    labels: list
    norms: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.labels) != len(self.norms):
            raise ShapeError(f"{len(self.labels)} labels but {len(self.norms)} norms")
        if any(n < 0 for n in self.norms):
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


def _model_loss(model, sample) -> float:
    if isinstance(model, Srn):
        return sequence_loss(model, sample)
    x, target = sample
    y, _ = dense_forward(model, x)
    return loss_value(model.loss, y, target)


def _analytic_gradients(model, sample) -> list:
    if isinstance(model, Srn):
        grads, _ = bptt(model, sample, BpttConfig(horizon=sample.inputs.shape[0]))
        return grads.tensors()
    x, target = sample
    y, tape = dense_forward(model, x)
    return backprop(model, tape, output_delta(model.loss, y, target)).tensors()


def finite_diff_grad(model, sample, epsilon: float = 1e-6) -> GradCheckReport:
    """Central-difference check of every parameter against the analytic gradient.

    model is a DenseNet (sample = (x, target)) or an Srn (sample =
    SequenceSample; final-step squared error). Relative error per scalar is
    |g_a - g_f| / max(|g_a|, |g_f|, 1e-8).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if isinstance(model, Srn) and not isinstance(sample, SequenceSample):
        raise ValueError("recurrent models take a SequenceSample")
    analytic = _analytic_gradients(model, sample)
    report = {}
    for (name, param), grad in zip(model.named_parameters(), analytic):
        worst = 0.0
        worst_coord = (0,) * param.ndim
        flat = param.reshape(-1)
        for k in range(flat.shape[0]):
            original = flat[k]
            flat[k] = original + epsilon
            plus = _model_loss(model, sample)
            flat[k] = original - epsilon
            minus = _model_loss(model, sample)
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
    if isinstance(model, Srn):
        _, tape = srn_forward(model, sample.inputs)
        return kink_gap(model.hidden_activation, tape.presyn)
    x, _ = sample
    _, tape = dense_forward(model, x)
    return min(kink_gap(layer.activation, a) for layer, a in zip(model.layers, tape.presyn))


def draw_smooth_sample(model, rng: Rng, make_sample, min_gap: float = 1e-3, attempts: int = 200):
    """Resample until the forward pass stays clear of every activation kink."""
    for _ in range(attempts):
        sample = make_sample(rng)
        if min_nonsmooth_gap(model, sample) > min_gap:
            return sample
    raise RuntimeError(f"could not find a sample with kink gap > {min_gap} in {attempts} tries")


def _rows_per_pass(row_bytes: int) -> int:
    return max(1, TRACE_TAPE_BYTES // row_bytes)


def _random_target(model, rng: Rng) -> np.ndarray:
    if isinstance(model, Srn):
        return rng.uniform_array(model.output_dim)
    if model.loss == "softmax_xent":
        target = np.zeros(model.output_dim)
        target[rng.randint(model.output_dim)] = 1.0
        return target
    return rng.uniform_array(model.output_dim)


def trace_delta_norms(model, sample, repeats: int, rng: Rng) -> NormTrace:
    """Mean backpropagated delta norms over fresh random inputs and targets.

    The sample fixes the shapes (sequence length for recurrent models,
    input width otherwise); each repeat redraws inputs uniform in [0, 1]
    and a fresh random target. Trace entries run oldest step (or first
    layer) to newest.

    The repeats run through the batched backward pass in passes of as many
    rows as fit in TRACE_TAPE_BYTES of tape, so peak memory stays the same
    however many repeats are asked for. Each repeat still draws its inputs
    and then its target from rng, and its norms join the sum in repeat
    order, so the random stream is the same for any pass size; only the
    matrix products, whose summation order depends on the number of rows
    in a pass, can move the trace in the last bits.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if isinstance(model, Srn):
        steps = sample.inputs.shape[0]
        # presyn, hidden states and deltas: steps x hidden floats each
        rows = _rows_per_pass(3 * steps * model.hidden_dim * 8)

        def draw():
            inputs = rng.uniform_array(steps * model.input_dim).reshape(steps, model.input_dim)
            return inputs, _random_target(model, rng)

        def deltas(inputs, targets):
            return _bptt_batch(model, inputs, targets, steps)[2]  # deltas[k, i], oldest step first

        labels = [str(t) for t in range(1, steps + 1)]
        meta = {"kind": "srn", "horizon": str(steps)}
    else:
        # presyn, postsyn and delta rows of every layer
        rows = _rows_per_pass(3 * sum(layer.fan_out for layer in model.layers) * 8)

        def draw():
            return rng.uniform_array(model.input_dim), _random_target(model, rng)

        def deltas(x, targets):
            y, tape = _forward_batch(model, x)
            return _backprop_batch(model, tape, output_delta(model.loss, y, targets)).deltas

        depth = len(model.layers)
        labels = [str(n) for n in range(1, depth + 1)]
        meta = {"kind": "dense", "depth": str(depth)}
    total = np.zeros(len(labels))
    for start in range(0, repeats, rows):
        inputs, targets = zip(*[draw() for _ in range(min(rows, repeats - start))])
        stages = deltas(np.stack(inputs), np.stack(targets))  # per timestep or layer
        for i in range(len(inputs)):
            total += np.asarray([l2_norm(stage[i]) for stage in stages])
    return NormTrace(labels, [float(v) for v in total / repeats], meta)


def write_norm_trace_csv(path, trace: NormTrace) -> None:
    """CSV with '#'-prefixed metadata lines, then step,mean_l2_norm rows."""
    lines = [f"# {key}={trace.meta[key]}" for key in sorted(trace.meta)]
    lines.append("step,mean_l2_norm")
    for label, norm in zip(trace.labels, trace.norms):
        lines.append(f"{label},{float(norm)!r}")
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def assemble_dense_jacobian(net: DenseNet, tape) -> np.ndarray:
    """End-to-end forward Jacobian as the explicit per-layer matrix product.

    Returns M with d(output) = d(input) @ M, the product of each layer's
    weight matrix and its activation_jacobian.
    """
    m = np.eye(net.input_dim)
    for layer, a, mask in zip(net.layers, tape.presyn, tape.masks):
        m = m @ layer.w @ activation_jacobian(layer.activation, a, mask)
    return m
