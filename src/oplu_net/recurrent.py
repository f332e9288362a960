"""Simple recurrent network with truncated backpropagation through time.

One recurrent hidden layer plus a linear readout taken after the final
timestep. The loss is mean squared error on that final prediction, which
is what the adding task needs. The BPTT delta recursion multiplies by the
transposed recurrent matrix and the hidden activation's derivative each
step; with an orthogonal recurrent matrix and the permutation activation
both factors preserve the delta norm, so gradients neither vanish nor
explode no matter how far back they travel.

The forward pass and BPTT are written once, for a batch of sequences that
share their length; srn_forward and bptt run one sequence as a batch of
one.
"""

from dataclasses import dataclass

import numpy as np

from .activations import activate, activate_backward, check_activation, make_activation
from .errors import NumericError, ShapeError
from .linalg import Rng, l2_norm, random_orthogonal, random_orthogonal_rect, xavier_init


@dataclass
class Srn:
    w_in: np.ndarray  # (input_dim, hidden)
    w_rec: np.ndarray  # (hidden, hidden)
    b_h: np.ndarray  # (hidden,)
    w_out: np.ndarray  # (hidden, output_dim)
    b_out: np.ndarray  # (output_dim,)
    hidden_activation: object
    h0: np.ndarray = None

    def __post_init__(self):
        self.w_in = np.asarray(self.w_in, dtype=np.float64)
        self.w_rec = np.asarray(self.w_rec, dtype=np.float64)
        self.b_h = np.asarray(self.b_h, dtype=np.float64)
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        self.b_out = np.asarray(self.b_out, dtype=np.float64)
        h = self.w_rec.shape[0]
        if self.w_rec.shape != (h, h):
            raise ShapeError(f"recurrent matrix must be square, got {self.w_rec.shape}")
        if self.w_in.ndim != 2 or self.w_in.shape[1] != h:
            raise ShapeError(f"input matrix shape {self.w_in.shape} does not feed {h} hidden units")
        if self.b_h.shape != (h,):
            raise ShapeError(f"hidden bias shape {self.b_h.shape} does not match {h} units")
        if self.w_out.ndim != 2 or self.w_out.shape[0] != h:
            raise ShapeError(f"output matrix shape {self.w_out.shape} does not read {h} hidden units")
        if self.b_out.shape != (self.w_out.shape[1],):
            raise ShapeError(f"output bias shape {self.b_out.shape} does not match readout")
        check_activation(self.hidden_activation, h)
        if self.h0 is None:
            self.h0 = np.zeros(h)
        else:
            self.h0 = np.asarray(self.h0, dtype=np.float64)
            if self.h0.shape != (h,):
                raise ShapeError(f"initial state shape {self.h0.shape} does not match {h} units")

    @property
    def hidden_dim(self) -> int:
        return self.w_rec.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_in.shape[0]

    @property
    def output_dim(self) -> int:
        return self.w_out.shape[1]

    def parameters(self) -> list:
        return [self.w_in, self.w_rec, self.b_h, self.w_out, self.b_out]

    def named_parameters(self) -> list:
        return list(zip(("w_in", "w_rec", "b_h", "w_out", "b_out"), self.parameters()))


@dataclass
class SequenceSample:
    inputs: np.ndarray  # (T, input_dim)
    target: np.ndarray  # (output_dim,), read at the final step

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ShapeError(f"inputs must be a (T, input_dim) array with T >= 1, got {self.inputs.shape}")


@dataclass
class BpttConfig:
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"BPTT horizon must be >= 1, got {self.horizon}")


@dataclass
class SrnTape:
    """Cached states of one forward pass, time-major.

    From a batch every array has a sample axis after the time axis;
    srn_forward's tape is the slice of its one sequence.
    """

    inputs: np.ndarray  # (T, [batch,] input_dim)
    presyn: np.ndarray  # (T, [batch,] hidden)
    hidden: np.ndarray  # (T+1, [batch,] hidden), row 0 is h0
    masks: list  # swap mask per step, None for scalar activations


@dataclass
class SrnGradients:
    dw_in: np.ndarray
    dw_rec: np.ndarray
    db_h: np.ndarray
    dw_out: np.ndarray
    db_out: np.ndarray

    def tensors(self) -> list:
        return [self.dw_in, self.dw_rec, self.db_h, self.dw_out, self.db_out]


def _srn_forward_batch(net: Srn, inputs: np.ndarray):
    """inputs shape (batch, T, input_dim) -> (y rows, SrnTape)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, steps = inputs.shape[0], inputs.shape[1]
    x = inputs.transpose(1, 0, 2)
    presyn = np.empty((steps, batch, net.hidden_dim))
    hidden = np.empty((steps + 1, batch, net.hidden_dim))
    hidden[0] = net.h0
    masks = []
    recurrent = np.empty((batch, net.hidden_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        # the input terms and the bias of every step in one pass
        np.matmul(x, net.w_in, out=presyn)
        presyn += net.b_h
        for t in range(steps):
            a = presyn[t]
            a += np.matmul(hidden[t], net.w_rec, out=recurrent)
            masks.append(activate(net.hidden_activation, a, out=hidden[t + 1])[1])
        y = hidden[steps] @ net.w_out + net.b_out
    # the steps before the first non-finite one come out the same either way,
    # so one check after the loop names the step a check inside it would
    finite = np.isfinite(presyn).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(f"non-finite hidden state at timestep {int(np.argmin(finite))}")
    if not np.isfinite(y).all():
        raise NumericError("non-finite readout after the last timestep")
    return y, SrnTape(x, presyn, hidden, masks)


def _bptt_batch(net: Srn, inputs: np.ndarray, targets: np.ndarray, horizon: int):
    """Batch-averaged truncated BPTT gradients, the batch mean loss and the
    hidden deltas: deltas[k, i] belongs to sample i at the k-th of the
    unrolled steps, oldest first."""
    y, tape = _srn_forward_batch(net, inputs)
    steps, batch = tape.presyn.shape[0], tape.presyn.shape[1]
    unroll = min(steps, horizon)
    first = steps - unroll  # index of the oldest unrolled step
    residual = y - np.asarray(targets, dtype=np.float64)
    deltas = np.empty((unroll, batch, net.hidden_dim))
    w_rec_t = np.ascontiguousarray(net.w_rec.T)
    with np.errstate(over="ignore", invalid="ignore"):
        # the delta recursion, newest step first
        delta_hat = residual @ net.w_out.T
        for k in range(unroll - 1, -1, -1):
            t = first + k
            activate_backward(net.hidden_activation, delta_hat, tape.presyn[t], tape.hidden[t + 1],
                              tape.masks[t], out=deltas[k])
            if k:
                np.matmul(deltas[k], w_rec_t, out=delta_hat)
        # shared weights: one product sums each gradient over steps and samples
        d = deltas.reshape(-1, net.hidden_dim)
        x_used = tape.inputs[first:].reshape(-1, net.input_dim)
        grads = SrnGradients(
            dw_in=x_used.T @ d / batch,
            dw_rec=tape.hidden[first:steps].reshape(-1, net.hidden_dim).T @ d / batch,
            db_h=d.sum(axis=0) / batch,
            dw_out=tape.hidden[steps].T @ residual / batch,
            db_out=residual.mean(axis=0),
        )
        mean_loss = float(0.5 * np.square(residual).sum(axis=1).mean())
    return grads, mean_loss, deltas


def _batch_of_one(net: Srn, inputs: np.ndarray) -> np.ndarray:
    """One (T, input_dim) sequence as a batch of one, after checking its shape."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != net.input_dim:
        raise ShapeError(f"inputs shape {inputs.shape} does not match input width {net.input_dim}")
    if inputs.shape[0] < 1:
        raise ShapeError("need at least one timestep")
    return inputs[None]


def srn_forward(net: Srn, inputs: np.ndarray):
    """Run the recurrence over one sequence and read out the final state."""
    y, tape = _srn_forward_batch(net, _batch_of_one(net, inputs))
    masks = [None if m is None else m[0] for m in tape.masks]
    return y[0], SrnTape(tape.inputs[:, 0], tape.presyn[:, 0], tape.hidden[:, 0], masks)


def bptt(net: Srn, sample: SequenceSample, cfg: BpttConfig):
    """Truncated BPTT gradients of the final-step squared error.

    Unrolls min(T, horizon) steps backward, summing shared-weight
    gradients over timesteps. Also returns the L2 norm of the hidden
    delta at each unrolled step, newest first, for gradient-flow
    diagnostics.
    """
    inputs = _batch_of_one(net, sample.inputs)
    target = np.asarray(sample.target, dtype=np.float64)
    if target.shape != (net.output_dim,):
        raise ShapeError(f"target shape {target.shape} does not match output width {net.output_dim}")
    grads, _, deltas = _bptt_batch(net, inputs, target[None], cfg.horizon)
    return grads, [l2_norm(delta[0]) for delta in deltas[::-1]]


def sequence_loss(net: Srn, sample: SequenceSample) -> float:
    """Final-step squared error 0.5 * ||y - t||^2 for one sequence."""
    y, _ = srn_forward(net, sample.inputs)
    diff = y - np.asarray(sample.target, dtype=np.float64)
    return float(0.5 * np.dot(diff, diff))


def _srn_predict_batch(net: Srn, inputs: np.ndarray) -> np.ndarray:
    """The outputs of _srn_forward_batch, computed without keeping its tape:
    each step's hidden state overwrites the last, and oplu swap masks are
    computed and discarded."""
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, steps = inputs.shape[0], inputs.shape[1]
    a = np.empty((batch, net.hidden_dim))
    recurrent = np.empty((batch, net.hidden_dim))
    h = np.empty((batch, net.hidden_dim))
    h[...] = net.h0
    finite = np.empty(steps, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            np.matmul(inputs[:, t, :], net.w_in, out=a)
            a += net.b_h
            a += np.matmul(h, net.w_rec, out=recurrent)
            finite[t] = np.isfinite(a).all()
            activate(net.hidden_activation, a, out=h)
        y = h @ net.w_out + net.b_out
    if not finite.all():
        raise NumericError(f"non-finite hidden state at timestep {int(np.argmin(finite))}")
    return y


def evaluate_adding(net: Srn, dataset, threshold: float, chunk: int = 512):
    """Mean 0.5*(y - t)^2 and the fraction of predictions within threshold.

    dataset gives its targets and, through `rows(index)`, the float64
    inputs of each chunk (an AddingDataset).
    """
    targets = dataset.targets
    n = len(dataset)
    if n == 0:
        raise ValueError("empty dataset")
    total_sq = 0.0
    hits = 0
    for start in range(0, n, chunk):
        y = _srn_predict_batch(net, dataset.rows(slice(start, start + chunk)))
        err = y - targets[start:start + chunk]
        total_sq += float(0.5 * np.square(err).sum())
        hits += int((np.abs(err) < threshold).all(axis=1).sum())
    return total_sq / n, hits / n


def init_srn(input_dim: int, hidden: int, output_dim: int, activation: str, init: str,
             rng: Rng) -> Srn:
    """Fresh SRN with zero biases and zero initial state.

    init "orthogonal" draws every weight matrix from the exponential of a
    random skew-symmetric matrix (rectangles take the leading block);
    "xavier" uses the uniform fan-based fill.
    """
    if init == "orthogonal":
        w_in = random_orthogonal_rect(input_dim, hidden, rng)
        w_rec = random_orthogonal(hidden, rng)
        w_out = random_orthogonal_rect(hidden, output_dim, rng)
    elif init == "xavier":
        w_in = xavier_init(input_dim, hidden, rng)
        w_rec = xavier_init(hidden, hidden, rng)
        w_out = xavier_init(hidden, output_dim, rng)
    else:
        raise ValueError(f"unknown init {init!r}")
    return Srn(w_in, w_rec, np.zeros(hidden), w_out, np.zeros(output_dim),
               make_activation(activation, hidden))
