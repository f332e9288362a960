"""Simple recurrent network with truncated backpropagation through time.

One recurrent hidden layer plus a linear readout taken after the final
timestep. The loss, Srn.loss, is network's mean squared error on that
final prediction, which is what the adding task needs. The BPTT delta
recursion multiplies by the transposed recurrent matrix and the hidden
activation's derivative each step; with an orthogonal recurrent matrix and
the permutation activation both factors preserve the delta norm, so
gradients neither vanish nor explode no matter how far back they travel.

The forward pass and BPTT are written once, for a batch of sequences that
share their length; srn_forward and bptt run one sequence as a batch of
one, and gradients are tensor lists in named_parameters order. Srn shares
DenseNet's model interface (loss, forward, gradients, delta_norms,
delta_norms_row_bytes, kink_gap).
"""

from dataclasses import dataclass

import numpy as np

from .activations import activate, apply_backward, backward_factor, check_activation
from .activations import kink_gap, make_activation
from .errors import NumericError, ShapeError
from .linalg import init_weights, l2_norms
from .network import loss_rows, loss_value, output_delta
from .rng import Rng

EVALUATE_ADDING_CHUNK = 512  # rows per tape-free forward pass of evaluate_adding


@dataclass
class Srn:
    """One recurrent hidden layer and a linear readout after the last step."""

    loss = "mse"  # final-step squared error; a class constant, not a field
    _PARAMETERS = ("w_in", "w_rec", "b_h", "w_out", "b_out")

    w_in: np.ndarray  # (input_dim, hidden)
    w_rec: np.ndarray  # (hidden, hidden)
    b_h: np.ndarray  # (hidden,)
    w_out: np.ndarray  # (hidden, output_dim)
    b_out: np.ndarray  # (output_dim,)
    hidden_activation: object
    h0: np.ndarray = None

    def __post_init__(self):
        for name in self._PARAMETERS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
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
        return [getattr(self, name) for name in self._PARAMETERS]

    def named_parameters(self) -> list:
        return list(zip(self._PARAMETERS, self.parameters()))

    def forward(self, rows):
        """rows shape (batch, T, input_dim) -> (y rows, SrnTape)."""
        return _srn_forward_batch(self, rows)

    def gradients(self, rows, targets):
        """BPTT over every step of the rows: batch-mean gradients in
        named_parameters order, and the hidden deltas, oldest step first."""
        rows = _as_batch(self, rows)
        grads, _, deltas = _bptt_batch(self, rows, targets, rows.shape[1])
        return grads, deltas

    def delta_norms(self, rows, targets) -> np.ndarray:
        """The L2 norm of every step's hidden delta for every row, oldest
        step first: norms[k, i] is that of row i at step k, bit for bit the
        l2_norms of the deltas that gradients returns.

        The forward pass keeps only each step's backward factor, and the
        delta recursion, newest step first, only the current delta.
        """
        factors = []
        y = _srn_predict_batch(self, rows, factors)
        residual = output_delta(self.loss, y, targets)
        norms = np.empty((len(factors), len(y)))
        delta = np.empty((len(y), self.hidden_dim))
        w_rec_t = np.ascontiguousarray(self.w_rec.T)
        with np.errstate(over="ignore", invalid="ignore"):
            delta_hat = residual @ self.w_out.T
            for k in range(len(factors) - 1, -1, -1):
                apply_backward(self.hidden_activation, delta_hat, factors[k], out=delta)
                norms[k] = l2_norms(delta)
                if k:
                    np.matmul(delta, w_rec_t, out=delta_hat)
        return norms

    def delta_norms_row_bytes(self, shape) -> int:
        """Bytes that delta_norms holds per row of inputs shaped (T,
        input_dim): the row's inputs, and its backward factor and delta
        norm at every step, plus four hidden-width rows to work in (the
        delta, the next step's delta_hat, and the squares and remainders
        that l2_norms takes of the delta)."""
        steps, width = shape
        zeros = np.zeros((1, self.hidden_dim))
        factor = backward_factor(self.hidden_activation, zeros, zeros).nbytes
        return steps * (8 * width + factor + 8) + 4 * 8 * self.hidden_dim

    def kink_gap(self, tape) -> float:
        return kink_gap(self.hidden_activation, tape.presyn)


@dataclass
class SequenceSample:
    inputs: np.ndarray  # (T, input_dim)
    target: np.ndarray  # (output_dim,), read at the final step

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ShapeError(f"inputs must be a (T, input_dim) array with T >= 1, got {self.inputs.shape}")

    def __iter__(self):
        """Unpack as the (inputs, target) pair the diagnostics take."""
        return iter((self.inputs, self.target))


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
    srn_forward's tape is the slice of its one sequence. BPTT reads the
    activation derivative off presyn, so no hidden state may overwrite it.
    """

    inputs: np.ndarray  # (T, [batch,] input_dim)
    presyn: np.ndarray  # (T, [batch,] hidden)
    hidden: np.ndarray  # (T+1, [batch,] hidden), row 0 is h0


def _as_batch(net: Srn, inputs) -> np.ndarray:
    """inputs as a float64 (batch, T, input_dim) array with T >= 1."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[2] != net.input_dim:
        raise ShapeError(f"batch shape {inputs.shape} does not match (batch, T, {net.input_dim})")
    if inputs.shape[1] < 1:
        raise ShapeError("need at least one timestep")
    return inputs


def _srn_forward_batch(net: Srn, inputs: np.ndarray):
    """inputs shape (batch, T, input_dim) -> (y rows, SrnTape)."""
    inputs = _as_batch(net, inputs)
    batch, steps = inputs.shape[0], inputs.shape[1]
    x = inputs.transpose(1, 0, 2)
    presyn = np.empty((steps, batch, net.hidden_dim))
    hidden = np.empty((steps + 1, batch, net.hidden_dim))
    hidden[0] = net.h0
    recurrent = np.empty((batch, net.hidden_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        # the input terms and the bias of every step in one pass
        np.matmul(x, net.w_in, out=presyn)
        presyn += net.b_h
        for t in range(steps):
            a = presyn[t]
            a += np.matmul(hidden[t], net.w_rec, out=recurrent)
            activate(net.hidden_activation, a, out=hidden[t + 1])
        y = hidden[steps] @ net.w_out + net.b_out
    # the steps before the first non-finite one come out the same either way,
    # so one check after the loop names the step a check inside it would
    finite = np.isfinite(presyn).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(f"non-finite hidden state at timestep {int(np.argmin(finite))}")
    if not np.isfinite(y).all():
        raise NumericError("non-finite readout after the last timestep")
    return y, SrnTape(x, presyn, hidden)


def _bptt_batch(net: Srn, inputs: np.ndarray, targets: np.ndarray, horizon: int):
    """Batch-mean truncated BPTT gradients in named_parameters order, the
    batch mean loss and the hidden deltas: deltas[k, i] belongs to sample i
    at the k-th of the unrolled steps, oldest first."""
    y, tape = _srn_forward_batch(net, inputs)
    steps, batch = tape.presyn.shape[0], tape.presyn.shape[1]
    unroll = min(steps, horizon)
    first = steps - unroll  # index of the oldest unrolled step
    residual = output_delta(net.loss, y, targets)
    deltas = np.empty((unroll, batch, net.hidden_dim))
    w_rec_t = np.ascontiguousarray(net.w_rec.T)
    kind = net.hidden_activation
    with np.errstate(over="ignore", invalid="ignore"):
        # the activation Jacobians of all unrolled steps in one call, so each
        # step of the delta recursion, newest first, is one apply and one GEMM
        factors = backward_factor(kind, tape.presyn[first:], tape.hidden[first + 1:])
        delta_hat = residual @ net.w_out.T
        for k in range(unroll - 1, -1, -1):
            apply_backward(kind, delta_hat, factors[k], out=deltas[k])
            if k:
                np.matmul(deltas[k], w_rec_t, out=delta_hat)
        # shared weights: one product sums each gradient over steps and samples
        d = deltas.reshape(-1, net.hidden_dim)
        x_used = tape.inputs[first:].reshape(-1, net.input_dim)
        grads = [
            x_used.T @ d / batch,  # w_in
            tape.hidden[first:steps].reshape(-1, net.hidden_dim).T @ d / batch,  # w_rec
            d.sum(axis=0) / batch,  # b_h
            tape.hidden[steps].T @ residual / batch,  # w_out
            residual.mean(axis=0),  # b_out
        ]
        mean_loss = loss_value(net.loss, y, targets)
    return grads, mean_loss, deltas


def srn_forward(net: Srn, inputs: np.ndarray):
    """Run the recurrence over one sequence and read out the final state."""
    y, tape = _srn_forward_batch(net, np.asarray(inputs, dtype=np.float64)[None])
    return y[0], SrnTape(tape.inputs[:, 0], tape.presyn[:, 0], tape.hidden[:, 0])


def bptt(net: Srn, sample: SequenceSample, cfg: BpttConfig):
    """Truncated BPTT gradients of the final-step squared error.

    Unrolls min(T, horizon) steps backward, summing shared-weight
    gradients over timesteps, and returns them in named_parameters order
    with the L2 norm of the hidden delta at each unrolled step, oldest
    first, for gradient-flow diagnostics.
    """
    grads, _, deltas = _bptt_batch(net, sample.inputs[None], sample.target[None], cfg.horizon)
    return grads, l2_norms(deltas[:, 0])


def _srn_predict_batch(net: Srn, inputs: np.ndarray, factors=None) -> np.ndarray:
    """The outputs of _srn_forward_batch, computed without keeping its tape:
    each step's hidden state overwrites the last. A non-finite hidden state
    or readout raises NumericError as it does there.

    When `factors` is a list, each step's backward_factor (a swap mask for
    a pairing, the derivative for a scalar kind) is appended to it, oldest
    step first: all that the delta recursion needs of the forward pass.
    """
    inputs = _as_batch(net, inputs)
    batch, steps = inputs.shape[0], inputs.shape[1]
    kind = net.hidden_activation
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
            activate(kind, a, out=h)
            if factors is not None:
                factors.append(backward_factor(kind, a, h))
        y = h @ net.w_out + net.b_out
    if not finite.all():
        raise NumericError(f"non-finite hidden state at timestep {int(np.argmin(finite))}")
    if not np.isfinite(y).all():
        raise NumericError("non-finite readout after the last timestep")
    return y


def evaluate_adding(net: Srn, dataset, threshold: float):
    """Mean loss and the fraction of predictions within threshold of
    their targets.

    dataset gives its targets and, through `rows(index)`, the float64
    inputs of each chunk of EVALUATE_ADDING_CHUNK rows (an AddingDataset).
    """
    n, chunk = len(dataset), EVALUATE_ADDING_CHUNK
    if n == 0:
        raise ValueError("empty dataset")
    total_loss = 0.0
    hits = 0
    for start in range(0, n, chunk):
        y = _srn_predict_batch(net, dataset.rows(slice(start, start + chunk)))
        t = dataset.targets[start:start + chunk]
        total_loss += float(loss_rows(net.loss, y, t).sum())
        hits += int((np.abs(y - t) < threshold).all(axis=1).sum())
    return total_loss / n, hits / n


def init_srn(input_dim: int, hidden: int, output_dim: int, activation: str, init: str,
             rng: Rng) -> Srn:
    """Fresh SRN with zero biases and zero initial state; init is a
    linalg.INIT_KINDS name, drawn for w_in, w_rec and w_out in turn."""
    w_in = init_weights(init, input_dim, hidden, rng)
    w_rec = init_weights(init, hidden, hidden, rng)
    w_out = init_weights(init, hidden, output_dim, rng)
    return Srn(w_in, w_rec, np.zeros(hidden), w_out, np.zeros(output_dim),
               make_activation(activation, hidden))
