"""Simple recurrent network with truncated backpropagation through time.

One recurrent hidden layer plus a linear readout taken after the final
timestep. The loss, Srn.loss, is network's mean squared error on that
final prediction, which is what the adding task needs. The BPTT delta
recursion multiplies by the transposed recurrent matrix and the hidden
activation's derivative each step; with an orthogonal recurrent matrix and
the permutation activation both factors preserve the delta norm, so
gradients neither vanish nor explode no matter how far back they travel.

One forward loop (_srn_forward_batch) and one delta recursion
(_delta_recursion) serve every pass over a batch of sequences that share
their length; srn_forward and bptt run one sequence as a batch of one.
Training and Srn.forward keep a tape of every step: one GEMM projects all
steps' inputs and one check after the loop finds the first non-finite
step, which at a batch of 20 costs less than a product and a check a step.
Evaluation and traces keep no tape: each step overwrites one row buffer and
projects its own inputs, as one GEMM would hold all steps' input terms of a
512-row chunk (12 MB at T = 30 and 100 units); a trace keeps only each
step's backward factor, the pairwise unit's at one bit a pair. The
recursion stores every step's delta for the gradients (tensor lists in
named_parameters order), or keeps only the current one and returns each
step's norms for a trace. Srn shares DenseNet's model interface (loss,
forward, gradients, delta_norms, delta_norms_row_bytes, kink_gap).
"""

from dataclasses import dataclass

import numpy as np

from .activations import activate, apply_backward, backward_factor, check_activation
from .activations import kink_gap, make_activation
from .errors import NumericError, ShapeError
from .linalg import init_weights, l2_norms
from .network import loss_rows, loss_value, output_delta
from .rng import Rng

EVALUATE_ADDING_CHUNK = 512  # rows per untaped forward pass of evaluate_adding


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
        l2_norms of the deltas that gradients returns, without their tape.
        """
        factors = []
        y, _ = _srn_forward_batch(self, rows, taped=False, factors=factors)
        return _delta_recursion(self, output_delta(self.loss, y, targets), factors)

    def delta_norms_row_bytes(self, shape) -> int:
        """Bytes that delta_norms holds per row of inputs shaped (T,
        input_dim): the row's inputs, and its packed backward factor (a bit
        a pair for the pairwise unit, rounded up to whole bytes) and delta
        norm at every step, plus four hidden-width rows to work in (the
        delta, the next step's delta_hat, and the squares and remainders
        that l2_norms takes of the delta)."""
        steps, width = shape
        zeros = np.zeros((1, self.hidden_dim))
        factor = backward_factor(self.hidden_activation, zeros, zeros, packed=True).nbytes
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


def _srn_forward_batch(net: Srn, inputs, taped=True, factors=None):
    """inputs shape (batch, T, input_dim) -> (y rows, SrnTape), or (y rows,
    None) when not `taped`: then each step overwrites the last one's values
    and appends its packed backward_factor (one bit a pair for the pairwise
    unit), all that the delta recursion needs of it, to `factors` when that
    is a list. Both modes raise NumericError on the first step with a
    non-finite presynaptic value, then on the readout.
    """
    inputs = _as_batch(net, inputs)
    batch, steps = inputs.shape[0], inputs.shape[1]
    kind = net.hidden_activation
    x = inputs.transpose(1, 0, 2)
    # step t reads hidden[r] and writes presyn[r]: r = t with a tape, else 0
    presyn = np.empty((steps if taped else 1, batch, net.hidden_dim))
    hidden = np.empty((steps + 1 if taped else 1, batch, net.hidden_dim))
    hidden[0] = net.h0
    recurrent = np.empty((batch, net.hidden_dim))
    finite = np.empty(steps, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        if taped:
            # the input terms and the bias of every step in one pass
            np.matmul(x, net.w_in, out=presyn)
            presyn += net.b_h
        for t in range(steps):
            r = t if taped else 0
            a, h = presyn[r], hidden[r + 1 if taped else 0]
            if not taped:
                np.matmul(x[t], net.w_in, out=a)
                a += net.b_h
            a += np.matmul(hidden[r], net.w_rec, out=recurrent)
            if not taped:
                finite[t] = np.isfinite(a).all()
            activate(kind, a, out=h)
            if factors is not None:
                factors.append(backward_factor(kind, a, h, packed=True))
        y = hidden[-1] @ net.w_out + net.b_out
    if taped:
        # the steps before the first non-finite one come out the same either
        # way, so one check after the loop names the step a check inside it would
        finite = np.isfinite(presyn).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(f"non-finite hidden state at timestep {int(np.argmin(finite))}")
    if not np.isfinite(y).all():
        raise NumericError("non-finite readout after the last timestep")
    return y, SrnTape(x, presyn, hidden) if taped else None


def _delta_recursion(net: Srn, residual: np.ndarray, factors, deltas=None):
    """Hidden deltas from the residual rows, newest step first, through the
    backward factors in `factors` (oldest step first): one apply_backward
    and one GEMM a step. Every delta is stored in `deltas`, shaped (steps,
    batch, hidden), when it is given; otherwise only the current one is
    kept and each step's l2_norms are returned, norms[k, i] for row i."""
    kind = net.hidden_activation
    steps = len(factors)
    keep = deltas is not None
    if not keep:
        deltas = np.empty((1, len(residual), net.hidden_dim))
        norms = np.empty((steps, len(residual)))
    w_rec_t = np.ascontiguousarray(net.w_rec.T)
    with np.errstate(over="ignore", invalid="ignore"):
        delta_hat = residual @ net.w_out.T
        for k in range(steps - 1, -1, -1):
            delta = deltas[k if keep else 0]
            apply_backward(kind, delta_hat, factors[k], out=delta)
            if not keep:
                norms[k] = l2_norms(delta)
            if k:
                np.matmul(delta, w_rec_t, out=delta_hat)
    return None if keep else norms


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
    with np.errstate(over="ignore", invalid="ignore"):
        # the activation Jacobians of all unrolled steps in one call
        factors = backward_factor(net.hidden_activation, tape.presyn[first:],
                                  tape.hidden[first + 1:])
        _delta_recursion(net, residual, factors, deltas)
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
        y, _ = _srn_forward_batch(net, dataset.rows(slice(start, start + chunk)), taped=False)
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
