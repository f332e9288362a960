"""Multilayer perceptron: forward pass, backpropagation, losses, SGD.

Activations are row vectors, so a layer computes a = z_prev @ w + b with w
of shape (fan_in, fan_out). The backward pass propagates deltas (loss
gradients with respect to presynaptic activations) through transposed
weight matrices and the activation derivative, which for the pairwise
permutation unit is the swap permutation its presynaptic values select.

Rows are samples. The forward and backward passes are written once, for a
batch of rows, so training touches dgemm instead of dgemv; one sample is a
batch of one, and gradients are tensor lists in named_parameters order.
DenseNet and Srn share one model interface (loss, forward, gradients,
kink_gap), so the diagnostics handle either model the same way. Only this
module knows the losses; Srn scores its final step through them too.
"""

from dataclasses import dataclass

import numpy as np

from .activations import activate, activate_backward, check_activation, kink_gap, make_activation
from .errors import NumericError, ShapeError
from .linalg import init_weights
from .rng import Rng

LOSS_KINDS = ("mse", "softmax_xent")
EVALUATE_CHUNK = 1024  # rows per forward pass of evaluate


@dataclass
class DenseLayer:
    w: np.ndarray
    b: np.ndarray
    activation: object  # a name in SCALAR_KINDS or a PairingScheme

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2:
            raise ShapeError(f"weight matrix must be 2-D, got shape {self.w.shape}")
        if self.b.shape != (self.w.shape[1],):
            raise ShapeError(f"bias shape {self.b.shape} does not match fan_out {self.w.shape[1]}")
        check_activation(self.activation, self.w.shape[1])

    @property
    def fan_in(self) -> int:
        return self.w.shape[0]

    @property
    def fan_out(self) -> int:
        return self.w.shape[1]


class DenseNet:
    """Feedforward stack of dense layers with one loss attached."""

    def __init__(self, layers, loss: str):
        layers = list(layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        if loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {loss!r}")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.fan_out != nxt.fan_in:
                raise ShapeError(
                    f"layer widths do not chain: {prev.fan_out} feeds {nxt.fan_in}"
                )
        if loss == "softmax_xent" and layers[-1].activation != "linear":
            raise ValueError("softmax_xent expects a linear final layer producing logits")
        self.layers = layers
        self.loss = loss

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out

    def parameters(self) -> list:
        params = []
        for layer in self.layers:
            params.extend((layer.w, layer.b))
        return params

    def named_parameters(self) -> list:
        named = []
        for idx, layer in enumerate(self.layers):
            named.append((f"layer{idx}.w", layer.w))
            named.append((f"layer{idx}.b", layer.b))
        return named

    def forward(self, rows):
        """Input rows -> (output rows, ForwardTape)."""
        return _forward_batch(self, rows)

    def gradients(self, rows, targets):
        """Batch-mean gradients in named_parameters order, and the deltas of
        every layer, first layer first."""
        y, tape = _forward_batch(self, rows)
        return _backprop_batch(self, tape, output_delta(self.loss, y, targets))

    def kink_gap(self, tape) -> float:
        return min(kink_gap(layer.activation, a) for layer, a in zip(self.layers, tape.presyn))


@dataclass
class ForwardTape:
    """Cached activations of one forward pass, consumed by _backprop_batch;
    every array has one row per sample. The backward pass reads the
    activation derivative off presyn, so no z may overwrite its a."""

    x: np.ndarray
    presyn: list  # a per layer
    postsyn: list  # z per layer


def _forward_batch(net: DenseNet, x_rows: np.ndarray):
    """Run the network on a batch of input rows, returning output rows and tape."""
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if x_rows.ndim != 2 or x_rows.shape[1] != net.input_dim:
        raise ShapeError(f"batch shape {x_rows.shape} does not match input width {net.input_dim}")
    presyn, postsyn = [], []
    z = x_rows
    for idx, layer in enumerate(net.layers):
        with np.errstate(over="ignore", invalid="ignore"):
            a = z @ layer.w
            a += layer.b
        if not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite presynaptic activation in layer {idx}")
        z = activate(layer.activation, a)
        presyn.append(a)
        postsyn.append(z)
    return z, ForwardTape(x_rows, presyn, postsyn)


def _backprop_batch(net: DenseNet, tape: ForwardTape, delta_out_rows: np.ndarray):
    """Batch-mean gradients in named_parameters order, and the deltas of
    every layer, first layer first, with one row per sample.

    The delta is not carried below the first layer: nothing reads the input
    delta, which is deltas[0] @ net.layers[0].w.T.
    """
    delta_hat = np.asarray(delta_out_rows, dtype=np.float64)
    batch = delta_hat.shape[0]
    n_layers = len(net.layers)
    grads = [None] * (2 * n_layers)
    deltas = [None] * n_layers
    for n in range(n_layers - 1, -1, -1):
        layer = net.layers[n]
        delta = activate_backward(layer.activation, delta_hat, tape.presyn[n], tape.postsyn[n])
        z_prev = tape.postsyn[n - 1] if n > 0 else tape.x
        dw = z_prev.T @ delta
        dw /= batch
        grads[2 * n:2 * n + 2] = dw, delta.mean(axis=0)
        deltas[n] = delta
        if n > 0:
            delta_hat = delta @ layer.w.T
    return grads, deltas


def output_delta(loss: str, y: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Error residual at the output.

    softmax_xent treats y as logits (linear final layer) and returns
    softmax(y) - target, the delta with respect to those logits. mse returns
    y - target, the gradient of 0.5 * ||y - t||^2 with respect to the
    output; _backprop_batch folds in the final activation derivative.
    """
    y = np.asarray(y, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if y.shape != target.shape:
        raise ShapeError(f"output shape {y.shape} does not match target shape {target.shape}")
    if loss == "softmax_xent":
        e = np.exp(y - y.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True) - target
    if loss == "mse":
        return y - target
    raise ValueError(f"unknown loss {loss!r}")


def loss_rows(loss: str, y: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Loss of each row (of the one sample, for a single output vector)."""
    y = np.asarray(y, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if y.shape != target.shape:
        raise ShapeError(f"output shape {y.shape} does not match target shape {target.shape}")
    if loss == "softmax_xent":
        shifted = y - y.max(axis=-1, keepdims=True)
        log_softmax = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        return -(target * log_softmax).sum(axis=-1)
    if loss == "mse":
        return 0.5 * np.square(y - target).sum(axis=-1)
    raise ValueError(f"unknown loss {loss!r}")


def loss_value(loss: str, y: np.ndarray, target: np.ndarray) -> float:
    """Mean loss over the rows."""
    return float(loss_rows(loss, y, target).mean())


def random_target(loss: str, width: int, rng: Rng) -> np.ndarray:
    """A random target of the given width: one-hot at a uniform class for
    softmax_xent, uniform in [0, 1) otherwise."""
    if loss == "softmax_xent":
        target = np.zeros(width)
        target[rng.randint(width)] = 1.0
        return target
    return rng.uniform_array(width)


class SgdMomentum:
    """Classical heavy-ball SGD: v <- mu*v - alpha*g, p <- p + v."""

    def __init__(self, alpha: float, mu: float):
        if alpha <= 0:
            raise ValueError(f"learning rate must be positive, got {alpha}")
        if not 0 <= mu < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {mu}")
        self.alpha = alpha
        self.mu = mu
        self.velocity = None


def sgd_step(opt: SgdMomentum, params: list, grads: list) -> list:
    """One momentum update applied in place to every parameter tensor."""
    if len(params) != len(grads):
        raise ShapeError(f"{len(params)} parameter tensors but {len(grads)} gradients")
    if opt.velocity is None:
        opt.velocity = [np.zeros_like(p) for p in params]
    for p, g, v in zip(params, grads, opt.velocity):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not mirror parameter shape {p.shape}")
        v *= opt.mu
        v -= opt.alpha * g
        p += v
    return params


@dataclass
class EpochStats:
    mean_loss: float
    accuracy: float


def _dataset_targets(inputs, targets) -> np.ndarray:
    """targets as float64, checked to have one row per input row."""
    targets = np.asarray(targets, dtype=np.float64)
    if len(inputs) == 0:
        raise ValueError("empty dataset")
    if targets.shape[:1] != (len(inputs),):
        raise ShapeError(f"{len(inputs)} input rows but target shape {targets.shape}")
    return targets


def evaluate(net: DenseNet, inputs, targets: np.ndarray) -> EpochStats:
    """Mean loss and argmax accuracy over a dataset, without training.

    inputs is any source whose `[index]` gives float64 rows: an array, or
    an MnistDataset's `rows()`, which scales one chunk of byte pixels at a
    time. Each chunk of EVALUATE_CHUNK rows indexes it once and is done
    with the rows before the next index.
    """
    targets = _dataset_targets(inputs, targets)
    n, chunk = len(inputs), EVALUATE_CHUNK
    total_loss = 0.0
    correct = 0
    for start in range(0, n, chunk):
        x = inputs[start:start + chunk]
        t = targets[start:start + chunk]
        y, _ = _forward_batch(net, x)
        total_loss += float(loss_rows(net.loss, y, t).sum())
        correct += int((y.argmax(axis=1) == t.argmax(axis=1)).sum())
    return EpochStats(total_loss / n, correct / n)


def train_epoch(net: DenseNet, opt: SgdMomentum, inputs, targets: np.ndarray,
                batch_size: int, rng: Rng) -> EpochStats:
    """One pass over the dataset in shuffled mini-batches.

    Each batch's gradients are averaged and one optimizer step is taken
    per batch. The returned loss/accuracy are running statistics
    gathered from each batch's forward pass before its update. inputs is
    any source whose `[index]` gives float64 rows, as for evaluate; each
    batch indexes it once and is done with the rows before the next index.
    """
    targets = _dataset_targets(inputs, targets)
    n = len(inputs)
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    order = list(range(n))
    rng.shuffle(order)
    total_loss = 0.0
    correct = 0
    params = net.parameters()
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        x = inputs[idx]
        t = targets[idx]
        y, tape = _forward_batch(net, x)
        total_loss += float(loss_rows(net.loss, y, t).sum())
        correct += int((y.argmax(axis=1) == t.argmax(axis=1)).sum())
        grads, _ = _backprop_batch(net, tape, output_delta(net.loss, y, t))
        sgd_step(opt, params, grads)
    return EpochStats(total_loss / n, correct / n)


def init_dense(widths, activation: str, loss: str, init: str, rng: Rng) -> DenseNet:
    """Fresh network with the given hidden activation and a linear last layer.

    widths runs input..output; hidden layers get `activation`, the final
    layer is linear. init is a linalg.INIT_KINDS name. Biases start at
    zero.
    """
    widths = list(widths)
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        last = i == len(widths) - 2
        kind = "linear" if last else make_activation(activation, fan_out)
        layers.append(DenseLayer(init_weights(init, fan_in, fan_out, rng), np.zeros(fan_out), kind))
    return DenseNet(layers, loss)
