"""Multilayer perceptron: forward pass, backpropagation, losses, SGD.

Activations are row vectors, so a layer computes a = z_prev @ w + b with w
of shape (fan_in, fan_out). The backward pass propagates deltas (loss
gradients with respect to presynaptic activations) through transposed
weight matrices and the activation derivative, which for the pairwise
permutation unit is the recorded swap permutation itself.

Rows are samples. The forward and backward passes are written once, for a
batch of rows, so training touches dgemm instead of dgemv; the per-sample
API that the diagnostics use runs one sample as a batch of one.
"""

from dataclasses import dataclass, field

import numpy as np

from .activations import activate, activate_backward, check_activation, make_activation
from .errors import NumericError, ShapeError
from .linalg import Rng, random_orthogonal_rect, xavier_init

LOSS_KINDS = ("mse", "softmax_xent")


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


@dataclass
class ForwardTape:
    """Cached activations of one forward pass, consumed by backprop.

    Every array has one row per sample; dense_forward's tape holds the one
    row of its sample.
    """

    x: np.ndarray
    presyn: list  # a per layer
    postsyn: list  # z per layer
    masks: list  # swap mask per layer, None for scalar activations


def _index_tape(tape: ForwardTape, index) -> ForwardTape:
    """tape with every array indexed by `index`: 0 takes the row of a batch
    of one, None makes a single sample's tape a batch of one again."""
    def pick(v):
        return None if v is None else v[index]

    return ForwardTape(pick(tape.x), [pick(a) for a in tape.presyn],
                       [pick(z) for z in tape.postsyn], [pick(m) for m in tape.masks])


@dataclass
class Gradients:
    """Parameter gradients plus the backpropagated deltas.

    From a batch, the parameter gradients are batch means and the deltas
    keep one row per sample.
    """

    dw: list
    db: list
    deltas: list = field(default_factory=list)  # delta per layer (w.r.t. presynaptic)
    input_delta: np.ndarray = None  # loss gradient w.r.t. the input; set by backprop only

    def tensors(self) -> list:
        flat = []
        for w_grad, b_grad in zip(self.dw, self.db):
            flat.extend((w_grad, b_grad))
        return flat


def _forward_batch(net: DenseNet, x_rows: np.ndarray):
    """Run the network on a batch of input rows, returning output rows and tape."""
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if x_rows.ndim != 2 or x_rows.shape[1] != net.input_dim:
        raise ShapeError(f"batch shape {x_rows.shape} does not match input width {net.input_dim}")
    presyn, postsyn, masks = [], [], []
    z = x_rows
    for idx, layer in enumerate(net.layers):
        with np.errstate(over="ignore", invalid="ignore"):
            a = z @ layer.w
            a += layer.b
        if not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite presynaptic activation in layer {idx}")
        z, mask = activate(layer.activation, a)
        presyn.append(a)
        postsyn.append(z)
        masks.append(mask)
    return z, ForwardTape(x_rows, presyn, postsyn, masks)


def _backprop_batch(net: DenseNet, tape: ForwardTape, delta_out_rows: np.ndarray) -> Gradients:
    """Batch-averaged gradients; deltas keep one row per sample.

    The delta is not carried below the first layer: no batch caller reads
    the input delta, and backprop computes it from deltas[0].
    """
    delta_hat = np.asarray(delta_out_rows, dtype=np.float64)
    batch = delta_hat.shape[0]
    n_layers = len(net.layers)
    dw = [None] * n_layers
    db = [None] * n_layers
    deltas = [None] * n_layers
    for n in range(n_layers - 1, -1, -1):
        layer = net.layers[n]
        delta = activate_backward(layer.activation, delta_hat, tape.presyn[n], tape.postsyn[n],
                                  tape.masks[n])
        z_prev = tape.postsyn[n - 1] if n > 0 else tape.x
        dw[n] = z_prev.T @ delta
        dw[n] /= batch
        db[n] = delta.mean(axis=0)
        deltas[n] = delta
        if n > 0:
            delta_hat = delta @ layer.w.T
    return Gradients(dw, db, deltas)


def dense_forward(net: DenseNet, x: np.ndarray):
    """Run the network on one input vector, returning output and tape."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != net.input_dim:
        raise ShapeError(f"input shape {x.shape} does not match network input width {net.input_dim}")
    y, tape = _forward_batch(net, x[None])
    return y[0], _index_tape(tape, 0)


def _softmax(y: np.ndarray) -> np.ndarray:
    shifted = y - y.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def output_delta(loss: str, y: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Error residual at the output.

    softmax_xent treats y as logits (linear final layer) and returns
    softmax(y) - target, the delta with respect to those logits. mse
    returns y - target, the gradient of 0.5 * ||y - t||^2 with respect to
    the network output; backprop folds in the final activation derivative.
    """
    y = np.asarray(y, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if y.shape != target.shape:
        raise ShapeError(f"output shape {y.shape} does not match target shape {target.shape}")
    if loss == "softmax_xent":
        return _softmax(y) - target
    if loss == "mse":
        return y - target
    raise ValueError(f"unknown loss {loss!r}")


def _loss_rows(loss: str, y: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Loss of each row (of the one sample, for a single output vector)."""
    if loss == "softmax_xent":
        shifted = y - y.max(axis=-1, keepdims=True)
        log_softmax = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        return -(target * log_softmax).sum(axis=-1)
    if loss == "mse":
        return 0.5 * np.square(y - target).sum(axis=-1)
    raise ValueError(f"unknown loss {loss!r}")


def loss_value(loss: str, y: np.ndarray, target: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if y.shape != target.shape:
        raise ShapeError(f"output shape {y.shape} does not match target shape {target.shape}")
    return float(_loss_rows(loss, y, target).mean())


def backprop(net: DenseNet, tape: ForwardTape, delta_out: np.ndarray) -> Gradients:
    """Backpropagate one sample's output residual into parameter gradients.

    delta_out is the loss gradient with respect to the network output
    (see output_delta). Returns gradients along with the per-layer deltas
    and the delta propagated all the way to the input, which the
    gradient-flow diagnostics consume.
    """
    delta_hat = np.asarray(delta_out, dtype=np.float64)
    if delta_hat.shape != (net.output_dim,):
        raise ShapeError(
            f"delta shape {delta_hat.shape} does not match network output width {net.output_dim}"
        )
    if len(tape.presyn) != len(net.layers):
        raise ValueError("tape does not match network architecture")
    grads = _backprop_batch(net, _index_tape(tape, None), delta_hat[None])
    input_delta = (grads.deltas[0] @ net.layers[0].w.T)[0]
    return Gradients(grads.dw, grads.db, [d[0] for d in grads.deltas], input_delta)


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


def evaluate(net: DenseNet, inputs, targets: np.ndarray, chunk: int = 1024) -> EpochStats:
    """Mean loss and argmax accuracy over a dataset, without training.

    inputs is any source whose `[index]` gives float64 rows: an array, or
    an MnistDataset's `rows()`, which scales one chunk of byte pixels at a
    time. Each chunk indexes it once and is done with the rows before the
    next index.
    """
    targets = np.asarray(targets, dtype=np.float64)
    n = len(inputs)
    if n == 0:
        raise ValueError("empty dataset")
    total_loss = 0.0
    correct = 0
    for start in range(0, n, chunk):
        x = inputs[start:start + chunk]
        t = targets[start:start + chunk]
        y, _ = _forward_batch(net, x)
        total_loss += float(_loss_rows(net.loss, y, t).sum())
        correct += int((y.argmax(axis=1) == t.argmax(axis=1)).sum())
    return EpochStats(total_loss / n, correct / n)


def train_epoch(net: DenseNet, opt: SgdMomentum, inputs, targets: np.ndarray,
                batch_size: int, rng: Rng) -> EpochStats:
    """One pass over the dataset in shuffled mini-batches.

    Gradients are averaged within each batch and one optimizer step is
    taken per batch. The returned loss/accuracy are running statistics
    gathered from each batch's forward pass before its update. inputs is
    any source whose `[index]` gives float64 rows, as for evaluate; each
    batch indexes it once and is done with the rows before the next index.
    """
    targets = np.asarray(targets, dtype=np.float64)
    n = len(inputs)
    if n == 0:
        raise ValueError("empty dataset")
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
        total_loss += float(_loss_rows(net.loss, y, t).sum())
        correct += int((y.argmax(axis=1) == t.argmax(axis=1)).sum())
        grads = _backprop_batch(net, tape, output_delta(net.loss, y, t))
        sgd_step(opt, params, grads.tensors())
    return EpochStats(total_loss / n, correct / n)


def init_dense(widths, activation: str, loss: str, init: str, rng: Rng) -> DenseNet:
    """Fresh network with the given hidden activation and a linear last layer.

    widths runs input..output; hidden layers get `activation`, the final
    layer is linear. init is "xavier" or "orthogonal" (leading block of a
    random square orthogonal matrix for rectangular shapes). Biases start
    at zero.
    """
    widths = list(widths)
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        last = i == len(widths) - 2
        kind = "linear" if last else make_activation(activation, fan_out)
        if init == "xavier":
            w = xavier_init(fan_in, fan_out, rng)
        elif init == "orthogonal":
            w = random_orthogonal_rect(fan_in, fan_out, rng)
        else:
            raise ValueError(f"unknown init {init!r}")
        layers.append(DenseLayer(w, np.zeros(fan_out), kind))
    return DenseNet(layers, loss)
