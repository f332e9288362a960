"""Activation functions.

Scalar activations (tanh, sigmoid, relu, linear) act elementwise. The
pairwise permutation activation routes each pair of presynaptic values to
(max, min). Its Jacobian at any point is a permutation matrix built from
2x2 identity or swap blocks, so it is orthogonal everywhere and the
backward pass is the same permutation applied to the incoming deltas:
no scaling of the gradient ever happens inside the activation.

A kind is one of the scalar names or an Oplu; models hand it to activate,
activate_values and activate_backward and never branch on it themselves.
"""

import numpy as np

from .errors import ShapeError

SCALAR_KINDS = ("linear", "relu", "sigmoid", "tanh")


class PairingScheme:
    """Perfect matching of the indices 0..width-1 into ordered pairs."""

    def __init__(self, pairs):
        pairs = tuple((int(i), int(j)) for i, j in pairs)
        width = 2 * len(pairs)
        if width == 0:
            raise ValueError("pairing scheme needs at least one pair")
        seen = set()
        for i, j in pairs:
            if i == j:
                raise ValueError(f"pair ({i}, {j}) repeats an index")
            seen.update((i, j))
        if seen != set(range(width)):
            raise ValueError(
                f"pairs must cover each index in 0..{width - 1} exactly once, got {sorted(seen)}"
            )
        self.pairs = pairs
        self.width = width
        self._first = np.array([i for i, _ in pairs], dtype=np.intp)
        self._second = np.array([j for _, j in pairs], dtype=np.intp)
        # indices of the first and second members; the default adjacent
        # pairs are reached through strided views instead of gathered copies
        if pairs == tuple((i, i + 1) for i in range(0, width, 2)):
            self._members = slice(0, None, 2), slice(1, None, 2)
        else:
            self._members = self._first, self._second

    @classmethod
    def adjacent(cls, width: int) -> "PairingScheme":
        """The default matching (0,1), (2,3), ..., (width-2, width-1)."""
        if width < 2 or width % 2 != 0:
            raise ValueError(f"layer width must be a positive even number, got {width}")
        return cls((i, i + 1) for i in range(0, width, 2))

    def __eq__(self, other):
        return isinstance(other, PairingScheme) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"PairingScheme({list(self.pairs)!r})"


class Oplu:
    """Activation kind for the pairwise permutation unit."""

    def __init__(self, scheme: PairingScheme):
        self.scheme = scheme

    def __eq__(self, other):
        return isinstance(other, Oplu) and self.scheme == other.scheme

    def __repr__(self):
        return f"Oplu({self.scheme!r})"


# ActivationKind: one of the strings in SCALAR_KINDS, or an Oplu instance.
ActivationKind = "str | Oplu"


def make_activation(name: str, width: int):
    """Activation kind from its serialized name, defaulting oplu to adjacent pairs."""
    if name == "oplu":
        return Oplu(PairingScheme.adjacent(width))
    if name not in SCALAR_KINDS:
        raise ValueError(f"unknown activation {name!r}")
    return name


def check_activation(kind, width: int) -> None:
    """Reject anything but a scalar kind name or a pairing over `width` units."""
    if isinstance(kind, Oplu):
        if kind.scheme.width != width:
            raise ShapeError(
                f"oplu pairing covers {kind.scheme.width} units but the layer has {width}"
            )
    elif kind not in SCALAR_KINDS:
        raise ValueError(f"unknown activation {kind!r}")


def activation_token(kind) -> str:
    """The checkpoint form of a kind: its name, and for oplu its pairs as i:j entries."""
    if isinstance(kind, Oplu):
        return "oplu " + ",".join(f"{i}:{j}" for i, j in kind.scheme.pairs)
    return kind


def oplu_forward(a: np.ndarray, scheme: PairingScheme, out=None, mask_out=None):
    """Route each pair to (max, min) along the last axis.

    Returns the permuted values and a swap mask with one boolean per pair;
    a pair is swapped exactly when its first entry is strictly smaller, so
    ties leave the order unchanged. Accepts a batch of rows as well as a
    single vector. The values and the mask are written into `out` and
    `mask_out` when those are given.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1] != scheme.width:
        raise ShapeError(f"input width {a.shape[-1]} does not match pairing over {scheme.width}")
    first, second = scheme._members
    mask = np.less(a[..., first], a[..., second], out=mask_out)
    return _swap_pairs(a, mask, scheme, out), mask


def oplu_values(a: np.ndarray, scheme: PairingScheme, out: np.ndarray) -> np.ndarray:
    """oplu_forward's values without the swap mask, written into `out`.

    Each pair's max goes to its first member and its min to the second.
    For finite inputs this equals oplu_forward, except that a tie between
    -0.0 and +0.0 may come out in either order. Without the mask's
    selection it is several times faster on wide batches.
    """
    first, second = scheme._members
    high = np.maximum(a[..., first], a[..., second])
    out[..., second] = np.minimum(a[..., first], a[..., second])
    out[..., first] = high
    return out


def oplu_backward(delta_hat: np.ndarray, mask: np.ndarray, scheme: PairingScheme,
                  out=None) -> np.ndarray:
    """Apply the forward pass's permutation to the incoming deltas.

    Swapped pairs exchange their deltas, untouched pairs pass through. The
    output, written into `out` when given, is a reordering of the input,
    so its L2 norm is preserved exactly.
    """
    delta_hat = np.asarray(delta_hat, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if delta_hat.shape[-1] != scheme.width:
        raise ShapeError(
            f"delta width {delta_hat.shape[-1]} does not match pairing over {scheme.width}"
        )
    if mask.shape != delta_hat.shape[:-1] + (len(scheme.pairs),):
        raise ShapeError(f"swap mask shape {mask.shape} does not match {len(scheme.pairs)} pairs")
    return _swap_pairs(delta_hat, mask, scheme, out)


def _swap_pairs(x: np.ndarray, mask: np.ndarray, scheme: PairingScheme, out) -> np.ndarray:
    """x with the two entries of each pair exchanged where mask is set."""
    first, second = scheme._members
    if out is None:
        out = np.empty_like(x)
    new_first = np.where(mask, x[..., second], x[..., first])
    out[..., second] = np.where(mask, x[..., first], x[..., second])
    out[..., first] = new_first
    return out


def materialize_permutation(mask: np.ndarray, scheme: PairingScheme) -> np.ndarray:
    """Explicit permutation matrix D with z = a @ D for the recorded swaps."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(scheme.pairs),):
        raise ShapeError(f"expected a 1-D mask over {len(scheme.pairs)} pairs, got {mask.shape}")
    d = np.zeros((scheme.width, scheme.width))
    for (i, j), swapped in zip(scheme.pairs, mask):
        if swapped:
            d[j, i] = 1.0
            d[i, j] = 1.0
        else:
            d[i, i] = 1.0
            d[j, j] = 1.0
    return d


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_scalar_kind(kind):
    if isinstance(kind, Oplu) or kind == "oplu":
        raise ValueError("oplu is pairwise; use oplu_forward/oplu_backward")
    if kind not in SCALAR_KINDS:
        raise ValueError(f"unknown activation {kind!r}")


def scalar_forward(kind, a: np.ndarray, out=None) -> np.ndarray:
    """Elementwise activation value at the presynaptic input, written into
    `out` when given."""
    _check_scalar_kind(kind)
    a = np.asarray(a, dtype=np.float64)
    if kind == "relu":
        return np.maximum(a, 0.0, out=out)
    if kind == "tanh":
        return np.tanh(a, out=out)
    z = a.copy() if kind == "linear" else _sigmoid(a)
    if out is None:
        return z
    out[...] = z
    return out


def scalar_derivative(kind, a: np.ndarray, value=None) -> np.ndarray:
    """Elementwise activation derivative at the presynaptic input.

    The relu derivative at exactly 0 is defined as 0. `value`, the
    activation's value at `a` when the caller already has it, spares
    recomputing it for sigmoid and tanh.
    """
    _check_scalar_kind(kind)
    a = np.asarray(a, dtype=np.float64)
    if kind == "linear":
        return np.ones_like(a)
    if kind == "relu":
        return (a > 0).astype(np.float64)
    if kind == "sigmoid":
        s = _sigmoid(a) if value is None else value
        return s * (1.0 - s)
    t = np.tanh(a) if value is None else value
    return 1.0 - t * t


def activate(kind, a: np.ndarray, out=None):
    """Activation values at the presynaptic input, written into `out` when
    given, and the swap mask (None for scalar kinds)."""
    if isinstance(kind, Oplu):
        return oplu_forward(a, kind.scheme, out=out)
    return scalar_forward(kind, a, out=out), None


def activate_values(kind, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """activate's values alone, written into `out`; oplu pairs go through
    oplu_values, so a -0.0/+0.0 tie may come out in either order."""
    if isinstance(kind, Oplu):
        return oplu_values(a, kind.scheme, out)
    return scalar_forward(kind, a, out=out)


def activate_backward(kind, delta_hat: np.ndarray, a: np.ndarray, z: np.ndarray, mask,
                      out=None) -> np.ndarray:
    """Deltas with respect to the presynaptic input `a`, given those with
    respect to the values `z` and `mask` that activate returned for it."""
    if isinstance(kind, Oplu):
        return oplu_backward(delta_hat, mask, kind.scheme, out=out)
    return np.multiply(delta_hat, scalar_derivative(kind, a, value=z), out=out)
