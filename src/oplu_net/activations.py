"""Activation functions.

Scalar activations (tanh, sigmoid, relu, linear) act elementwise. The
pairwise permutation activation routes each pair of presynaptic values to
(max, min). Its Jacobian at any point is a permutation matrix built from
2x2 identity or swap blocks, so it is orthogonal everywhere and the
backward pass is the same permutation applied to the incoming deltas:
no scaling of the gradient ever happens inside the activation.

A kind is one of the scalar names or a PairingScheme; models hand it to
activate and activate_backward (or its two halves, backward_factor and
apply_backward) and never branch on it themselves. This
module is the only one that knows the kinds: their names and checkpoint
tokens, their kink sets and their Jacobians.
"""

import numpy as np

from .errors import ShapeError

SCALAR_KINDS = ("linear", "relu", "sigmoid", "tanh")


class PairingScheme:
    """Perfect matching of the indices 0..width-1 into ordered pairs.

    As an activation kind it is the pairwise permutation unit over those pairs.
    """

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
        check_activation_name("oplu", width)
        return cls((i, i + 1) for i in range(0, width, 2))

    def __eq__(self, other):
        return isinstance(other, PairingScheme) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"PairingScheme({list(self.pairs)!r})"


def check_activation_name(name: str, width: int) -> None:
    """Reject what make_activation would reject, building nothing: an
    unknown name, or oplu over a width that is not a positive even number."""
    if name == "oplu":
        if width < 2 or width % 2 != 0:
            raise ValueError(f"layer width must be a positive even number, got {width}")
    elif name not in SCALAR_KINDS:
        raise ValueError(f"unknown activation {name!r}")


def make_activation(name: str, width: int):
    """Activation kind from its serialized name, defaulting oplu to adjacent pairs."""
    check_activation_name(name, width)
    return PairingScheme.adjacent(width) if name == "oplu" else name


def check_activation(kind, width: int) -> None:
    """Reject anything but a scalar kind name or a pairing over `width` units."""
    if isinstance(kind, PairingScheme):
        if kind.width != width:
            raise ShapeError(f"oplu pairing covers {kind.width} units but the layer has {width}")
    elif kind not in SCALAR_KINDS:
        raise ValueError(f"unknown activation {kind!r}")


def activation_token(kind) -> str:
    """The checkpoint form of a kind: its name, and for oplu its pairs as i:j entries."""
    if isinstance(kind, PairingScheme):
        return "oplu " + ",".join(f"{i}:{j}" for i, j in kind.pairs)
    return kind


def parse_activation_token(token: str):
    """The kind that activation_token wrote as `token`; ValueError for any
    other text."""
    parts = token.split(" ")
    if parts[0] == "oplu":
        if len(parts) != 2:
            raise ValueError("oplu activation needs its pairing list")
        try:
            pairs = [tuple(int(v) for v in item.split(":")) for item in parts[1].split(",")]
            return PairingScheme(pairs)
        except ValueError as exc:
            raise ValueError(f"bad oplu pairing: {exc}") from None
    if len(parts) != 1 or parts[0] not in SCALAR_KINDS:
        raise ValueError(f"unknown activation {token!r}")
    return parts[0]


def kink_gap(kind, a: np.ndarray) -> float:
    """Distance of presynaptic values from the kind's kink set: the least
    |a_i - a_j| over pairs, the least |a| for relu, inf for smooth kinds."""
    if isinstance(kind, PairingScheme):
        first, second = kind._members
        return float(np.abs(a[..., first] - a[..., second]).min())
    if kind == "relu":
        return float(np.abs(a).min())
    return np.inf


def activation_jacobian(kind, a: np.ndarray) -> np.ndarray:
    """Matrix J with dz = da @ J at one presynaptic vector `a`: the swap
    permutation that `a` selects for a pairing, diagonal otherwise."""
    if isinstance(kind, PairingScheme):
        return materialize_permutation(swap_mask(a, kind), kind)
    return np.diag(scalar_derivative(kind, a))


def swap_mask(a: np.ndarray, scheme: PairingScheme) -> np.ndarray:
    """Whether the pairwise unit swaps each pair of `a` along the last axis:
    exactly when the first entry is strictly smaller, so ties, -0.0 against
    +0.0 among them, never swap."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1] != scheme.width:
        raise ShapeError(f"input width {a.shape[-1]} does not match pairing over {scheme.width}")
    first, second = scheme._members
    return np.less(a[..., first], a[..., second])


def oplu_forward(a: np.ndarray, scheme: PairingScheme, out=None) -> np.ndarray:
    """Route each pair to (max, min) along the last axis of a vector or a
    batch of rows, into `out` when given. `out` may be `a` itself, though
    the backward pass needs `a` kept.

    For the default adjacent pairing and an `out` that shares no memory
    with `a` (a fresh one when none is given), np.maximum and np.minimum
    write straight into the output's strided halves. Otherwise (a gathered
    pairing, or an `out` that overlaps `a`) the maxima go into a temporary
    first.

    The values equal swap_mask's selection everywhere; only on a tie
    between -0.0 and +0.0 may numpy give both entries one sign of zero
    (numpy 2.4 returns the second entry twice), the same on either path.
    The backward pass follows swap_mask in every case.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1] != scheme.width:
        raise ShapeError(f"input width {a.shape[-1]} does not match pairing over {scheme.width}")
    first, second = scheme._members
    if out is None:
        out = np.empty_like(a)
    if isinstance(first, slice) and not np.may_share_memory(a, out):
        np.maximum(a[..., first], a[..., second], out=out[..., first])
        np.minimum(a[..., first], a[..., second], out=out[..., second])
        return out
    # the max is taken before `out`, which may alias `a`, is written
    high = np.maximum(a[..., first], a[..., second])
    out[..., second] = np.minimum(a[..., first], a[..., second])
    out[..., first] = high
    return out


def oplu_backward(delta_hat: np.ndarray, mask: np.ndarray, scheme: PairingScheme,
                  out=None) -> np.ndarray:
    """Apply the permutation that swap_mask gave as `mask` to the incoming deltas.

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
    first, second = scheme._members
    if out is None:
        out = np.empty_like(delta_hat)
    new_first = np.where(mask, delta_hat[..., second], delta_hat[..., first])
    out[..., second] = np.where(mask, delta_hat[..., first], delta_hat[..., second])
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
    if isinstance(kind, PairingScheme) or kind == "oplu":
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


def activate(kind, a: np.ndarray, out=None) -> np.ndarray:
    """Activation values at the presynaptic input, written into `out` when given."""
    if isinstance(kind, PairingScheme):
        return oplu_forward(a, kind, out=out)
    return scalar_forward(kind, a, out=out)


def backward_factor(kind, a: np.ndarray, z: np.ndarray, packed=False) -> np.ndarray:
    """The activation's Jacobian at the presynaptic input `a`, in compact
    form: the swap mask for a pairing, the elementwise derivative otherwise.
    `z` holds the values that activate returned for `a`. Any number of
    leading axes may be taken at once, such as all steps of a sequence.
    `packed` keeps a swap mask as one bit a pair (np.packbits along the
    pairs, uint8 where the mask is bool); it leaves a derivative as it is."""
    if isinstance(kind, PairingScheme):
        mask = swap_mask(a, kind)
        return np.packbits(mask, axis=-1) if packed else mask
    return scalar_derivative(kind, a, value=z)


def apply_backward(kind, delta_hat: np.ndarray, factor: np.ndarray, out=None) -> np.ndarray:
    """Deltas with respect to the presynaptic input, given those with
    respect to the values and the backward_factor at that input, packed or
    not, written into `out` when given."""
    if isinstance(kind, PairingScheme):
        if factor.dtype == np.uint8:
            factor = np.unpackbits(factor, axis=-1, count=len(kind.pairs)).view(bool)
        return oplu_backward(delta_hat, factor, kind, out=out)
    return np.multiply(delta_hat, factor, out=out)


def activate_backward(kind, delta_hat: np.ndarray, a: np.ndarray, z: np.ndarray,
                      out=None) -> np.ndarray:
    """Deltas with respect to the presynaptic input `a`, given those with
    respect to the values `z` that activate returned for it."""
    return apply_backward(kind, delta_hat, backward_factor(kind, a, z), out=out)
