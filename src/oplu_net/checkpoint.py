"""Model checkpoints.

Format: ASCII header lines, then raw little-endian IEEE-754 float64
tensor payloads concatenated in declaration order, so round-trips are
bit-exact. Header for a dense model:

    OPLU-CKPT 1
    model dense
    loss softmax_xent
    layers 2
    layer 0 784 300 relu
    layer 1 300 10 linear
    tensor layer0.w 784 300
    tensor layer0.b 300
    tensor layer1.w 300 10
    tensor layer1.b 10
    end

and for a recurrent model:

    OPLU-CKPT 1
    model srn
    dims 2 100 1
    activation oplu 0:1,2:3,...
    tensor w_in 2 100
    ...
    end

Pairwise activations serialize their pairing as comma-separated i:j
entries, so a reloaded model applies exactly the same permutations.
"""

import numpy as np

from .activations import activation_token, parse_activation_token
from .errors import ParseError
from .network import LOSS_KINDS, DenseLayer, DenseNet
from .recurrent import Srn

FORMAT_LINE = "OPLU-CKPT 1"


def _named_tensors(model) -> list:
    if isinstance(model, Srn):
        return model.named_parameters() + [("h0", model.h0)]
    return model.named_parameters()


def save_checkpoint(path, model) -> None:
    lines = [FORMAT_LINE]
    if isinstance(model, DenseNet):
        lines.append("model dense")
        lines.append(f"loss {model.loss}")
        lines.append(f"layers {len(model.layers)}")
        for idx, layer in enumerate(model.layers):
            lines.append(f"layer {idx} {layer.fan_in} {layer.fan_out} {activation_token(layer.activation)}")
    elif isinstance(model, Srn):
        lines.append("model srn")
        lines.append(f"dims {model.input_dim} {model.hidden_dim} {model.output_dim}")
        lines.append(f"activation {activation_token(model.hidden_activation)}")
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    tensors = _named_tensors(model)
    for name, tensor in tensors:
        dims = " ".join(str(d) for d in tensor.shape)
        lines.append(f"tensor {name} {dims}")
    lines.append("end")
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("ascii"))
        for _, tensor in tensors:
            f.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


class _HeaderReader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def line(self) -> str:
        nl = self.buf.find(b"\n", self.pos)
        if nl < 0:
            raise ParseError("header truncated before 'end'", offset=self.pos)
        raw = self.buf[self.pos : nl]
        start = self.pos
        self.pos = nl + 1
        try:
            return raw.decode("ascii")
        except UnicodeDecodeError:
            raise ParseError("header is not ASCII", offset=start) from None

    def expect_fields(self, tag: str, count: int):
        start = self.pos
        parts = self.line().split(" ")
        if parts[0] != tag or (count is not None and len(parts) - 1 != count):
            raise ParseError(f"expected '{tag}' line, got {' '.join(parts)!r}", offset=start)
        return parts[1:], start


def _parse_int(text: str, offset: int, what: str) -> int:
    """A plain decimal count, the only form save_checkpoint writes: int()
    alone would also take a sign, spaces and underscores."""
    if text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(f"bad {what} {text!r}", offset=offset)


def _build(offset: int, make, *args):
    """make(*args), with a ValueError (ShapeError too) or MemoryError it
    raises turned into a ParseError at the header line of the refused part."""
    try:
        return make(*args)
    except (ValueError, MemoryError) as exc:
        raise ParseError(str(exc), offset=offset) from None


def load_checkpoint(path):
    """Reload a dense or recurrent model, bit-for-bit.

    The header's structural lines build the model with zero tensors, its
    tensor lines must list the model's _named_tensors, and the payload is
    copied into those. Rejects with a positioned ParseError any byte after
    the payload, any NaN or infinite tensor value, and any header the model
    constructors refuse.
    """
    with open(path, "rb") as f:
        buf = f.read()
    reader = _HeaderReader(buf)
    first = reader.line()
    if first != FORMAT_LINE:
        raise ParseError(f"unsupported checkpoint header {first!r}, expected {FORMAT_LINE!r}", offset=0)
    (kind,), kind_off = reader.expect_fields("model", 1)

    if kind == "dense":
        (loss,), off = reader.expect_fields("loss", 1)
        if loss not in LOSS_KINDS:
            raise ParseError(f"unknown loss {loss!r}", offset=off)
        (layer_count,), off = reader.expect_fields("layers", 1)
        n_layers = _parse_int(layer_count, off, "layer count")
        if n_layers < 1:
            raise ParseError(f"a network needs at least one layer, got {n_layers}", offset=off)
        layers = []
        for idx in range(n_layers):
            fields, off = reader.expect_fields("layer", None)
            if len(fields) < 4 or _parse_int(fields[0], off, "layer index") != idx:
                raise ParseError(f"bad layer line for layer {idx}", offset=off)
            fan_in = _parse_int(fields[1], off, "fan_in")
            fan_out = _parse_int(fields[2], off, "fan_out")
            if layers and fan_in != layers[-1].fan_out:
                raise ParseError(
                    f"layer widths do not chain: {layers[-1].fan_out} feeds {fan_in}", offset=off
                )
            act = _build(off, parse_activation_token, " ".join(fields[3:]))
            layers.append(_build(off, lambda: DenseLayer(np.zeros((fan_in, fan_out)),
                                                         np.zeros(fan_out), act)))
        # what DenseNet can still refuse is the last layer for this loss
        model = _build(off, DenseNet, layers, loss)
    elif kind == "srn":
        fields, off = reader.expect_fields("dims", 3)
        input_dim = _parse_int(fields[0], off, "input dim")
        hidden = _parse_int(fields[1], off, "hidden dim")
        output_dim = _parse_int(fields[2], off, "output dim")
        fields, off = reader.expect_fields("activation", None)
        act = _build(off, parse_activation_token, " ".join(fields))
        model = _build(off, lambda: Srn(np.zeros((input_dim, hidden)), np.zeros((hidden, hidden)),
                                        np.zeros(hidden), np.zeros((hidden, output_dim)),
                                        np.zeros(output_dim), act))
    else:
        raise ParseError(f"unknown model kind {kind!r}", offset=kind_off)

    tensors = _named_tensors(model)
    for name, tensor in tensors:
        fields, off = reader.expect_fields("tensor", None)
        if len(fields) < 2:
            raise ParseError("tensor line needs a name and at least one dimension", offset=off)
        if fields[0] != name:
            raise ParseError(f"expected tensor {name!r}, got {fields[0]!r}", offset=off)
        dims = tuple(_parse_int(d, off, "tensor dim") for d in fields[1:])
        if dims != tensor.shape:
            raise ParseError(
                f"tensor {name} declares shape {dims} but the architecture needs {tensor.shape}",
                offset=off,
            )
    reader.expect_fields("end", 0)

    payload = buf[reader.pos :]
    need = sum(tensor.nbytes for _, tensor in tensors)
    if len(payload) < need:
        raise ParseError(
            f"payload truncated: need {need} bytes after the header, found {len(payload)}",
            offset=len(buf),
        )
    if len(payload) > need:
        raise ParseError(
            f"{len(payload) - need} trailing bytes after the {need}-byte payload",
            offset=reader.pos + need,
        )
    values = np.frombuffer(payload, dtype="<f8")
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ParseError(f"non-finite tensor value {values[bad]!r}", offset=reader.pos + 8 * bad)
    cursor = 0
    for _, tensor in tensors:
        tensor[...] = values[cursor:cursor + tensor.size].reshape(tensor.shape)
        cursor += tensor.size
    return model
