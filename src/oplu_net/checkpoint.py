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

from .activations import SCALAR_KINDS, PairingScheme, activation_token
from .errors import ParseError
from .network import DenseLayer, DenseNet
from .recurrent import Srn

FORMAT_LINE = "OPLU-CKPT 1"


def _parse_activation(token: str, offset: int):
    parts = token.split(" ")
    if parts[0] == "oplu":
        if len(parts) != 2:
            raise ParseError("oplu activation needs its pairing list", offset=offset)
        try:
            pairs = [tuple(int(v) for v in item.split(":")) for item in parts[1].split(",")]
            return PairingScheme(pairs)
        except ValueError as exc:
            raise ParseError(f"bad oplu pairing: {exc}", offset=offset) from None
    if len(parts) != 1 or parts[0] not in SCALAR_KINDS:
        raise ParseError(f"unknown activation {token!r}", offset=offset)
    return parts[0]


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
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", offset=offset) from None


def load_checkpoint(path):
    """Reload a dense or recurrent model, bit-for-bit."""
    with open(path, "rb") as f:
        buf = f.read()
    reader = _HeaderReader(buf)
    first = reader.line()
    if first != FORMAT_LINE:
        raise ParseError(f"unsupported checkpoint header {first!r}, expected {FORMAT_LINE!r}", offset=0)
    (kind,), kind_off = reader.expect_fields("model", 1)

    if kind == "dense":
        (loss,), _ = reader.expect_fields("loss", 1)
        (layer_count,), off = reader.expect_fields("layers", 1)
        n_layers = _parse_int(layer_count, off, "layer count")
        layer_specs = []
        for idx in range(n_layers):
            fields, off = reader.expect_fields("layer", None)
            if len(fields) < 4 or _parse_int(fields[0], off, "layer index") != idx:
                raise ParseError(f"bad layer line for layer {idx}", offset=off)
            fan_in = _parse_int(fields[1], off, "fan_in")
            fan_out = _parse_int(fields[2], off, "fan_out")
            act = _parse_activation(" ".join(fields[3:]), off)
            layer_specs.append((fan_in, fan_out, act))
        expected_tensors = []
        for idx, (fan_in, fan_out, _) in enumerate(layer_specs):
            expected_tensors.append((f"layer{idx}.w", (fan_in, fan_out)))
            expected_tensors.append((f"layer{idx}.b", (fan_out,)))
    elif kind == "srn":
        fields, off = reader.expect_fields("dims", 3)
        input_dim = _parse_int(fields[0], off, "input dim")
        hidden = _parse_int(fields[1], off, "hidden dim")
        output_dim = _parse_int(fields[2], off, "output dim")
        fields, off = reader.expect_fields("activation", None)
        act = _parse_activation(" ".join(fields), off)
        expected_tensors = [
            ("w_in", (input_dim, hidden)),
            ("w_rec", (hidden, hidden)),
            ("b_h", (hidden,)),
            ("w_out", (hidden, output_dim)),
            ("b_out", (output_dim,)),
            ("h0", (hidden,)),
        ]
    else:
        raise ParseError(f"unknown model kind {kind!r}", offset=kind_off)

    shapes = []
    for name, expected_shape in expected_tensors:
        fields, off = reader.expect_fields("tensor", None)
        if len(fields) < 2:
            raise ParseError("tensor line needs a name and at least one dimension", offset=off)
        if fields[0] != name:
            raise ParseError(f"expected tensor {name!r}, got {fields[0]!r}", offset=off)
        dims = tuple(_parse_int(d, off, "tensor dim") for d in fields[1:])
        if dims != expected_shape:
            raise ParseError(
                f"tensor {name} declares shape {dims} but the architecture needs {expected_shape}",
                offset=off,
            )
        shapes.append(dims)
    end_off = reader.pos
    end_line = reader.line()
    if end_line != "end":
        raise ParseError(f"expected 'end', got {end_line!r}", offset=end_off)

    payload = buf[reader.pos :]
    need = sum(int(np.prod(s)) * 8 for s in shapes)
    if len(payload) < need:
        raise ParseError(
            f"payload truncated: need {need} bytes after the header, found {len(payload)}",
            offset=len(buf),
        )
    arrays = []
    cursor = 0
    for shape in shapes:
        count = int(np.prod(shape))
        arrays.append(
            np.frombuffer(payload, dtype="<f8", count=count, offset=cursor)
            .astype(np.float64)
            .reshape(shape)
        )
        cursor += count * 8

    if kind == "dense":
        layers = [
            DenseLayer(arrays[2 * i], arrays[2 * i + 1], spec[2])
            for i, spec in enumerate(layer_specs)
        ]
        return DenseNet(layers, loss)
    w_in, w_rec, b_h, w_out, b_out, h0 = arrays
    return Srn(w_in, w_rec, b_h, w_out, b_out, act, h0)

