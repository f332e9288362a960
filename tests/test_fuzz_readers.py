"""Byte fuzzing of the IDX, checkpoint and config-file readers.

Each mutated IDX or checkpoint file either loads or is rejected with a
ParseError whose offset lies inside the file; no other exception may
escape a reader. Arbitrary config-file bytes give a validated config or a
ConfigError; one raised while reading the file names a line of it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_mlp, build_srn
from oplu_net import (
    ConfigError,
    DenseNet,
    ParseError,
    Srn,
    load_checkpoint,
    load_mnist_idx,
    save_checkpoint,
    write_idx_images,
    write_idx_labels,
)
from oplu_net.config import (
    SCHEMAS,
    apply_settings,
    default_config,
    parse_config_file,
    validate_config,
)

# (header flips as (position, xor mask), truncation length or None, appended
# bytes); positions and lengths wrap around the file they are applied to
MUTATION = st.tuples(
    st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 255)), max_size=4),
    st.none() | st.integers(0, 2**20),
    st.binary(max_size=16),
)
UNCHANGED = ([], None, b"")

# the "n" of "softmax_xent" in a dense checkpoint's header
LOSS_AT = len(b"OPLU-CKPT 1\nmodel dense\nloss softmax_xe")


def mutate(raw: bytes, header_len: int, mutation) -> bytes:
    flips, cut, extra = mutation
    out = bytearray(raw)
    for at, mask in flips:
        out[at % header_len] ^= mask
    if cut is not None:
        del out[cut % (len(out) + 1):]
    return bytes(out) + extra


def load_or_positioned_error(load, files):
    """load()'s result, or None after a ParseError positioned inside the files."""
    try:
        return load()
    except ParseError as exc:
        assert isinstance(exc.offset, int)
        assert 0 <= exc.offset <= max(len(raw) for raw in files)
        return None


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def idx_pair(scratch):
    pixels = np.arange(2 * 784, dtype=np.int64).reshape(2, 784) % 256
    write_idx_images(scratch / "images", pixels)
    write_idx_labels(scratch / "labels", np.array([3, 9]))
    return (scratch / "images").read_bytes(), (scratch / "labels").read_bytes()


def saved_bytes(path, model) -> bytes:
    save_checkpoint(path, model)
    return path.read_bytes()


@pytest.fixture(scope="module")
def dense_checkpoint(scratch):
    return saved_bytes(scratch / "dense", build_mlp([4, 6, 3], "oplu", loss="softmax_xent", seed=1))


@pytest.fixture(scope="module")
def srn_checkpoint(scratch):
    return saved_bytes(scratch / "srn", build_srn(4, "oplu", seed=2))


@settings(max_examples=300, deadline=None)
@given(images=MUTATION, labels=MUTATION)
# both record counts 2 -> 0: an empty dataset that training cannot use
@example(images=([(7, 2)], None, b""), labels=([(7, 2)], None, b""))
def test_idx_pair(scratch, idx_pair, images, labels):
    files = mutate(idx_pair[0], 16, images), mutate(idx_pair[1], 8, labels)
    (scratch / "images.m").write_bytes(files[0])
    (scratch / "labels.m").write_bytes(files[1])
    ds = load_or_positioned_error(
        lambda: load_mnist_idx(scratch / "images.m", scratch / "labels.m"), files)
    if ds is not None:
        assert len(ds) >= 1
        assert ds.images.shape == (len(ds), 784)
        assert ds.labels.min() >= 0 and ds.labels.max() <= 9


def check_checkpoint(scratch, raw, mutation, model_type):
    mutated = mutate(raw, raw.index(b"end\n") + 4, mutation)
    (scratch / "model.m").write_bytes(mutated)
    model = load_or_positioned_error(lambda: load_checkpoint(scratch / "model.m"), [mutated])
    assert model is None or isinstance(model, model_type)


@settings(max_examples=300, deadline=None)
@given(mutation=MUTATION)
@example(mutation=UNCHANGED)
# "softmax_xent" -> "softmax_xeTt": a loss DenseNet refuses
@example(mutation=([(LOSS_AT, ord("n") ^ ord("T"))], None, b""))
def test_dense_checkpoint(scratch, dense_checkpoint, mutation):
    check_checkpoint(scratch, dense_checkpoint, mutation, DenseNet)


@settings(max_examples=300, deadline=None)
@given(mutation=MUTATION)
@example(mutation=UNCHANGED)
def test_srn_checkpoint(scratch, srn_checkpoint, mutation):
    check_checkpoint(scratch, srn_checkpoint, mutation, Srn)


CONFIG_KEYS = sorted({key for schema in SCHEMAS.values() for key in schema} | {"bogus"})
# arbitrary bytes, or lines that name real keys with arbitrary values
CONFIG_BYTES = st.binary(max_size=200) | st.lists(
    st.tuples(st.sampled_from(CONFIG_KEYS), st.binary(max_size=12),
              st.sampled_from([b"\n", b"\r\n", b"\r"])),
    max_size=6,
).map(lambda lines: b"".join(k.encode() + b" = " + v + end for k, v, end in lines))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(SCHEMAS)), raw=CONFIG_BYTES)
@example(kind="adding", raw=b"alpha = 0.01\n\xff\n")
@example(kind="adding", raw=b"epochs = \xc3\xa9\r")
# a wide even layer and an odd one
@example(kind="grad-diag", raw=b"hidden = 400000\n")
@example(kind="adding", raw=b"hidden = 99999\n")
def test_config_file(scratch, kind, raw):
    path = scratch / "run.cfg"
    path.write_bytes(raw)
    try:
        cfg = apply_settings(kind, default_config(kind), parse_config_file(path))
    except ConfigError as exc:
        assert f"{path}:" in str(exc)
        return
    assert set(cfg) == set(SCHEMAS[kind])
    try:
        assert validate_config(kind, cfg) is cfg
    except ConfigError:
        pass
