"""Dataset ingestion and generation.

Covers the IDX container used by the MNIST distribution (big-endian
32-bit header words followed by raw unsigned bytes), the synthetic
adding task for recurrent networks, and a synthetic labeled-image
generator for exercising the classification pipeline when no real image
files are on disk.
"""

import copy
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError
from .rng import Rng

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
IMAGE_SIDE = 28
CLASSES = 10  # label values 0..9
# gen_image_classes's largest prototype shift in pixels and pixel-noise weight
IMAGE_JITTER = 3
IMAGE_NOISE = 0.55


class ScaledRows:
    """Byte pixel rows read as float64 in [0, 1].

    `rows[index]` (a slice or a list of row numbers) scales only the rows
    it takes, into one buffer that the next read overwrites, so a pass
    over the data in batches allocates it once. This is the one place that
    scales pixels; copy a read to keep it.
    """

    def __init__(self, pixels: np.ndarray):
        self.pixels = pixels
        self._buf = np.empty((0, pixels.shape[1]))

    def __len__(self) -> int:
        return self.pixels.shape[0]

    def __getitem__(self, index) -> np.ndarray:
        pixels = self.pixels[index]
        if self._buf.shape[0] < pixels.shape[0]:
            self._buf = np.empty(pixels.shape)
        return np.divide(pixels, 255.0, out=self._buf[:pixels.shape[0]])


@dataclass
class MnistDataset:
    """Labeled 28x28 images kept at 1 byte per pixel.

    `rows()` is the input source for `train_epoch` and `evaluate`: it
    scales one batch or chunk at a time. `images` is every row scaled,
    computed when read.
    """

    pixels: np.ndarray  # (n, 784) uint8
    labels: np.ndarray  # (n,) int64 in 0..9

    def __len__(self) -> int:
        return self.pixels.shape[0]

    def rows(self) -> ScaledRows:
        return ScaledRows(self.pixels)

    @property
    def images(self) -> np.ndarray:
        """(n, 784) float64 in [0, 1]."""
        return self.rows()[:]

    def one_hot_targets(self) -> np.ndarray:
        out = np.zeros((len(self), CLASSES))
        out[np.arange(len(self)), self.labels] = 1.0
        return out


@dataclass
class AddingDataset:
    """Adding-task sequences kept as the stream that drew their values and
    the two marked steps of each.

    Every value is one draw of `stream`, the generator as it stood before
    the set's first value draw, and it is never advanced: row r, step t
    holds the draw at offset r * seq_len + t. `rows()` is the input source
    for training, evaluation and traces: it recomputes the (len, T, 2)
    float64 network input of only the rows it is asked for, so a set's
    memory does not grow with T. `inputs` is every row built, computed
    when read. A part that `take` draws shares the set's stream and
    positions and keeps its own targets and `index`, its row numbers into
    them.
    """

    stream: Rng
    seq_len: int
    positions: np.ndarray  # (N, 2) int64: each row's marked steps, first half then second
    targets: np.ndarray  # (n, 1): sum of the two marked values
    index: np.ndarray = None  # (n,) int64 rows of the set; None for all N

    def __len__(self) -> int:
        return self.targets.shape[0]

    def rows(self, index) -> np.ndarray:
        """A fresh float64 array of the rows `index` (an int, a slice or a
        list of row numbers) takes: channel 0 the value, channel 1 the
        marker as 0.0 or 1.0."""
        if self.index is not None:
            picked = self.index[index]
        elif isinstance(index, slice):
            picked = np.arange(*index.indices(self.positions.shape[0]))
        else:
            picked = np.arange(self.positions.shape[0])[index]
        rows = np.atleast_1d(picked)
        offsets = np.multiply(rows, self.seq_len)[:, None] + np.arange(self.seq_len)
        values = self.stream.uniform_at(offsets)
        out = np.zeros(values.shape + (2,))
        out[..., 0] = values
        out[np.arange(rows.size)[:, None], self.positions[rows], 1] = 1.0
        return out if picked.ndim else out[0]

    @property
    def inputs(self) -> np.ndarray:
        """(n, T, 2) float64."""
        return self.rows(slice(None))

    def take(self, indices) -> "AddingDataset":
        """The rows `indices` lists, as a part that shares this set's stream
        and positions: only the targets and the row numbers are copied."""
        idx = np.asarray(indices, dtype=np.int64)
        index = idx if self.index is None else self.index[idx]
        return replace(self, targets=self.targets[idx], index=index)


def _read_be32(buf: bytes, offset: int, what: str) -> int:
    if len(buf) < offset + 4:
        raise ParseError(f"file truncated while reading {what}", offset=len(buf))
    return struct.unpack_from(">I", buf, offset)[0]


def load_mnist_idx(images_path, labels_path) -> MnistDataset:
    """Parse an IDX image/label file pair into a dataset of uint8 pixels.

    Validates the big-endian magic numbers (0x00000803 images,
    0x00000801 labels), the 28x28 image dimensions, a record count of at
    least one, and that the two files agree on it.
    """
    with open(images_path, "rb") as f:
        img_buf = f.read()
    with open(labels_path, "rb") as f:
        lbl_buf = f.read()

    magic = _read_be32(img_buf, 0, "images magic")
    if magic != IMAGES_MAGIC:
        raise ParseError(
            f"bad images magic 0x{magic:08x}, expected 0x{IMAGES_MAGIC:08x}", offset=0
        )
    count = _read_be32(img_buf, 4, "image count")
    if count == 0:
        raise ParseError("the images file holds no records", offset=4)
    rows = _read_be32(img_buf, 8, "row count")
    cols = _read_be32(img_buf, 12, "column count")
    if rows != IMAGE_SIDE or cols != IMAGE_SIDE:
        raise ParseError(
            f"expected {IMAGE_SIDE}x{IMAGE_SIDE} images, got {rows}x{cols}", offset=8
        )
    need = count * rows * cols
    if len(img_buf) - 16 < need:
        raise ParseError(
            f"expected {need} pixel bytes after the 16-byte header, found {len(img_buf) - 16}",
            offset=len(img_buf),
        )
    pixels = np.frombuffer(img_buf, dtype=np.uint8, count=need, offset=16)

    magic = _read_be32(lbl_buf, 0, "labels magic")
    if magic != LABELS_MAGIC:
        raise ParseError(
            f"bad labels magic 0x{magic:08x}, expected 0x{LABELS_MAGIC:08x}", offset=0
        )
    lbl_count = _read_be32(lbl_buf, 4, "label count")
    if lbl_count != count:
        raise ParseError(f"{count} images but {lbl_count} labels", offset=4)
    if len(lbl_buf) - 8 < count:
        raise ParseError(
            f"expected {count} label bytes after the 8-byte header, found {len(lbl_buf) - 8}",
            offset=len(lbl_buf),
        )
    labels = np.frombuffer(lbl_buf, dtype=np.uint8, count=count, offset=8)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise ParseError(f"label value {labels[bad[0]]} out of range 0..9", offset=8 + int(bad[0]))

    # a copy, so the file's bytes, trailing ones included, are freed instead
    # of being kept alive by a view
    return MnistDataset(pixels.reshape(count, rows * cols).copy(), labels.astype(np.int64))


def write_idx_images(path, images: np.ndarray) -> None:
    """Write uint8 images (n, 784) or (n, 28, 28) in IDX format."""
    images = np.asarray(images, dtype=np.uint8).reshape(-1, IMAGE_SIDE, IMAGE_SIDE)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGES_MAGIC, images.shape[0], IMAGE_SIDE, IMAGE_SIDE))
        f.write(images.tobytes(order="C"))


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABELS_MAGIC, labels.shape[0]))
        f.write(labels.tobytes(order="C"))


def gen_adding(seq_len: int, n: int, rng: Rng) -> AddingDataset:
    """Synthetic adding task: sum two marked values in a random sequence.

    The values (input channel 0) are i.i.d. uniform in [0, 1); the markers
    (channel 1) flag two positions, one uniform in the first half [0, T//2)
    and one uniform in the second half [T//2, T). The target is the sum of
    the two marked values, first-half value first. Draw order: all n*T
    values, row by row, then the n first-half positions, then the n
    second-half positions. The values are stepped over, not computed: the
    set keeps the stream as it stood before them and reads back only the
    two marked draws of each row for its target, so generating a set takes
    a few arrays of n, whatever T.
    """
    if seq_len < 2:
        raise ValueError(f"sequence length must be >= 2, got {seq_len}")
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    half = seq_len // 2
    stream = copy.copy(rng)
    rng.skip(n * seq_len)
    positions = np.empty((n, 2), dtype=np.int64)
    positions[:, 0] = rng.randint_array(n, half)
    positions[:, 1] = rng.randint_array(n, seq_len - half)
    positions[:, 1] += half
    starts = np.arange(0, n * seq_len, seq_len)
    targets = stream.uniform_at(starts + positions[:, 0])
    targets += stream.uniform_at(starts + positions[:, 1])
    return AddingDataset(stream, seq_len, positions, targets.reshape(n, 1))


def split(dataset, train_n: int, valid_n: int, test_n: int, rng: Rng):
    """Disjoint deterministic train/valid/test split by shuffled indices.

    dataset is an AddingDataset: image sets come split in their IDX files,
    so MnistDataset has no take. The parts share the set's stream and
    positions through AddingDataset.take, so a split copies no sequence.
    """
    total = train_n + valid_n + test_n
    if total > len(dataset):
        raise ValueError(f"split sizes sum to {total} but dataset has {len(dataset)} samples")
    order = list(range(len(dataset)))
    rng.shuffle(order)
    a, b = train_n, train_n + valid_n
    return dataset.take(order[:a]), dataset.take(order[a:b]), dataset.take(order[b:total])


def _box_blur(img: np.ndarray, passes: int = 2) -> np.ndarray:
    out = img
    for _ in range(passes):
        padded = np.pad(out, 1, mode="edge")
        out = (
            padded[:-2, :-2] + padded[:-2, 1:-1] + padded[:-2, 2:]
            + padded[1:-1, :-2] + padded[1:-1, 1:-1] + padded[1:-1, 2:]
            + padded[2:, :-2] + padded[2:, 1:-1] + padded[2:, 2:]
        ) / 9.0
    return out


def gen_image_classes(n: int, rng: Rng) -> MnistDataset:
    """Synthetic 28x28 labeled images for pipeline tests.

    Each of the CLASSES classes gets a smoothed random prototype pattern; a
    sample is its prototype shifted by up to IMAGE_JITTER pixels, mixed with
    uniform pixel noise at weight IMAGE_NOISE.
    Useful when no real image dataset is available on disk: the output
    round-trips through the IDX files exactly like the real thing.
    """
    side, jitter = IMAGE_SIDE, IMAGE_JITTER
    protos = []
    for _ in range(CLASSES):
        coarse = rng.uniform_array(7 * 7).reshape(7, 7)
        fine = np.kron(coarse, np.ones((4, 4)))
        img = _box_blur(fine)
        lo, hi = img.min(), img.max()
        protos.append((img - lo) / (hi - lo))
    labels = rng.randint_array(n, CLASSES)
    shifts = rng.randint_array(2 * n, 2 * jitter + 1).reshape(n, 2) - jitter
    noise_pixels = rng.uniform_array(n * side * side).reshape(n, side, side)
    images = np.empty((n, side, side))
    for i in range(n):
        base = np.roll(protos[labels[i]], (shifts[i, 0], shifts[i, 1]), axis=(0, 1))
        images[i] = (1.0 - IMAGE_NOISE) * base + IMAGE_NOISE * noise_pixels[i]
    pixels = np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8)
    return MnistDataset(pixels.reshape(n, side * side), labels.astype(np.int64))
