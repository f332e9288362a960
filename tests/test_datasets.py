import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplu_net import (
    MnistDataset,
    ParseError,
    Rng,
    gen_adding,
    gen_image_classes,
    load_mnist_idx,
    split,
    write_idx_images,
    write_idx_labels,
)
from oplu_net.rng import UNIFORM_BLOCK


class TestGenAdding:
    def test_structure_invariants(self):
        data = gen_adding(12, 50, Rng(1))
        markers = data.inputs[:, :, 1]
        assert np.array_equal(markers.sum(axis=1), np.full(50, 2.0))
        # target equals the sum of the two marked values, exactly
        recomputed = (data.inputs[:, :, 0] * markers).sum(axis=1)
        assert np.array_equal(recomputed, data.targets[:, 0])
        # one marker per half
        half = 12 // 2
        assert np.array_equal(markers[:, :half].sum(axis=1), np.ones(50))
        assert np.array_equal(markers[:, half:].sum(axis=1), np.ones(50))

    @given(st.integers(2, 40), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_for_any_length_and_seed(self, seq_len, seed):
        data = gen_adding(seq_len, 8, Rng(seed))
        markers = data.inputs[:, :, 1]
        assert np.array_equal(markers.sum(axis=1), np.full(8, 2.0))
        recomputed = (data.inputs[:, :, 0] * markers).sum(axis=1)
        assert np.array_equal(recomputed, data.targets[:, 0])
        assert np.all(data.targets >= 0.0) and np.all(data.targets <= 2.0)

    def test_mean_target_is_one(self):
        data = gen_adding(10, 100_000, Rng(8))
        assert abs(data.targets.mean() - 1.0) <= 0.01

    def test_golden_first_sample_seed3(self):
        # regression lock from the reference stream; invariants were
        # verified before freezing
        data = gen_adding(10, 3, Rng(3))
        expected = np.array([
            [0.11345034205715454, 0.0],
            [0.70029351359290237, 0.0],
            [0.61297468254662435, 0.0],
            [0.07286673677178535, 0.0],
            [0.21643910878148487, 1.0],
            [0.63622231572764776, 0.0],
            [0.13514585858115058, 0.0],
            [0.88871843411154416, 0.0],
            [0.49106245506144541, 1.0],
            [0.88852940165271621, 0.0],
        ])
        assert np.array_equal(data.inputs[0], expected)
        assert data.targets[0, 0] == 0.7075015638429303

    @pytest.mark.parametrize("index", [slice(3, 9), [7, 0, 7, 11, 2]])
    def test_rows_equal_the_value_marker_layout(self, index):
        # reference: the (n, T, 2) layout built straight from gen_adding's
        # documented draw order
        n, seq_len = 12, 9
        data = gen_adding(seq_len, n, Rng(13))
        rng = Rng(13)
        values = np.array([rng.uniform() for _ in range(n * seq_len)]).reshape(n, seq_len)
        pos1 = [rng.randint(seq_len // 2) for _ in range(n)]
        pos2 = [seq_len // 2 + rng.randint(seq_len - seq_len // 2) for _ in range(n)]
        layout = np.zeros((n, seq_len, 2))
        layout[:, :, 0] = values
        layout[np.arange(n), pos1, 1] = 1.0
        layout[np.arange(n), pos2, 1] = 1.0
        rows = data.rows(index)
        assert rows.dtype == np.float64
        assert rows.tobytes() == layout[index].tobytes()
        assert data.inputs.tobytes() == layout.tobytes()

    def test_peaks_near_nine_bytes_per_step(self):
        n, seq_len = 20000, 30
        tracemalloc.start()
        try:
            data = gen_adding(seq_len, n, Rng(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.values.dtype == np.float64 and data.markers.dtype == bool
        # an 8-byte value and a 1-byte marker per step, plus uniform_array's
        # block temporaries
        assert peak <= 9 * n * seq_len + 4 * 8 * UNIFORM_BLOCK

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            gen_adding(1, 5, Rng(0))

    def test_samples_view(self):
        data = gen_adding(6, 4, Rng(2))
        sample = data.sample(2)
        assert np.array_equal(sample.inputs, data.inputs[2])
        assert np.array_equal(sample.target, data.targets[2])


class TestSplit:
    def test_small_disjoint_cover(self):
        data = gen_adding(5, 4, Rng(4))
        train, valid, test = split(data, 2, 1, 1, Rng(9))
        assert (len(train), len(valid), len(test)) == (2, 1, 1)
        stacked = np.vstack([train.targets, valid.targets, test.targets])
        assert sorted(stacked[:, 0].tolist()) == sorted(data.targets[:, 0].tolist())

    def test_same_seed_same_split(self):
        data = gen_adding(7, 30, Rng(5))
        a = split(data, 10, 5, 5, Rng(123))
        b = split(data, 10, 5, 5, Rng(123))
        for part_a, part_b in zip(a, b):
            assert np.array_equal(part_a.inputs, part_b.inputs)

    def test_paper_sizes(self):
        data = gen_adding(3, 31_000, Rng(6))
        train, valid, test = split(data, 20_000, 1_000, 10_000, Rng(7))
        assert (len(train), len(valid), len(test)) == (20_000, 1_000, 10_000)

    def test_oversized_split_rejected(self):
        data = gen_adding(5, 10, Rng(0))
        with pytest.raises(ValueError):
            split(data, 8, 2, 2, Rng(0))


class TestIdxFiles:
    def test_round_trip(self, tmp_path):
        rng = Rng(17)
        pixels = (rng.uniform_array(5 * 784) * 255).astype(np.uint8).reshape(5, 784)
        labels = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
        img_path = tmp_path / "imgs"
        lbl_path = tmp_path / "lbls"
        write_idx_images(img_path, pixels)
        write_idx_labels(lbl_path, labels)
        ds = load_mnist_idx(img_path, lbl_path)
        assert len(ds) == 5
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(ds.images, pixels.astype(np.float64) / 255.0)
        # writing back reproduces the original bytes
        img2 = tmp_path / "imgs2"
        write_idx_images(img2, (ds.images * 255).round().astype(np.uint8))
        assert img2.read_bytes() == img_path.read_bytes()

    def test_scaled_rows_reuse_one_buffer(self):
        pixels = (Rng(2).uniform_array(10 * 784) * 256).astype(np.uint8).reshape(10, 784)
        rows = MnistDataset(pixels, np.zeros(10, dtype=np.int64)).rows()
        first = rows[0:4]
        assert np.array_equal(first, pixels[0:4].astype(np.float64) / 255.0)
        for index in ([7, 2, 2], slice(8, 12)):
            read = rows[index]
            assert np.array_equal(read, pixels[index].astype(np.float64) / 255.0)
            assert np.shares_memory(read, first)

    def test_single_zero_image(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((1, 784), dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", np.array([0], dtype=np.uint8))
        ds = load_mnist_idx(tmp_path / "imgs", tmp_path / "lbls")
        assert len(ds) == 1
        assert ds.images.min() == 0.0 and ds.images.max() == 0.0

    def test_empty_file_rejected_at_its_count(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((0, 784), dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", np.zeros(0, dtype=np.uint8))
        with pytest.raises(ParseError, match="no records") as err:
            load_mnist_idx(tmp_path / "imgs", tmp_path / "lbls")
        assert err.value.offset == 4

    def test_load_peaks_at_three_bytes_per_pixel(self, tmp_path):
        n = 2000
        pixels = (Rng(8).uniform_array(n * 784) * 256).astype(np.uint8).reshape(n, 784)
        write_idx_images(tmp_path / "imgs", pixels)
        write_idx_labels(tmp_path / "lbls", np.arange(n) % 10)
        tracemalloc.start()
        try:
            ds = load_mnist_idx(tmp_path / "imgs", tmp_path / "lbls")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.pixels.dtype == np.uint8 and np.array_equal(ds.pixels, pixels)
        assert peak <= 3 * pixels.size

    def test_wrong_magic_rejected_at_offset_zero(self, tmp_path):
        # a labels file offered as an images file
        write_idx_labels(tmp_path / "lbls", np.array([1], dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls2", np.array([1], dtype=np.uint8))
        with pytest.raises(ParseError) as err:
            load_mnist_idx(tmp_path / "lbls", tmp_path / "lbls2")
        assert err.value.offset == 0
        assert "0x00000803" in str(err.value)

    def test_truncated_pixels_reports_offset(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((2, 784), dtype=np.uint8))
        raw = (tmp_path / "imgs").read_bytes()
        (tmp_path / "short").write_bytes(raw[:-100])
        write_idx_labels(tmp_path / "lbls", np.zeros(2, dtype=np.uint8))
        with pytest.raises(ParseError) as err:
            load_mnist_idx(tmp_path / "short", tmp_path / "lbls")
        assert err.value.offset is not None
        assert "expected 1568 pixel bytes" in str(err.value)

    def test_count_mismatch_rejected(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((2, 784), dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", np.zeros(3, dtype=np.uint8))
        with pytest.raises(ParseError, match="2 images but 3 labels"):
            load_mnist_idx(tmp_path / "imgs", tmp_path / "lbls")

    def test_wrong_dimensions_rejected(self, tmp_path):
        import struct

        payload = struct.pack(">IIII", 0x803, 1, 14, 14) + bytes(14 * 14)
        (tmp_path / "imgs").write_bytes(payload)
        write_idx_labels(tmp_path / "lbls", np.zeros(1, dtype=np.uint8))
        with pytest.raises(ParseError, match="28x28"):
            load_mnist_idx(tmp_path / "imgs", tmp_path / "lbls")

    def test_label_out_of_range_rejected(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((1, 784), dtype=np.uint8))
        import struct

        (tmp_path / "lbls").write_bytes(struct.pack(">II", 0x801, 1) + bytes([11]))
        with pytest.raises(ParseError, match="out of range"):
            load_mnist_idx(tmp_path / "imgs", tmp_path / "lbls")


@pytest.mark.skipif(
    not (
        os.path.exists(os.path.join(os.environ.get("OPLU_DATA_DIR", ""), "train-images-idx3-ubyte"))
        and os.environ.get("OPLU_DATA_DIR")
    ),
    reason="real MNIST files not present under OPLU_DATA_DIR",
)
def test_real_mnist_train_files():
    root = os.environ["OPLU_DATA_DIR"]
    ds = load_mnist_idx(
        os.path.join(root, "train-images-idx3-ubyte"),
        os.path.join(root, "train-labels-idx1-ubyte"),
    )
    assert len(ds) == 60_000
    assert ds.labels[0] == 5


class TestSyntheticImageClasses:
    def test_shapes_and_ranges(self):
        ds = gen_image_classes(200, Rng(10))
        assert ds.images.shape == (200, 784)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert set(np.unique(ds.labels)) <= set(range(10))

    def test_deterministic(self):
        a = gen_image_classes(50, Rng(3))
        b = gen_image_classes(50, Rng(3))
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_classes_reasonably_balanced(self):
        ds = gen_image_classes(5000, Rng(4))
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.min() > 300

    def test_round_trips_through_idx(self, tmp_path):
        ds = gen_image_classes(20, Rng(6))
        write_idx_images(tmp_path / "i", (ds.images * 255).round().astype(np.uint8))
        write_idx_labels(tmp_path / "l", ds.labels.astype(np.uint8))
        back = load_mnist_idx(tmp_path / "i", tmp_path / "l")
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.labels, ds.labels)
