import numpy as np
import pytest

from conftest import build_mlp, build_srn
from oplu_net import ParseError, Rng, load_checkpoint, save_checkpoint
from oplu_net.activations import PairingScheme


def assert_same_tensors(a, b):
    pa = a.named_parameters()
    pb = b.named_parameters()
    assert [n for n, _ in pa] == [n for n, _ in pb]
    for (_, ta), (_, tb) in zip(pa, pb):
        assert np.array_equal(ta, tb)
        assert ta.dtype == tb.dtype == np.float64


class TestRoundTrip:
    def test_dense_bitwise(self, tmp_path):
        net = build_mlp([6, 6, 4], "oplu", loss="mse", init="orthogonal", seed=1)
        # perturb with arbitrary values incl. negative zero and tiny numbers
        net.layers[0].w[0, 0] = -0.0
        net.layers[0].b[1] = 5e-324
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, net)
        back = load_checkpoint(path)
        assert_same_tensors(net, back)
        assert back.loss == "mse"
        assert isinstance(back.layers[0].activation, PairingScheme)
        assert back.layers[0].activation == net.layers[0].activation
        # saving the reloaded model reproduces the file byte for byte
        path2 = tmp_path / "m2.ckpt"
        save_checkpoint(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_srn_bitwise(self, tmp_path):
        net = build_srn(8, "oplu", init="orthogonal", seed=2)
        net.h0 = Rng(3).uniform_array(8, -1, 1)
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, net)
        back = load_checkpoint(path)
        assert_same_tensors(net, back)
        assert np.array_equal(back.h0, net.h0)
        assert back.hidden_activation == net.hidden_activation

    def test_softmax_net(self, tmp_path):
        net = build_mlp([4, 6, 3], "relu", loss="softmax_xent", seed=4)
        save_checkpoint(tmp_path / "c.ckpt", net)
        back = load_checkpoint(tmp_path / "c.ckpt")
        assert back.loss == "softmax_xent"
        assert_same_tensors(net, back)


class TestRejections:
    def make_checkpoint(self, tmp_path):
        net = build_mlp([4, 4, 2], "tanh", seed=5)
        path = tmp_path / "ok.ckpt"
        save_checkpoint(path, net)
        return path

    def test_version_mismatch(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        raw = path.read_bytes().replace(b"OPLU-CKPT 1", b"OPLU-CKPT 2", 1)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw)
        with pytest.raises(ParseError, match="OPLU-CKPT"):
            load_checkpoint(bad)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        raw = path.read_bytes()
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(raw[:-10])
        with pytest.raises(ParseError) as err:
            load_checkpoint(bad)
        assert "truncated" in str(err.value)
        assert err.value.offset is not None

    def test_truncated_header(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        bad = tmp_path / "hdr.ckpt"
        bad.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ParseError):
            load_checkpoint(bad)

    def test_corrupt_header_line(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        raw = path.read_bytes().replace(b"model dense", b"model blimp", 1)
        bad = tmp_path / "kind.ckpt"
        bad.write_bytes(raw)
        with pytest.raises(ParseError, match="blimp"):
            load_checkpoint(bad)

    def test_shape_inconsistency_rejected(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        raw = path.read_bytes().replace(b"tensor layer0.w 4 4", b"tensor layer0.w 4 5", 1)
        bad = tmp_path / "shape.ckpt"
        bad.write_bytes(raw)
        with pytest.raises(ParseError, match="architecture"):
            load_checkpoint(bad)

    def test_odd_oplu_width_rejected_at_load(self, tmp_path):
        net = build_mlp([4, 4, 2], "oplu", seed=6)
        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, net)
        # widen the layer to 5 while keeping the 4-wide pairing: invalid
        raw = path.read_bytes()
        raw = raw.replace(b"layer 0 4 4 oplu 0:1,2:3", b"layer 0 4 5 oplu 0:1,2:3", 1)
        raw = raw.replace(b"tensor layer0.w 4 4", b"tensor layer0.w 4 5", 1)
        raw = raw.replace(b"tensor layer0.b 4", b"tensor layer0.b 5", 1)
        raw = raw.replace(b"layer 1 4 2 linear", b"layer 1 5 2 linear", 1)
        raw = raw.replace(b"tensor layer1.w 4 2", b"tensor layer1.w 5 2", 1)
        bad = tmp_path / "oddw.ckpt"
        bad.write_bytes(raw + bytes(8 * 8))  # pad so the payload is long enough
        with pytest.raises(ValueError):
            load_checkpoint(bad)

    def test_malformed_pairing_rejected(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        raw = path.read_bytes().replace(b"layer 0 4 4 tanh", b"layer 0 4 4 oplu 0:x", 1)
        bad = tmp_path / "pair.ckpt"
        bad.write_bytes(raw)
        with pytest.raises(ParseError, match="pairing"):
            load_checkpoint(bad)
