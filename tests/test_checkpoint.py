import numpy as np
import pytest

from conftest import build_mlp, build_srn
from oplu_net import ParseError, Rng, Srn, load_checkpoint, save_checkpoint
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

    def test_srn_non_adjacent_pairing_bitwise(self, tmp_path):
        base = build_srn(8, "oplu", init="orthogonal", seed=7)
        scheme = PairingScheme([(5, 0), (3, 6), (7, 1), (2, 4)])
        net = Srn(base.w_in, base.w_rec, base.b_h, base.w_out, base.b_out, scheme,
                  Rng(8).uniform_array(8, -1, 1))
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, net)
        assert b"activation oplu 5:0,3:6,7:1,2:4\n" in path.read_bytes()
        back = load_checkpoint(path)
        assert back.hidden_activation == scheme
        path2 = tmp_path / "s2.ckpt"
        save_checkpoint(path2, back)
        assert path.read_bytes() == path2.read_bytes()

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

    def test_trailing_bytes_report_first_extra_offset(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        raw = path.read_bytes()
        bad = tmp_path / "long.ckpt"
        bad.write_bytes(raw + b"\x00")
        with pytest.raises(ParseError, match="trailing") as err:
            load_checkpoint(bad)
        assert err.value.offset == len(raw)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_reports_its_offset(self, tmp_path, value):
        path = self.make_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        # layer0.b, the second tensor, starts 4x4 values into the payload
        at = raw.index(b"end\n") + 4 + 8 * (16 + 2)
        raw[at:at + 8] = np.array([value], dtype="<f8").tobytes()
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="non-finite") as err:
            load_checkpoint(bad)
        assert err.value.offset == at

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

    def test_tensor_out_of_order_rejected_at_its_line(self, tmp_path):
        raw = self.make_checkpoint(tmp_path).read_bytes()
        w_line, b_line = b"tensor layer0.w 4 4\n", b"tensor layer0.b 4\n"
        raw = raw.replace(w_line + b_line, b_line + w_line, 1)
        bad = tmp_path / "order.ckpt"
        bad.write_bytes(raw)
        with pytest.raises(ParseError, match="expected tensor 'layer0.w'") as err:
            load_checkpoint(bad)
        assert err.value.offset == raw.index(b_line)

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
        bad.write_bytes(raw + bytes(7 * 8))  # the 7 values the wider layer adds
        with pytest.raises(ValueError, match="pairing covers 4 units"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("old, new, message, line", [
        (b"loss mse", b"loss msx", "unknown loss", b"loss "),
        (b"layers 2", b"layers +2", "bad layer count", b"layers "),
        (b"layers 2", b"layers 0", "at least one layer", b"layers "),
        (b"layer 0 4 4 tanh", b"layer 0 4 4 oplu 0:1", "pairing covers 2 units", b"layer 0 "),
    ])
    def test_refused_header_rejected_at_its_line(self, tmp_path, old, new, message, line):
        raw = self.make_checkpoint(tmp_path).read_bytes().replace(old, new, 1)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw)
        with pytest.raises(ParseError, match=message) as err:
            load_checkpoint(bad)
        assert err.value.offset == raw.index(line)

    def test_srn_pairing_width_rejected_at_activation_line(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, build_srn(4, "oplu", seed=2))
        raw = path.read_bytes().replace(b"oplu 0:1,2:3", b"oplu 0:1", 1)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw)
        with pytest.raises(ParseError, match="pairing covers 2 units") as err:
            load_checkpoint(bad)
        assert err.value.offset == raw.index(b"activation ")

    def test_model_too_large_to_allocate_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, build_srn(4, "tanh", seed=2))
        # 160 GB of w_in alone: refused before any tensor line is read
        raw = path.read_bytes().replace(b"dims 2 4 1", b"dims 2 10000000000 1", 1)
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(raw)
        with pytest.raises(ParseError) as err:
            load_checkpoint(bad)
        assert err.value.offset == raw.index(b"activation ")

    def test_malformed_pairing_rejected(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        raw = path.read_bytes().replace(b"layer 0 4 4 tanh", b"layer 0 4 4 oplu 0:x", 1)
        bad = tmp_path / "pair.ckpt"
        bad.write_bytes(raw)
        with pytest.raises(ParseError, match="pairing"):
            load_checkpoint(bad)
