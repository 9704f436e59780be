import numpy as np
import pytest

from semshare.errors import DataError
from semshare.formats import (
    read_container,
    read_flo,
    read_image,
    read_labels,
    read_mask,
    read_scores,
    write_flo,
    write_image,
    write_labels,
    write_mask,
    write_scores,
)
from semshare.raster import FlowField, Image, LabelMap, ScoreMap


def file_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class TestNetPBM:
    def test_pgm_roundtrip(self, tmp_path):
        # quantized values round-trip exactly
        img = Image((np.arange(12).reshape(3, 4) * 20 / 255.0)[None])
        path = tmp_path / "a.pgm"
        write_image(img, path)
        back = read_image(path)
        assert back.channels == 1 and back.size == img.size
        assert np.array_equal(back.data, img.data)
        write_image(back, tmp_path / "b.pgm")
        assert file_bytes(path) == file_bytes(tmp_path / "b.pgm")

    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = Image(rng.integers(0, 256, size=(3, 5, 7)) / 255.0)
        path = tmp_path / "a.ppm"
        write_image(img, path)
        back = read_image(path)
        assert back.channels == 3
        assert np.array_equal(back.data, img.data)

    def test_write_image_dispatch(self, tmp_path):
        write_image(Image(np.zeros((1, 2, 2))), tmp_path / "g.pgm")
        write_image(Image(np.zeros((3, 2, 2))), tmp_path / "c.ppm")
        assert read_image(tmp_path / "g.pgm").channels == 1
        assert read_image(tmp_path / "c.ppm").channels == 3

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        with open(path, "wb") as f:
            f.write(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        img = read_image(path)
        assert img.data[0, 0, 1] == 1.0

    def test_trailing_bytes_are_ignored(self, tmp_path):
        path = tmp_path / "t.ppm"
        with open(path, "wb") as f:
            f.write(b"P6\n2 1\n255\n\x00\x80\xff\x10\x20\x30trailing")
        img = read_image(path)
        assert img.size == (2, 1)
        assert np.array_equal(img.data[:, 0, 1] * 255.0, [16.0, 32.0, 48.0])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(DataError):
            read_image(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(DataError):
            read_image(path)

    def test_mask_roundtrip(self, tmp_path):
        mask = np.array([[True, False], [False, True]])
        write_mask(mask, tmp_path / "m.pgm")
        assert np.array_equal(read_mask(tmp_path / "m.pgm"), mask)


class TestFlo:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        # float32-representable payload
        data = rng.standard_normal((2, 6, 5)).astype(np.float32).astype(float)
        flow = FlowField(data)
        path = tmp_path / "f.flo"
        write_flo(flow, path)
        back = read_flo(path)
        assert np.array_equal(back.data, flow.data)
        write_flo(back, tmp_path / "g.flo")
        assert file_bytes(path) == file_bytes(tmp_path / "g.flo")

    def test_header_layout(self, tmp_path):
        flow = FlowField(np.zeros((2, 2, 3)))
        path = tmp_path / "f.flo"
        write_flo(flow, path)
        blob = file_bytes(path)
        assert np.frombuffer(blob[:4], dtype="<f4")[0] == np.float32(202021.25)
        assert np.frombuffer(blob[4:12], dtype="<i4").tolist() == [3, 2]
        assert len(blob) == 12 + 8 * 6

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.flo"
        path.write_bytes(b"\x00\x00\x00\x00" + b"\x01\x00\x00\x00" * 2 + b"\x00" * 8)
        with pytest.raises(DataError):
            read_flo(path)

    def test_size_mismatch_rejected(self, tmp_path):
        flow = FlowField(np.zeros((2, 2, 2)))
        path = tmp_path / "f.flo"
        write_flo(flow, path)
        path.write_bytes(file_bytes(path)[:-4])
        with pytest.raises(DataError):
            read_flo(path)


class TestContainer:
    def test_score_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        scores = ScoreMap(rng.standard_normal((4, 5, 6)).astype(np.float32).astype(float))
        path = tmp_path / "s.bin"
        write_scores(scores, path)
        back = read_scores(path)
        assert np.array_equal(back.data, scores.data)
        write_scores(back, tmp_path / "s2.bin")
        assert file_bytes(path) == file_bytes(tmp_path / "s2.bin")

    def test_label_roundtrip(self, tmp_path):
        labels = LabelMap(np.arange(20).reshape(4, 5) % 6, 6)
        path = tmp_path / "l.bin"
        write_labels(labels, path)
        back = read_labels(path)
        assert np.array_equal(back.data, labels.data)
        assert back.num_classes == 6

    def test_kind_dispatch(self, tmp_path):
        write_labels(LabelMap(np.zeros((2, 2), dtype=int), 3), tmp_path / "l.bin")
        assert isinstance(read_container(tmp_path / "l.bin"), LabelMap)
        with pytest.raises(DataError):
            read_scores(tmp_path / "l.bin")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
        with pytest.raises(DataError):
            read_container(path)

    def test_payload_size_checked(self, tmp_path):
        path = tmp_path / "s.bin"
        write_scores(ScoreMap(np.zeros((2, 3, 3))), path)
        path.write_bytes(file_bytes(path)[:-4])
        with pytest.raises(DataError):
            read_container(path)
