import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcma import (FeatureMap, FlowField, FormatError, Frame, PipelineConfig,
                  SegmentationMask, read_features, read_flow, read_frame,
                  read_mask, write_features, write_flow, write_frame,
                  write_mask)


class TestFrame:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((1, 4, 1), np.uint8))
        with pytest.raises(ValueError):
            Frame(np.zeros((4, 4, 2), np.uint8))
        with pytest.raises(ValueError):
            Frame(np.zeros((4, 4, 3), np.float32))

    def test_shape_accessors(self):
        f = Frame(np.zeros((5, 7, 3), np.uint8))
        assert (f.height, f.width, f.channels) == (5, 7, 3)


class TestPnm:
    def test_pgm_direct_byte_mapping(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
        frame = read_frame(path)
        assert (frame.width, frame.height, frame.channels) == (2, 2, 1)
        assert frame.data.ravel().tolist() == [0, 64, 128, 255]

    def test_ppm_working_resolution(self, tmp_path):
        frame = Frame(np.random.default_rng(0).integers(
            0, 256, (512, 640, 3), dtype=np.uint8).astype(np.uint8))
        path = tmp_path / "t.ppm"
        write_frame(frame, path)
        back = read_frame(path)
        assert (back.width, back.height, back.channels) == (640, 512, 3)
        assert np.array_equal(back.data, frame.data)

    def test_degenerate_dims_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n0 0\n255\n")
        with pytest.raises(FormatError):
            read_frame(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError):
            read_frame(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
        with pytest.raises(FormatError):
            read_frame(path)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes(4))
        assert read_frame(path).width == 2

    def test_mask_round_trip(self, tmp_path):
        mask = SegmentationMask(np.array([[0, 1], [2, 3]], np.uint8))
        path = tmp_path / "m.pgm"
        write_mask(mask, path)
        assert np.array_equal(read_mask(path).labels, mask.labels)


class TestSegmentationMask:
    def test_integer_labels_in_range_kept(self):
        mask = SegmentationMask(np.array([[0, 255], [3, 44]], np.int64))
        assert mask.labels.dtype == np.uint8
        assert mask.labels.tolist() == [[0, 255], [3, 44]]

    @pytest.mark.parametrize("labels", [
        np.array([[256, -1], [3, 300]]), np.array([[0, -1]]),
        np.array([[0.0, 1.7]]), np.array([[True, False]]),
    ])
    def test_rejects_bad_labels(self, labels):
        with pytest.raises(ValueError):
            SegmentationMask(labels)


class TestFlowFile:
    def test_single_record_round_trip(self, tmp_path):
        flow = FlowField(np.array([[1.5, 1.5]], np.float32),
                        np.array([[-2.0, -2.0]], np.float32))
        path = tmp_path / "f.mcfl"
        write_flow(flow, path)
        back = read_flow(path)
        assert np.array_equal(back.u, flow.u)
        assert np.array_equal(back.v, flow.v)

    def test_file_size(self, tmp_path):
        # magic (4) + two u32 dims (8) + h*w records of two f32 (8 each)
        flow = FlowField.zeros(4, 4)
        path = tmp_path / "z.mcfl"
        write_flow(flow, path)
        assert path.stat().st_size == 4 + 8 + 4 * 4 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.mcfl"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(FormatError):
            read_flow(path)

    def test_size_mismatch(self, tmp_path):
        flow = FlowField.zeros(3, 3)
        path = tmp_path / "f.mcfl"
        write_flow(flow, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            read_flow(path)

    def test_byte_layout_fixed(self, tmp_path):
        # endianness is pinned: identical input yields identical bytes
        flow = FlowField(np.array([[1.5]], np.float32),
                        np.array([[-2.0]], np.float32))
        path = tmp_path / "f.mcfl"
        write_flow(flow, path)
        expected = (b"MCFL" + (1).to_bytes(4, "little") * 2
                    + np.array([1.5, -2.0], "<f4").tobytes())
        assert path.read_bytes() == expected


class TestFeatureFile:
    def test_minimal_round_trip(self, tmp_path):
        fm = FeatureMap(np.array([[[0.5]]], np.float32))
        path = tmp_path / "f.mcfe"
        write_features(fm, path)
        assert path.stat().st_size == 20
        assert np.array_equal(read_features(path).data, fm.data)

    def test_header_and_payload_size(self, tmp_path):
        fm = FeatureMap(np.arange(12, dtype=np.float32).reshape(3, 2, 2))
        path = tmp_path / "f.mcfe"
        write_features(fm, path)
        raw = path.read_bytes()
        assert raw[4:16] == b"".join(n.to_bytes(4, "little") for n in (3, 2, 2))
        assert len(raw) - 16 == 48

    def test_truncated_payload(self, tmp_path):
        fm = FeatureMap(np.zeros((2, 2, 2), np.float32))
        path = tmp_path / "f.mcfe"
        write_features(fm, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            read_features(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "f.mcfe"
        payload = np.array([np.nan], "<f4").tobytes()
        path.write_bytes(b"MCFE"
                         + b"".join(n.to_bytes(4, "little") for n in (1, 1, 1))
                         + payload)
        with pytest.raises(FormatError):
            read_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.mcfe"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(FormatError):
            read_features(path)


@given(c=st.integers(1, 6), h=st.integers(2, 9), w=st.integers(2, 9),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_serialization_round_trip_property(tmp_path_factory, c, h, w, seed):
    rng = np.random.default_rng(seed)
    base = tmp_path_factory.mktemp("roundtrip")
    flow = FlowField(rng.normal(0, 10, (h, w)).astype(np.float32),
                     rng.normal(0, 10, (h, w)).astype(np.float32))
    write_flow(flow, base / "f.mcfl")
    back = read_flow(base / "f.mcfl")
    assert np.array_equal(back.u, flow.u) and np.array_equal(back.v, flow.v)

    fm = FeatureMap(rng.normal(0, 5, (c, h, w)).astype(np.float32))
    write_features(fm, base / "f.mcfe")
    assert np.array_equal(read_features(base / "f.mcfe").data, fm.data)


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.lam == 2.0

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": 1.5}, {"lam": -1.0},
        {"flow_scale": 0.3}, {"executor": "gpu"}, {"mode": "magic"},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)
