import math
import re

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


@pytest.mark.parametrize("make, message", [
    (lambda: Frame(np.zeros((2, 2, 1), np.uint8), index=-1),
     "frame index must be nonnegative"),
    (lambda: Frame(np.zeros((2, 2, 1), np.uint8), index=1.5),
     "frame index must be an integer"),
    (lambda: FeatureMap(np.zeros((2, 2))), r"feature data must be \(c, h, w\)"),
    (lambda: FeatureMap(np.full((1, 2, 2), np.nan)),
     "feature data must be finite"),
    (lambda: FlowField(np.zeros((2, 2)), np.zeros((2, 3))),
     "u and v must be 2-D arrays of identical shape"),
    (lambda: FlowField(np.zeros((2, 2)), np.full((2, 2), np.nan)),
     "flow must be finite"),
    (lambda: SegmentationMask(np.zeros((2, 2, 1), np.uint8)),
     "labels must be 2-D"),
], ids=["frame-index", "frame-index-float", "features-2d", "features-nan",
        "flow-shapes", "flow-nan", "mask-3d"])
def test_containers_reject_bad_data(make, message):
    with pytest.raises(ValueError, match=f"^{message}$") as err:
        make()
    assert err.type is ValueError


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

    @pytest.mark.parametrize("header", [b"P5\n1_0 2\n255\n",
                                        b"P5\n+2 2\n255\n",
                                        b"P5\n2 2\n2_55\n"])
    def test_non_decimal_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + bytes(20))
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

    @pytest.mark.parametrize("width, height", [(0, 48), (48, 0), (0, 0)])
    def test_zero_dimension_rejected(self, tmp_path, width, height):
        path = tmp_path / "f.mcfl"
        path.write_bytes(b"MCFL" + _u32(width, height))
        with pytest.raises(FormatError):
            read_flow(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, value):
        path = tmp_path / "f.mcfl"
        path.write_bytes(b"MCFL" + _u32(1, 1)
                         + np.array([0.0, value], "<f4").tobytes())
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

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 0), (2, 0, 3),
                                       (2, 3, 0)])
    def test_zero_dimension_rejected(self, tmp_path, shape):
        path = tmp_path / "f.mcfe"
        path.write_bytes(b"MCFE" + _u32(*shape))
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


def _u32(*values):
    return b"".join((n % 2 ** 32).to_bytes(4, "little") for n in values)


# reader fuzzing: every input either parses into an object with no zero
# dimension or raises FormatError; no other exception may escape
_DIMS = st.one_of(st.integers(-2, 5), st.sampled_from([2 ** 31, 2 ** 32 - 1]))
_VALUES = st.sampled_from([0.0, -1.5, 3e38, np.nan, np.inf, -np.inf])


def _resize(draw, payload: bytes) -> bytes:
    """Cut or pad a payload by a few bytes."""
    delta = draw(st.one_of(st.just(0), st.integers(-9, 9)))
    return payload[:max(len(payload) + delta, 0)] + bytes(max(delta, 0))


@st.composite
def _binary_file(draw, magic, ndims, per_cell):
    """An MCFL/MCFE-shaped file: magic, u32 dimensions, float32 payload."""
    dims = [draw(_DIMS) for _ in range(ndims)]
    count = math.prod(n % 2 ** 32 for n in dims) * per_cell
    if count > 4096:  # a huge header gets a short payload
        count = draw(st.integers(0, 16))
    values = np.full(count, draw(_VALUES), "<f4")
    if count:
        values[draw(st.integers(0, count - 1))] = draw(_VALUES)
    raw = (draw(st.sampled_from([magic] * 3 + [magic.lower(), b"XXXX", b""]))
           + _u32(*dims) + _resize(draw, values.tobytes()))
    if draw(st.integers(0, 3)) == 0:
        raw = raw[:draw(st.integers(0, len(raw)))]
    return raw


@st.composite
def _pnm_file(draw):
    """A PNM-shaped file with odd tokens, comments and payload sizes."""
    magic = draw(st.sampled_from([b"P5", b"P6"] * 2 + [b"P3", b"PX", b""]))
    number = st.integers(-3, 7).map(  # 7 stands for a huge dimension
        lambda n: str(10 ** 12 if n == 7 else n).encode())
    tokens = [magic, draw(number), draw(number),
              draw(st.sampled_from([b"255", b"255", b"0", b"65535", b"x"]))]
    seps = st.sampled_from([b" ", b"\n"] * 4 + [
        b"\t", b"\r\n", b"\n# c\n", b"#c\n", b" # x 1 2\n", b"\n#", b""])
    head = b"".join(tok + draw(seps) for tok in tokens[:3]) + tokens[3]
    head += draw(st.sampled_from([b"\n"] * 4 + [b" \n", b"\n# c\n", b""]))
    try:
        count = int(tokens[1]) * int(tokens[2]) * (3 if magic == b"P6" else 1)
    except ValueError:
        count = 0
    if not 0 < count <= 4096:
        count = draw(st.integers(0, 16))
    raw = head + _resize(draw, bytes(count))
    if draw(st.integers(0, 3)) == 0:
        raw = raw[:draw(st.integers(0, len(raw)))]
    return raw


def _read_fuzzed(tmp_path_factory, raw, reader):
    path = tmp_path_factory.getbasetemp() / "fuzzed.bin"
    path.write_bytes(raw)
    try:
        return reader(path)
    except FormatError:
        return None


@given(raw=_pnm_file())
@settings(max_examples=200, deadline=None)
def test_read_frame_fuzz(tmp_path_factory, raw):
    frame = _read_fuzzed(tmp_path_factory, raw, read_frame)
    if frame is not None:
        assert min(frame.data.shape) > 0


@given(raw=_binary_file(b"MCFL", 2, 2))
@settings(max_examples=200, deadline=None)
def test_read_flow_fuzz(tmp_path_factory, raw):
    flow = _read_fuzzed(tmp_path_factory, raw, read_flow)
    if flow is not None:
        assert min(flow.u.shape) > 0


@given(raw=_binary_file(b"MCFE", 3, 1))
@settings(max_examples=200, deadline=None)
def test_read_features_fuzz(tmp_path_factory, raw):
    features = _read_fuzzed(tmp_path_factory, raw, read_features)
    if features is not None:
        assert min(features.data.shape) > 0


@pytest.mark.parametrize("reader, name, data", [
    (read_frame, "f.ppm", b"P6\n2 2\n255\n" + bytes(5)),
    (read_mask, "m.pgm", b"P6\n2 2\n255\n" + bytes(12)),
    (read_flow, "f.mcfl", b"MCFL" + bytes(4)),
    (read_features, "f.mcfe", b"MCFE" + bytes(4)),
])
def test_format_errors_name_the_file(tmp_path, reader, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
        reader(path)


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.lam == 2.0

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": 1.5}, {"lam": -1.0},
        {"flow_scale": 0.3}, {"executor": "gpu"}, {"mode": "magic"},
        {"lam": np.nan}, {"lam": np.inf},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("mode", ["baseline", "ema"])
    def test_mode_names_alpha_and_lambda(self, mode):
        # mode is kept, unread, for perfbench's "mcma" alone
        with pytest.raises(ValueError, match="alpha = 1 is the baseline "
                                             "and lam = 0 the plain EMA"):
            PipelineConfig(mode=mode)
