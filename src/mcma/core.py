"""Core containers and binary file formats shared by all pipeline stages.

Images travel as binary PPM (P6) / PGM (P5) with maxval 255. Flow fields and
feature maps use the fixed little-endian "MCFL" / "MCFE" formats so files are
byte-identical across hosts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

FLOW_MAGIC = b"MCFL"
FEATURE_MAGIC = b"MCFE"


class FormatError(ValueError):
    """Raised for malformed or truncated binary files."""


@dataclass(frozen=True)
class Frame:
    """A single video frame, uint8, shape (height, width, channels)."""

    data: np.ndarray
    index: int = 0

    def __post_init__(self):
        d = np.ascontiguousarray(self.data)
        if d.dtype != np.uint8:
            raise ValueError("frame data must be uint8")
        if d.ndim != 3 or d.shape[2] not in (1, 3):
            raise ValueError("frame data must be (h, w, c) with c in {1, 3}")
        if d.shape[0] < 2 or d.shape[1] < 2:
            raise ValueError("frame must be at least 2x2")
        if self.index < 0:
            raise ValueError("frame index must be nonnegative")
        object.__setattr__(self, "data", d)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class FeatureMap:
    """Encoder output, float32, channel-major shape (channels, height, width)."""

    data: np.ndarray

    def __post_init__(self):
        d = np.ascontiguousarray(self.data, dtype=np.float32)
        if d.ndim != 3:
            raise ValueError("feature data must be (c, h, w)")
        if not np.all(np.isfinite(d)):
            raise ValueError("feature data must be finite")
        object.__setattr__(self, "data", d)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class FlowField:
    """Per-pixel 2-D displacement; u is horizontal, v vertical, in pixels of
    the field's own grid."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(self.u, dtype=np.float32)
        v = np.ascontiguousarray(self.v, dtype=np.float32)
        if u.ndim != 2 or u.shape != v.shape:
            raise ValueError("u and v must be 2-D arrays of identical shape")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("flow must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def height(self) -> int:
        return self.u.shape[0]

    @property
    def width(self) -> int:
        return self.u.shape[1]

    @classmethod
    def zeros(cls, height: int, width: int) -> "FlowField":
        return cls(np.zeros((height, width), np.float32),
                   np.zeros((height, width), np.float32))


@dataclass(frozen=True)
class SegmentationMask:
    """Per-pixel class indices 0..255 at full input resolution."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.ascontiguousarray(self.labels)
        if lab.dtype != np.uint8:
            if not np.issubdtype(lab.dtype, np.integer):
                raise ValueError("labels must have an integer dtype")
            if lab.size and (lab.min() < 0 or lab.max() > 255):
                raise ValueError("labels must be in 0..255")
            lab = lab.astype(np.uint8)
        if lab.ndim != 2:
            raise ValueError("labels must be 2-D")
        object.__setattr__(self, "labels", lab)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


FLOW_SCALES = (1.0, 0.5, 0.25)


@dataclass
class PipelineConfig:
    """Run-level knobs: EMA weight, flow scaling, executor and mode."""

    alpha: float = 0.1
    lam: float = 2.0
    flow_scale: float = 1.0
    # not read: the class count is the channel count of the model's features
    num_classes: int = 2
    executor: str = "sequential"
    mode: str = "mcma"

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.lam < 0.0:
            raise ValueError("lambda must be nonnegative")
        if self.flow_scale not in FLOW_SCALES:
            raise ValueError("flow_scale must be one of 1, 1/2, 1/4")
        if self.executor not in ("sequential", "parallel"):
            raise ValueError("executor must be 'sequential' or 'parallel'")
        if self.mode not in ("baseline", "ema", "mcma"):
            raise ValueError("mode must be baseline, ema or mcma")


# ---------------------------------------------------------------------------
# PPM / PGM

def _read_pnm_tokens(buf: bytes, count: int):
    """Read `count` whitespace-separated header tokens, skipping # comments.
    Returns (tokens, offset of the payload)."""
    tokens = []
    i = 0
    n = len(buf)
    while len(tokens) < count:
        while i < n and buf[i:i + 1].isspace():
            i += 1
        if i < n and buf[i:i + 1] == b"#":
            while i < n and buf[i:i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and not buf[i:i + 1].isspace():
            i += 1
        if i == start:
            raise FormatError("truncated PNM header")
        tokens.append(buf[start:i])
    # exactly one whitespace byte separates header from payload
    if i >= n or not buf[i:i + 1].isspace():
        raise FormatError("truncated PNM header")
    return tokens, i + 1


def _parse_file(path, parse, *args):
    """``parse(buf, *args)`` over the file's bytes; a FormatError it raises
    is raised again naming the file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return parse(buf, *args)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_frame(path, index: int = 0) -> Frame:
    """Read a binary PPM (P6, RGB) or PGM (P5, gray) file."""
    return _parse_file(path, _parse_pnm, index)


def _parse_pnm(buf: bytes, index: int) -> Frame:
    tokens, off = _read_pnm_tokens(buf, 4)
    magic = tokens[0]
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise FormatError(f"unsupported PNM magic {magic!r}")
    if not all(t.isdigit() for t in tokens[1:]):  # int() also takes 1_0, +2
        raise FormatError("malformed PNM header")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width < 2 or height < 2:
        raise FormatError("malformed header: degenerate dimensions")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}")
    expected = width * height * channels
    payload = buf[off:off + expected]
    if len(payload) != expected:
        raise FormatError("truncated PNM payload")
    data = np.frombuffer(payload, np.uint8).reshape(height, width, channels)
    return Frame(data.copy(), index=index)


def write_frame(frame: Frame, path) -> None:
    magic = b"P6" if frame.channels == 3 else b"P5"
    header = b"%s\n%d %d\n255\n" % (magic, frame.width, frame.height)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frame.data.tobytes())


def read_mask(path) -> SegmentationMask:
    """Masks are stored as PGM with the label index as gray value."""
    frame = read_frame(path)
    if frame.channels != 1:
        raise FormatError(f"{path}: mask files must be single-channel PGM")
    return SegmentationMask(frame.data[:, :, 0].copy())


def write_mask(mask: SegmentationMask, path) -> None:
    write_frame(Frame(mask.labels[:, :, None].copy()), path)


# ---------------------------------------------------------------------------
# MCFL / MCFE

def write_flow(flow: FlowField, path) -> None:
    with open(path, "wb") as fh:
        fh.write(FLOW_MAGIC)
        fh.write(struct.pack("<II", flow.width, flow.height))
        uv = np.empty((flow.height, flow.width, 2), dtype="<f4")
        uv[:, :, 0] = flow.u
        uv[:, :, 1] = flow.v
        fh.write(uv.tobytes())


def read_flow(path) -> FlowField:
    return _parse_file(path, _parse_flow)


def _parse_flow(buf: bytes) -> FlowField:
    if buf[:4] != FLOW_MAGIC:
        raise FormatError("bad magic for flow file")
    if len(buf) < 12:
        raise FormatError("truncated flow header")
    width, height = struct.unpack("<II", buf[4:12])
    if width == 0 or height == 0:
        raise FormatError("flow file has a zero dimension")
    expected = 12 + width * height * 8
    if len(buf) != expected:
        raise FormatError("flow payload size mismatch")
    uv = np.frombuffer(buf[12:], dtype="<f4").reshape(height, width, 2)
    if not np.all(np.isfinite(uv)):
        raise FormatError("flow file contains non-finite values")
    return FlowField(uv[:, :, 0].astype(np.float32),
                     uv[:, :, 1].astype(np.float32))


def write_features(features: FeatureMap, path) -> None:
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", features.channels, features.height,
                             features.width))
        fh.write(features.data.astype("<f4").tobytes())


def read_features(path) -> FeatureMap:
    return _parse_file(path, _parse_features)


def _parse_features(buf: bytes) -> FeatureMap:
    if buf[:4] != FEATURE_MAGIC:
        raise FormatError("bad magic for feature file")
    if len(buf) < 16:
        raise FormatError("truncated feature header")
    channels, height, width = struct.unpack("<III", buf[4:16])
    if 0 in (channels, height, width):
        raise FormatError("feature file has a zero dimension")
    expected = 16 + channels * height * width * 4
    if len(buf) != expected:
        raise FormatError("feature payload size mismatch")
    data = np.frombuffer(buf[16:], dtype="<f4").reshape(channels, height, width)
    if not np.all(np.isfinite(data)):
        raise FormatError("feature file contains non-finite values")
    return FeatureMap(data.astype(np.float32))
