"""Core containers, input rules and binary file formats shared by all
pipeline stages.

Images travel as binary PPM (P6) / PGM (P5) with maxval 255. Flow fields and
feature maps use the fixed little-endian "MCFL" / "MCFE" formats so files are
byte-identical across hosts.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

FLOW_MAGIC = b"MCFL"
FEATURE_MAGIC = b"MCFE"


class FormatError(ValueError):
    """Raised for malformed or truncated binary files."""


def check_integer(name: str, value) -> None:
    """Reject a bool or a ``value`` that is not a Python or NumPy integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")


def check_real(name: str, value) -> None:
    """Reject a bool or a ``value`` that is not a real number; Python and
    NumPy integers and floats pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number")


def check_class_count(count: int, name: str = "class count") -> None:
    check_integer(name, count)
    if not 2 <= count <= 256:
        # labels are uint8
        raise ValueError(f"{name} must be in [2, 256], got {count}")


def check_color(name: str, color) -> None:
    """Reject a ``color`` that is not three integers (r, g, b) in 0..255."""
    if len(color) != 3:
        raise ValueError(f"{name} must be an (r, g, b) color")
    for c in color:
        check_integer(f"{name} component", c)
        if not 0 <= c <= 255:
            raise ValueError(f"{name} must be in 0..255")


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
        check_integer("frame index", self.index)
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


FLOW_SCALES = (1.0, 0.5, 0.25)


@dataclass(frozen=True)
class PipelineConfig:
    """Run-level knobs: EMA weight, flow weight, flow scaling and executor."""

    alpha: float = 0.1
    lam: float = 1.0
    flow_scale: float = 1.0
    # not read: the class count is the channel count of the model's features
    num_classes: int = 2
    executor: str = "sequential"
    # not read, and only "mcma" is accepted: perfbench still passes it
    mode: str = "mcma"

    def __post_init__(self):
        for name in ("alpha", "lam", "flow_scale"):
            check_real(name, getattr(self, name))
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lam (lambda) must be finite and nonnegative")
        if self.flow_scale not in FLOW_SCALES:
            raise ValueError("flow_scale must be one of 1, 1/2, 1/4")
        if self.executor not in ("sequential", "parallel"):
            raise ValueError("executor must be 'sequential' or 'parallel'")
        if self.mode != "mcma":
            raise ValueError("mode must be 'mcma': alpha = 1 is the baseline "
                             "and lam = 0 the plain EMA")


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
# MCFL / MCFE: a magic, u32 dimensions, then little-endian f32 values

def _write_f32(path, magic: bytes, dims, values: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(np.asarray(values, "<f4").tobytes())


def _parse_f32(buf: bytes, magic: bytes, kind: str, ndims: int,
               per_cell: int = 1):
    """The ``ndims`` dimensions and the flat values of a ``kind`` file,
    which holds ``per_cell`` values per cell of those dimensions."""
    if buf[:4] != magic:
        raise FormatError(f"bad magic for {kind} file")
    header = 4 + 4 * ndims
    if len(buf) < header:
        raise FormatError(f"truncated {kind} header")
    dims = struct.unpack(f"<{ndims}I", buf[4:header])
    if 0 in dims:
        raise FormatError(f"{kind} file has a zero dimension")
    if len(buf) != header + 4 * per_cell * math.prod(dims):
        raise FormatError(f"{kind} payload size mismatch")
    values = np.frombuffer(buf[header:], dtype="<f4")
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{kind} file contains non-finite values")
    return dims, values


def write_flow(flow: FlowField, path) -> None:
    _write_f32(path, FLOW_MAGIC, (flow.width, flow.height),
               np.stack((flow.u, flow.v), axis=-1))


def read_flow(path) -> FlowField:
    return _parse_file(path, _parse_flow)


def _parse_flow(buf: bytes) -> FlowField:
    (width, height), values = _parse_f32(buf, FLOW_MAGIC, "flow", 2, 2)
    uv = values.reshape(height, width, 2)
    return FlowField(uv[:, :, 0].astype(np.float32),
                     uv[:, :, 1].astype(np.float32))


def write_features(features: FeatureMap, path) -> None:
    _write_f32(path, FEATURE_MAGIC, features.data.shape, features.data)


def read_features(path) -> FeatureMap:
    return _parse_file(path, _parse_features)


def _parse_features(buf: bytes) -> FeatureMap:
    dims, values = _parse_f32(buf, FEATURE_MAGIC, "feature", 3)
    return FeatureMap(values.reshape(dims).astype(np.float32))
