"""Encoder/decoder pair with a fixed fusion point.

Two implementations share one interface: an analytic, training-free
reference model (per-class color prototypes, every behaviour has a closed
form) and a feature-files model that replays externally exported "MCFE"
files so real networks can be plugged in offline.

The class count is the features' channel count: the number of prototypes
for the reference model, the files' channel count for feature files.

The model runs on NumPy alone: decode's 3 x 3 boundary test takes its
neighbourhood min and max by slices, so importing the package does not
load scipy, which only the flow solve needs (``mcma.flow``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (FeatureMap, Frame, SegmentationMask, check_class_count,
                   check_color, check_integer, read_features)
from .resample import area_mean, gather, half_pixel

_FLT_MAX = float(np.finfo(np.float32).max)
# scores evaluated per chunk of boundary blocks, which bounds their memory
_CHUNK = 1 << 18


@dataclass(frozen=True)
class ModelSpec:
    """``prototypes[k]`` is the (r, g, b) color of class k, integer
    components in 0..255, kept as a tuple of tuples. A spec with
    ``feature_dir`` replays MCFE files instead; give exactly one of them."""

    prototypes: Tuple[Tuple[int, int, int], ...] = ()
    feature_stride: int = 4
    feature_dir: Optional[str] = None

    def __post_init__(self):
        check_integer("feature_stride", self.feature_stride)
        if self.feature_stride < 1:
            raise ValueError("feature_stride must be positive")
        if (self.feature_dir is None) == (len(self.prototypes) == 0):
            raise ValueError("give either prototypes or feature_dir")
        if self.feature_dir is None:
            check_class_count(len(self.prototypes))
            for color in self.prototypes:
                check_color("prototypes", color)
        object.__setattr__(self, "prototypes",
                           tuple(tuple(color) for color in self.prototypes))


def feature_file_path(feature_dir: str, frame_index: int) -> str:
    return os.path.join(feature_dir, f"{frame_index:06d}.mcfe")


def encode(frame: Frame, spec: ModelSpec) -> FeatureMap:
    """E(x): frame to (classes, H/stride, W/stride) features. The frame's
    sides must be multiples of the stride, and a feature file must hold
    exactly that grid."""
    stride = spec.feature_stride
    if frame.height % stride or frame.width % stride:
        raise ValueError(f"frame {frame.index}: {frame.width}x{frame.height} "
                         f"is not a multiple of the stride {stride}")
    if spec.feature_dir is not None:
        path = feature_file_path(spec.feature_dir, frame.index)
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing feature file {path}")
        feats = read_features(path)
        grid = (frame.height // stride, frame.width // stride)
        if (feats.height, feats.width) != grid:
            raise ValueError(
                f"frame {frame.index}: {path} holds {feats.width}x"
                f"{feats.height} features, but a {frame.width}x"
                f"{frame.height} frame at stride {stride} needs "
                f"{grid[1]}x{grid[0]}")
        return feats

    planes = np.moveaxis(area_mean(frame.data, stride), 2, 0)

    chans = np.empty((len(spec.prototypes),) + planes.shape[1:], np.float64)
    for k, color in enumerate(spec.prototypes):
        dist = np.zeros(planes.shape[1:])
        for i, value in enumerate(np.asarray(color, np.float64)):
            # a gray frame's one plane stands for every component
            dist += (planes[i % len(planes)] - value) ** 2
        chans[k] = -dist / 255.0 ** 2
    return FeatureMap(chans.astype(np.float32))


def decode(features: FeatureMap, spec: ModelSpec) -> SegmentationMask:
    """D(f): half-pixel bilinear upsample of per-class scores to full
    resolution, then argmax. Ties resolve to the lowest class index.

    The labels equal ``argmax(bilinear(f, h * s, w * s))`` bit for bit,
    but the (classes, h * s, w * s) score stack is never built.
    A running max over channels gives each feature cell its top class k
    and its gap g, the top score minus the runner-up. Every pixel of cell
    (i, j)'s s x s output block interpolates cells of the clamped 3 x 3
    neighbourhood of (i, j) only. If all nine have top class k and
    g > delta, the block is labelled k. Every other block is sampled pixel
    by pixel with ``resample.gather``, whose float32 lerps run in
    ``bilinear``'s order, rows then columns, so it rounds exactly as the
    full upsample does. Stride 1 is the argmax at feature resolution.

    The margin. Let M = max |score|, u = 2**-24 and eta = 2**-149 (the
    smallest subnormal). A float32 product is within u |x| + eta / 2 of
    its exact value x; a sum or difference has no absolute term. So one
    lerp a + f (b - a), with f in [0, 1] and |a|, |b| <= A, is within
    (5u + 7u^2) A + eta of the exact (1 - f) a + f b. The row stage has
    A = M, and the column stage has A = M (1 + 5u + 7u^2) + eta and adds
    its own error to the rows' errors, which its convex combination does
    not grow. Each upsampled score is then within
    eps = (10u + 40u^2) M + 3 eta of the exact bilinear value. For k and
    any other class c, the exact values differ by a convex combination of
    the taps' gaps, which is above delta; with delta = 2 eps, rounded up
    to float32, the float32 score of k stays strictly above c's. g is
    compared in float32: rounding is monotone, so a rounded gap above
    delta means an exact one above it. The bound needs every intermediate
    finite. The column stage subtracts rows that can exceed M by a
    rounding, so if M > FLT_MAX / 4, every block is a boundary block.
    """
    check_class_count(features.channels)
    data = features.data
    label, top, second = _top_two(data)
    stride = spec.feature_stride
    if stride == 1:
        return SegmentationMask(label)
    h, w = label.shape
    labels = label.repeat(stride, axis=1).repeat(stride, axis=0)

    m = max(top.max(), -data.min())
    if m <= _FLT_MAX / 4:
        key = label.astype(np.int16)
        key[top - second <= _margin(m)] = -1
        low, high = _min_max_3x3(key)
        boundary = (low != high) | (low < 0)
    else:
        boundary = np.ones((h, w), bool)
    _decode_blocks(data, labels.reshape(h, stride, w, stride),
                   *np.nonzero(boundary))
    return SegmentationMask(labels)


def _margin(m) -> np.float32:
    """delta = 2 eps = (20u + 80u^2) M + 6 eta, rounded up to float32."""
    u, eta = 2.0 ** -24, 2.0 ** -149
    delta = (20 * u + 80 * u * u) * float(m) + 6 * eta
    return np.nextafter(np.float32(delta), np.float32(np.inf))


def _min_max_3x3(key: np.ndarray):
    """The min and the max of each cell's 3 x 3 neighbourhood, edges
    replicated (ndimage's ``nearest`` mode): one pass of three slices per
    axis over a copy padded by one cell."""
    pad = np.pad(key, 1, mode="edge")
    result = []
    for reduce in (np.minimum, np.maximum):
        rows = reduce(reduce(pad[:-2], pad[1:-1]), pad[2:])
        result.append(reduce(reduce(rows[:, :-2], rows[:, 1:-1]),
                             rows[:, 2:]))
    return result


def _top_two(data: np.ndarray):
    """Per cell: the top class (lowest index on ties), its score and the
    runner-up's score, by a running max over channels."""
    top = data[0].copy()
    second = np.full_like(top, -np.inf)
    label = np.zeros(top.shape, np.uint8)
    higher = np.empty(top.shape, bool)
    lower = np.empty_like(top)
    for k in range(1, len(data)):
        np.greater(data[k], top, out=higher)
        np.copyto(label, k, where=higher)
        np.minimum(top, data[k], out=lower)
        np.maximum(second, lower, out=second)
        np.maximum(top, data[k], out=top)
    return label, top, second


def _decode_blocks(data, blocks, rows, cols) -> None:
    """Label the (h, s, w, s) blocks of feature cells (rows, cols) pixel by
    pixel: ``gather`` at their half-pixel positions, then argmax."""
    c, h, w = data.shape
    stride = blocks.shape[1]
    pos_y, pos_x = half_pixel(h * stride, h), half_pixel(w * stride, w)
    offsets = np.arange(stride)
    step = max(1, _CHUNK // (c * stride * stride))
    for start in range(0, len(rows), step):
        r, q = rows[start:start + step], cols[start:start + step]
        y = pos_y[(r[:, None] * stride + offsets)[:, :, None]]
        x = pos_x[(q[:, None] * stride + offsets)[:, None, :]]
        blocks[r, :, q] = np.argmax(gather(data, x, y), axis=0)
