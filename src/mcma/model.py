"""Encoder/decoder pair with a fixed fusion point.

Two implementations share one interface: an analytic, training-free
reference model (per-class color prototypes, every behaviour has a closed
form) and a feature-files model that replays externally exported "MCFE"
files so real networks can be plugged in offline.

The class count is the features' channel count: the number of prototypes
for the reference model, the files' channel count for feature files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import FeatureMap, Frame, SegmentationMask, read_features
from .resample import area_mean, bilinear, half_pixel


def _check_class_count(count: int) -> None:
    if not 2 <= count <= 256:
        # decode writes uint8 labels
        raise ValueError(f"class count must be in [2, 256], got {count}")


@dataclass
class ModelSpec:
    """``prototypes[k]`` is the (r, g, b) color of class k. A spec with
    ``feature_dir`` replays MCFE files instead; give exactly one of them."""

    prototypes: Sequence[tuple] = ()
    feature_stride: int = 4
    feature_dir: Optional[str] = None

    def __post_init__(self):
        if self.feature_stride < 1:
            raise ValueError("feature_stride must be positive")
        if (self.feature_dir is None) == (len(self.prototypes) == 0):
            raise ValueError("give either prototypes or feature_dir")
        if self.feature_dir is None:
            _check_class_count(len(self.prototypes))


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

    small = area_mean(frame.data, stride)

    chans = np.empty((len(spec.prototypes),) + small.shape[:2], np.float64)
    for k, color in enumerate(spec.prototypes):
        color = np.asarray(color, np.float64)
        dist = np.sum((small - color) ** 2, axis=2)  # gray broadcasts
        chans[k] = -dist / 255.0 ** 2
    return FeatureMap(chans.astype(np.float32))


def decode(features: FeatureMap, spec: ModelSpec) -> SegmentationMask:
    """D(f): half-pixel bilinear upsample of per-class scores to full
    resolution, then argmax. Ties resolve to the lowest class index."""
    _check_class_count(features.channels)
    h, w = features.height, features.width
    stride = spec.feature_stride
    scores = bilinear(features.data, h * stride, w * stride, half_pixel)
    labels = np.argmax(scores, axis=0).astype(np.uint8)
    return SegmentationMask(labels)
