"""Encoder/decoder pair with a fixed fusion point.

Two implementations share one interface: an analytic, training-free
reference model (per-class color prototypes, every behaviour has a closed
form) and a feature-files model that replays externally exported "MCFE"
files so real networks can be plugged in offline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import FeatureMap, Frame, SegmentationMask, read_features
from .resample import area_mean, bilinear, half_pixel


@dataclass(frozen=True)
class Prototype:
    class_id: int
    color: tuple  # (r, g, b)


@dataclass
class ModelSpec:
    kind: str = "reference"
    num_classes: int = 2
    feature_stride: int = 4
    prototypes: Sequence[Prototype] = field(default_factory=tuple)
    noise_std: float = 0.0
    noise_seed: int = 0
    feature_dir: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("reference", "feature-files"):
            raise ValueError("kind must be 'reference' or 'feature-files'")
        if not 2 <= self.num_classes <= 256:
            # decode writes uint8 labels
            raise ValueError("num_classes must be in [2, 256]")
        if self.feature_stride < 1:
            raise ValueError("feature_stride must be positive")
        if self.kind == "reference":
            if len(self.prototypes) != self.num_classes:
                raise ValueError("prototype count must equal num_classes")
            ids = sorted(p.class_id for p in self.prototypes)
            if ids != list(range(self.num_classes)):
                raise ValueError("prototypes must cover classes 0..L-1")
        elif self.feature_dir is None:
            raise ValueError("feature-files model needs feature_dir")


def feature_file_path(feature_dir: str, frame_index: int) -> str:
    return os.path.join(feature_dir, f"{frame_index:06d}.mcfe")


def encode(frame: Frame, spec: ModelSpec) -> FeatureMap:
    """E(x): frame to (num_classes, H/stride, W/stride) features."""
    if spec.kind == "feature-files":
        path = feature_file_path(spec.feature_dir, frame.index)
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing feature file {path}")
        return read_features(path)

    small = area_mean(frame.data, spec.feature_stride)

    chans = np.empty((spec.num_classes,) + small.shape[:2], np.float64)
    for proto in spec.prototypes:
        color = np.asarray(proto.color, np.float64)
        dist = np.sum((small - color) ** 2, axis=2)  # gray broadcasts
        chans[proto.class_id] = -dist / 255.0 ** 2
    if spec.noise_std > 0.0:
        rng = np.random.default_rng([spec.noise_seed, frame.index])
        chans = chans + rng.normal(0.0, spec.noise_std, chans.shape)
    return FeatureMap(chans.astype(np.float32))


def decode(features: FeatureMap, spec: ModelSpec) -> SegmentationMask:
    """D(f): half-pixel bilinear upsample of per-class scores to full
    resolution, then argmax. Ties resolve to the lowest class index."""
    if features.channels != spec.num_classes:
        raise ValueError("feature channel count must equal num_classes")
    h, w = features.height, features.width
    stride = spec.feature_stride
    scores = bilinear(features.data, h * stride, w * stride, half_pixel)
    labels = np.argmax(scores, axis=0).astype(np.uint8)
    return SegmentationMask(labels)
