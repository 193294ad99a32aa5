"""Flow-guided bilinear warping of feature maps.

Gather-style backward warping: output(p) samples the input at p + lambda *
flow(p). Coordinates are clamped to the border before interpolation, so
warped values are always convex combinations of stored values and zero flow
(or lambda = 0) reproduces the input bit-exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FeatureMap, FlowField, check_real
from .resample import gather


def warp_features(features: FeatureMap, flow: FlowField,
                  lam: float) -> FeatureMap:
    """Sample the features at p + lam * flow(p) for every pixel p."""
    check_real("lam", lam)
    if not 0.0 <= lam < math.inf:
        raise ValueError("lam (lambda) must be finite and nonnegative")
    if (flow.height, flow.width) != (features.height, features.width):
        raise ValueError("flow dimensions must match feature dimensions")
    x = np.arange(features.width) + lam * flow.u.astype(np.float64)
    y = np.arange(features.height)[:, None] + lam * flow.v.astype(np.float64)
    return FeatureMap(gather(features.data, x, y))
