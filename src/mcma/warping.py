"""Flow-guided bilinear warping of feature maps.

Gather-style backward warping: output(p) samples the input at p + lambda *
flow(p). Coordinates are clamped to the border before interpolation, so
warped values are always convex combinations of stored values and zero flow
(or lambda = 0) reproduces the input bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .core import FeatureMap, FlowField


def _gather(data: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sample (c, h, w) data at real-valued coordinate arrays, clamped."""
    _, h, w = data.shape
    x = np.clip(x, 0.0, w - 1.0)
    y = np.clip(y, 0.0, h - 1.0)
    x0 = np.floor(x).astype(np.intp)
    y0 = np.floor(y).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (x - x0).astype(data.dtype)
    fy = (y - y0).astype(data.dtype)

    top = data[:, y0, x0]
    top = top + fx * (data[:, y0, x1] - top)
    bot = data[:, y1, x0]
    bot = bot + fx * (data[:, y1, x1] - bot)
    return top + fy * (bot - top)


def warp_features(features: FeatureMap, flow: FlowField,
                  lam: float) -> FeatureMap:
    """Sample the features at p + lam * flow(p) for every pixel p."""
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    if (flow.height, flow.width) != (features.height, features.width):
        raise ValueError("flow dimensions must match feature dimensions")
    h, w = features.height, features.width
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    x = xx + lam * flow.u.astype(np.float64)
    y = yy + lam * flow.v.astype(np.float64)
    return FeatureMap(_gather(features.data, x, y))
