"""Feature-space exponential moving average.

The fused state always holds pre-decoder features; ``pipeline.Segmenter``
warps it along the flow before each blend.
"""

from __future__ import annotations

import numpy as np

from .core import FeatureMap, check_real


def ema_fuse(curr: FeatureMap, warped_prev: FeatureMap,
             alpha: float) -> FeatureMap:
    """Elementwise convex combination alpha*curr + (1-alpha)*warped_prev.

    At alpha = 1 it returns ``curr`` itself, untouched: the per-frame
    baseline runs as this average at alpha = 1 and relies on that."""
    check_real("alpha", alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if curr.data.shape != warped_prev.data.shape:
        raise ValueError("feature shapes must match")
    if alpha == 1.0:
        return curr
    a = np.float32(alpha)
    return FeatureMap(a * curr.data + (np.float32(1.0) - a) * warped_prev.data)
