"""Feature warping and the motion-corrected moving average.

Shows the core recurrence on a two-frame toy example: encode both frames,
warp the previous feature state along the backward flow, then blend it with
the current features. With alpha = 1 the history is discarded entirely; with
lambda = 0 the warp is the identity and the average degrades to a plain EMA.
"""

import numpy as np

from mcma import FeatureMap, FlowField, ema_fuse, warp_features

# a tiny feature map with a single bright activation
data = np.zeros((1, 6, 8), np.float32)
data[0, 2, 2] = 1.0
features = FeatureMap(data)

# backward flow u = +2: every output pixel samples two columns to its right,
# so the activation appears two columns to the LEFT after warping
flow = FlowField(np.full((6, 8), 2.0, np.float32),
                 np.zeros((6, 8), np.float32))

warped = warp_features(features, flow, lam=1.0)
print("original activation at (row 2, col 2):")
print(features.data[0].astype(int))
print("\nwarped along backward flow u=+2 (activation moves to col 0):")
print(warped.data[0].astype(int))

# lambda scales the flow before sampling; lambda = 0 is a bit-exact identity
identity = warp_features(features, flow, lam=0.0)
print("\nlambda = 0 reproduces the input bit-exactly:",
      np.array_equal(identity.data, features.data))

# the fusion step is a convex blend of current features and warped state
current = FeatureMap(np.full((1, 6, 8), 0.5, np.float32))
fused = ema_fuse(current, warped, alpha=0.25)
print("\nfused = 0.25*current + 0.75*warped; value at (2, 0):",
      fused.data[0, 2, 0])
print("alpha = 1 returns the current features unchanged:",
      np.array_equal(ema_fuse(current, warped, alpha=1.0).data, current.data))
