"""Dense optical flow on a synthetic pan.

Renders a textured scene that drifts 3 px/frame to the right, streams it
through a FlowEstimator for the backward flow between consecutive frames,
and compares that against the ground-truth displacement the renderer knows
exactly.
"""

import numpy as np

from mcma import (FlowEstimator, SceneObject, SceneSpec, downscale_frame,
                  generate, motion_in_input_pixels, resize_flow)

spec = SceneSpec(width=256, height=192, num_classes=2, frames=6, seed=1,
                 global_velocity=(3, 0),
                 objects=[SceneObject("disk", 1, (200, 60, 60), (90, 96),
                                      radius=28)])
seq = generate(spec)

print("frame-to-frame backward flow (ground truth is u=-3, v=0):")
estimator = FlowEstimator()
estimator.push(seq[0][0])  # the first frame has no flow
for j in range(1, len(seq)):
    curr = seq[j][0]
    flow = estimator.push(curr)
    m = 16  # skip the border band the pan sweeps in
    u = flow.u[m:-m, m:-m].mean()
    v = flow.v[m:-m, m:-m].mean()
    mag = motion_in_input_pixels(flow, curr.height, curr.width)
    print(f"  frame {j}: mean u={u:+.3f}  mean v={v:+.3f}  "
          f"mean |flow|={mag:.3f}")

# the first pair's estimate at quarter resolution, from a fresh estimator,
# rescaled back to input pixels
prev, curr = seq[0][0], seq[1][0]
quarter = FlowEstimator()
quarter.push(downscale_frame(prev, 0.25))
qflow = quarter.push(downscale_frame(curr, 0.25))
up = resize_flow(qflow, prev.height, prev.width)
print(f"\nquarter-scale estimate, upsampled: mean u={up.u[16:-16, 16:-16].mean():+.3f} "
      "(magnitudes are rescaled to input pixels)")

epe = np.hypot(up.u[16:-16, 16:-16] + 3.0, up.v[16:-16, 16:-16])
print(f"interior endpoint error at quarter scale: {epe.mean():.3f} px")
