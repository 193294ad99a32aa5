"""Motion-partitioned evaluation and the alpha sweep.

Generates a noisy scene in which a disk glides across the frame while a bar
slides in from the left edge, so the moving area, and with it each frame's
mean motion, grows from frame to frame. Runs the per-frame baseline, the
plain EMA, and the motion-corrected average, and reports mIoU split at the
20% and 80% motion quantiles plus the noisy-class false-positive rate. Then
sweeps alpha to show how the advantage of motion correction shrinks as the
average gets faster.
"""

import numpy as np

from mcma import (PipelineConfig, SceneObject, SceneSpec, alpha_sweep,
                  evaluate_run, fp_rate, generate, model_spec_from_scene,
                  report_csv, run)

spec = SceneSpec(width=256, height=192, num_classes=2, frames=30, seed=3,
                 label_noise_rate=0.02,
                 objects=[SceneObject("disk", 1, (200, 60, 60), (70, 80),
                                      velocity=(4, 0), radius=28),
                          SceneObject("rectangle", 1, (200, 60, 60),
                                      (-190, 140), velocity=(4, 0),
                                      size=(200, 36))])
seq = generate(spec)
frames = [s[0] for s in seq]
gts = [s[1] for s in seq]
flows = [s[2] for s in seq]
model = model_spec_from_scene(spec)

# alpha = 1 is the per-frame baseline and lambda = 0 the plain EMA
preds = {}
for method, alpha, lam in (("baseline", 1.0, 1.0), ("ema", 0.1, 0.0),
                           ("mcma", 0.1, 1.0)):
    cfg = PipelineConfig(alpha=alpha, lam=lam, flow_scale=0.5)
    preds[method], _ = run(frames, cfg, model)

print("mIoU by motion subset:")
print(report_csv(evaluate_run(preds, gts, flows, num_classes=2)))

print("false-positive rate on the noisy class:")
for method, masks in preds.items():
    rate = np.mean([fp_rate(p, g, 1) for p, g in zip(masks[5:], gts[5:])])
    print(f"  {method:8s} {rate:.4f}")

print("\nalpha sweep (gap = mcma - ema):")
rows = alpha_sweep(frames, gts, model, lam=1.0, flow_scale=0.5,
                   alphas=[round(0.1 * k, 1) for k in range(1, 10)])
scores = {}
for alpha, method, value in rows:
    scores.setdefault(alpha, {})[method] = value
for alpha in sorted(scores):
    ema, mcma = scores[alpha]["ema"], scores[alpha]["mcma"]
    print(f"  alpha={alpha:.1f}  ema={ema:.4f}  mcma={mcma:.4f}  "
          f"gap={mcma - ema:+.4f}")
