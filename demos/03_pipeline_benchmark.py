"""Per-stage timing of the segmentation pipeline.

Runs the full pipeline (flow -> encode -> warp -> fuse -> decode) over a
synthetic clip at two flow resolutions and with both executors, then prints
the per-stage latency summary. The parallel executor reads each frame on
the calling thread and downscales and pushes its flow on a worker thread,
one frame ahead, while the calling thread encodes, warps, fuses and
decodes the frame before it; its total per frame is the caller's wall
time from one mask to the next, so the flow row (downscale and push) shows
work that the parallel total no longer waits for.
"""

from mcma import (PipelineConfig, SceneObject, SceneSpec, benchmark_report,
                  generate, model_spec_from_scene, run)

spec = SceneSpec(width=320, height=256, num_classes=2, frames=12, seed=6,
                 objects=[SceneObject("disk", 1, (200, 60, 60), (100, 128),
                                      velocity=(3, 1), radius=36)])
frames = [s[0] for s in generate(spec)]
model = model_spec_from_scene(spec)

for flow_scale in (1.0, 0.25):
    for executor in ("sequential", "parallel"):
        cfg = PipelineConfig(alpha=0.1, flow_scale=flow_scale,
                             executor=executor)
        _, timings = run(frames, cfg, model)
        print(f"--- executor={executor} flow_scale={flow_scale}")
        # the first frame has no flow/warp work, so it is excluded
        print(benchmark_report(timings[1:]))
