"""Print one JSON object of SHA-256 digests of the program's outputs.

usage: PYTHONPATH=src python3 tools/digest_grid.py [--save-warps DIR]

Two checkouts that print equal objects give byte-identical outputs on the
grid below, so a change meant to keep behaviour can be checked by running
this at the parent commit and at the change and comparing the two. It uses
the public ``mcma`` API only. Entries, on two noisy 128x96 pans (2 and 3
classes, 6 frames):

  generate/c<classes>/<frames|masks|flows>   ``generate`` output bytes
  run/<mode>/<executor>/f<flow scale>/s<stride>/c<classes>/a<alpha>_l<lam>
      the masks of one ``run``, for both executors, flow scales 1, 1/2,
      1/4, strides 2, 4, 8 and three (alpha, lambda) pairs, each run as
      mcma, as the per-frame baseline (alpha replaced by 1) and as the
      plain EMA (lambda replaced by 0); the key keeps the pair as given.
      Entries that differ only in the executor must be equal, and the
      script exits 1 after printing, naming each pair that is not
  sweep/f<flow scale>/s<stride>/c<classes>   ``alpha_sweep`` rows
  flow/f<flow scale>/c<classes>              ``FlowEstimator`` flows
  resize/f<flow scale>/s<stride>/c<classes>  those flows on the feature grid
  warp/f<flow scale>/s<stride>/c<classes>/l<lam>
      ``warp_features`` of each frame's features along the next flow

``--save-warps DIR`` also writes each warp entry's arrays to DIR as one
``.npy`` file, so that two checkouts' warps can be compared element by
element. Takes about 10 s on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from mcma import (FlowEstimator, PipelineConfig, SceneObject, SceneSpec,
                  alpha_sweep, downscale_frame, encode, generate,
                  model_spec_from_scene, resize_flow, run, warp_features)
from mcma.core import FLOW_SCALES

# each mode's override of the (alpha, lambda) pair
MODES = {"baseline": {"alpha": 1.0}, "ema": {"lam": 0.0}, "mcma": {}}
EXECUTORS = ("sequential", "parallel")
STRIDES = (2, 4, 8)
PAIRS = ((0.2, 1.0), (1.0, 2.0), (0.3, 0.0))
LAMS = (1.0, 2.0)


def scenes():
    """The two noisy pans, by class count."""
    disk = SceneObject("disk", 1, (200, 60, 60), (40.3, 47.6),
                       velocity=(3.0, 1.0), radius=14)
    box = SceneObject("rectangle", 2, (60, 60, 200), (80.2, 20.7),
                      velocity=(-2.0, 1.5), size=(30, 22))
    common = dict(width=128, height=96, frames=6, seed=11,
                  texture_amplitude=10.0, label_noise_rate=0.02)
    return {2: SceneSpec(num_classes=2, objects=[disk],
                         global_velocity=(1.5, 0.5), **common),
            3: SceneSpec(num_classes=3, objects=[disk, box],
                         global_velocity=(2.0, 1.0), **common)}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def flow_arrays(flows):
    return [comp for flow in flows for comp in (flow.u, flow.v)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save-warps", metavar="DIR")
    args = parser.parse_args(argv)
    if args.save_warps:
        os.makedirs(args.save_warps, exist_ok=True)

    out = {}
    for classes, scene in scenes().items():
        seq = generate(scene)
        frames = [frame for frame, _, _ in seq]
        gts = [mask for _, mask, _ in seq]
        out[f"generate/c{classes}/frames"] = digest(*(f.data for f in frames))
        out[f"generate/c{classes}/masks"] = digest(*(m.labels for m in gts))
        out[f"generate/c{classes}/flows"] = digest(
            *flow_arrays(flow for _, _, flow in seq))

        for scale in FLOW_SCALES:
            estimator = FlowEstimator()
            flows = [estimator.push(downscale_frame(f, scale))
                     for f in frames][1:]
            out[f"flow/f{scale}/c{classes}"] = digest(*flow_arrays(flows))
            for stride in STRIDES:
                spec = model_spec_from_scene(scene, feature_stride=stride)
                tag = f"f{scale}/s{stride}/c{classes}"
                feats = [encode(f, spec) for f in frames]
                grid = (feats[0].height, feats[0].width)
                small = [resize_flow(flow, *grid) for flow in flows]
                out[f"resize/{tag}"] = digest(*flow_arrays(small))
                for lam in LAMS:
                    warps = np.stack([warp_features(feat, flow, lam).data
                                      for feat, flow in zip(feats, small)])
                    out[f"warp/{tag}/l{lam}"] = digest(warps)
                    if args.save_warps:
                        np.save(os.path.join(args.save_warps,
                                             f"{tag}/l{lam}".replace("/", "_")
                                             + ".npy"), warps)

                rows = alpha_sweep(frames, gts, spec, lam=2.0,
                                   flow_scale=scale)
                out[f"sweep/{tag}"] = hashlib.sha256(
                    repr(rows).encode()).hexdigest()
                for mode, override in MODES.items():
                    for executor in EXECUTORS:
                        for alpha, lam in PAIRS:
                            cfg = PipelineConfig(**{
                                "alpha": alpha, "lam": lam,
                                "flow_scale": scale, "executor": executor,
                                **override})
                            masks, _ = run(frames, cfg, spec)
                            out[f"run/{mode}/{executor}/{tag}/"
                                f"a{alpha}_l{lam}"] = digest(
                                    *(m.labels for m in masks))
    print(json.dumps(out, indent=1, sort_keys=True))
    twins = {key: key.replace("/sequential/", "/parallel/")
             for key in out if "/sequential/" in key}
    split = [(a, b) for a, b in twins.items() if out[a] != out[b]]
    for a, b in split:
        print(f"executors differ: {a} {b}", file=sys.stderr)
    return 1 if split else 0


if __name__ == "__main__":
    raise SystemExit(main())
