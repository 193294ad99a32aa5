"""Command line front end: generate / run / sweep / bench / eval.

Scene configs are plain ``key = value`` text; see the README for the
documented keys. All outputs are files (PPM/PGM/MCFL/MCFE/CSV).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from .core import (FLOW_SCALES, PipelineConfig, read_flow, read_frame,
                   read_mask, write_mask)
from .evaluation import evaluate_run, report_csv
from .model import ModelSpec
from .pipeline import alpha_sweep, benchmark_report, run, timings_csv
from .synth import (SceneObject, SceneSpec, generate, model_spec_from_scene,
                    save_dataset)


def _number(key, text, conv=float):
    """``conv(text)``; text that does not parse raises a ValueError that
    starts with ``key``."""
    try:
        return conv(text)
    except ValueError:
        kind = "an integer" if conv is int else "a number"
        raise ValueError(f"{key} must be {kind}: {text!r}") from None


def _parse_tuple(key, text, count, conv=float):
    try:
        parts = tuple(conv(p) for p in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != count:
        kind = "integers" if conv is int else "numbers"
        raise ValueError(
            f"{key} must be {count} comma-separated {kind}: {text!r}")
    return parts


def _parse_object(text: str) -> SceneObject:
    kv = {}
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"bad object token {token!r}")
        key, val = token.split("=", 1)
        if key in kv:
            raise ValueError(f"repeated object key {key!r}")
        kv[key] = val
    shape = None

    def required(key):
        if key not in kv:
            raise ValueError(f"{shape or 'scene'} object needs {key}=")
        return kv.pop(key)

    shape = required("shape")
    if shape not in ("disk", "rectangle"):
        raise ValueError(f"unknown object shape {shape!r}")
    cls = _number("class", required("class"), int)
    color = _parse_tuple("color", required("color"), 3, int)
    velocity = _parse_tuple("velocity", kv.pop("velocity", "0,0"), 2)
    if shape == "disk":
        position = _parse_tuple("center", required("center"), 2)
        obj = SceneObject("disk", cls, color, position, velocity,
                          radius=_number("radius", required("radius")))
    else:
        position = _parse_tuple("topleft", required("topleft"), 2)
        obj = SceneObject("rectangle", cls, color, position, velocity,
                          size=_parse_tuple("size", required("size"), 2))
    if kv:
        raise ValueError(f"unknown object keys: {sorted(kv)}")
    return obj


# parsers of the scalar scene keys, called with the key and its text;
# SceneSpec supplies absent keys
_integer = partial(_number, conv=int)
_SCENE_KEYS = {
    "width": _integer, "height": _integer, "num_classes": _integer,
    "background_class": _integer, "noise_class": _integer,
    "frames": _integer, "seed": _integer,
    "background_color": partial(_parse_tuple, count=3, conv=int),
    "texture_amplitude": _number, "label_noise_rate": _number,
    "global_velocity": partial(_parse_tuple, count=2),
}


def parse_scene_config(text: str) -> SceneSpec:
    kv = {}
    objects = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key == "object":
            objects.append(_parse_object(val))
        elif key in kv:
            raise ValueError(f"repeated config key {key!r}")
        else:
            kv[key] = val

    unknown = sorted(set(kv) - set(_SCENE_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return SceneSpec(objects=objects,
                     **{key: _SCENE_KEYS[key](key, val)
                        for key, val in kv.items()})


def load_scene(path: str) -> SceneSpec:
    with open(path) as fh:
        return parse_scene_config(fh.read())


def _sorted_paths(dirpath, suffix):
    names = sorted(n for n in os.listdir(dirpath) if n.endswith(suffix))
    if not names:
        raise ValueError(f"no *{suffix} files in {dirpath}")
    return [os.path.join(dirpath, n) for n in names]


def _read_frames(paths):
    """The frames at ``paths``, each read when it is asked for."""
    return (read_frame(path, index=i) for i, path in enumerate(paths))


def load_frames(dirpath):
    return list(_read_frames(_sorted_paths(dirpath, ".ppm")))


def _load_masks(dirpath):
    return [read_mask(path) for path in _sorted_paths(dirpath, ".pgm")]


def _model_spec(args, frames_dir) -> ModelSpec:
    if args.features:
        return ModelSpec(feature_stride=args.stride,
                         feature_dir=args.features)
    scene_path = args.scene or os.path.join(os.path.dirname(
        os.path.abspath(frames_dir)), "scene.cfg")
    scene = load_scene(scene_path)
    return model_spec_from_scene(scene, feature_stride=args.stride)


def _add_model_args(p):
    p.add_argument("--scene", help="scene config used to build the reference "
                                   "model (default: <frames>/../scene.cfg)")
    p.add_argument("--features", help="MCFE directory for feature-files mode "
                                      "(class count = channel count)")
    p.add_argument("--stride", type=int, default=ModelSpec.feature_stride,
                   help="feature stride")


def cmd_generate(args) -> int:
    with open(args.config) as fh:
        text = fh.read()
    spec = parse_scene_config(text)
    save_dataset(generate(spec), args.out, scene_text=text)
    print(f"wrote {spec.frames} frames to {args.out}")
    return 0


def cmd_run(args) -> int:
    # read as the run goes: on the parallel executor, frame t+1 is read
    # while the worker computes flow
    frames = _read_frames(_sorted_paths(args.frames, ".ppm"))
    cfg = PipelineConfig(alpha=args.alpha, lam=getattr(args, "lambda"),
                         flow_scale=args.flow_scale,
                         executor={"seq": "sequential",
                                   "par": "parallel"}[args.executor])
    spec = _model_spec(args, args.frames)
    masks, timings = run(frames, cfg, spec)
    os.makedirs(args.out, exist_ok=True)
    for j, mask in enumerate(masks):
        write_mask(mask, os.path.join(args.out, f"{j:06d}.pgm"))
    with open(os.path.join(args.out, "timings.csv"), "w") as fh:
        fh.write(timings_csv(timings))
    print(f"wrote {len(masks)} masks to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    frames = load_frames(args.frames)
    gts = _load_masks(args.gt)
    spec = _model_spec(args, args.frames)
    rows = alpha_sweep(frames, gts, spec, lam=getattr(args, "lambda"),
                       flow_scale=args.flow_scale)
    with open(args.out, "w") as fh:
        fh.write("alpha,method,miou\n")
        for alpha, method, value in rows:
            fh.write(f"{alpha},{method},{value:.6f}\n")
    print(f"wrote sweep to {args.out}")
    return 0


def cmd_bench(args) -> int:
    frames = load_frames(args.frames)
    if len(frames) < 3:
        raise ValueError(f"bench needs at least 3 frames, got {len(frames)}")
    spec = _model_spec(args, args.frames)
    reports = []
    for scale in FLOW_SCALES:
        for executor in ("sequential", "parallel"):
            cfg = PipelineConfig(alpha=args.alpha, lam=getattr(args, "lambda"),
                                 flow_scale=scale, executor=executor)
            _, timings = run(frames, cfg, spec)
            reports.append(benchmark_report(timings[1:]))
    header, *_ = reports[0].splitlines()
    body = [line for rep in reports for line in rep.splitlines()[1:]]
    with open(args.out, "w") as fh:
        fh.write(header + "\n" + "\n".join(body) + "\n")
    print(f"wrote benchmark to {args.out}")
    return 0


def cmd_eval(args) -> int:
    preds = {}
    for item in args.pred:
        name, sep, dirpath = item.partition("=")
        if not (name and sep):
            raise ValueError("--pred expects NAME=DIR")
        if name in preds:
            raise ValueError(f"repeated --pred name {name!r}")
        preds[name] = _load_masks(dirpath)
    gts = _load_masks(args.gt)
    flows = [read_flow(path) for path in _sorted_paths(args.flows, ".mcfl")]
    rows = evaluate_run(preds, gts, flows, args.classes)
    csv = report_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


_LAMBDA_HELP = ("flow weight: 1 warps the state along the flow, 0 gives the "
                "plain EMA (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcma",
        description="Motion-corrected moving average video segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="render a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="segment a frame directory")
    p.add_argument("--frames", required=True)
    # not read, and only "mcma" is accepted: perfbench still passes it
    p.add_argument("--mode", choices=("mcma",), default="mcma",
                   help="ignored: --alpha 1 gives the per-frame baseline "
                        "and --lambda 0 the plain EMA")
    p.add_argument("--alpha", type=float, default=PipelineConfig.alpha)
    p.add_argument("--lambda", type=float, default=PipelineConfig.lam,
                   help=_LAMBDA_HELP)
    p.add_argument("--flow-scale", type=float, choices=FLOW_SCALES,
                   default=PipelineConfig.flow_scale)
    p.add_argument("--executor", choices=("seq", "par"), default="seq")
    p.add_argument("--out", required=True)
    _add_model_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="mIoU of EMA vs MCMA over an alpha grid")
    p.add_argument("--frames", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--lambda", type=float, default=PipelineConfig.lam,
                   help=_LAMBDA_HELP)
    p.add_argument("--flow-scale", type=float, choices=FLOW_SCALES,
                   default=PipelineConfig.flow_scale)
    p.add_argument("--out", required=True)
    _add_model_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="timing study over scales and executors")
    p.add_argument("--frames", required=True)
    p.add_argument("--alpha", type=float, default=PipelineConfig.alpha)
    p.add_argument("--lambda", type=float, default=PipelineConfig.lam,
                   help=_LAMBDA_HELP)
    p.add_argument("--out", required=True)
    _add_model_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("eval", help="motion-partitioned mIoU table")
    p.add_argument("--pred", action="append", required=True,
                   metavar="NAME=DIR")
    p.add_argument("--gt", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failures exit 1, argparse exits 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
