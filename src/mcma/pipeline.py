"""Streaming segmentation: one recurrence per frame, plus timing.

``Segmenter.push`` is the only place the recurrence runs: flow, encode,
warp, fuse and decode for one frame. With an executor pool, optical flow and
the encoder forward pass of the same frame run concurrently; everything
downstream of the fused state stays strictly ordered, so both schedules give
bit-identical masks.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from .core import FeatureMap, FlowField, Frame, PipelineConfig, SegmentationMask
from .flow import FlowEstimator, downscale_frame, resize_flow
from .fusion import ema_fuse
from .model import ModelSpec, decode, encode
from .warping import warp_features

STAGES = ("flow", "encode", "warp", "fuse", "decode")


@dataclass
class StageTiming:
    frame_index: int
    flow_us: float
    encode_us: float
    warp_us: float
    fuse_us: float
    decode_us: float
    total_us: float
    executor: str
    flow_scale: float


class PipelineError(RuntimeError):
    def __init__(self, frame_index: int, cause: Exception):
        super().__init__(f"pipeline failed at frame {frame_index}: {cause}")
        self.frame_index = frame_index
        self.cause = cause


def _now_us() -> float:
    return time.perf_counter_ns() / 1000.0


def _timed(fn, *args):
    t0 = _now_us()
    out = fn(*args)
    return out, _now_us() - t0


class Segmenter:
    """Streaming MCMA: ``push`` one frame, get its mask and stage timings.

    The state is the fused feature map of the previous frame and the flow
    estimator, which keeps what it needs of that frame. ``encoder`` (frame
    -> features) replaces the model, and ``flow``, an object whose
    ``push(small)`` takes each flow-grid frame and returns the backward flow
    from the one before it (None for the first), replaces the
    ``FlowEstimator``; ``pool`` runs the flow stage beside the encoder.
    Each frame is pushed to a shallow copy of the estimator that replaces
    it only when the whole frame succeeds, so an estimator must rebind its
    state, not mutate it.

    Degenerate settings are resolved once: alpha = 1 keeps no history and
    runs as the per-frame baseline, and mcma with lambda = 0 runs as the
    plain EMA, so neither computes flow that would be discarded.
    """

    def __init__(self, cfg: PipelineConfig, model_spec: ModelSpec, *,
                 encoder: Optional[Callable[[Frame], FeatureMap]] = None,
                 flow: Optional[FlowEstimator] = None,
                 pool: Optional[Executor] = None):
        self.cfg = cfg
        self._encode = encoder or (lambda frame: encode(frame, model_spec))
        self._flow = flow or FlowEstimator()
        self._decode = lambda fused: decode(fused, model_spec)
        self._pool = pool
        if cfg.alpha == 1.0:
            self._mode = "baseline"
        elif cfg.mode == "mcma" and cfg.lam == 0.0:
            self._mode = "ema"
        else:
            self._mode = cfg.mode
        self.state: Optional[FeatureMap] = None
        self._size: Optional[tuple] = None
        self._count = 0

    def push(self, frame: Frame):
        """Segment the next frame; returns (mask, StageTiming).

        Any failure is raised as PipelineError naming the frame's position
        in the stream, and leaves the state as it was.
        """
        j = self._count
        try:
            mask, timing = self._step(frame, j)
        except Exception as exc:
            raise PipelineError(j, exc) from exc
        self._count += 1
        return mask, timing

    def _flow_stage(self, estimator, frame: Frame) -> Optional[FlowField]:
        return estimator.push(downscale_frame(frame, self.cfg.flow_scale))

    def _warp(self, state: FeatureMap, flow: FlowField) -> FeatureMap:
        flow = resize_flow(flow, state.height, state.width)
        return warp_features(state, flow, self.cfg.lam)

    def _step(self, frame: Frame, j: int):
        size = (frame.height, frame.width)
        if self._size is not None and size != self._size:
            raise ValueError("frame dimensions changed")
        t_start = _now_us()
        estimator = copy.copy(self._flow)
        flow = None
        flow_us = warp_us = fuse_us = 0.0
        if self._mode != "mcma":
            feats, encode_us = _timed(self._encode, frame)
        elif self._pool is not None:
            pending = self._pool.submit(_timed, self._flow_stage, estimator,
                                        frame)
            try:
                feats, encode_us = _timed(self._encode, frame)
            finally:
                flow, flow_us = pending.result()
        else:
            flow, flow_us = _timed(self._flow_stage, estimator, frame)
            feats, encode_us = _timed(self._encode, frame)
        prior = self.state
        if prior is not None and prior.data.shape != feats.data.shape:
            raise ValueError(f"feature shape {feats.data.shape} differs from "
                             f"the state's {prior.data.shape}")

        if prior is None or self._mode == "baseline":
            fused = feats
        else:
            if flow is not None:
                prior, warp_us = _timed(self._warp, prior, flow)
            fused, fuse_us = _timed(ema_fuse, feats, prior, self.cfg.alpha)
        mask, decode_us = _timed(self._decode, fused)
        total_us = _now_us() - t_start

        self.state, self._flow, self._size = fused, estimator, size
        executor = "sequential" if self._pool is None else "parallel"
        return mask, StageTiming(j, flow_us, encode_us, warp_us, fuse_us,
                                 decode_us, total_us, executor,
                                 self.cfg.flow_scale)


def run(frames: Iterable[Frame], cfg: PipelineConfig, model_spec: ModelSpec):
    """Segment a clip on ``cfg.executor``; returns (masks, timings)."""
    masks: List[SegmentationMask] = []
    timings: List[StageTiming] = []
    parallel = cfg.executor == "parallel"
    with (ThreadPoolExecutor(max_workers=1) if parallel
          else contextlib.nullcontext()) as pool:
        seg = Segmenter(cfg, model_spec, pool=pool)
        for frame in frames:
            mask, timing = seg.push(frame)
            masks.append(mask)
            timings.append(timing)
    if not masks:
        raise ValueError("need at least one frame")
    return masks, timings


def benchmark_report(timings: Sequence[StageTiming]) -> str:
    """Per-stage mean/std CSV plus the achievable frame rate.

    Pass warm-started rows (typically timings[1:]); the first frame has no
    flow/warp/fuse stage and would skew the averages.
    """
    if len(timings) < 2:
        raise ValueError("need at least two timing rows")
    mode = timings[0].executor
    scale = timings[0].flow_scale
    buf = io.StringIO()
    buf.write("stage,mean_us,std_us,mode,flow_scale\n")
    for stage in STAGES + ("total",):
        vals = np.array([getattr(t, f"{stage}_us") for t in timings])
        buf.write(f"{stage},{vals.mean():.3f},{vals.std(ddof=1):.3f},"
                  f"{mode},{scale}\n")
    mean_total = float(np.mean([t.total_us for t in timings]))
    buf.write(f"achievable_hz,{1e6 / mean_total:.3f}\n")
    return buf.getvalue()


def alpha_sweep(frames: Sequence[Frame], gts, cfg: PipelineConfig,
                model_spec: ModelSpec,
                alphas: Optional[Sequence[float]] = None):
    """mIoU of plain EMA vs MCMA over a grid of smoothing factors.

    Encoder features and flow fields depend only on the frames, so they are
    computed once and replayed in order through a fresh Segmenter per alpha
    and method. ``gts`` holds one mask per frame. Returns rows of
    (alpha, method, miou) aggregated over the whole sequence.
    """
    from .evaluation import pooled_miou

    frames = list(frames)
    if not frames:
        raise ValueError("need at least one frame")
    if len(gts) != len(frames):
        raise ValueError(f"need one ground-truth mask per frame: got "
                         f"{len(gts)} for {len(frames)} frames")
    if alphas is None:
        alphas = [round(0.1 + 0.05 * k, 2) for k in range(17)]
    feats = [encode(f, model_spec) for f in frames]
    num_classes = feats[0].channels
    small = [downscale_frame(f, cfg.flow_scale) for f in frames]
    estimator = FlowEstimator()
    flows = [estimator.push(f) for f in small]

    # the replayed sources ignore the frames they are given, so each push
    # gets the flow-grid copy at flow scale 1, which is not downscaled again
    rows = []
    for alpha in alphas:
        for method in ("ema", "mcma"):
            replay_feats, replay_flows = iter(feats), iter(flows)
            seg = Segmenter(dataclasses.replace(cfg, alpha=alpha, mode=method,
                                                flow_scale=1.0),
                            model_spec,
                            encoder=lambda _: next(replay_feats),
                            flow=SimpleNamespace(
                                push=lambda _: next(replay_flows)))
            masks = (seg.push(frame)[0] for frame in small)
            rows.append((alpha, method, pooled_miou(masks, gts, num_classes)))
    return rows


def timings_csv(timings: Sequence[StageTiming]) -> str:
    buf = io.StringIO()
    buf.write("frame,flow_us,encode_us,warp_us,fuse_us,decode_us,"
              "total_us,executor,flow_scale\n")
    for t in timings:
        buf.write(f"{t.frame_index},{t.flow_us:.1f},{t.encode_us:.1f},"
                  f"{t.warp_us:.1f},{t.fuse_us:.1f},{t.decode_us:.1f},"
                  f"{t.total_us:.1f},{t.executor},{t.flow_scale}\n")
    return buf.getvalue()
