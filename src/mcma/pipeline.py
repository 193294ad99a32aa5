"""Streaming segmentation: one recurrence per frame, plus timing.

``Segmenter._step`` is the only place the recurrence runs: flow, encode,
warp, fuse and decode for one frame, and ``Segmenter.stream`` is the one
loop that runs it on both executors. A frame's whole flow stage, its
flow-grid downscale and its ``FlowEstimator.push``, is one task,
``_push_copy``, and the schedule, ``Segmenter._schedule``, alone decides
where it runs: inline on the sequential executor, one frame ahead on one
worker thread on the parallel one. Each frame is read on the calling
thread. Flow never reads the model's output, and everything downstream of
it stays strictly ordered on the calling thread, so both schedules give
bit-identical masks.
"""

from __future__ import annotations

import contextlib
import copy
import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from .core import FeatureMap, FlowField, Frame, PipelineConfig, SegmentationMask
from .evaluation import pooled_miou
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
    """Frame ``frame_index`` (its position in the stream) failed in
    ``stage``: one of STAGES, or "input" for a frame whose size differs
    from the first frame's."""

    def __init__(self, frame_index: int, stage: str, cause: Exception):
        super().__init__(
            f"pipeline failed at frame {frame_index} ({stage}): {cause}")
        self.frame_index = frame_index
        self.stage = stage
        self.cause = cause


def _now_us() -> float:
    return time.perf_counter_ns() / 1000.0


def _timed(fn, *args):
    t0 = _now_us()
    out = fn(*args)
    return out, _now_us() - t0


def _push_copy(estimator, frame: Frame, scale: float):
    """One frame's whole flow stage, inline or on the worker: downscale
    ``frame`` by ``scale`` and push it to a shallow copy of ``estimator``.
    Returns (estimator, flow, flow_us), where flow_us times the downscale
    and the push."""
    estimator = copy.copy(estimator)
    small, downscale_us = _timed(downscale_frame, frame, scale)
    flow, push_us = _timed(estimator.push, small)
    return estimator, flow, downscale_us + push_us


class Segmenter:
    """Streaming MCMA: ``stream`` frames and get each mask with its stage
    timings.

    The state is the fused feature map of the previous frame and the flow
    estimator, which keeps what it needs of that frame. ``encoder`` (frame
    -> features) replaces the model, and ``flow``, an object whose
    ``push(small)`` takes each flow-grid frame and returns the backward flow
    from the one before it (None for the first), replaces the
    ``FlowEstimator``.

    A frame that fails raises PipelineError naming its position in the
    stream and the stage, and leaves the state and the estimator as the
    frame before it left them: each frame is pushed to a shallow copy of
    the estimator that replaces it only when the whole frame succeeds, so
    an estimator must rebind its state, not mutate it. The copy shares
    ``FlowEstimator``'s scratch block, which holds no state, but not its
    kept expansions. On the parallel executor every copy is pushed on the
    stream's one worker thread, one frame at a time, so the block never
    serves two threads. Run one stream at a time on a Segmenter. After a
    failed frame, a new ``stream`` carries on from the last good frame.

    Each frame with a prior is fused as ``ema_fuse(feats, prior, alpha)``,
    the prior first warped along the flow if the frame has one. At
    alpha = 1 this is the per-frame baseline, as ``ema_fuse`` returns the
    current features themselves, and at lambda = 0 the plain EMA, the
    average without flow. Flow is computed only where it is used, at
    alpha < 1 and lambda > 0; every other setting runs on the calling
    thread alone, whatever the executor.
    """

    def __init__(self, cfg: PipelineConfig, model_spec: ModelSpec, *,
                 encoder: Optional[Callable[[Frame], FeatureMap]] = None,
                 flow: Optional[FlowEstimator] = None):
        self.cfg = cfg
        self._encode = encoder or (lambda frame: encode(frame, model_spec))
        self._flow = flow or FlowEstimator()
        self._decode = lambda fused: decode(fused, model_spec)
        self._needs_flow = cfg.alpha < 1.0 and cfg.lam > 0.0
        self.state: Optional[FeatureMap] = None
        self._size: Optional[tuple] = None
        self._count = 0

    def stream(self, frames: Iterable[Frame]):
        """Segment ``frames`` in order, reading each only when it is due;
        yields (mask, StageTiming) per frame. ``_schedule`` decides where
        each frame's flow stage runs; its worker thread, if any, ends when
        the stream ends, fails or is closed. ``total_us`` is the wall time
        from the previous mask (or the start) to this one, so a stream's
        totals add up to its wall time.
        """
        mark = _now_us()
        with contextlib.closing(self._schedule(frames)) as schedule:
            for frame, flow_stage in schedule:
                mask, timing = self._step(frame, mark, flow_stage)
                # frame t and its flow stage would otherwise stay alive
                # while the schedule reads and submits frame t+2
                del frame, flow_stage
                mark += timing.total_us
                yield mask, timing

    def _schedule(self, frames):
        """Yield each frame with its flow stage, a call that returns
        (estimator, flow, flow_us): inline, or, on the parallel executor
        where the settings need flow, a task that one worker thread runs
        beside the previous frame's model work, started as soon as the
        frame is read. A failure to read frame t+1 is raised after frame t."""
        scale = self.cfg.flow_scale
        if self.cfg.executor == "sequential" or not self._needs_flow:
            for frame in frames:
                yield frame, lambda f=frame: _push_copy(self._flow, f, scale)
            return

        def after(previous, frame):
            # the one worker has run the previous frame's task already
            return _push_copy(previous.result()[0], frame, scale)
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            frames = iter(frames)
            frame = next(frames, None)
            pending = (None if frame is None
                       else pool.submit(_push_copy, self._flow, frame, scale))
            while frame is not None:
                try:
                    ahead = next(frames, None)
                except Exception:
                    yield frame, pending.result
                    raise
                following = (None if ahead is None
                             else pool.submit(after, pending, ahead))
                yield frame, pending.result
                frame, pending = ahead, following
        finally:
            pool.shutdown(cancel_futures=True)

    def _warp(self, state: FeatureMap, flow: FlowField) -> FeatureMap:
        flow = resize_flow(flow, state.height, state.width)
        return warp_features(state, flow, self.cfg.lam)

    def _step(self, frame: Frame, t_start: float, flow_stage):
        """Run one frame; ``flow_stage()`` returns (estimator, flow,
        flow_us) and is called only where the settings need flow."""
        j = self._count
        stage = "input"
        try:
            size = (frame.height, frame.width)
            if self._size is not None and size != self._size:
                raise ValueError("frame dimensions changed")
            estimator, flow, flow_us = self._flow, None, 0.0
            if self._needs_flow:
                stage = "flow"
                estimator, flow, flow_us = flow_stage()
            stage = "encode"
            feats, encode_us = _timed(self._encode, frame)
            prior = self.state
            if prior is not None and prior.data.shape != feats.data.shape:
                raise ValueError(f"feature shape {feats.data.shape} differs "
                                 f"from the state's {prior.data.shape}")

            warp_us = fuse_us = 0.0
            fused = feats
            if prior is not None:
                if flow is not None:
                    stage = "warp"
                    prior, warp_us = _timed(self._warp, prior, flow)
                stage = "fuse"
                fused, fuse_us = _timed(ema_fuse, feats, prior, self.cfg.alpha)
            stage = "decode"
            mask, decode_us = _timed(self._decode, fused)
        except Exception as exc:
            raise PipelineError(j, stage, exc) from exc
        total_us = _now_us() - t_start

        self.state, self._flow, self._size = fused, estimator, size
        self._count += 1
        return mask, StageTiming(j, flow_us, encode_us, warp_us, fuse_us,
                                 decode_us, total_us, self.cfg.executor,
                                 self.cfg.flow_scale)


def run(frames: Iterable[Frame], cfg: PipelineConfig, model_spec: ModelSpec):
    """Segment a clip on ``cfg.executor``; returns (masks, timings).

    ``frames`` may be any iterable; each frame is read only when the
    stream reaches it (see Segmenter.stream).
    """
    results = list(Segmenter(cfg, model_spec).stream(frames))
    if not results:
        raise ValueError("need at least one frame")
    masks: List[SegmentationMask] = [mask for mask, _ in results]
    timings: List[StageTiming] = [timing for _, timing in results]
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


def alpha_sweep(frames: Sequence[Frame], gts, model_spec: ModelSpec, *,
                lam: float, flow_scale: float,
                alphas: Optional[Sequence[float]] = None):
    """mIoU of plain EMA vs MCMA at ``lam`` over a grid of smoothing factors.

    Every alpha and ``lam`` is checked, and empty ``alphas`` refused,
    before any work. Flow fields (on the ``flow_scale`` grid) and encoder
    features depend only on the frames, so they are computed once and
    replayed in order through a fresh Segmenter per alpha and method, the
    plain EMA at lambda = 0. ``gts`` holds one mask per frame. Returns rows
    of (alpha, method, miou) aggregated over the whole sequence.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("need at least one frame")
    if len(gts) != len(frames):
        raise ValueError(f"need one ground-truth mask per frame: got "
                         f"{len(gts)} for {len(frames)} frames")
    if alphas is None:
        alphas = [round(0.1 + 0.05 * k, 2) for k in range(17)]
    runs = [(method, PipelineConfig(alpha=a, lam=run_lam)) for a in alphas
            for method, run_lam in (("ema", 0.0), ("mcma", lam))]
    if not runs:
        raise ValueError("need at least one alpha")
    estimator = FlowEstimator()
    flows = [estimator.push(downscale_frame(f, flow_scale)) for f in frames]
    feats = [encode(f, model_spec) for f in frames]
    num_classes = feats[0].channels

    # the replayed sources ignore the frames, which flow scale 1 passes as is
    rows = []
    for method, cfg in runs:
        replay_feats, replay_flows = iter(feats), iter(flows)
        seg = Segmenter(cfg, model_spec,
                        encoder=lambda _: next(replay_feats),
                        flow=SimpleNamespace(
                            push=lambda _: next(replay_flows)))
        masks = (mask for mask, _ in seg.stream(frames))
        rows.append((cfg.alpha, method, pooled_miou(masks, gts, num_classes)))
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
