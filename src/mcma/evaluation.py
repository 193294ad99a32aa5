"""Metrics and the motion-partitioned evaluation protocol.

mIoU (classes absent from both prediction and ground truth are excluded),
per-class false-positive rate, and the 20%/80% motion-quantile split of
evaluated frames by mean flow-vector length.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .core import FlowField, SegmentationMask, check_class_count

SUBSETS = ("all", "low20", "mid60", "high20")
# the fewest samples the motion-quantile split takes
MIN_SAMPLES = 5


def _labels(mask) -> np.ndarray:
    return mask.labels if isinstance(mask, SegmentationMask) else np.asarray(mask)


def _confusion_counts(pred, gt, num_classes: int):
    p = _labels(pred).astype(np.int64)
    g = _labels(gt).astype(np.int64)
    if p.shape != g.shape:
        raise ValueError("mask dimensions must match")
    if min(p.min(), g.min()) < 0 or max(p.max(), g.max()) >= num_classes:
        raise ValueError("label out of range")
    # confusion[g, p]: pixels of ground-truth class g labelled p
    confusion = np.bincount((g * num_classes + p).ravel(),
                            minlength=num_classes * num_classes)
    confusion = confusion.reshape(num_classes, num_classes)
    inter = np.diagonal(confusion).copy()
    union = confusion.sum(axis=0) + confusion.sum(axis=1) - inter
    return inter, union


def _iou_from_counts(inter, union):
    ious = np.full(len(inter), np.nan)
    present = union > 0
    ious[present] = inter[present] / union[present]
    mean = float(np.nanmean(ious)) if present.any() else float("nan")
    return mean, ious


def miou(pred, gt, num_classes: int):
    """Returns (mean IoU, per-class IoU vector with NaN for absent classes)."""
    return _iou_from_counts(*_confusion_counts(pred, gt, num_classes))


def pooled_miou(preds: Iterable, gts: Iterable, num_classes: int) -> float:
    """Mean IoU of the per-class intersections and unions summed over
    aligned frames (NaN when no class occurs in any of them)."""
    inter = np.zeros(num_classes, np.int64)
    union = np.zeros(num_classes, np.int64)
    for pred, gt in zip(preds, gts, strict=True):
        it, un = _confusion_counts(pred, gt, num_classes)
        inter += it
        union += un
    return _iou_from_counts(inter, union)[0]


def fp_rate(pred, gt, target_class: int) -> float:
    """Fraction of all pixels predicted as target_class where gt disagrees."""
    p = _labels(pred)
    g = _labels(gt)
    if p.shape != g.shape:
        raise ValueError("mask dimensions must match")
    fp = np.count_nonzero((p == target_class) & (g != target_class))
    return fp / p.size


@dataclass
class MotionPartition:
    low: List[int]
    mid: List[int]
    high: List[int]
    low_threshold: float
    high_threshold: float
    degenerate: bool = False


def motion_quantile_partition(
        per_frame_motion: Sequence[float]) -> MotionPartition:
    """Split frame indices at the 20% and 80% empirical motion quantiles
    (linear interpolation between order statistics), the bounds the
    ``low20`` and ``high20`` subsets are named after."""
    motion = np.asarray(per_frame_motion, np.float64)
    if motion.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, "
                         f"got {motion.size}")
    q_lo, q_hi = np.quantile(motion, [0.2, 0.8], method="linear")
    if np.all(motion == motion[0]):
        warnings.warn("degenerate motion distribution: every frame sits on "
                      "both quantile boundaries")
        idx = list(range(motion.size))
        return MotionPartition(idx, [], list(idx), float(q_lo), float(q_hi),
                               degenerate=True)
    low = [i for i, m in enumerate(motion) if m <= q_lo]
    high = [i for i, m in enumerate(motion) if m >= q_hi and m > q_lo]
    taken = set(low) | set(high)
    mid = [i for i in range(motion.size) if i not in taken]
    return MotionPartition(low, mid, high, float(q_lo), float(q_hi))


def motion_in_input_pixels(flow: FlowField, input_h: int, input_w: int) -> float:
    """Mean displacement length after rescaling the field's units to input
    pixels, so evaluation sees the motion exactly as the pipeline did."""
    su = input_w / flow.width
    sv = input_h / flow.height
    mag = np.hypot(flow.u.astype(np.float64) * su,
                   flow.v.astype(np.float64) * sv)
    return float(mag.mean())


def evaluate_run(preds_by_method: Mapping[str, Sequence],
                 gts: Sequence, flows: Sequence[Optional[FlowField]],
                 num_classes: int):
    """Motion-partitioned mIoU table over the labeled frames of one clip.

    All sequences are aligned: entry k of every prediction list, of gts and
    of flows belongs to the same labeled frame. Returns rows of
    (method, subset, miou).
    """
    check_class_count(num_classes, "num_classes")
    n = len(gts)
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} labeled frames, "
                         f"got {n}")
    if len(flows) != n:
        raise ValueError("need one flow per labeled frame")
    for k, fl in enumerate(flows):
        if fl is None:
            raise ValueError(f"missing flow for labeled frame {k}")
    for method, preds in preds_by_method.items():
        if len(preds) != n:
            raise ValueError(f"method {method!r} has {len(preds)} masks, "
                             f"expected {n}")

    h, w = _labels(gts[0]).shape
    part = motion_quantile_partition(
        [motion_in_input_pixels(fl, h, w) for fl in flows])
    subsets = dict(zip(SUBSETS, (range(n), part.low, part.mid, part.high)))

    return [(method, name, pooled_miou([preds[i] for i in idx],
                                       [gts[i] for i in idx], num_classes))
            for method, preds in preds_by_method.items()
            for name, idx in subsets.items()]


def report_csv(rows) -> str:
    buf = io.StringIO()
    buf.write("method,subset,miou\n")
    for method, subset, value in rows:
        buf.write(f"{method},{subset},{value:.6f}\n")
    return buf.getvalue()
