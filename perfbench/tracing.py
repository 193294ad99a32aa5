"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each hooked function object wherever an
``mcma.*`` module binds it with a wrapper that records a span: name, start,
end, parent, thread and frame index. Spans stay in memory until the
benchmark writes them out. A span opened on a thread with no open span of
its own (an executor worker) is parented to the open entry span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

# the entry span: one call runs a whole clip
ENTRY = "pipeline.run"
LEAVES = (
    "flow.estimate_flow",
    "flow.polynomial_expansion",
    "flow.to_grayscale",
    "flow.resize_flow",
    "flow.downscale_frame",
    "model.encode",
    "model.decode",
    "warping.warp_features",
    "fusion.ema_fuse",
    "core.read_frame",
    "core.write_mask",
    "cli.load_frames",
)
# flow.polynomial_expansion is split by input shape: L0 is the finest level
POLY_LEVELS = 3
# spans that run on the flow side of the parallel executor's split
FLOW_SIDE = ("flow.downscale_frame", "flow.estimate_flow")


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    thread: int
    frame: Optional[int]
    shape: Optional[tuple]

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def _frame_index(args, kwargs, frame_type):
    """Index of the last Frame argument (the current frame of a pair)."""
    index = kwargs.get("index")
    for arg in args:
        if isinstance(arg, frame_type):
            index = arg.index
    return index


def _shape(args):
    first = args[0] if args else None
    data = getattr(first, "data", first)
    shape = getattr(data, "shape", None)
    return tuple(shape[:2]) if shape is not None else None


class Tracer:
    def __init__(self, mcma):
        self._frame_type = mcma.core.Frame
        self._originals = {
            name: getattr(importlib.import_module(f"mcma.{name.split('.')[0]}"),
                          name.split(".")[1])
            for name in (ENTRY,) + LEAVES}
        self._patched = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._entries = []
        self.spans: list[Span] = []
        self.flows = []  # (frame index, FlowField) from flow.estimate_flow

    def install(self) -> None:
        by_id = {id(fn): name for name, fn in self._originals.items()}
        wrappers = {name: self._wrap(name, fn)
                    for name, fn in self._originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mcma" and not mod_name.startswith("mcma."):
                continue
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None and value is self._originals[name]:
                    setattr(module, attr, wrappers[name])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        entry = name == ENTRY
        keep_flow = name == "flow.estimate_flow"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            if stack:
                parent, parent_frame = stack[-1]
            elif self._entries:
                parent, parent_frame = self._entries[-1], None
            else:
                parent, parent_frame = None, None
            frame = _frame_index(args, kwargs, self._frame_type)
            if frame is None:
                frame = parent_frame
            span_id = next(self._ids)
            stack.append((span_id, frame))
            if entry:
                self._entries.append(span_id)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if entry:
                    self._entries.pop()
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), frame,
                                       _shape(args)))
            if keep_flow:
                self.flows.append((frame, out))
            return out

        return traced

    def take(self):
        """Return and forget the spans and flows recorded so far."""
        spans, flows = self.spans, self.flows
        self.spans, self.flows = [], []
        return spans, flows


def _merged(intervals):
    """Union of (start, end) intervals as sorted, disjoint [start, end]."""
    out = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return out


def _covered_ns(intervals, lo, hi) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    return sum(max(0, min(e, hi) - max(s, lo)) for s, e in _merged(intervals))


def _intersection_ns(a, b) -> int:
    """Length of time covered by both unions."""
    return sum(_covered_ns(b, s, e) for s, e in _merged(a))


def call_metrics(spans: list[Span], frames: int) -> dict:
    """Per-layer metrics of one traced call over a clip of ``frames``.

    A hook the call never reached maps to None (missing), never to 0.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    out = {}
    for name in LEAVES:
        hit = by_name.get(name)
        out[f"{name}.ms_per_frame"] = (
            sum(s.ms for s in hit) / frames if hit else None)
        out[f"{name}.calls_per_frame"] = len(hit) / frames if hit else None

    expansions = by_name.get("flow.polynomial_expansion", [])
    shapes = sorted({s.shape for s in expansions},
                    key=lambda hw: hw[0] * hw[1], reverse=True)
    for level in range(POLY_LEVELS):
        key = f"flow.polynomial_expansion.L{level}.ms_per_frame"
        out[key] = (sum(s.ms for s in expansions if s.shape == shapes[level])
                    / frames if level < len(shapes) else None)

    def self_ms(span):
        kids = [(c.start_ns, c.end_ns) for c in children.get(span.id, [])]
        covered = _covered_ns(kids, span.start_ns, span.end_ns)
        return (span.end_ns - span.start_ns - covered) / 1e6

    flows = by_name.get("flow.estimate_flow")
    out["flow.estimate_flow.self_ms_per_frame"] = (
        sum(self_ms(s) for s in flows) / frames if flows else None)

    entries = by_name.get(ENTRY, [])
    out["pipeline.self_ms_per_frame"] = (
        sum(self_ms(s) for s in entries) / frames if entries else None)
    overlap = None
    if entries:
        kids = [c for e in entries for c in children.get(e.id, [])]
        flow_side = [(c.start_ns, c.end_ns) for c in kids if c.name in FLOW_SIDE]
        encode = [(c.start_ns, c.end_ns) for c in kids
                  if c.name == "model.encode"]
        if flow_side and encode:
            overlap = _intersection_ns(flow_side, encode) / 1e6 / frames
    out["pipeline.flow_encode_overlap_ms_per_frame"] = overlap
    return out


def median_metrics(per_call: list[dict]) -> dict:
    """Median of each metric over traced calls; missing stays None."""
    keys = per_call[0].keys()
    return {k: (None if any(m[k] is None for m in per_call)
                else statistics.median(m[k] for m in per_call))
            for k in keys}
