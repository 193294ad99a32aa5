import time
from types import SimpleNamespace

import numpy as np
import pytest

from mcma import FlowEstimator, FlowField, Frame


def smooth_texture(height, width, seed, cutoff=0.002):
    """Periodic band-limited texture in [0, 255]; circular shifts of it are
    exact translations, which makes the shift oracle trivial."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, (height, width))
    fy = np.fft.fftfreq(height) * height
    fx = np.fft.fftfreq(width) * width
    lowpass = np.exp(-cutoff * np.add.outer(fy ** 2, fx ** 2))
    tex = np.real(np.fft.ifft2(np.fft.fft2(noise) * lowpass))
    tex = (tex - tex.min()) / (tex.max() - tex.min())
    return np.rint(tex * 255.0).astype(np.uint8)


def shifted_pair(height, width, seed, dx, dy):
    """(prev, curr) gray frames where curr is prev circularly shifted by
    (dx, dy) pixels; ground-truth backward flow is (-dx, -dy)."""
    base = smooth_texture(height, width, seed)
    prev = Frame(base[:, :, None])
    curr = Frame(np.roll(base, (dy, dx), axis=(0, 1))[:, :, None], index=1)
    return prev, curr


def pair_flow(prev, curr):
    """Backward flow from ``prev`` to ``curr``: two pushes to a fresh
    FlowEstimator."""
    est = FlowEstimator()
    est.push(prev)
    return est.push(curr)


def slow_sources(encode, delay):
    """Encoder and flow sources for a Segmenter that sleep ``delay``
    seconds before answering (the flow source returns zero flow), and the
    spans they record: stage ("encode" or "flow") -> frame index ->
    (start, end) in perf_counter seconds."""
    spans = {"encode": {}, "flow": {}}

    def timed(stage, index, answer):
        start = time.perf_counter()
        time.sleep(delay)
        out = answer()
        spans[stage][index] = (start, time.perf_counter())
        return out

    def encoder(frame):
        return timed("encode", frame.index, lambda: encode(frame))

    def push(small):
        return timed("flow", small.index,
                     lambda: FlowField.zeros(small.height, small.width))

    return {"encoder": encoder, "flow": SimpleNamespace(push=push)}, spans


def flow_encode_overlap(spans):
    """Seconds during which frame t+1's flow ran beside frame t's encode,
    summed over t."""
    total = 0.0
    for t, (enc_start, enc_end) in spans["encode"].items():
        if t + 1 in spans["flow"]:
            flow_start, flow_end = spans["flow"][t + 1]
            total += max(0.0, min(enc_end, flow_end)
                         - max(enc_start, flow_start))
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
