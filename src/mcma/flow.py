"""Dense optical flow between consecutive frames.

The estimator follows the classic polynomial-expansion scheme: every pixel
neighbourhood is fitted with a quadratic f(x) ~ x'Ax + b'x + c under Gaussian
weighting, and the displacement relating the two fits is solved over a local
window, coarse-to-fine over an image pyramid (Farnebäck, "Two-Frame Motion
Estimation Based on Polynomial Expansion", SCIA 2003). The settings are fixed:
3 pyramid levels at scale 0.5, a 15-pixel window, 3 iterations per level, and
a 5x5 expansion neighbourhood with Gaussian sigma 1.1.

``FlowEstimator`` streams: each pushed frame is converted to gray,
pyramided and polynomial-expanded once, and its per-level expansions are
kept for the next pair, so a clip costs one expansion per frame and level.
The expansions are stored, and the displacement solve runs over whole
arrays, in float32.

Convention: the returned field is backward flow on the *current* frame's
grid. A pixel p of the current frame originates from p + (u(p), v(p)) in the
previous frame, which is exactly what gather-style warping needs.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .core import FLOW_SCALES, FlowField, Frame
from .resample import align_corners, area_mean, bilinear


PYRAMID_LEVELS = 3
PYRAMID_SCALE = 0.5
WINDOW = 15
ITERATIONS = 3
POLY_N = 5
POLY_SIGMA = 1.1


def to_grayscale(frame: Frame) -> Frame:
    """BT.601 luma; single-channel input is returned unchanged."""
    if frame.channels == 1:
        return frame
    rgb = frame.data.astype(np.float64)
    luma = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    gray = np.rint(luma).astype(np.uint8)
    return Frame(gray[:, :, None], index=frame.index)


def downscale_frame(frame: Frame, scale: float) -> Frame:
    """Area-averaged downsample by 1, 1/2 or 1/4."""
    if scale not in FLOW_SCALES:
        raise ValueError("scale must be one of 1, 1/2, 1/4")
    if scale == 1.0:
        return frame
    k = int(round(1.0 / scale))
    h, w = frame.height // k, frame.width // k
    if h < 2 or w < 2:
        raise ValueError("downscaled frame would be smaller than 2x2")
    d = area_mean(frame.data[:h * k, :w * k], k)
    return Frame(np.rint(d).astype(np.uint8), index=frame.index)


def resize_flow(flow: FlowField, target_h: int, target_w: int) -> FlowField:
    """Bilinearly resample the field (align-corners) and rescale magnitudes
    so displacements are expressed in target-grid pixels."""
    if target_h < 2 or target_w < 2:
        raise ValueError("target dimensions must be >= 2")
    uv = np.stack([flow.u, flow.v], dtype=np.float64)
    u, v = bilinear(uv, target_h, target_w, align_corners)
    u = u * target_w / flow.width
    v = v * target_h / flow.height
    return FlowField(u.astype(np.float32), v.astype(np.float32))


def mean_flow_magnitude(flow: FlowField) -> float:
    return float(np.mean(np.hypot(flow.u.astype(np.float64),
                                  flow.v.astype(np.float64))))


# ---------------------------------------------------------------------------
# Polynomial expansion

def _expansion_basis():
    """Separable correlation kernels of the basis [1, x, y, x^2, y^2, xy]
    and the inverse of the metric G = sum_w a(w) b(w) b(w)^T over the
    Gaussian window, which is the same for every pixel.

    The kernels are three 1-D ones (1, t, t^2 under the Gaussian) and, per
    basis function, the indices of its x and y kernels among them."""
    n2 = POLY_N // 2
    off = np.arange(-n2, n2 + 1, dtype=np.float64)
    ax = np.exp(-off ** 2 / (2.0 * POLY_SIGMA ** 2))
    kernels = (ax, off * ax, off ** 2 * ax)
    pairs = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))

    wy, wx = np.meshgrid(off, off, indexing="ij")
    weight = np.exp(-(wx ** 2 + wy ** 2) / (2.0 * POLY_SIGMA ** 2))
    basis = np.stack([np.ones_like(wx), wx, wy, wx ** 2, wy ** 2, wx * wy])
    flat = basis.reshape(6, -1)
    metric = (flat * weight.ravel()) @ flat.T
    return kernels, pairs, np.linalg.inv(metric)


_KERNELS, _PAIRS, _METRIC_INV = _expansion_basis()


def polynomial_expansion(img: np.ndarray):
    """Per-pixel weighted least-squares quadratic fit of a 2-D float64 array.

    Returns (a11, a12, a22, b1, b2) arrays: f(p + (x, y)) is approximated
    by a11 x^2 + 2 a12 xy + a22 y^2 + b1 x + b2 y + c with Gaussian weights of
    std POLY_SIGMA over a POLY_N x POLY_N neighbourhood. The solve never
    reads the constant term c, so it is not computed.
    """
    rows = [ndimage.correlate1d(img, k, axis=1, mode="nearest")
            for k in _KERNELS]
    proj = np.empty((6,) + img.shape)
    for k, (kx, ky) in enumerate(_PAIRS):
        ndimage.correlate1d(rows[kx], _KERNELS[ky], axis=0, mode="nearest",
                            output=proj[k])

    b1, b2, a11, a22, axy = np.tensordot(_METRIC_INV[1:], proj, axes=1)
    return a11, axy / 2.0, a22, b1, b2


# ---------------------------------------------------------------------------
# Displacement estimation

def _pyramid(img: np.ndarray):
    """Fine-to-coarse list of smoothed, shrunken copies. A level is at least
    4 pixels on a side unless the finer one is smaller, never larger than
    the finer one, and the pyramid stops at a level that does not shrink."""
    sigma = 0.5 / PYRAMID_SCALE
    pyr = [img]
    for _ in range(1, PYRAMID_LEVELS):
        prev = pyr[-1]
        h, w = (min(max(int(round(n * PYRAMID_SCALE)), 4), n)
                for n in prev.shape)
        if (h, w) == prev.shape:
            break
        smoothed = ndimage.gaussian_filter(prev, sigma, mode="nearest")
        pyr.append(bilinear(smoothed, h, w, align_corners))
    return pyr


def expand(frame: Frame) -> list:
    """The frame's (a11, a12, a22, b1, b2) expansions at each pyramid level,
    fine to coarse: everything the solve needs from one frame."""
    img = to_grayscale(frame).data[:, :, 0].astype(np.float64)
    return [tuple(a.astype(np.float32) for a in polynomial_expansion(level))
            for level in _pyramid(img)]


def _solve_level(cur, prev, u, v):
    """ITERATIONS updates of (u, v) at one level; returns the new (u, v).
    ``cur`` and ``prev`` are the two frames' expansions at that level."""
    h, w = u.shape
    a11c, a12c, a22c, b1c, b2c = cur
    a11p, a12p, a22p, b1p, b2p = (a.ravel() for a in prev)
    xx = np.arange(w, dtype=np.float32)
    yy = np.arange(h, dtype=np.float32)[:, None]
    eps = 1e-9

    def box(m):
        # uniform_filter's two passes, in its order, without its set-up
        out = ndimage.uniform_filter1d(m, WINDOW, axis=0, mode="nearest")
        return ndimage.uniform_filter1d(out, WINDOW, axis=1, output=out,
                                        mode="nearest")

    for _ in range(ITERATIONS):
        x = np.clip(np.rint(xx + u), 0, w - 1)
        y = np.clip(np.rint(yy + v), 0, h - 1)
        at = y.astype(np.intp) * w + x.astype(np.intp)
        du = x - xx
        dv = y - yy

        a11 = 0.5 * (a11c + a11p.take(at))
        a12 = 0.5 * (a12c + a12p.take(at))
        a22 = 0.5 * (a22c + a22p.take(at))
        db1 = a11 * du + a12 * dv - 0.5 * (b1p.take(at) - b1c)
        db2 = a12 * du + a22 * dv - 0.5 * (b2p.take(at) - b2c)

        m11 = box(a11 * a11 + a12 * a12)
        m12 = box(a12 * (a11 + a22))
        m22 = box(a12 * a12 + a22 * a22)
        h1 = box(a11 * db1 + a12 * db2)
        h2 = box(a12 * db1 + a22 * db2)
        det = m11 * m22 - m12 * m12
        ok = np.abs(det) > eps
        safe = np.where(ok, det, 1.0)
        u = np.where(ok, (m22 * h1 - m12 * h2) / safe, u)
        v = np.where(ok, (m11 * h2 - m12 * h1) / safe, v)
    return u, v


def estimate_flow(prev, curr: Frame, curr_levels=None) -> FlowField:
    """Backward flow on the current frame's grid (see module docstring).

    ``prev`` is the previous frame or its ``expand`` output; pass the
    current frame's ``expand`` output as ``curr_levels`` when it is at hand.
    """
    if isinstance(prev, Frame):
        prev = expand(prev)
    if prev[0][0].shape != (curr.height, curr.width):
        raise ValueError("frames must share dimensions")
    levels = expand(curr) if curr_levels is None else curr_levels

    # solve with image1 = current and image2 = previous so the displacement
    # points from the current grid into the previous frame
    u = v = None
    for cur_l, prev_l in zip(levels[::-1], prev[::-1]):
        h, w = cur_l[0].shape
        if u is None:
            u = np.zeros((h, w), np.float32)
            v = np.zeros((h, w), np.float32)
        else:
            up = resize_flow(FlowField(u, v), h, w)
            u, v = up.u, up.v
        u, v = _solve_level(cur_l, prev_l, u, v)

    return FlowField(u, v)


class FlowEstimator:
    """Backward flow between consecutive frames of a stream.

    ``push`` takes the next frame (on the flow grid) and returns its flow
    from the frame pushed before it, or None for the first frame. Each
    frame is expanded once; the last frame's expansions are kept for the
    next pair. A push that fails leaves the estimator as it was.
    """

    def __init__(self):
        self._prev = None

    def push(self, frame: Frame) -> FlowField | None:
        levels = expand(frame)
        flow = (None if self._prev is None
                else estimate_flow(self._prev, frame, levels))
        self._prev = levels
        return flow
