"""Dense optical flow between consecutive frames.

The estimator follows the classic polynomial-expansion scheme: every pixel
neighbourhood is fitted with a quadratic f(x) ~ x'Ax + b'x + c under Gaussian
weighting, and the displacement relating the two fits is solved over a local
window, coarse-to-fine over an image pyramid (Farnebäck, "Two-Frame Motion
Estimation Based on Polynomial Expansion", SCIA 2003). The settings are fixed:
3 pyramid levels at scale 0.5, a 15-pixel window, 3 iterations per level, and
a 5x5 expansion neighbourhood with Gaussian sigma 1.1.

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
    """Separable (x, y) correlation kernels of the basis [1, x, y, x^2, y^2,
    xy] and the inverse of the metric G = sum_w a(w) b(w) b(w)^T over the
    Gaussian window, which is the same for every pixel."""
    n2 = POLY_N // 2
    off = np.arange(-n2, n2 + 1, dtype=np.float64)
    ax = np.exp(-off ** 2 / (2.0 * POLY_SIGMA ** 2))
    one, lin, sq = ax, off * ax, off ** 2 * ax
    kernels = ((one, one), (lin, one), (one, lin),
               (sq, one), (one, sq), (lin, lin))

    wy, wx = np.meshgrid(off, off, indexing="ij")
    weight = np.exp(-(wx ** 2 + wy ** 2) / (2.0 * POLY_SIGMA ** 2))
    basis = np.stack([np.ones_like(wx), wx, wy, wx ** 2, wy ** 2, wx * wy])
    flat = basis.reshape(6, -1)
    metric = (flat * weight.ravel()) @ flat.T
    return kernels, np.linalg.inv(metric)


_KERNELS, _METRIC_INV = _expansion_basis()


def polynomial_expansion(gray: Frame | np.ndarray):
    """Per-pixel weighted least-squares quadratic fit.

    Returns (a11, a12, a22, b1, b2, c) arrays: f(p + (x, y)) is approximated
    by a11 x^2 + 2 a12 xy + a22 y^2 + b1 x + b2 y + c with Gaussian weights of
    std POLY_SIGMA over a POLY_N x POLY_N neighbourhood.
    """
    if isinstance(gray, Frame):
        if gray.channels != 1:
            raise ValueError("expansion expects a single-channel frame")
        img = gray.data[:, :, 0].astype(np.float64)
    else:
        img = np.asarray(gray, np.float64)

    proj = np.empty((6,) + img.shape)
    for k, (kx, ky) in enumerate(_KERNELS):
        tmp = ndimage.correlate1d(img, kx, axis=1, mode="nearest")
        proj[k] = ndimage.correlate1d(tmp, ky, axis=0, mode="nearest")

    r = np.tensordot(_METRIC_INV, proj, axes=1)
    c, b1, b2, a11, a22, axy = r
    return a11, axy / 2.0, a22, b1, b2, c


# ---------------------------------------------------------------------------
# Displacement estimation

def _pyramid(img: np.ndarray):
    """Fine-to-coarse list of smoothed, shrunken copies."""
    sigma = 0.5 / PYRAMID_SCALE
    pyr = [img]
    for _ in range(1, PYRAMID_LEVELS):
        prev = pyr[-1]
        h = max(int(round(prev.shape[0] * PYRAMID_SCALE)), 4)
        w = max(int(round(prev.shape[1] * PYRAMID_SCALE)), 4)
        if (h, w) == prev.shape:
            break
        smoothed = ndimage.gaussian_filter(prev, sigma, mode="nearest")
        pyr.append(bilinear(smoothed, h, w, align_corners))
    return pyr


def _solve_level(expand_cur, expand_prev, u, v):
    a11c, a12c, a22c, b1c, b2c = expand_cur
    a11p, a12p, a22p, b1p, b2p = expand_prev
    h, w = a11c.shape
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    eps = 1e-9

    for _ in range(ITERATIONS):
        sx = np.clip(np.rint(xx + u), 0, w - 1).astype(np.intp)
        sy = np.clip(np.rint(yy + v), 0, h - 1).astype(np.intp)
        du = sx - xx
        dv = sy - yy

        a11 = 0.5 * (a11c + a11p[sy, sx])
        a12 = 0.5 * (a12c + a12p[sy, sx])
        a22 = 0.5 * (a22c + a22p[sy, sx])
        db1 = a11 * du + a12 * dv - 0.5 * (b1p[sy, sx] - b1c)
        db2 = a12 * du + a22 * dv - 0.5 * (b2p[sy, sx] - b2c)

        m11 = a11 * a11 + a12 * a12
        m12 = a12 * (a11 + a22)
        m22 = a12 * a12 + a22 * a22
        h1 = a11 * db1 + a12 * db2
        h2 = a12 * db1 + a22 * db2
        m11, m12, m22, h1, h2 = (
            ndimage.uniform_filter(arr, WINDOW, mode="nearest")
            for arr in (m11, m12, m22, h1, h2))

        det = m11 * m22 - m12 * m12
        ok = np.abs(det) > eps
        safe = np.where(ok, det, 1.0)
        u = np.where(ok, (m22 * h1 - m12 * h2) / safe, u)
        v = np.where(ok, (m11 * h2 - m12 * h1) / safe, v)
    return u, v


def estimate_flow(prev: Frame, curr: Frame) -> FlowField:
    """Backward flow on the current frame's grid (see module docstring)."""
    if (prev.height, prev.width) != (curr.height, curr.width):
        raise ValueError("frames must share dimensions")

    prev_img = to_grayscale(prev).data[:, :, 0].astype(np.float64)
    curr_img = to_grayscale(curr).data[:, :, 0].astype(np.float64)

    # solve with image1 = current and image2 = previous so the displacement
    # points from the current grid into the previous frame
    pyr_cur = _pyramid(curr_img)
    pyr_prev = _pyramid(prev_img)

    u = v = None
    for level in range(len(pyr_cur) - 1, -1, -1):
        cur_l, prev_l = pyr_cur[level], pyr_prev[level]
        h, w = cur_l.shape
        if u is None:
            u = np.zeros((h, w))
            v = np.zeros((h, w))
        else:
            up = resize_flow(FlowField(u.astype(np.float32),
                                       v.astype(np.float32)), h, w)
            u = up.u.astype(np.float64)
            v = up.v.astype(np.float64)
        exp_cur = polynomial_expansion(cur_l)[:5]
        exp_prev = polynomial_expansion(prev_l)[:5]
        u, v = _solve_level(exp_cur, exp_prev, u, v)

    return FlowField(u.astype(np.float32), v.astype(np.float32))
