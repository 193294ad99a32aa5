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

Scratch: the expansion's and the solve's temporaries live in one float64
block of ``SCRATCH_PLANES`` planes of the finest level (7.2 MB at
320x256); a coarser level carves its arrays from the front of the same
block. ``FlowEstimator`` makes its block on the first push and again only
when the frame size changes, so the flow path allocates no large
temporaries in steady state and its speed does not depend on whether the
allocator gave the last frame's memory back to the system.
``polynomial_expansion``, ``_solve_level``, ``expand`` and
``estimate_flow`` take the block as an optional last argument and make
one when it is not given. The expansion and the solve never run at the
same time, so they share it. The block holds temporaries only: the kept
expansions and the returned fields are fresh arrays, and nothing read
from the block outlives the call that wrote it, so callers may keep every
result while the block is reused.

Convention: the returned field is backward flow on the *current* frame's
grid. A pixel p of the current frame originates from p + (u(p), v(p)) in the
previous frame, which is exactly what gather-style warping needs.
"""

from __future__ import annotations

import math

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
# float64 planes of the finest level in a scratch block: the expansion's 6
# projections plus its 3 row passes, which its 5 coefficients then overlay;
# the solve's temporaries take 81 of the 88 bytes per pixel
SCRATCH_PLANES = 11


def to_grayscale(frame: Frame) -> Frame:
    """BT.601 luma; single-channel input is returned unchanged."""
    if frame.channels == 1:
        return frame
    # uint8 planes promote to float64 exactly, one product at a time
    data = frame.data
    luma = 0.299 * data[:, :, 0] + 0.587 * data[:, :, 1]
    luma += 0.114 * data[:, :, 2]
    gray = np.rint(luma, out=luma).astype(np.uint8)
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

    def component(comp, n_out, n_in):
        # one component at a time, so one float64 copy is alive at once
        up = bilinear(comp.astype(np.float64), target_h, target_w,
                      align_corners)
        up *= n_out
        up /= n_in
        return up.astype(np.float32)

    return FlowField(component(flow.u, target_w, flow.width),
                     component(flow.v, target_h, flow.height))


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


def _scratch(shape, block=None) -> np.ndarray:
    """``block`` if it is sized for frames of ``shape``, else a new scratch
    block for them and their coarser levels."""
    size = SCRATCH_PLANES * math.prod(shape)
    fits = block is not None and block.size == size
    return block if fits else np.empty(size)


def _carve(scratch: np.ndarray, shape, *dtypes):
    """Consecutive arrays of ``shape`` and ``dtypes`` from the block's
    front."""
    raw = scratch.view(np.uint8)
    n = math.prod(shape)
    arrays, offset = [], 0
    for dtype in dtypes:
        size = n * np.dtype(dtype).itemsize
        arrays.append(raw[offset:offset + size].view(dtype).reshape(shape))
        offset += size
    return arrays


def polynomial_expansion(img: np.ndarray, scratch=None):
    """Per-pixel weighted least-squares quadratic fit of a 2-D float64 array.

    Returns (a11, a12, a22, b1, b2) arrays: f(p + (x, y)) is approximated
    by a11 x^2 + 2 a12 xy + a22 y^2 + b1 x + b2 y + c with Gaussian weights of
    std POLY_SIGMA over a POLY_N x POLY_N neighbourhood. The solve never
    reads the constant term c, so it is not computed. The arrays are views
    into ``scratch`` (a new block when it is None), valid until its next use.
    """
    h, w = img.shape
    n = h * w
    if scratch is None:
        scratch = _scratch(img.shape)
    proj = scratch[:6 * n].reshape(6, h, w)
    rows = scratch[6 * n:9 * n].reshape(3, h, w)
    for kernel, row in zip(_KERNELS, rows):
        ndimage.correlate1d(img, kernel, axis=1, mode="nearest", output=row)
    for k, (kx, ky) in enumerate(_PAIRS):
        ndimage.correlate1d(rows[kx], _KERNELS[ky], axis=0, mode="nearest",
                            output=proj[k])

    # the row passes are dead: the coefficients overlay them
    coeffs = scratch[6 * n:11 * n].reshape(5, n)
    np.dot(_METRIC_INV[1:], proj.reshape(6, n), out=coeffs)
    b1, b2, a11, a22, axy = coeffs.reshape(5, h, w)
    axy /= 2.0
    return a11, axy, a22, b1, b2


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


def expand(frame: Frame, scratch=None) -> list:
    """The frame's (a11, a12, a22, b1, b2) expansions at each pyramid level,
    fine to coarse: everything the solve needs from one frame. The float32
    arrays are fresh; ``scratch`` holds only the expansion's temporaries."""
    img = to_grayscale(frame).data[:, :, 0].astype(np.float64)
    if scratch is None:
        scratch = _scratch(img.shape)
    return [tuple(a.astype(np.float32)
                  for a in polynomial_expansion(level, scratch))
            for level in _pyramid(img)]


def _solve_level(cur, prev, u, v, scratch=None):
    """ITERATIONS updates of (u, v) at one level, in place; returns (u, v).
    ``cur`` and ``prev`` are the two frames' expansions at that level, and
    the temporaries are carved from ``scratch`` (a new block when None).
    Each step is the float32 operation of the plain expression in the
    comment above it, in its order, so the result does not depend on
    where the temporaries live."""
    h, w = u.shape
    if scratch is None:
        scratch = _scratch(u.shape)
    a11c, a12c, a22c, b1c, b2c = cur
    a11p, a12p, a22p, b1p, b2p = (a.ravel() for a in prev)
    xx = np.arange(w, dtype=np.float32)
    yy = np.arange(h, dtype=np.float32)[:, None]
    eps = 1e-9
    (at, xi, x, y, du, dv, a11, a12, a22, db1, db2, t, t2,
     m11, m12, m22, h1, h2, ok) = _carve(
        scratch, u.shape, np.intp, np.intp, *[np.float32] * 16, np.bool_)

    def box(m, out):
        # uniform_filter's two passes, in its order, without its set-up
        ndimage.uniform_filter1d(m, WINDOW, axis=0, output=out,
                                 mode="nearest")
        ndimage.uniform_filter1d(out, WINDOW, axis=1, output=out,
                                 mode="nearest")

    def box_of(p, q, r, s, out):
        # box(p * q + r * s)
        np.multiply(p, q, out=t)
        np.multiply(r, s, out=t2)
        box(np.add(t, t2, out=t), out)

    for _ in range(ITERATIONS):
        # x = clip(rint(xx + u), 0, w - 1), likewise y
        np.add(xx, u, out=x)
        np.clip(np.rint(x, out=x), 0, w - 1, out=x)
        np.add(yy, v, out=y)
        np.clip(np.rint(y, out=y), 0, h - 1, out=y)
        # at = int(y) * w + int(x), the flat index of the previous frame
        np.copyto(at, y, casting="unsafe")
        at *= w
        np.copyto(xi, x, casting="unsafe")
        at += xi
        np.subtract(x, xx, out=du)
        np.subtract(y, yy, out=dv)

        # a = 0.5 * (ac + ap[at]); indices are in range, so "clip" reads
        # what "raise" would, without buffering the output
        for a, ap, ac in ((a11, a11p, a11c), (a12, a12p, a12c),
                          (a22, a22p, a22c)):
            ap.take(at, out=a, mode="clip")
            a += ac
            a *= 0.5
        # db = ax * du + ay * dv - 0.5 * (bp[at] - bc)
        for db, ax, ay, bp, bc in ((db1, a11, a12, b1p, b1c),
                                   (db2, a12, a22, b2p, b2c)):
            np.multiply(ax, du, out=db)
            np.multiply(ay, dv, out=t)
            db += t
            bp.take(at, out=t, mode="clip")
            t -= bc
            t *= 0.5
            db -= t

        box_of(a11, a11, a12, a12, m11)
        np.add(a11, a22, out=t)
        t *= a12
        box(t, m12)
        box_of(a12, a12, a22, a22, m22)
        box_of(a11, db1, a12, db2, h1)
        box_of(a12, db1, a22, db2, h2)
        # det = m11 * m22 - m12 * m12 (in t); ok = |det| > eps
        np.multiply(m11, m22, out=t)
        np.multiply(m12, m12, out=t2)
        t -= t2
        np.greater(np.abs(t, out=t2), eps, out=ok)
        # u = where(ok, (m22 * h1 - m12 * h2) / det, u), likewise v
        for out, ma, hb, hc in ((u, m22, h1, h2), (v, m11, h2, h1)):
            np.multiply(ma, hb, out=t2)
            np.multiply(m12, hc, out=du)
            t2 -= du
            np.divide(t2, t, out=out, where=ok)
    return u, v


def estimate_flow(prev, curr: Frame, curr_levels=None,
                  scratch=None) -> FlowField:
    """Backward flow on the current frame's grid (see module docstring).

    ``prev`` is the previous frame or its ``expand`` output; pass the
    current frame's ``expand`` output as ``curr_levels`` when it is at hand.
    ``scratch`` is a block for the current frame's size (see the module
    docstring); one is made when it is None.
    """
    if isinstance(prev, Frame):
        prev = expand(prev, scratch)
    if prev[0][0].shape != (curr.height, curr.width):
        raise ValueError("frames must share dimensions")
    if scratch is None:
        scratch = _scratch(prev[0][0].shape)
    levels = expand(curr, scratch) if curr_levels is None else curr_levels

    # solve with image1 = current and image2 = previous so the displacement
    # points from the current grid into the previous frame; u and v are
    # fresh arrays, updated in place, so the field returned owns them
    u = v = None
    for cur_l, prev_l in zip(levels[::-1], prev[::-1]):
        h, w = cur_l[0].shape
        if u is None:
            u = np.zeros((h, w), np.float32)
            v = np.zeros((h, w), np.float32)
        else:
            up = resize_flow(FlowField(u, v), h, w)
            u, v = up.u, up.v
        u, v = _solve_level(cur_l, prev_l, u, v, scratch)

    return FlowField(u, v)


class FlowEstimator:
    """Backward flow between consecutive frames of a stream.

    ``push`` takes the next frame (on the flow grid) and returns its flow
    from the frame pushed before it, or None for the first frame. Each
    frame is expanded once; the last frame's expansions are kept for the
    next pair. A push that fails leaves the estimator as it was.

    The estimator also owns one scratch block (see the module docstring),
    made on the first push and again when the frame size changes. The block
    carries nothing from one push to the next, so a shallow copy, which
    ``Segmenter`` pushes to, may share it; the kept expansions are state
    and are rebound, never mutated. A block must not serve two pushes at
    once: one estimator and its copies are pushed to by one thread at a
    time.
    """

    def __init__(self):
        self._prev = None
        self._scratch = None

    def push(self, frame: Frame) -> FlowField | None:
        scratch = _scratch((frame.height, frame.width), self._scratch)
        levels = expand(frame, scratch)
        flow = (None if self._prev is None
                else estimate_flow(self._prev, frame, levels, scratch))
        self._prev, self._scratch = levels, scratch
        return flow
