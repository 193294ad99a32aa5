"""Dense optical flow between consecutive frames.

The estimator follows the classic polynomial-expansion scheme: every pixel
neighbourhood is fitted with a quadratic f(x) ~ x'Ax + b'x + c under Gaussian
weighting, and the displacement relating the two fits is solved over a local
window, coarse-to-fine over an image pyramid (Farnebäck, "Two-Frame Motion
Estimation Based on Polynomial Expansion", SCIA 2003). The settings are fixed:
3 pyramid levels at scale 0.5, a 15-pixel window, 3, 2 and 1 iterations,
coarse to fine, and a 5x5 expansion neighbourhood with Gaussian sigma 1.1.
Each iteration samples the previous frame at the displacement rounded to
whole pixels, so it cannot refine below a pixel; a fine level's later
iterations would mostly re-round what the coarser levels already found.

``FlowEstimator.push`` is the one way from frames to a flow field: each
pushed frame is converted to gray, pyramided and polynomial-expanded once,
and its per-level expansions are kept for the next pair, so a clip costs
one expansion per frame and level. The flow of a single pair is two pushes
to a fresh estimator.

Everything after the grayscale runs in float32, over whole arrays: the
pyramid's smoothing, the expansion, the solve and ``resize_flow``. The
pyramid and the expansion correlate by slices of padded buffers whose
edges ``_correlate`` replicates itself, once per buffer for all the
kernels that read it, and the expansion folds the inverse of its metric
into its 1-D kernels, so each of its five coefficients is one row pass and
one column pass. The solve's box filters are scipy's ``uniform_filter1d``;
``_solve_level`` imports ``scipy.ndimage`` when it runs, not this module,
so a process that never solves flow never loads scipy.

Scratch: the temporaries of the pyramid, the expansion and the solve live
in one block of ``SCRATCH_PLANES`` float64 planes of the finest level
(7.2 MB at 320x256); a coarser level carves its arrays from the front of
the same block. The solve's 19 planes take 81 of its 88 bytes per pixel;
the pyramid's padded copies and the expansion's padded copy and 3 row
passes, all float32, take about 16 and 20. ``FlowEstimator`` makes its
block on the first push and serves only that frame size (a push of another
fails), so the flow path allocates no large temporaries in steady state
and its speed does not depend on whether the allocator gave the last
frame's memory back to the system. The three never run at the same time,
so they share it. The block holds temporaries only: the pyramid's levels,
the kept expansions and the returned fields are fresh arrays, and nothing
read from the block outlives the call that wrote it, so callers may keep
every result while the block is reused.

Convention: the returned field is backward flow on the *current* frame's
grid. A pixel p of the current frame originates from p + (u(p), v(p)) in the
previous frame, which is exactly what gather-style warping needs.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FLOW_SCALES, FlowField, Frame, check_real
from .resample import area_mean, bilinear


PYRAMID_LEVELS = 3
PYRAMID_SCALE = 0.5
WINDOW = 15
# solve iterations per pyramid level, coarse to fine; a frame with fewer
# levels uses the finest entries
ITERATIONS = (3, 2, 1)
POLY_N = 5
POLY_SIGMA = 1.1
# float64 planes of the finest level in a scratch block, sized by the
# solve's temporaries: 81 of the 88 bytes per pixel
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
    check_real("scale", scale)
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
    """Bilinearly resample the field and rescale magnitudes so
    displacements are expressed in target-grid pixels."""
    if (target_h, target_w) == (flow.height, flow.width):
        return FlowField(flow.u.copy(), flow.v.copy())

    def component(comp, n_out, n_in):
        # float32 throughout; a ratio of 1 leaves the samples exact
        up = bilinear(comp, target_h, target_w)
        up *= n_out / n_in
        return up

    return FlowField(component(flow.u, target_w, flow.width),
                     component(flow.v, target_h, flow.height))


# ---------------------------------------------------------------------------
# Scratch and separable correlation

def _scratch(shape) -> np.ndarray:
    """A scratch block for frames of ``shape`` and their coarser levels."""
    return np.empty(SCRATCH_PLANES * math.prod(shape))


def _carve(scratch: np.ndarray, *specs):
    """Consecutive arrays from the block's front, one per (shape, dtype)
    pair."""
    raw = scratch.view(np.uint8)
    arrays, offset = [], 0
    for shape, dtype in specs:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        arrays.append(raw[offset:offset + size].view(dtype).reshape(shape))
        offset += size
    return arrays


def _along(axis: int, start: int, stop: int):
    """The index of ``start:stop`` on ``axis`` of a 2-D array."""
    return (slice(None),) * axis + (slice(start, stop),)


def _correlate(src: np.ndarray, axis: int, tmp: np.ndarray, pairs):
    """``out`` = ``ndimage.correlate1d(inner, kernel, axis)`` in float32 for
    each (kernel, out) of ``pairs``, kernels of one length, where ``src`` is
    the inner array with ``len(kernel) // 2`` padding cells beyond each end
    of ``axis``. It fills that padding once, itself, with the outermost
    inner cells, as ndimage's ``nearest`` mode reads them. A float32 kernel
    is symmetric or antisymmetric, so each pair of taps at one distance
    costs an add or a subtract and one multiply, on whole-array slices.
    ``tmp`` is a buffer of each ``out``'s shape."""
    kernel, out = pairs[0]
    r = len(kernel) // 2
    n = out.shape[axis]
    src[_along(axis, 0, r)] = src[_along(axis, r, r + 1)]
    src[_along(axis, n + r, n + 2 * r)] = src[_along(axis, n + r - 1, n + r)]

    def tap(j):
        return src[_along(axis, j, j + n)]

    for kernel, out in pairs:
        pair = np.add if kernel[0] == kernel[-1] else np.subtract
        started = bool(kernel[r])
        if started:
            np.multiply(tap(r), kernel[r], out=out)
        for d in range(1, r + 1):
            dst = tmp if started else out
            pair(tap(r + d), tap(r - d), out=dst)
            dst *= kernel[r + d]
            if started:
                out += tmp
            started = True


# ---------------------------------------------------------------------------
# Polynomial expansion

def _inverse_metric() -> np.ndarray:
    """The inverse of the metric G = sum_w a(w) b(w) b(w)^T of the basis
    b = [1, x, y, x^2, y^2, xy] under the Gaussian window a, which is the
    same for every pixel. Its rows give the basis coefficients (c, b1, b2,
    a11, a22, 2 a12) from the window's projections onto the basis."""
    n2 = POLY_N // 2
    off = np.arange(-n2, n2 + 1, dtype=np.float64)
    wy, wx = np.meshgrid(off, off, indexing="ij")
    weight = np.exp(-(wx ** 2 + wy ** 2) / (2.0 * POLY_SIGMA ** 2))
    basis = np.stack([np.ones_like(wx), wx, wy, wx ** 2, wy ** 2, wx * wy])
    flat = basis.reshape(6, -1)
    return np.linalg.inv((flat * weight.ravel()) @ flat.T)


def _expansion_kernels():
    """Float32 1-D kernels with G^-1 folded in: the distinct row (x) kernels
    and, per coefficient a11, a12, a22, b1, b2, the index of its row kernel
    and its column (y) kernel.

    With K0, K1, K2 the Gaussian-weighted 1, t and t^2 and g = G^-1, a
    coefficient is its row of g times the six projections C[Ky] R[Kx].
    Over a symmetric window g has no other entries in the rows used here
    than g30, g33, g40, g44, g11, g22 and g55 (the rest are 0 up to
    rounding), so each coefficient is one product of a row and a column
    pass, e.g. a11 = C[K0] R[g30 K0 + g33 K2]."""
    n2 = POLY_N // 2
    off = np.arange(-n2, n2 + 1, dtype=np.float64)
    k0 = np.exp(-off ** 2 / (2.0 * POLY_SIGMA ** 2))
    k1, k2 = off * k0, off ** 2 * k0
    g = _inverse_metric()
    rows = (g[3, 0] * k0 + g[3, 3] * k2, k0, k1)
    columns = ((0, k0),                            # a11
               (2, g[5, 5] / 2.0 * k1),            # a12
               (1, g[4, 0] * k0 + g[4, 4] * k2),   # a22
               (2, g[1, 1] * k0),                  # b1
               (1, g[2, 2] * k1))                  # b2
    return (tuple(k.astype(np.float32) for k in rows),
            tuple((i, k.astype(np.float32)) for i, k in columns))


_ROW_KERNELS, _COLUMN_KERNELS = _expansion_kernels()


def polynomial_expansion(img: np.ndarray, scratch: np.ndarray):
    """Per-pixel weighted least-squares quadratic fit of a 2-D array.

    Returns (a11, a12, a22, b1, b2) arrays: f(p + (x, y)) is approximated
    by a11 x^2 + 2 a12 xy + a22 y^2 + b1 x + b2 y + c with Gaussian weights of
    std POLY_SIGMA over a POLY_N x POLY_N neighbourhood, and edges
    replicated. The solve never reads the constant term c, so it is not
    computed. Each coefficient is one row pass and one column pass of the
    kernels that fold G^-1 in (``_expansion_kernels``), in float32; a
    float64 ``img`` is rounded to float32 as it is copied in. The five
    arrays are fresh float32 ones; the padded copies and the 3 row passes
    are carved from ``scratch``, a ``_scratch`` block for ``img``'s shape
    or a finer one.
    """
    h, w = img.shape
    r = POLY_N // 2
    # the image padded along x; each row pass is padded along y
    pad_x, tmp, *rows = _carve(
        scratch, ((h, w + 2 * r), np.float32), ((h, w), np.float32),
        *[((h + 2 * r, w), np.float32)] * len(_ROW_KERNELS))
    pad_x[:, r:r + w] = img
    # each padded buffer is filled once, by one call for all its kernels
    _correlate(pad_x, 1, tmp, [(k, row[r:r + h])
                               for k, row in zip(_ROW_KERNELS, rows)])
    coeffs = [np.empty((h, w), np.float32) for _ in _COLUMN_KERNELS]
    for i, row in enumerate(rows):
        _correlate(row, 0, tmp, [(k, c) for (j, k), c
                                 in zip(_COLUMN_KERNELS, coeffs) if j == i])
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Displacement estimation

def _gaussian(sigma: float) -> np.ndarray:
    """The float32 1-D Gaussian of ``ndimage.gaussian_filter``: radius
    4 sigma, normalised in float64."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    phi = np.exp(-0.5 / sigma ** 2 * x ** 2)
    return (phi / phi.sum()).astype(np.float32)


_SMOOTH = _gaussian(0.5 / PYRAMID_SCALE)


def _pyramid(img: np.ndarray, scratch: np.ndarray):
    """Fine-to-coarse list of smoothed, shrunken copies. A level is at least
    4 pixels on a side unless the finer one is smaller, never larger than
    the finer one, and the pyramid stops at a level that does not shrink.
    A level is the finer one smoothed with ``_SMOOTH`` along y, then x,
    with edges replicated, in float32, then shrunk by ``bilinear``; the
    smoothing's temporaries are carved from ``scratch``, a block sized for
    ``img`` (``_scratch``), and the levels are fresh arrays."""
    r = len(_SMOOTH) // 2
    pyr = [img]
    for _ in range(1, PYRAMID_LEVELS):
        prev = pyr[-1]
        h, w = (min(max(int(round(n * PYRAMID_SCALE)), 4), n)
                for n in prev.shape)
        if (h, w) == prev.shape:
            break
        ph, pw = prev.shape
        # the level padded along y; its y pass padded along x
        pad_y, pad_x, smoothed, tmp = _carve(
            scratch, ((ph + 2 * r, pw), np.float32),
            ((ph, pw + 2 * r), np.float32), ((ph, pw), np.float32),
            ((ph, pw), np.float32))
        pad_y[r:r + ph] = prev
        _correlate(pad_y, 0, tmp, [(_SMOOTH, pad_x[:, r:r + pw])])
        _correlate(pad_x, 1, tmp, [(_SMOOTH, smoothed)])
        pyr.append(bilinear(smoothed, h, w))
    return pyr


def expand(frame: Frame, scratch: np.ndarray) -> list:
    """The frame's (a11, a12, a22, b1, b2) expansions at each pyramid level,
    fine to coarse: what ``FlowEstimator`` keeps of a frame for the next
    pair. The gray plane becomes float32 once, and every level and
    expansion stays in float32; the arrays returned are fresh, and
    ``scratch`` holds only temporaries."""
    img = to_grayscale(frame).data[:, :, 0].astype(np.float32)
    return [polynomial_expansion(level, scratch)
            for level in _pyramid(img, scratch)]


def _solve_level(cur, prev, u, v, scratch: np.ndarray, iterations: int):
    """``iterations`` updates of (u, v) at one level, in place; returns
    (u, v). ``estimate_flow`` gives the levels 3, 2 and 1 iterations,
    coarse to fine (``ITERATIONS``).
    ``cur`` and ``prev`` are the two frames' expansions at that level, and
    the temporaries are carved from ``scratch``. Each step is the float32
    operation of the plain expression in the comment above it, in its
    order, so the result does not depend on where the temporaries live."""
    # 0.3-0.4 s to import on a 2-CPU Xeon VM; only a flow solve pays it
    from scipy import ndimage

    h, w = u.shape
    a11c, a12c, a22c, b1c, b2c = cur
    a11p, a12p, a22p, b1p, b2p = (a.ravel() for a in prev)
    xx = np.arange(w, dtype=np.float32)
    yy = np.arange(h, dtype=np.float32)[:, None]
    eps = 1e-9
    (at, xi, x, y, du, dv, a11, a12, a22, db1, db2, t, t2,
     m11, m12, m22, h1, h2, ok) = _carve(
        scratch, *((u.shape, dtype) for dtype in
                   (np.intp, np.intp, *[np.float32] * 16, np.bool_)))

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

    for _ in range(iterations):
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


def estimate_flow(prev: list, curr: Frame, levels: list,
                  scratch: np.ndarray) -> FlowField:
    """Backward flow on the current frame's grid (see module docstring).

    ``prev`` and ``levels`` are the ``expand`` outputs of the previous
    frame and of ``curr``, which share one size, and ``scratch`` is the
    estimator's block for that size. ``FlowEstimator.push`` is the only
    caller.
    """
    # solve with image1 = current and image2 = previous so the displacement
    # points from the current grid into the previous frame; each level
    # solves in place on a fresh resize of the coarser level's field (of a
    # zero field at the coarsest), so the field returned owns its arrays
    flow = FlowField.zeros(*levels[-1][0].shape)
    schedule = ITERATIONS[-len(levels):]
    for cur_l, prev_l, iterations in zip(levels[::-1], prev[::-1], schedule):
        flow = resize_flow(flow, *cur_l[0].shape)
        flow = FlowField(*_solve_level(cur_l, prev_l, flow.u, flow.v,
                                       scratch, iterations))
    return flow


class FlowEstimator:
    """Backward flow between consecutive frames of a stream.

    ``push`` takes the next frame (on the flow grid) and returns its flow
    from the frame pushed before it, or None for the first frame. Each
    frame is expanded once; the last frame's expansions are kept for the
    next pair, and ``push`` hands both to ``estimate_flow``. A push that
    fails leaves the estimator as it was.

    The estimator also owns one scratch block (see the module docstring),
    made on the first push for the one frame size it serves; a push of
    another size fails before it is expanded. The block
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
        shape = (frame.height, frame.width)
        if self._prev is not None and self._prev[0][0].shape != shape:
            raise ValueError("frames must share dimensions")
        scratch = _scratch(shape) if self._scratch is None else self._scratch
        levels = expand(frame, scratch)
        flow = (None if self._prev is None
                else estimate_flow(self._prev, frame, levels, scratch))
        self._prev, self._scratch = levels, scratch
        return flow
