"""All resampling: area downscale, bilinear resize and the warp sampler.

There is one coordinate map, ``half_pixel``, for every resize (flow
pyramid, flow resize, decoder): samples sit at pixel centres, and a resize
lines up the centres of the two grids. These are the centres that
``area_mean`` pools to, so the mean of a k x k block sits where a resize
by k puts that block's sample. There is one lerp order, rows (y) then
columns, so ``gather`` at ``half_pixel`` positions equals ``bilinear``
byte for byte: the decoder samples its boundary pixels with ``gather``
(see ``model.decode``), as the warp does.
"""

from __future__ import annotations

import numpy as np


def half_pixel(n_out: int, n_in: int) -> np.ndarray:
    return (np.arange(n_out) + 0.5) / (n_out / n_in) - 0.5


def _taps(pos: np.ndarray, n: int, dtype):
    """Clamp positions to [0, n - 1]; returns (weight of hi, lo, hi)."""
    pos = np.clip(pos, 0, n - 1)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    return (pos - lo).astype(dtype), lo, hi


def area_mean(data: np.ndarray, k: int) -> np.ndarray:
    """Float64 mean of each k x k block of a uint8 (h, w, c) array.

    The k rows of each block are added slice by slice, then its k columns,
    one channel at a time so that every add runs along a whole block row.
    Sums are kept in uint16 when a block's fits and in uint32 otherwise;
    exact sums make the result equal to the float64 mean."""
    h, w, c = data.shape
    if h % k or w % k:
        raise ValueError(f"{h}x{w} does not divide into {k}x{k} blocks")
    acc = np.uint16 if k * k * 255 <= np.iinfo(np.uint16).max else np.uint32
    rows = data.reshape(h // k, k, w * c)
    sums = rows[:, 0].astype(acc)
    for i in range(1, k):
        sums += rows[:, i]
    cols = sums.reshape(h // k, w // k, k, c)
    total = np.empty((h // k, w // k, c), acc)
    for ch in range(c):
        out = total[:, :, ch]
        out[...] = cols[:, :, 0, ch]
        for i in range(1, k):
            out += cols[:, :, i, ch]
    return total / (k * k)


def bilinear(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable bilinear resize of the last two axes at ``half_pixel``
    positions; rows, then columns."""
    in_h, in_w = data.shape[-2:]
    if (in_h, in_w) == (out_h, out_w):
        return data
    fy, y0, y1 = _taps(half_pixel(out_h, in_h), in_h, data.dtype)
    fx, x0, x1 = _taps(half_pixel(out_w, in_w), in_w, data.dtype)
    # each lerp a + f * (b - a) runs in place on the b it allocates
    top = data.take(y0, axis=-2)
    rows = data.take(y1, axis=-2)
    rows -= top
    rows *= fy[:, None]
    rows += top
    left = rows.take(x0, axis=-1)
    out = rows.take(x1, axis=-1)
    out -= left
    out *= fx
    out += left
    return out


def gather(data: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sample (c, h, w) data at real-valued coordinates x and y, clamped;
    they broadcast to the output's trailing shape. Lerps run rows, then
    columns, as in ``bilinear``. Each corner is one ``take`` of y * w + x."""
    c, h, w = data.shape
    fx, x0, x1 = _taps(x, w, data.dtype)
    fy, y0, y1 = _taps(y, h, data.dtype)
    flat = data.reshape(c, h * w)
    row0, row1 = y0 * w, y1 * w
    left = flat.take(row0 + x0, axis=1)
    left = left + fy * (flat.take(row1 + x0, axis=1) - left)
    right = flat.take(row0 + x1, axis=1)
    right = right + fy * (flat.take(row1 + x1, axis=1) - right)
    return left + fx * (right - left)
