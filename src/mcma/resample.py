"""All resampling: area downscale, bilinear resize and the warp sampler.

A coordinate map ``coords(n_out, n_in)`` places each output sample on the
source grid: ``align_corners`` pins both grids' end samples together (flow
pyramid, flow resize), ``half_pixel`` aligns pixel centres (decoder). The
decoder does not call ``bilinear``: it takes ``half_pixel`` positions
through ``taps`` and repeats ``bilinear``'s lerps only where class
boundaries need them (see ``model.decode``).
"""

from __future__ import annotations

import numpy as np


def align_corners(n_out: int, n_in: int) -> np.ndarray:
    """Needs n_out >= 2: the first and last outputs sit on the input's."""
    return np.arange(n_out) * ((n_in - 1) / (n_out - 1))


def half_pixel(n_out: int, n_in: int) -> np.ndarray:
    return (np.arange(n_out) + 0.5) / (n_out / n_in) - 0.5


def taps(pos: np.ndarray, n: int, dtype):
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


def bilinear(data: np.ndarray, out_h: int, out_w: int, coords) -> np.ndarray:
    """Separable bilinear resize of the last two axes; rows, then columns."""
    in_h, in_w = data.shape[-2:]
    if (in_h, in_w) == (out_h, out_w):
        return data
    fy, y0, y1 = taps(coords(out_h, in_h), in_h, data.dtype)
    fx, x0, x1 = taps(coords(out_w, in_w), in_w, data.dtype)
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
    """Sample (c, h, w) data at real-valued coordinate arrays, clamped.
    Each corner is read with one ``take`` of the flat index y * w + x."""
    c, h, w = data.shape
    fx, x0, x1 = taps(x, w, data.dtype)
    fy, y0, y1 = taps(y, h, data.dtype)
    flat = data.reshape(c, h * w)
    row0, row1 = y0 * w, y1 * w
    top = flat.take(row0 + x0, axis=1)
    top = top + fx * (flat.take(row0 + x1, axis=1) - top)
    bot = flat.take(row1 + x0, axis=1)
    bot = bot + fx * (flat.take(row1 + x1, axis=1) - bot)
    return top + fy * (bot - top)
