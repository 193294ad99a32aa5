"""Synthetic sequences with ground-truth masks and backward flow.

Rigid shapes glide over a flat background. Each surface carries its own
seeded jitter texture that translates with it, so optical flow stays
observable (constant-color regions would hit the aperture problem).
Optional single-frame label noise recolors background pixels toward a
foreground prototype to create baseline false-positive flicker.

Frames are rendered from 1-D pixel coordinates, because every test is
separable: a texture index depends on the column or the row alone, a
rectangle is a column test AND a row test, and a disk adds a column term
to a row term. Each object is drawn only inside its integer bounding box,
one pixel wider on each side than rounding could reach, and each noise
blob is stamped around its center. These are the float64 operations of a
whole-frame render, so the output is the same to the byte;
tests/test_synth_exact.py keeps that render as the oracle. An untextured
scene adds zero times the texture, which changes no value.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (FlowField, Frame, SegmentationMask, check_class_count,
                   check_color, check_integer, write_flow, write_frame,
                   write_mask)
from .model import ModelSpec

MAX_SPEED = 8.0
# longest rectangle side or disk diameter: an object's texture tile spans
# its whole extent, whatever part of it the frame shows
MAX_EXTENT = 2048
NOISE_BLOB_RADIUS = 3


def _check_pair(name: str, pair) -> None:
    if len(pair) != 2 or not all(math.isfinite(v) for v in pair):
        raise ValueError(f"{name} must be two finite numbers")


@dataclass(frozen=True)
class SceneObject:
    shape: str  # "rectangle" | "disk"
    class_id: int
    color: Tuple[int, int, int]
    position: Tuple[float, float]  # rectangle: top-left; disk: center
    velocity: Tuple[float, float] = (0.0, 0.0)
    size: Tuple[float, float] = (0.0, 0.0)  # rectangle only
    radius: float = 0.0  # disk only

    def __post_init__(self):
        if self.shape not in ("rectangle", "disk"):
            raise ValueError("shape must be rectangle or disk")
        check_integer("class_id", self.class_id)
        check_color("color", self.color)
        _check_pair("position", self.position)
        _check_pair("velocity", self.velocity)
        _check_pair("size", self.size)
        if not math.isfinite(self.radius):
            raise ValueError("radius must be finite")
        if max(self.size) > MAX_EXTENT:
            raise ValueError(f"size must be at most {MAX_EXTENT} px a side")
        if 2 * self.radius > MAX_EXTENT:
            raise ValueError(f"radius must be at most {MAX_EXTENT // 2} px")
        if max(abs(self.velocity[0]), abs(self.velocity[1])) > MAX_SPEED:
            raise ValueError(f"object speed components must be <= {MAX_SPEED}")
        if self.shape == "rectangle" and min(self.size) <= 0:
            raise ValueError("rectangle needs a positive size")
        if self.shape == "disk" and self.radius <= 0:
            raise ValueError("disk needs a positive radius")
        for name in ("color", "position", "velocity", "size"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


@dataclass(frozen=True)
class SceneSpec:
    width: int = 320
    height: int = 256
    num_classes: int = 2
    objects: Tuple[SceneObject, ...] = ()
    background_class: int = 0
    background_color: Tuple[int, int, int] = (40, 110, 40)
    texture_amplitude: float = 8.0
    label_noise_rate: float = 0.0
    noise_class: Optional[int] = None
    frames: int = 10
    seed: int = 0
    # camera pan applied to everything, including the background texture
    global_velocity: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for name in ("width", "height", "num_classes", "background_class",
                     "frames", "seed"):
            check_integer(name, getattr(self, name))
        if self.width < 2 or self.height < 2:
            raise ValueError("scene must be at least 2x2")
        if self.frames < 1:
            raise ValueError("need at least one frame")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        check_class_count(self.num_classes, "num_classes")
        for obj in self.objects:
            if not 0 <= obj.class_id < self.num_classes:
                raise ValueError("object class out of range")
        if not 0 <= self.background_class < self.num_classes:
            raise ValueError("background class out of range")
        check_color("background_color", self.background_color)
        if not 0.0 <= self.texture_amplitude < math.inf:
            raise ValueError("texture_amplitude must be finite and "
                             "nonnegative")
        if self.noise_class is not None:
            check_integer("noise_class", self.noise_class)
            if not 0 <= self.noise_class < self.num_classes:
                raise ValueError("noise class out of range")
        if not 0.0 <= self.label_noise_rate <= 1.0:
            raise ValueError("label_noise_rate must be in [0, 1]")
        _check_pair("global_velocity", self.global_velocity)
        gx, gy = self.global_velocity
        if max(abs(gx), abs(gy)) > MAX_SPEED:
            raise ValueError(f"global speed components must be <= {MAX_SPEED}")
        for name in ("objects", "background_color", "global_velocity"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def default_noise_class(self) -> int:
        if self.noise_class is not None:
            return self.noise_class
        for obj in self.objects:
            if obj.class_id != self.background_class:
                return obj.class_id
        return (self.background_class + 1) % self.num_classes


def prototypes_from_scene(spec: SceneSpec) -> list:
    """Class colors for the reference model: entry k is class k's color."""
    colors = {spec.background_class: spec.background_color}
    for obj in spec.objects:
        colors.setdefault(obj.class_id, obj.color)
    # classes never rendered get an off-palette color
    return [tuple(colors.get(k, ((255 - 23 * k) % 256, (23 * k) % 256, 128)))
            for k in range(spec.num_classes)]


def model_spec_from_scene(
        spec: SceneSpec,
        feature_stride: int = ModelSpec.feature_stride) -> ModelSpec:
    return ModelSpec(prototypes=prototypes_from_scene(spec),
                     feature_stride=feature_stride)


def _span(lo: float, hi: float, n: int) -> Tuple[int, int]:
    """Pixel indices [a, b) around the extent [lo, hi], one pixel wider on
    each side than rounding could move a float test's boundary, clipped to
    [0, n)."""
    return max(math.floor(lo) - 1, 0), min(math.ceil(hi) + 2, n)


def _tile_index(pos: np.ndarray, n: int) -> np.ndarray:
    return np.clip(np.rint(pos).astype(np.intp), 0, n - 1)


def _tile_lookup(tile: np.ndarray, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Tile texels at the nearest (row iy, column ix) of 1-D coordinates."""
    return (tile.take(_tile_index(iy, tile.shape[0]), axis=0)
            .take(_tile_index(ix, tile.shape[1]), axis=1))


def generate(spec: SceneSpec):
    """Render the sequence.

    Returns a list of (Frame, SegmentationMask, FlowField): per-frame image,
    topmost-object label map, and ground-truth backward flow (frame j maps
    each pixel to its source in frame j-1: constant -velocity inside a moving
    surface, zero on static background). Deterministic given the seed.
    """
    h, w = spec.height, spec.width
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    gdx, gdy = spec.global_velocity
    amp = spec.texture_amplitude

    span_x = int(np.ceil(abs(gdx) * spec.frames)) + 1
    span_y = int(np.ceil(abs(gdy) * spec.frames)) + 1
    rng_tex = np.random.default_rng([spec.seed, 0])
    bg_tile = rng_tex.uniform(-1.0, 1.0, (h + span_y, w + span_x, 3))
    anchor_x = span_x if gdx > 0 else 0
    anchor_y = span_y if gdy > 0 else 0

    obj_tiles = []
    for k, obj in enumerate(spec.objects):
        rng_obj = np.random.default_rng([spec.seed, 1 + k])
        if obj.shape == "rectangle":
            shape = (int(np.ceil(obj.size[1])) + 3, int(np.ceil(obj.size[0])) + 3)
        else:
            shape = (int(np.ceil(2 * obj.radius)) + 4,) * 2
        obj_tiles.append(rng_obj.uniform(-1.0, 1.0, shape + (3,)))

    noise_cls = spec.default_noise_class()
    noise_color = None
    if spec.label_noise_rate > 0.0:
        noise_color = np.asarray(prototypes_from_scene(spec)[noise_cls],
                                 np.float64)
        # noise events are small blobs so they survive the encoder's area
        # averaging; centers are thinned so the per-pixel swap probability
        # still matches label_noise_rate
        r = NOISE_BLOB_RADIUS
        dy, dx = np.mgrid[-r:r + 1, -r:r + 1]
        disk = dy ** 2 + dx ** 2 <= r ** 2
        blob_dy, blob_dx = dy[disk], dx[disk]
        center_rate = spec.label_noise_rate / disk.sum()

    panning = bool(gdx or gdy)
    out = []
    for j in range(spec.frames):
        gox, goy = gdx * j, gdy * j
        img = np.empty((h, w, 3), np.float64)
        img[:] = np.asarray(spec.background_color, np.float64)
        img += amp * _tile_lookup(bg_tile, xs - gox + anchor_x,
                                  ys - goy + anchor_y)
        labels = np.full((h, w), spec.background_class, np.uint8)
        flow_u = np.full((h, w), -gdx if panning else 0.0, np.float32)
        flow_v = np.full((h, w), -gdy if panning else 0.0, np.float32)

        for obj, tile in zip(spec.objects, obj_tiles):
            ox = obj.position[0] + obj.velocity[0] * j + gox
            oy = obj.position[1] + obj.velocity[1] * j + goy
            # the footprint's corner or center adds the offset before the
            # position, the texture origin (ox, oy) after: they can round
            # differently
            fx = obj.position[0] + (obj.velocity[0] * j + gox)
            fy = obj.position[1] + (obj.velocity[1] * j + goy)
            if obj.shape == "rectangle":
                x0, x1 = _span(fx, fx + obj.size[0], w)
                y0, y1 = _span(fy, fy + obj.size[1], h)
            else:
                x0, x1 = _span(fx - obj.radius, fx + obj.radius, w)
                y0, y1 = _span(fy - obj.radius, fy + obj.radius, h)
            if x0 >= x1 or y0 >= y1:
                continue
            bx, by = xs[x0:x1], ys[y0:y1]
            if obj.shape == "rectangle":
                inside = (((by >= fy) & (by < fy + obj.size[1]))[:, None]
                          & ((bx >= fx) & (bx < fx + obj.size[0]))[None, :])
                lx = bx - ox + 1
                ly = by - oy + 1
            else:
                inside = (((bx - fx) ** 2)[None, :] + ((by - fy) ** 2)[:, None]
                          <= obj.radius ** 2)
                lx = bx - (ox - obj.radius) + 1
                ly = by - (oy - obj.radius) + 1
            color = np.asarray(obj.color, np.float64)
            box = img[y0:y1, x0:x1]
            box[inside] = (color + amp * _tile_lookup(tile, lx, ly))[inside]
            labels[y0:y1, x0:x1][inside] = obj.class_id
            flow_u[y0:y1, x0:x1][inside] = -(obj.velocity[0] + gdx)
            flow_v[y0:y1, x0:x1][inside] = -(obj.velocity[1] + gdy)

        if noise_color is not None:
            # each center stamps the blob's offsets that land in the frame:
            # the blob is symmetric, so this is its binary dilation
            rng_noise = np.random.default_rng([spec.seed, 7001, j])
            cy, cx = np.nonzero(rng_noise.random((h, w)) < center_rate)
            hy = (cy[:, None] + blob_dy).ravel()
            hx = (cx[:, None] + blob_dx).ravel()
            keep = (hy >= 0) & (hy < h) & (hx >= 0) & (hx < w)
            hits = np.zeros((h, w), bool)
            hits[hy[keep], hx[keep]] = True
            hits &= labels == spec.background_class
            img[hits] = noise_color

        frame = Frame(np.rint(np.clip(img, 0, 255)).astype(np.uint8), index=j)
        mask = SegmentationMask(labels)
        flow = FlowField(flow_u, flow_v)
        out.append((frame, mask, flow))
    return out


def save_dataset(sequence, outdir, scene_text: Optional[str] = None) -> None:
    """Write frames/NNNNNN.ppm, masks/NNNNNN.pgm, flow/NNNNNN.mcfl."""
    for sub in ("frames", "masks", "flow"):
        os.makedirs(os.path.join(outdir, sub), exist_ok=True)
    for j, (frame, mask, flow) in enumerate(sequence):
        write_frame(frame, os.path.join(outdir, "frames", f"{j:06d}.ppm"))
        write_mask(mask, os.path.join(outdir, "masks", f"{j:06d}.pgm"))
        write_flow(flow, os.path.join(outdir, "flow", f"{j:06d}.mcfl"))
    if scene_text is not None:
        with open(os.path.join(outdir, "scene.cfg"), "w") as fh:
            fh.write(scene_text)
