"""``synth.generate`` against a full-frame oracle, byte for byte.

The oracle renders every footprint, texture lookup and noise dilation
over whole-frame coordinate grids. ``generate`` works on 1-D coordinates
inside each object's bounding box and stamps noise blobs instead; frames,
masks and flows must not change by a single byte.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from mcma import FlowField, Frame, SceneObject, SceneSpec, SegmentationMask
from mcma.cli import parse_scene_config
from mcma.synth import NOISE_BLOB_RADIUS, generate, prototypes_from_scene


def _footprint(obj, offset, xx, yy):
    ox, oy = offset
    if obj.shape == "rectangle":
        x0 = obj.position[0] + ox
        y0 = obj.position[1] + oy
        return ((xx >= x0) & (xx < x0 + obj.size[0])
                & (yy >= y0) & (yy < y0 + obj.size[1]))
    cx = obj.position[0] + ox
    cy = obj.position[1] + oy
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= obj.radius ** 2


def _tile_lookup(tile, ix, iy):
    iy = np.clip(np.rint(iy).astype(np.intp), 0, tile.shape[0] - 1)
    ix = np.clip(np.rint(ix).astype(np.intp), 0, tile.shape[1] - 1)
    return tile[iy, ix]


def generate_oracle(spec):
    """The full-frame renderer: meshgrid coordinates, whole-frame masks and
    ``binary_dilation`` for the noise blobs."""
    h, w = spec.height, spec.width
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
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

    panning = bool(gdx or gdy)
    out = []
    for j in range(spec.frames):
        gox, goy = gdx * j, gdy * j
        img = np.empty((h, w, 3), np.float64)
        img[:] = np.asarray(spec.background_color, np.float64)
        if amp > 0.0:
            img += amp * _tile_lookup(bg_tile, xx - gox + anchor_x,
                                      yy - goy + anchor_y)
        labels = np.full((h, w), spec.background_class, np.uint8)
        flow_u = np.full((h, w), -gdx if panning else 0.0)
        flow_v = np.full((h, w), -gdy if panning else 0.0)

        for obj, tile in zip(spec.objects, obj_tiles):
            ox = obj.position[0] + obj.velocity[0] * j + gox
            oy = obj.position[1] + obj.velocity[1] * j + goy
            inside = _footprint(obj, (obj.velocity[0] * j + gox,
                                      obj.velocity[1] * j + goy), xx, yy)
            if not inside.any():
                continue
            if obj.shape == "rectangle":
                lx = xx - ox + 1
                ly = yy - oy + 1
            else:
                lx = xx - (ox - obj.radius) + 1
                ly = yy - (oy - obj.radius) + 1
            color = np.asarray(obj.color, np.float64)
            tex = amp * _tile_lookup(tile, lx, ly) if amp > 0.0 else 0.0
            pix = color + tex if amp > 0.0 else np.broadcast_to(color, img.shape)
            img[inside] = pix[inside]
            labels[inside] = obj.class_id
            flow_u[inside] = -(obj.velocity[0] + gdx)
            flow_v[inside] = -(obj.velocity[1] + gdy)

        if noise_color is not None:
            r = NOISE_BLOB_RADIUS
            dy, dx = np.mgrid[-r:r + 1, -r:r + 1]
            disk = dy ** 2 + dx ** 2 <= r ** 2
            rng_noise = np.random.default_rng([spec.seed, 7001, j])
            centers = rng_noise.random((h, w)) < (spec.label_noise_rate
                                                  / disk.sum())
            hits = ndimage.binary_dilation(centers, structure=disk)
            hits &= labels == spec.background_class
            img[hits] = noise_color

        frame = Frame(np.rint(np.clip(img, 0, 255)).astype(np.uint8), index=j)
        mask = SegmentationMask(labels)
        flow = FlowField(flow_u.astype(np.float32), flow_v.astype(np.float32))
        out.append((frame, mask, flow))
    return out


def assert_same_bytes(spec):
    got, want = generate(spec), generate_oracle(spec)
    assert len(got) == len(want)
    for (frame, mask, flow), (frame_o, mask_o, flow_o) in zip(got, want):
        assert frame.index == frame_o.index
        assert frame.data.tobytes() == frame_o.data.tobytes()
        assert mask.labels.tobytes() == mask_o.labels.tobytes()
        assert flow.u.tobytes() == flow_o.u.tobytes()
        assert flow.v.tobytes() == flow_o.v.tobytes()


# zero, integer and non-integer speeds of both signs
speeds = st.one_of(st.sampled_from([0.0, 1.0, -2.0, 0.5, -0.25]),
                   st.floats(-8.0, 8.0))
colors = st.tuples(*[st.integers(0, 255)] * 3)


@st.composite
def scenes(draw):
    w, h = draw(st.integers(2, 96)), draw(st.integers(2, 96))
    num_classes = draw(st.integers(2, 4))
    classes = st.integers(0, num_classes - 1)
    objects = []
    for _ in range(draw(st.integers(0, 3))):
        shape = draw(st.sampled_from(["rectangle", "disk"]))
        # from fully off the frame on one side to fully off on the other
        position = (draw(st.floats(-60.0, w + 20.0)),
                    draw(st.floats(-60.0, h + 20.0)))
        extent = st.floats(0.05, 50.0)  # sub-pixel to larger than the frame
        objects.append(SceneObject(
            shape, draw(classes), draw(colors), position,
            velocity=(draw(speeds), draw(speeds)),
            size=(draw(extent), draw(extent)) if shape == "rectangle"
            else (0.0, 0.0),
            radius=draw(extent) if shape == "disk" else 0.0))
    pan = draw(st.one_of(st.just((0.0, 0.0)), st.tuples(speeds, speeds)))
    return SceneSpec(
        width=w, height=h, num_classes=num_classes, objects=objects,
        background_class=draw(classes), background_color=draw(colors),
        texture_amplitude=draw(st.sampled_from([0.0, 8.0, 37.5])),
        label_noise_rate=draw(st.sampled_from([0.0, 0.01, 1.0])),
        noise_class=draw(st.one_of(st.none(), classes)),
        frames=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2 ** 16)),
        global_velocity=pan)


@given(spec=scenes())
@settings(max_examples=150, deadline=None)
def test_drawn_scenes_byte_identical(spec):
    assert_same_bytes(spec)


def test_sub_pixel_shapes_between_pixel_centres():
    # a disk and a rectangle too small to cover any pixel centre, one that
    # covers exactly one, and shapes whose edges land on pixel centres
    spec = SceneSpec(width=12, height=10, frames=3, objects=[
        SceneObject("disk", 1, (200, 60, 60), (3.5, 4.5), radius=0.3),
        SceneObject("disk", 1, (200, 60, 60), (7.0, 2.0), radius=0.2,
                    velocity=(0.5, 0.5)),
        SceneObject("rectangle", 1, (60, 60, 200), (1.2, 6.1),
                    size=(0.5, 0.5), velocity=(1.0, 0.0)),
        SceneObject("rectangle", 1, (60, 60, 200), (8.0, 7.0),
                    size=(2.0, 1.0), velocity=(-1.0, -1.0)),
        SceneObject("disk", 1, (200, 60, 60), (6.0, 5.0), radius=2.0)])
    assert_same_bytes(spec)


def _bench_scene(width, height, num_classes, objects):
    return parse_scene_config(f"""\
width = {width}
height = {height}
num_classes = {num_classes}
frames = 2
seed = 401
texture_amplitude = 10
label_noise_rate = 0.01
global_velocity = {"1.5,0.5" if num_classes == 2 else "2,1"}
{objects}""")


def test_clip320_scene_byte_identical():
    assert_same_bytes(_bench_scene(320, 256, 2, """\
object = shape=disk class=1 color=200,60,60 center=93.71,116.42 radius=40 velocity=4,1.5
"""))


def test_cli640_scene_byte_identical():
    assert_same_bytes(_bench_scene(640, 512, 4, """\
object = shape=disk class=1 color=200,60,60 center=187.13,195.61 radius=60 velocity=6,2
object = shape=rectangle class=2 color=60,60,200 topleft=371.24,127.85 size=140,90 velocity=-4,3
object = shape=disk class=3 color=220,200,60 center=415.52,388.09 radius=50 velocity=-3,-2
"""))
