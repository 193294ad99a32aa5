import numpy as np
import pytest

from mcma import (Frame, SceneObject, SceneSpec, fp_rate, generate,
                  model_spec_from_scene, motion_in_input_pixels,
                  prototypes_from_scene, save_dataset)
from mcma.core import read_flow, read_frame, read_mask
from mcma.model import decode, encode
from mcma.synth import MAX_EXTENT


def disk_scene(**kwargs):
    defaults = dict(width=96, height=64, num_classes=2, frames=10, seed=1)
    defaults.update(kwargs)
    objects = defaults.pop("objects", [SceneObject(
        "disk", 1, (200, 60, 60), (40, 30), velocity=(0, 0), radius=12)])
    return SceneSpec(objects=objects, **defaults)


class TestGenerate:
    def test_static_scene_identical_frames(self):
        seq = generate(disk_scene())
        first_frame, first_mask, _ = seq[0]
        for frame, mask, flow in seq:
            assert np.array_equal(frame.data, first_frame.data)
            assert np.array_equal(mask.labels, first_mask.labels)
            assert np.all(flow.u == 0.0) and np.all(flow.v == 0.0)

    def test_moving_rectangle_backward_flow(self):
        spec = disk_scene(objects=[SceneObject(
            "rectangle", 1, (60, 60, 200), (10, 20), velocity=(2, 0),
            size=(20, 16))])
        seq = generate(spec)
        for j, (_, mask, flow) in enumerate(seq):
            inside = mask.labels == 1
            assert inside.any()
            assert np.all(flow.u[inside] == -2.0)
            assert np.all(flow.v[inside] == 0.0)
            assert np.all(flow.u[~inside] == 0.0)

    def test_determinism(self):
        spec = disk_scene(label_noise_rate=0.02, frames=5)
        a = generate(spec)
        b = generate(spec)
        for (fa, ma, fla), (fb, mb, flb) in zip(a, b):
            assert np.array_equal(fa.data, fb.data)
            assert np.array_equal(ma.labels, mb.labels)
            assert np.array_equal(fla.u, flb.u)

    def test_label_noise_creates_baseline_fp(self):
        spec = disk_scene(width=192, height=128, frames=20,
                          label_noise_rate=0.01)
        seq = generate(spec)
        mspec = model_spec_from_scene(spec)
        rates = [fp_rate(decode(encode(frame, mspec), mspec), mask, 1)
                 for frame, mask, _ in seq]
        assert np.mean(rates) > 0.0
        # masks themselves stay clean: noise only perturbs colors
        for _, mask, _ in seq:
            assert np.array_equal(mask.labels, seq[0][1].labels)

    def test_mask_consistent_with_flow_warp(self):
        # warping mask j-1 by the backward flow reproduces mask j on
        # interior object pixels for integer velocities
        spec = disk_scene(objects=[SceneObject(
            "disk", 1, (200, 60, 60), (30, 30), velocity=(3, 1), radius=10)],
            frames=6)
        seq = generate(spec)
        for j in range(1, len(seq)):
            _, mask_prev, _ = seq[j - 1]
            _, mask_curr, flow = seq[j]
            h, w = mask_curr.labels.shape
            yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
            sx = np.clip(np.rint(xx + flow.u).astype(int), 0, w - 1)
            sy = np.clip(np.rint(yy + flow.v).astype(int), 0, h - 1)
            warped = mask_prev.labels[sy, sx]
            inside = mask_curr.labels == 1
            assert np.array_equal(warped[inside], mask_curr.labels[inside])

    def test_prototypes_are_class_colors(self):
        # entry k is class k's color; an unrendered class gets its own
        spec = disk_scene(num_classes=3)
        assert prototypes_from_scene(spec) == [(40, 110, 40), (200, 60, 60),
                                               (209, 46, 128)]

    def test_objects_fixed_after_check(self):
        # a class out of range cannot enter a checked scene afterwards
        objects = [SceneObject("disk", 1, [200, 60, 60], [16, 16],
                               velocity=[1, 0], radius=6)]
        spec = SceneSpec(width=32, height=32, frames=1, objects=objects)
        objects.append(SceneObject("disk", 5, (200, 60, 60), (8, 8),
                                   radius=6))
        with pytest.raises(AttributeError):
            spec.objects.append(objects[1])
        assert spec.objects == (objects[0],)
        assert generate(spec)[0][1].labels.max() == 1
        for obj, names in ((spec, ("objects", "background_color",
                                   "global_velocity")),
                           (objects[0], ("color", "position", "velocity",
                                         "size"))):
            for name in names:
                assert type(getattr(obj, name)) is tuple, name

    @pytest.mark.parametrize("noise_class", [-1, 2])
    def test_noise_class_out_of_range(self, noise_class):
        with pytest.raises(ValueError, match="noise class"):
            disk_scene(noise_class=noise_class, label_noise_rate=0.01)

    def test_velocity_limit(self):
        with pytest.raises(ValueError):
            SceneObject("disk", 1, (0, 0, 0), (5, 5), velocity=(9, 0),
                        radius=3)

    @pytest.mark.parametrize("field, value", [
        ("color", (999, 60, 60)), ("color", (-1, 60, 60)),
        ("color", (np.nan, 60, 60)), ("position", (np.inf, 12)),
        ("velocity", (np.nan, 0)), ("size", (np.inf, 3)),
        ("radius", np.nan), ("radius", np.inf),
        # finite, but generate would size a texture tile by the extent
        ("radius", 1e7), ("radius", 1e300), ("radius", 1024.5),
        ("size", (1e9, 3)), ("size", (4, 2049)), ("class_id", 1.5),
        ("color", (200.5, 60, 60)), ("class_id", True),
        ("color", (True, 60, 60)),
        # pairs are two numbers, not padded out or cut short
        ("position", (5,)), ("position", (5, 5, 99)),
        ("velocity", (1, 2, 3)), ("size", (4,)),
        # real numbers, not bools or strings
        ("position", (True, 5)), ("velocity", (True, 0)), ("radius", True),
        ("size", (4, True)), ("position", ("a", 5)), ("radius", "3")])
    @pytest.mark.parametrize("shape", ["disk", "rectangle"])
    def test_object_rejects_bad_numbers(self, shape, field, value):
        kwargs = dict(shape=shape, class_id=1, color=(200, 60, 60),
                      position=(5, 5), size=(4, 3), radius=3)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} "):
            SceneObject(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(shape="triangle", size=(4, 3)), "shape must be rectangle or disk"),
        (dict(shape="rectangle", size=(0, 5)),
         "rectangle needs a positive size"),
        (dict(shape="disk", radius=0), "disk needs a positive radius")])
    def test_object_rejects_bad_shape(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$") as err:
            SceneObject(class_id=1, color=(200, 60, 60), position=(5, 5),
                        **kwargs)
        assert err.type is ValueError

    def test_object_extent_limit_is_inclusive(self):
        SceneObject("disk", 1, (200, 60, 60), (5, 5), radius=MAX_EXTENT / 2)
        SceneObject("rectangle", 1, (200, 60, 60), (5, 5),
                    size=(MAX_EXTENT, MAX_EXTENT))

    @pytest.mark.parametrize("field, value", [
        ("background_color", (-5, 300, 40)),
        ("background_color", (40, 110, np.nan)),
        ("texture_amplitude", np.nan), ("texture_amplitude", np.inf),
        ("texture_amplitude", -1.0), ("global_velocity", (np.nan, 0)),
        ("global_velocity", (0, -np.inf)), ("label_noise_rate", 1.5),
        ("seed", -1),
        # integers, not quietly truncated or failed on inside NumPy
        ("width", 96.0), ("height", 8.0), ("num_classes", 2.5),
        ("background_class", 0.5), ("noise_class", 1.0), ("frames", 2.5),
        ("seed", 1.5), ("background_color", (40.7, 110, 40)),
        ("frames", True), ("background_color", (40, True, 40)),
        ("global_velocity", (1.0,)),
        # real numbers, not bools or strings
        ("label_noise_rate", True), ("texture_amplitude", True),
        ("global_velocity", (True, 0)), ("global_velocity", ("a", 0)),
        ("texture_amplitude", "3"), ("label_noise_rate", "0.5")])
    def test_scene_rejects_bad_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            disk_scene(**{field: value})

    def test_numpy_integers_pass(self):
        def scene(integer):
            obj = SceneObject("disk", integer(1),
                              tuple(map(integer, (200, 60, 60))), (40, 30),
                              velocity=(2, 1), radius=12)
            return disk_scene(objects=[obj], width=integer(96),
                              height=integer(64), num_classes=integer(2),
                              background_class=integer(0),
                              background_color=tuple(
                                  map(integer, (40, 110, 40))),
                              noise_class=integer(1), frames=integer(3),
                              seed=integer(1))
        model = model_spec_from_scene(scene(int))
        model_np = model_spec_from_scene(scene(np.int64),
                                         feature_stride=np.int64(4))
        for (frame, mask, _), (want, want_mask, _) in zip(
                generate(scene(np.int64)), generate(scene(int))):
            assert np.array_equal(frame.data, want.data)
            assert np.array_equal(mask.labels, want_mask.labels)
            frame = Frame(frame.data, index=np.int64(frame.index))
            assert np.array_equal(encode(frame, model_np).data,
                                  encode(want, model).data)

    @pytest.mark.parametrize("num_classes", [1, 257])
    def test_class_count_fits_uint8_labels(self, num_classes):
        with pytest.raises(ValueError, match=r"^num_classes .*\[2, 256\]"):
            SceneSpec(num_classes=num_classes)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(width=1, height=5), "scene must be at least 2x2"),
        (dict(frames=0), "need at least one frame"),
        (dict(objects=[SceneObject("disk", 2, (200, 60, 60), (5, 5),
                                   radius=3)]), "object class out of range"),
        (dict(background_class=2), "background class out of range"),
        (dict(global_velocity=(9, 0)),
         r"global speed components must be <= 8\.0")])
    def test_scene_rejects_bad_layout(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$") as err:
            disk_scene(**kwargs)
        assert err.type is ValueError


class TestMotionProfile:
    def test_static_zero(self):
        spec = disk_scene()
        assert ([motion_in_input_pixels(s[2], spec.height, spec.width)
                 for s in generate(spec)] == [0.0] * spec.frames)

    def test_single_disk_counting_oracle(self):
        spec = disk_scene(objects=[SceneObject(
            "disk", 1, (200, 60, 60), (45, 32), velocity=(3, 4), radius=10)],
            frames=3)
        seq = generate(spec)
        for _, mask, flow in seq:
            area = np.count_nonzero(mask.labels == 1)
            expected = 5.0 * area / (spec.width * spec.height)
            motion = motion_in_input_pixels(flow, spec.height, spec.width)
            assert motion == pytest.approx(expected)

    def test_two_disjoint_objects(self):
        spec = disk_scene(num_classes=3, objects=[
            SceneObject("disk", 1, (200, 60, 60), (25, 30), velocity=(3, 0),
                        radius=8),
            SceneObject("disk", 2, (60, 60, 200), (70, 30), velocity=(0, 4),
                        radius=8)])
        seq = generate(spec)
        _, mask, flow = seq[0]
        a1 = np.count_nonzero(mask.labels == 1)
        a2 = np.count_nonzero(mask.labels == 2)
        expected = (3.0 * a1 + 4.0 * a2) / (spec.width * spec.height)
        assert (motion_in_input_pixels(flow, spec.height, spec.width)
                == pytest.approx(expected))


class TestSaveDataset:
    def test_layout_and_round_trip(self, tmp_path):
        spec = disk_scene(frames=3)
        seq = generate(spec)
        save_dataset(seq, tmp_path, scene_text="width = 96\n")
        for j in range(3):
            frame = read_frame(tmp_path / "frames" / f"{j:06d}.ppm")
            mask = read_mask(tmp_path / "masks" / f"{j:06d}.pgm")
            flow = read_flow(tmp_path / "flow" / f"{j:06d}.mcfl")
            assert np.array_equal(frame.data, seq[j][0].data)
            assert np.array_equal(mask.labels, seq[j][1].labels)
            assert np.array_equal(flow.u, seq[j][2].u)
        assert (tmp_path / "scene.cfg").read_text() == "width = 96\n"
