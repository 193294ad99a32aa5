"""``decode`` against the full-resolution upsample it replaces, byte for byte.

The oracle builds the whole (classes, h * s, w * s) score stack with
``resample.bilinear`` and takes its argmax; ``decode`` must give the same
labels while upsampling only the blocks near class boundaries.
"""

import tracemalloc

import numpy as np
import pytest

from mcma import (FeatureMap, ModelSpec, SceneObject, SceneSpec, decode, encode,
                  generate, read_features, write_features)
from mcma.model import feature_file_path
from mcma.resample import bilinear
from mcma.synth import prototypes_from_scene

CLASSES = [2, 3, 4, 17, 256]
STRIDES = [1, 2, 3, 4, 8]
# 48 x 96 frames divide by every stride
HEIGHT, WIDTH = 48, 96


def oracle(data, stride):
    h, w = data.shape[1:]
    scores = bilinear(data, h * stride, w * stride)
    return np.argmax(scores, axis=0).astype(np.uint8)


def assert_exact(data, stride):
    spec = ModelSpec(feature_stride=stride, feature_dir="unused")
    # scores near FLT_MAX overflow in the lerps, and NaNs then pick labels,
    # in both implementations alike
    with np.errstate(over="ignore", invalid="ignore"):
        got = decode(FeatureMap(data), spec).labels
        want = oracle(data, stride)
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), int(np.sum(got != want))


def noisy_scene(classes, seed):
    objects = [SceneObject("disk", 1 + k % (classes - 1),
                           (60 + 50 * k, 200 - 40 * k, 30 * k),
                           (20 + 25 * k, 12 + 9 * k), radius=9 + 2 * k)
               for k in range(3)]
    return SceneSpec(width=WIDTH, height=HEIGHT, num_classes=classes,
                     frames=1, seed=seed, texture_amplitude=30.0,
                     label_noise_rate=0.05, objects=objects)


@pytest.mark.parametrize("classes", CLASSES)
def test_reference_encoder_features(classes):
    scene = noisy_scene(classes, seed=classes)
    frame = generate(scene)[0][0]
    for stride in STRIDES:
        spec = ModelSpec(prototypes=prototypes_from_scene(scene),
                         feature_stride=stride)
        assert_exact(encode(frame, spec).data, stride)


@pytest.mark.parametrize("classes", CLASSES)
def test_feature_files(tmp_path, classes):
    # smooth class fields plus noise, written as MCFE and read back
    rng = np.random.default_rng(classes)
    path = feature_file_path(tmp_path, 3)
    for stride in STRIDES:
        h, w = HEIGHT // stride, WIDTH // stride
        yy, xx = np.mgrid[0:h, 0:w] / max(h, w)
        phase = rng.uniform(0, 2 * np.pi, (classes, 1, 1))
        data = (np.sin(7 * xx + phase) * np.cos(5 * yy - phase)
                + rng.normal(0, 0.2, (classes, h, w))).astype(np.float32)
        write_features(FeatureMap(data), path)
        assert_exact(read_features(path).data, stride)


def near_ties(rng, classes, h, w, exponent):
    """3 x 3 cell patches of one top class, 0-4 ulp above the other classes
    at every cell, so the lerps' rounding decides many labels. Scores are
    scaled by 2**exponent; their largest magnitude is in [1, 2) before."""
    base = rng.uniform(-1.0, 1.0, (h, w)).astype(np.float32)
    base[0, 0] = 1.75
    steps = rng.integers(0, 3, (classes, h, w))
    top = rng.integers(0, classes, (-(-h // 3), -(-w // 3)))
    top = top.repeat(3, axis=0).repeat(3, axis=1)[:h, :w]
    steps[top, np.arange(h)[:, None], np.arange(w)] += 2
    data = base + steps * np.spacing(np.abs(base))
    return np.ldexp(data, exponent).astype(np.float32)


# 2**-140 is subnormal; from 2**126 on the largest score is above
# FLT_MAX / 4, and 2**127 reaches about 3e38
@pytest.mark.parametrize("exponent", [-140, -128, -100, 0, 100, 124, 126,
                                      127])
@pytest.mark.parametrize("classes", [2, 4, 17])
def test_near_ties_at_every_scale(exponent, classes):
    rng = np.random.default_rng(classes)
    for stride in STRIDES:
        h, w = HEIGHT // stride, WIDTH // stride
        data = near_ties(rng, classes, h, w, exponent)
        assert_exact(data, stride)
        assert_exact(-data, stride)


def test_overflowing_lerps_of_a_losing_class():
    # class 1 alternates +-2e38 under a steady 3e38: its lerps overflow to
    # inf or NaN, which the argmax then picks, though every gap is wide
    h, w = 6, 8
    data = np.empty((2, h, w), np.float32)
    data[0] = 3e38
    data[1] = np.where(np.indices((h, w)).sum(axis=0) % 2, 2e38, -2e38)
    for stride in STRIDES:
        assert_exact(data, stride)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (2, 2)])
def test_maps_one_cell_thin(rng, shape):
    # the clamped neighbourhood of every cell reaches past the border
    for stride in STRIDES:
        assert_exact(rng.normal(0, 1, (3,) + shape).astype(np.float32), stride)


@pytest.mark.parametrize("stride", STRIDES)
def test_subnormal_and_signed_zero_ties(stride):
    # a few multiples of the smallest subnormal, and zeros of both signs
    rng = np.random.default_rng(stride)
    h, w = HEIGHT // stride, WIDTH // stride
    data = rng.integers(-3, 4, (4, h, w)).astype(np.float32) * np.float32(
        2.0 ** -149)
    data[2][rng.random((h, w)) < 0.3] = -0.0
    assert_exact(data, stride)


def test_easy_path_never_builds_the_score_stack():
    classes, stride, h, w = 256, 8, 16, 20
    data = np.zeros((classes, h, w), np.float32)
    data[7] = 1.0
    features = FeatureMap(data)
    spec = ModelSpec(feature_stride=stride, feature_dir="unused")
    stack_bytes = classes * (h * stride) * (w * stride) * 4
    tracemalloc.start()
    try:
        labels = decode(features, spec).labels
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(labels == 7)
    assert peak < stack_bytes, (peak, stack_bytes)
