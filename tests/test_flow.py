import tracemalloc

import numpy as np
import pytest

import mcma.flow
from mcma import (FlowEstimator, FlowField, Frame, SceneObject, SceneSpec,
                  downscale_frame, estimate_flow, generate,
                  mean_flow_magnitude, polynomial_expansion, resize_flow,
                  to_grayscale)
from mcma.flow import POLY_N, POLY_SIGMA, PYRAMID_LEVELS, _pyramid

from conftest import shifted_pair, smooth_texture


class TestGrayscale:
    def test_white(self):
        f = Frame(np.full((2, 2, 3), 255, np.uint8))
        assert np.all(to_grayscale(f).data == 255)

    def test_pure_red(self):
        # hand oracle: round(0.299 * 255) = 76
        f = Frame(np.tile(np.array([255, 0, 0], np.uint8), (2, 2, 1)))
        assert np.all(to_grayscale(f).data == 76)

    def test_single_channel_identity(self):
        f = Frame(np.arange(4, dtype=np.uint8).reshape(2, 2, 1))
        assert to_grayscale(f) is f


def brute_force_expansion(img, y, x, poly_n, poly_sigma):
    """Independent oracle: assemble and solve the weighted normal equations
    pixel by pixel (replicate-edge sampling)."""
    n2 = poly_n // 2
    rows = []
    weights = []
    values = []
    h, w = img.shape
    for oy in range(-n2, n2 + 1):
        for ox in range(-n2, n2 + 1):
            sy = min(max(y + oy, 0), h - 1)
            sx = min(max(x + ox, 0), w - 1)
            rows.append([1.0, ox, oy, ox * ox, oy * oy, ox * oy])
            weights.append(np.exp(-(ox * ox + oy * oy) / (2 * poly_sigma ** 2)))
            values.append(img[sy, sx])
    B = np.asarray(rows)
    W = np.diag(weights)
    r = np.linalg.solve(B.T @ W @ B, B.T @ W @ np.asarray(values))
    c, b1, b2, a11, a22, axy = r
    return a11, axy / 2.0, a22, b1, b2, c


class TestPolynomialExpansion:
    def test_constant_image(self):
        img = np.full((12, 12), 100.0)
        inner = (slice(3, -3), slice(3, -3))
        for arr in polynomial_expansion(img):
            assert np.allclose(arr[inner], 0.0, atol=1e-8)

    def test_linear_ramp(self):
        ramp = np.tile(np.arange(16, dtype=np.float64), (12, 1))
        a11, a12, a22, b1, b2 = polynomial_expansion(ramp)
        inner = (slice(3, -3), slice(3, -3))
        assert np.allclose(b1[inner], 1.0, atol=1e-8)
        assert np.allclose(b2[inner], 0.0, atol=1e-8)
        assert np.allclose(a11[inner], 0.0, atol=1e-8)

    def test_against_normal_equation_oracle(self):
        rng = np.random.default_rng(7)
        img = rng.normal(100, 25, (14, 15))
        got = polynomial_expansion(img)
        for (y, x) in [(5, 5), (7, 9), (3, 11)]:
            want = brute_force_expansion(img, y, x, POLY_N, POLY_SIGMA)
            for g, wv in zip(got, want[:5], strict=True):
                assert g[y, x] == pytest.approx(wv, abs=1e-6)

    def test_single_bright_pixel_finite(self):
        img = np.zeros((10, 10))
        img[4, 6] = 255.0
        for arr in polynomial_expansion(img):
            assert np.all(np.isfinite(arr))


class TestEstimateFlow:
    def test_identical_frames_zero(self):
        base = smooth_texture(96, 128, 4)
        f = Frame(base[:, :, None])
        flow = estimate_flow(f, f)
        assert np.abs(flow.u).max() < 0.05
        assert np.abs(flow.v).max() < 0.05

    @pytest.mark.parametrize("shift", [(3, 0), (2, 4)])
    def test_integer_translation(self, shift):
        dx, dy = shift
        prev, curr = shifted_pair(128, 128, 21, dx, dy)
        flow = estimate_flow(prev, curr)
        m = 16 + max(abs(dx), abs(dy))
        interior = (slice(m, -m), slice(m, -m))
        epe = np.hypot(flow.u[interior] + dx, flow.v[interior] + dy).mean()
        assert epe < 0.5

    def test_ill_conditioned_everywhere_gives_zero_flow(self):
        # constant frames: every pixel's 2x2 system is singular, so the
        # solve keeps the zero initial flow at every level
        prev = Frame(np.full((23, 37, 1), 60, np.uint8))
        curr = Frame(np.full((23, 37, 1), 180, np.uint8))
        est = FlowEstimator()
        est.push(prev)
        for flow in (estimate_flow(prev, curr), est.push(curr)):
            assert not flow.u.any() and not flow.v.any()

    def test_dimension_mismatch(self):
        a = Frame(np.zeros((8, 8, 1), np.uint8))
        b = Frame(np.zeros((8, 10, 1), np.uint8))
        with pytest.raises(ValueError):
            estimate_flow(a, b)


def panning_clip(width, height, frames=6):
    spec = SceneSpec(width=width, height=height, frames=frames, seed=3,
                     texture_amplitude=10, global_velocity=(1.5, 0.5),
                     objects=[SceneObject("disk", 1, (200, 60, 60),
                                          (width / 3, height / 2),
                                          radius=min(width, height) / 4,
                                          velocity=(3, 1))])
    return [s[0] for s in generate(spec)]


class TestPyramid:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 100), (5, 40), (6, 6)])
    def test_levels_never_grow(self, shape):
        levels = [lvl.shape for lvl in _pyramid(np.zeros(shape))]
        for finer, coarser in zip(levels, levels[1:]):
            assert coarser[0] <= finer[0] and coarser[1] <= finer[1]
            assert coarser != finer

    @pytest.mark.parametrize("shape", [(8, 8), (8, 400), (17, 33),
                                       (256, 320)])
    def test_halving_rule_from_eight_pixels(self, shape):
        # oracle: halve each side, floored at 4, until a level repeats
        want = [shape]
        while len(want) < PYRAMID_LEVELS:
            nxt = tuple(max(int(round(n * 0.5)), 4) for n in want[-1])
            if nxt == want[-1]:
                break
            want.append(nxt)
        assert [lvl.shape for lvl in _pyramid(np.zeros(shape))] == want


class TestFlowEstimator:
    @pytest.mark.parametrize("size", [(130, 98), (33, 17)])
    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("gray", [False, True])
    def test_stream_equals_pairwise(self, size, scale, gray):
        frames = [downscale_frame(f, scale) for f in panning_clip(*size)]
        if gray:
            frames = [to_grayscale(f) for f in frames]
        est = FlowEstimator()
        assert est.push(frames[0]) is None
        for prev, curr in zip(frames, frames[1:]):
            got = est.push(curr)
            want = estimate_flow(prev, curr)
            assert got.u.tobytes() == want.u.tobytes()
            assert got.v.tobytes() == want.v.tobytes()

    def test_each_frame_expanded_once(self, monkeypatch):
        calls = []
        expand = mcma.flow.polynomial_expansion

        def counting(level, *rest):
            calls.append(level.shape)
            return expand(level, *rest)

        monkeypatch.setattr(mcma.flow, "polynomial_expansion", counting)
        frames = panning_clip(130, 98)
        est = FlowEstimator()
        for frame in frames:
            est.push(frame)
        assert len(calls) == 3 * len(frames)
        calls.clear()
        estimate_flow(frames[0], frames[1])
        assert len(calls) == 6

    def test_kept_results_do_not_alias_scratch(self):
        # every result outlives the pushes that reuse the estimator's block
        frames = panning_clip(320, 256, frames=7)
        est = FlowEstimator()
        flows = [est.push(frame) for frame in frames[:6]]
        for prev, curr, got in zip(frames, frames[1:6], flows[1:]):
            want = estimate_flow(prev, curr)
            assert got.u.tobytes() == want.u.tobytes()
            assert got.v.tobytes() == want.v.tobytes()
        # the kept expansions survived those pairwise calls too
        got = est.push(frames[6])
        want = estimate_flow(frames[5], frames[6])
        assert got.u.tobytes() == want.u.tobytes()
        assert got.v.tobytes() == want.v.tobytes()

    def test_push_allocates_no_large_temporaries(self):
        # after warm-up a 320x256 push allocates its kept expansions, its
        # flow and small transients; the scratch block is reused
        frames = panning_clip(320, 256, frames=3)
        est = FlowEstimator()
        est.push(frames[0])
        est.push(frames[1])
        tracemalloc.start()
        try:
            est.push(frames[2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6

    def test_failed_push_keeps_previous_frame(self, monkeypatch):
        frames = panning_clip(64, 48, frames=3)
        est = FlowEstimator()
        est.push(frames[0])

        def broken(*args):
            raise RuntimeError("flow unavailable")

        with monkeypatch.context() as patch:
            patch.setattr(mcma.flow, "estimate_flow", broken)
            with pytest.raises(RuntimeError):
                est.push(frames[2])
        got = est.push(frames[1])
        want = estimate_flow(frames[0], frames[1])
        assert got.u.tobytes() == want.u.tobytes()
        assert got.v.tobytes() == want.v.tobytes()


class TestDownscale:
    def test_half_and_quarter_of_vga_like_input(self):
        frame = Frame(np.zeros((512, 640, 3), np.uint8))
        half = downscale_frame(frame, 0.5)
        quarter = downscale_frame(frame, 0.25)
        assert (half.width, half.height) == (320, 256)
        assert (quarter.width, quarter.height) == (160, 128)

    def test_identity_at_scale_one(self):
        frame = Frame(np.arange(48, dtype=np.uint8).reshape(4, 4, 3))
        assert downscale_frame(frame, 1.0) is frame

    def test_constant_average(self):
        frame = Frame(np.full((4, 4, 1), 77, np.uint8))
        small = downscale_frame(frame, 0.5)
        assert small.data.shape == (2, 2, 1)
        assert np.all(small.data == 77)

    def test_too_small(self):
        with pytest.raises(ValueError):
            downscale_frame(Frame(np.zeros((4, 4, 1), np.uint8)), 0.25)


class TestResizeFlow:
    def test_constant_upscale_rescales_magnitude(self):
        flow = FlowField(np.full((128, 160), 4.0, np.float32),
                         np.zeros((128, 160), np.float32))
        big = resize_flow(flow, 256, 320)
        assert np.all(big.u == 8.0) and np.all(big.v == 0.0)

    def test_identity(self):
        rng = np.random.default_rng(0)
        flow = FlowField(rng.normal(0, 3, (6, 7)).astype(np.float32),
                         rng.normal(0, 3, (6, 7)).astype(np.float32))
        same = resize_flow(flow, 6, 7)
        assert np.array_equal(same.u, flow.u) and np.array_equal(same.v, flow.v)

    def test_bilinear_midpoint(self):
        # hand oracle: center of a 3x3 target maps to (0.5, 0.5) of the 2x2
        # source; bilinear of {0, 2, 0, 2} there is 1 before magnitude scale
        flow = FlowField(np.array([[0, 2], [0, 2]], np.float32),
                         np.zeros((2, 2), np.float32))
        out = resize_flow(flow, 3, 3)
        scale = 3 / 2
        assert out.u[1, 1] / scale == pytest.approx(1.0)

    def test_round_trip_constant_exact(self):
        flow = FlowField(np.full((128, 160), 4.0, np.float32),
                         np.full((128, 160), -2.0, np.float32))
        back = resize_flow(resize_flow(flow, 256, 320), 128, 160)
        assert np.array_equal(back.u, flow.u) and np.array_equal(back.v, flow.v)

    def test_rejects_degenerate_target(self):
        with pytest.raises(ValueError):
            resize_flow(FlowField.zeros(4, 4), 1, 4)


class TestMeanFlowMagnitude:
    def test_zero(self):
        assert mean_flow_magnitude(FlowField.zeros(5, 5)) == 0.0

    def test_three_four_five(self):
        flow = FlowField(np.full((4, 4), 3.0, np.float32),
                         np.full((4, 4), 4.0, np.float32))
        assert mean_flow_magnitude(flow) == pytest.approx(5.0)

    def test_arithmetic_mean(self):
        v = np.zeros((2, 4), np.float32)
        v[:, 2:] = 2.0
        flow = FlowField(np.zeros((2, 4), np.float32), v)
        assert mean_flow_magnitude(flow) == pytest.approx(1.0)

    def test_permutation_invariant(self, rng):
        u = rng.normal(0, 2, (6, 6))
        v = rng.normal(0, 2, (6, 6))
        perm = rng.permutation(36)
        a = mean_flow_magnitude(FlowField(u.astype(np.float32),
                                          v.astype(np.float32)))
        b = mean_flow_magnitude(FlowField(
            u.ravel()[perm].reshape(6, 6).astype(np.float32),
            v.ravel()[perm].reshape(6, 6).astype(np.float32)))
        assert a == pytest.approx(b)

