import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

import mcma.flow
from mcma import (FlowEstimator, FlowField, Frame, SceneObject, SceneSpec,
                  downscale_frame, generate, motion_in_input_pixels,
                  resize_flow, to_grayscale)
from mcma.flow import (ITERATIONS, POLY_N, POLY_SIGMA, PYRAMID_LEVELS,
                       _ROW_KERNELS, _SMOOTH, _along, _correlate,
                       _inverse_metric, _pyramid, _scratch, _solve_level,
                       expand, polynomial_expansion)
from mcma.resample import bilinear

from conftest import pair_flow, shifted_pair, smooth_texture

# the expansion, the pyramid and resize_flow run in float32
EPS32 = float(np.finfo(np.float32).eps)


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


class TestCorrelate:
    @pytest.mark.parametrize("shape", [(7, 9), (3, 5)], ids=["7x9", "3x5"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("kernel", [_SMOOTH, _ROW_KERNELS[0],
                                        _ROW_KERNELS[2]],
                             ids=["smooth", "symmetric", "antisymmetric"])
    def test_fills_its_own_padding(self, kernel, axis, shape):
        # oracle: ndimage's nearest mode over the inner array; the padding
        # starts as NaN, so any cell the helper leaves unfilled reaches
        # the output. On 3x5 the 9-tap kernel reaches past the far side.
        assert kernel[0] == kernel[-1] or kernel[0] == -kernel[-1]
        inner = np.random.default_rng(3).normal(100, 25, shape)
        inner = inner.astype(np.float32)
        r = len(kernel) // 2
        padded = list(shape)
        padded[axis] += 2 * r
        src = np.full(padded, np.nan, np.float32)
        src[_along(axis, r, r + shape[axis])] = inner
        out = np.empty(shape, np.float32)
        _correlate(src, axis, np.empty_like(out), [(kernel, out)])
        want = ndimage.correlate1d(inner.astype(np.float64),
                                   kernel.astype(np.float64), axis,
                                   mode="nearest")
        tol = 4 * EPS32 * np.abs(kernel).sum() * np.abs(inner).max()
        assert np.abs(out - want).max() <= tol


class TestPolynomialExpansion:
    def test_constant_image(self):
        img = np.full((12, 12), 100.0)
        inner = (slice(3, -3), slice(3, -3))
        for arr in polynomial_expansion(img, _scratch(img.shape)):
            assert np.allclose(arr[inner], 0.0, atol=4 * EPS32 * 100)

    def test_linear_ramp(self):
        ramp = np.tile(np.arange(16, dtype=np.float64), (12, 1))
        a11, a12, a22, b1, b2 = polynomial_expansion(ramp,
                                                     _scratch(ramp.shape))
        inner = (slice(3, -3), slice(3, -3))
        tol = 4 * EPS32 * 15
        assert np.allclose(b1[inner], 1.0, atol=tol)
        assert np.allclose(b2[inner], 0.0, atol=tol)
        assert np.allclose(a11[inner], 0.0, atol=tol)

    def test_against_normal_equation_oracle(self):
        rng = np.random.default_rng(7)
        img = rng.normal(100, 25, (14, 15))
        got = polynomial_expansion(img, _scratch(img.shape))
        tol = 4 * EPS32 * np.abs(img).max()
        # every pixel, so the border rows and columns check the replicated
        # edges of both passes
        for y, x in np.ndindex(img.shape):
            want = brute_force_expansion(img, y, x, POLY_N, POLY_SIGMA)
            for g, wv in zip(got, want[:5], strict=True):
                assert g[y, x] == pytest.approx(wv, abs=tol)

    def test_inverse_metric_pattern(self):
        # the expansion folds G^-1 into its kernels on the assumption that
        # these are its only nonzero entries (indices c, b1, b2, a11, a22,
        # xy); a window that broke it would fail here
        g = _inverse_metric()
        pattern = np.zeros((6, 6), bool)
        for i, j in [(0, 0), (1, 1), (2, 2), (3, 0), (3, 3), (4, 0),
                     (4, 4), (5, 5)]:
            pattern[i, j] = pattern[j, i] = True
        assert np.abs(g[~pattern]).max() <= 1e-12 * np.abs(g).max()

    def test_single_bright_pixel_finite(self):
        img = np.zeros((10, 10))
        img[4, 6] = 255.0
        for arr in polynomial_expansion(img, _scratch(img.shape)):
            assert np.all(np.isfinite(arr))


class TestEstimateFlow:
    def test_identical_frames_zero(self):
        base = smooth_texture(96, 128, 4)
        f = Frame(base[:, :, None])
        flow = pair_flow(f, f)
        assert np.abs(flow.u).max() < 0.05
        assert np.abs(flow.v).max() < 0.05

    @pytest.mark.parametrize("shift", [(3, 0), (2, 4)])
    def test_integer_translation(self, shift):
        dx, dy = shift
        prev, curr = shifted_pair(128, 128, 21, dx, dy)
        flow = pair_flow(prev, curr)
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
        for flow in (pair_flow(prev, curr), est.push(curr)):
            assert not flow.u.any() and not flow.v.any()

    def test_dimension_mismatch(self):
        a = Frame(np.zeros((8, 8, 1), np.uint8))
        b = Frame(np.zeros((8, 10, 1), np.uint8))
        with pytest.raises(ValueError):
            pair_flow(a, b)


class TestSolveSchedule:
    def test_one_positive_count_per_level(self):
        assert len(ITERATIONS) == PYRAMID_LEVELS
        assert all(type(n) is int and n > 0 for n in ITERATIONS)

    def test_shallow_pyramid_takes_the_finest_counts(self):
        # a 9x9 frame has a 2-level pyramid (9x9, 4x4): its levels are
        # solved with the schedule's last two counts, coarse to fine
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, (9, 9, 1), dtype=np.uint8)
        prev = Frame(data)
        curr = Frame(np.roll(data, (1, 2), axis=(0, 1)), index=1)
        levels = _pyramid(np.zeros((9, 9)), _scratch((9, 9)))
        assert [lvl.shape for lvl in levels] == [(9, 9), (4, 4)]

        def chain(coarse, fine):
            scratch = _scratch((9, 9))
            p, c = expand(prev, scratch), expand(curr, scratch)
            zero = np.zeros((4, 4), np.float32)
            u, v = _solve_level(c[1], p[1], zero, zero.copy(), scratch,
                                coarse)
            up = resize_flow(FlowField(u, v), 9, 9)
            return _solve_level(c[0], p[0], up.u, up.v, scratch, fine)

        got = pair_flow(prev, curr)
        u, v = chain(*ITERATIONS[-2:])
        assert got.u.tobytes() == u.tobytes()
        assert got.v.tobytes() == v.tobytes()
        # the schedule's coarse end gives another flow on this pair
        u, v = chain(*ITERATIONS[:2])
        assert (got.u.tobytes(), got.v.tobytes()) != (u.tobytes(),
                                                      v.tobytes())

        # a 4x4 frame has one level, both the coarsest and the finest: its
        # flow is one solve from zero with the finest count
        prev4, curr4 = Frame(data[:4, :4]), Frame(data[1:5, 2:6], index=1)
        scratch = _scratch((4, 4))
        p, c = expand(prev4, scratch), expand(curr4, scratch)
        assert len(p) == 1
        zero = np.zeros((4, 4), np.float32)
        u, v = _solve_level(c[0], p[0], zero, zero.copy(), scratch,
                            ITERATIONS[-1])
        got = pair_flow(prev4, curr4)
        assert got.u.tobytes() == u.tobytes()
        assert got.v.tobytes() == v.tobytes()

    def test_zero_iterations_return_the_input(self):
        prev, curr = shifted_pair(32, 40, 3, 2, 1)
        scratch = _scratch((32, 40))
        p, c = expand(prev, scratch), expand(curr, scratch)
        rng = np.random.default_rng(1)
        u = rng.normal(0, 2, (32, 40)).astype(np.float32)
        v = rng.normal(0, 2, (32, 40)).astype(np.float32)
        want = u.copy(), v.copy()
        got = _solve_level(c[0], p[0], u, v, scratch, 0)
        assert got[0] is u and got[1] is v
        assert u.tobytes() == want[0].tobytes()
        assert v.tobytes() == want[1].tobytes()


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
        levels = [lvl.shape
                  for lvl in _pyramid(np.zeros(shape), _scratch(shape))]
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
        assert [lvl.shape for lvl in _pyramid(np.zeros(shape),
                                              _scratch(shape))] == want

    def test_levels_sample_pixel_centres(self):
        # oracle: smoothing keeps a linear ramp, so level l's pixel i is
        # the ramp at the centre of the 2^l x 2^l block it stands for,
        # (i + 0.5) * 2^l - 0.5, away from the border's 3 px
        def ramp(y, x):
            return 0.9 * x - 0.6 * y + 100.0

        m = 3
        full = ramp(*np.mgrid[0:64, 0:96])
        tol = 8 * EPS32 * np.abs(full).max()
        for level, img in enumerate(_pyramid(full, _scratch(full.shape))):
            iy, ix = np.mgrid[0:img.shape[0], 0:img.shape[1]]
            want = ramp((iy + 0.5) * 2 ** level - 0.5,
                        (ix + 0.5) * 2 ** level - 0.5)
            assert np.abs(img - want)[m:-m, m:-m].max() <= tol

    @pytest.mark.parametrize("shape", [(9, 9), (17, 33), (256, 320)])
    def test_smoothing_matches_ndimage(self, shape):
        # oracle: scipy's float64 Gaussian (sigma 1, nearest edges), shrunk
        # by the same half-pixel bilinear; checked at every pixel
        img = np.random.default_rng(5).normal(100, 25, shape)
        level = _pyramid(img, _scratch(shape))[1]
        smoothed = ndimage.gaussian_filter(img, 1.0, mode="nearest")
        want = bilinear(smoothed, *level.shape)
        assert level.dtype == np.float32
        assert np.abs(level - want).max() <= 8 * EPS32 * np.abs(img).max()


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
            want = pair_flow(prev, curr)
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
        pair_flow(frames[0], frames[1])
        assert len(calls) == 6

    def test_kept_results_do_not_alias_scratch(self):
        # every result outlives the pushes that reuse the estimator's block
        frames = panning_clip(320, 256, frames=7)
        est = FlowEstimator()
        flows = [est.push(frame) for frame in frames[:6]]
        for prev, curr, got in zip(frames, frames[1:6], flows[1:]):
            want = pair_flow(prev, curr)
            assert got.u.tobytes() == want.u.tobytes()
            assert got.v.tobytes() == want.v.tobytes()
        # the kept expansions survived those pairwise calls too
        got = est.push(frames[6])
        want = pair_flow(frames[5], frames[6])
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
        want = pair_flow(frames[0], frames[1])
        assert got.u.tobytes() == want.u.tobytes()
        assert got.v.tobytes() == want.v.tobytes()

    def test_serves_the_size_of_its_first_push(self):
        small = panning_clip(40, 32, frames=2)
        est = FlowEstimator()
        est.push(small[0])
        with pytest.raises(ValueError, match="frames must share dimensions"):
            est.push(panning_clip(80, 64, frames=1)[0])
        got = est.push(small[1])
        want = pair_flow(small[0], small[1])
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

    def test_scale_outside_flow_scales(self):
        with pytest.raises(ValueError,
                           match=r"^scale must be one of 1, 1/2, 1/4$") as err:
            downscale_frame(Frame(np.zeros((8, 8, 1), np.uint8)), 0.3)
        assert err.type is ValueError


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

    def test_same_size_returns_fresh_arrays(self):
        rng = np.random.default_rng(2)
        flow = FlowField(rng.normal(0, 3, (6, 7)).astype(np.float32),
                         rng.normal(0, 3, (6, 7)).astype(np.float32))
        before = flow.u.copy(), flow.v.copy()
        same = resize_flow(flow, 6, 7)
        assert same.u is not flow.u and same.v is not flow.v
        assert np.array_equal(same.u, flow.u) and np.array_equal(same.v, flow.v)
        # writing to the result leaves the input as it was
        for comp in (same.u, same.v):
            comp += 1.0
        assert np.array_equal(flow.u, before[0])
        assert np.array_equal(flow.v, before[1])

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

    def test_one_cell_target_holds_the_centre_sample(self, rng):
        # a grid one cell high samples the field's centre row, 2 of 0..4,
        # and one cell wide its centre column, 3 of 0..6; the component
        # along the squeezed axis is rescaled to the one-cell grid
        flow = FlowField(rng.normal(0, 3, (5, 7)).astype(np.float32),
                         rng.normal(0, 3, (5, 7)).astype(np.float32))
        row = resize_flow(flow, 1, 7)
        assert np.array_equal(row.u, flow.u[2:3])
        assert np.allclose(row.v, flow.v[2:3] / 5, rtol=1e-6, atol=0)
        col = resize_flow(flow, 5, 1)
        assert np.allclose(col.u, flow.u[:, 3:4] / 7, rtol=1e-6, atol=0)
        assert np.array_equal(col.v, flow.v[:, 3:4])

    @staticmethod
    def linear_field():
        y, x = np.mgrid[0:64, 0:96].astype(np.float64)
        return FlowField((0.05 * x - 1.0).astype(np.float32),
                         (-0.03 * y + 0.02 * x).astype(np.float32))

    @staticmethod
    def block_means(comp, k):
        h, w = comp.shape
        return comp.astype(np.float64).reshape(
            h // k, k, w // k, k).mean(axis=(1, 3))

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_shrinks_to_block_means(self, k):
        # oracle: on a linear field, a k x k block's mean is the field at
        # the block's centre, where a pixel-centre resize samples it
        flow = self.linear_field()
        small = resize_flow(flow, 64 // k, 96 // k)
        for got, comp in ((small.u, flow.u), (small.v, flow.v)):
            assert np.abs(got - self.block_means(comp, k) / k).max() <= 1e-5

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_grows_block_means_to_the_field(self, k):
        # the block means, in coarse-grid pixels, grown back to the full
        # grid; the outer k px are clamped to the border blocks
        flow = self.linear_field()
        means = FlowField(
            (self.block_means(flow.u, k) / k).astype(np.float32),
            (self.block_means(flow.v, k) / k).astype(np.float32))
        big = resize_flow(means, 64, 96)
        for got, comp in ((big.u, flow.u), (big.v, flow.v)):
            assert np.abs(got - comp)[k:-k, k:-k].max() <= 1e-5


def mean_flow_magnitude(flow):
    """The mean flow length on the field's own grid: the motion in input
    pixels when the input is that grid."""
    return motion_in_input_pixels(flow, flow.height, flow.width)


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

