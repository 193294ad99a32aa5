import numpy as np
import pytest

from mcma.resample import _taps, area_mean, bilinear, gather, half_pixel


def mean_oracle(data, k):
    h, w, c = data.shape
    return data.astype(np.float64).reshape(
        h // k, k, w // k, k, c).mean(axis=(1, 3))


class TestAreaMean:
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, 4, 32])
    def test_equals_float_mean(self, rng, c, k):
        data = rng.integers(0, 256, (2 * 32, 3 * 32, c)).astype(np.uint8)
        out = area_mean(data, k)
        assert out.dtype == np.float64
        assert np.array_equal(out, mean_oracle(data, k))

    def test_block_sums_wider_than_16_bits(self):
        # 32 x 32 x 255 = 261120 overflows a 16-bit accumulator
        data = np.full((64, 32, 3), 255, np.uint8)
        assert np.array_equal(area_mean(data, 32), mean_oracle(data, 32))
        assert np.all(area_mean(data, 32) == 255.0)

    @pytest.mark.parametrize("k", [16, 17])
    def test_full_blocks_at_the_16_bit_limit(self, k):
        # 16 x 16 x 255 = 65280 is the largest block sum a uint16 holds;
        # 17 x 17 x 255 = 73695 needs the 32-bit accumulator
        data = np.full((2 * k, 3 * k, 3), 255, np.uint8)
        assert np.array_equal(area_mean(data, k), mean_oracle(data, k))
        assert np.all(area_mean(data, k) == 255.0)

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError):
            area_mean(np.zeros((10, 12, 3), np.uint8), 4)


class TestBilinear:
    def test_same_size_returns_input(self, rng):
        data = rng.normal(0, 1, (2, 5, 7))
        assert bilinear(data, 5, 7) is data

    def test_leading_axes_resized_independently(self, rng):
        data = rng.normal(0, 1, (3, 4, 5)).astype(np.float32)
        out = bilinear(data, 8, 10)
        assert out.dtype == np.float32 and out.shape == (3, 8, 10)
        for c in range(3):
            assert np.array_equal(out[c], bilinear(data[c], 8, 10))



def gather_oracle(data, x, y):
    """The warp sampler read through 2-D fancy indexes, rows then columns."""
    _, h, w = data.shape
    fx, x0, x1 = _taps(x, w, data.dtype)
    fy, y0, y1 = _taps(y, h, data.dtype)
    left = data[:, y0, x0]
    left = left + fy * (data[:, y1, x0] - left)
    right = data[:, y0, x1]
    right = right + fy * (data[:, y1, x1] - right)
    return left + fx * (right - left)


class TestGather:
    @pytest.mark.parametrize("shape", [(4, 128, 160), (3, 7, 5), (2, 1, 6),
                                       (1, 5, 1)])
    def test_equals_2d_index_formula(self, rng, shape):
        data = rng.normal(0, 1, shape).astype(np.float32)
        _, h, w = shape
        # a margin of 3 pixels on every side is clamped to the border
        x = rng.uniform(-3, w + 2, (h, w))
        y = rng.uniform(-3, h + 2, (h, w))
        x[0, :] = np.round(x[0, :])
        out = gather(data, x, y)
        assert out.dtype == np.float32 and out.shape == shape
        assert out.tobytes() == gather_oracle(data, x, y).tobytes()

    # bilinear's one map, kept as a parameter so the cases keep their ids
    @pytest.mark.parametrize("coords", [half_pixel])
    @pytest.mark.parametrize("shape, out", [
        ((1, 16, 20), (64, 80)), ((2, 40, 64), (20, 16)),
        ((3, 9, 7), (16, 3)), ((4, 2, 9), (2, 30)), ((3, 12, 10), (2, 5))])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_equals_bilinear_on_a_grid(self, rng, coords, shape, out, scale):
        # one lerp order: sampled at bilinear's positions, gather rounds as
        # bilinear does, so the decoder can sample boundary blocks with it
        data = (scale * rng.normal(0, 1, shape)).astype(np.float32)
        (_, h, w), (out_h, out_w) = shape, out
        got = gather(data, coords(out_w, w)[None, :],
                     coords(out_h, h)[:, None])
        assert got.shape == (shape[0], out_h, out_w)
        assert got.tobytes() == bilinear(data, out_h, out_w).tobytes()
