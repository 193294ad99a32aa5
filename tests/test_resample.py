import numpy as np
import pytest

from mcma.resample import align_corners, area_mean, bilinear, half_pixel


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

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError):
            area_mean(np.zeros((10, 12, 3), np.uint8), 4)


class TestBilinear:
    def test_same_size_returns_input(self, rng):
        data = rng.normal(0, 1, (2, 5, 7))
        assert bilinear(data, 5, 7, align_corners) is data

    def test_leading_axes_resized_independently(self, rng):
        data = rng.normal(0, 1, (3, 4, 5)).astype(np.float32)
        out = bilinear(data, 8, 10, half_pixel)
        assert out.dtype == np.float32 and out.shape == (3, 8, 10)
        for c in range(3):
            assert np.array_equal(out[c], bilinear(data[c], 8, 10, half_pixel))

