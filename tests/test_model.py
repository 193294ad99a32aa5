import numpy as np
import pytest
from scipy import ndimage

from mcma import FeatureMap, Frame, ModelSpec, decode, encode, write_features
from mcma.model import _min_max_3x3, feature_file_path
from mcma.resample import area_mean


def spec2(stride=4):
    return ModelSpec(prototypes=[(0, 0, 0), (255, 255, 255)],
                     feature_stride=stride)


class TestSpecValidation:
    def test_prototype_count(self):
        with pytest.raises(ValueError, match=r"\[2, 256\]"):
            ModelSpec(prototypes=[(0, 0, 0)])

    def test_feature_files_needs_dir(self):
        # the model kind follows from feature_dir: exactly one source
        with pytest.raises(ValueError):
            ModelSpec()
        with pytest.raises(ValueError):
            ModelSpec(prototypes=[(0, 0, 0), (9, 9, 9)], feature_dir="f")

    @pytest.mark.parametrize("num_classes", [1, 257])
    def test_class_count_fits_uint8_labels(self, num_classes):
        with pytest.raises(ValueError, match=r"\[2, 256\]"):
            ModelSpec(prototypes=[(k % 256, 0, 0) for k in range(num_classes)])

    @pytest.mark.parametrize("stride", [2.0, 2.5, True])
    def test_feature_stride_integer(self, stride):
        with pytest.raises(ValueError,
                           match="^feature_stride must be an integer$"):
            spec2(stride=stride)

    def test_feature_stride_positive(self):
        with pytest.raises(ValueError,
                           match="^feature_stride must be positive$") as err:
            spec2(stride=0)
        assert err.type is ValueError

    @pytest.mark.parametrize("color", [(0,), (0, 0), (0, 0, 0, 0)])
    def test_prototypes_are_rgb(self, color):
        with pytest.raises(ValueError, match="r, g, b"):
            ModelSpec(prototypes=[(9, 9, 9), color])

    @pytest.mark.parametrize("color", [(0, 0, np.nan), (np.inf, 0, 0),
                                       (0, -1, 0), (0, 0, 256),
                                       (0.5, 0, 0), (0, 0, 255.0),
                                       (True, 0, 0)])
    def test_prototypes_are_finite_colors(self, color):
        # rejected here rather than blamed on the first frame's encode
        with pytest.raises(ValueError, match="^prototypes "):
            ModelSpec(prototypes=[color, (1, 1, 1)])

    def test_prototypes_fixed_after_check(self):
        # an extra or unchecked class cannot enter a checked spec afterwards
        prototypes = [(0, 0, 0), [9, 9, 9]]
        spec = ModelSpec(prototypes=prototypes)
        prototypes.append((999, 0, 0))
        prototypes[1][0] = 999
        assert spec.prototypes == ((0, 0, 0), (9, 9, 9))
        assert all(type(color) is tuple for color in spec.prototypes)
        frame = Frame(np.zeros((4, 4, 3), np.uint8))
        assert encode(frame, spec).channels == 2

    def test_256_classes_decode_to_top_label(self):
        spec = ModelSpec(feature_stride=1, feature_dir="features")
        data = np.zeros((256, 2, 2), np.float32)
        data[255] = 1.0
        assert np.all(decode(FeatureMap(data), spec).labels == 255)


class TestEncode:
    def test_prototype_pixel_wins(self):
        spec = ModelSpec(feature_stride=1, prototypes=[
            (10, 20, 30), (200, 100, 0), (0, 0, 255)])
        frame = Frame(np.tile(np.array([200, 100, 0], np.uint8), (4, 4, 1)))
        feats = encode(frame, spec)
        assert np.all(feats.data[1] == 0.0)
        assert np.all(feats.data[0] < 0.0) and np.all(feats.data[2] < 0.0)

    def test_mid_gray_symmetry(self):
        frame = Frame(np.full((4, 4, 3), 128, np.uint8))
        spec = ModelSpec(feature_stride=1,
                         prototypes=[(1, 1, 1), (255, 255, 255)])
        feats = encode(frame, spec)
        assert np.allclose(feats.data[0], feats.data[1])

    def test_deterministic_without_noise(self):
        frame = Frame(np.random.default_rng(0).integers(
            0, 256, (16, 16, 3)).astype(np.uint8))
        a = encode(frame, spec2())
        b = encode(frame, spec2())
        assert np.array_equal(a.data, b.data)

    def test_translation_at_stride_granularity(self):
        rng = np.random.default_rng(5)
        base = rng.integers(0, 256, (32, 40, 3)).astype(np.uint8)
        shifted = np.roll(base, 4, axis=1)
        fa = encode(Frame(base), spec2())
        fb = encode(Frame(shifted), spec2())
        assert np.allclose(fb.data[:, :, 1:], fa.data[:, :, :-1], atol=1e-5)

    def test_gray_frame_equals_its_rgb_copy(self, rng):
        gray = rng.integers(0, 256, (16, 24, 1)).astype(np.uint8)
        a = encode(Frame(gray), spec2())
        b = encode(Frame(np.repeat(gray, 3, axis=2)), spec2())
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("stride", range(1, 9))
    @pytest.mark.parametrize("num_classes", [2, 5, 256])
    def test_equals_summed_distance_formula(self, rng, channels, stride,
                                            num_classes):
        frame = Frame(rng.integers(0, 256, (5 * stride, 7 * stride, channels))
                      .astype(np.uint8))
        spec = ModelSpec(feature_stride=stride, prototypes=[
            tuple(int(v) for v in c)
            for c in rng.integers(0, 256, (num_classes, 3))])
        small = area_mean(frame.data, stride)
        want = np.stack([
            -np.sum((small - np.asarray(c, np.float64)) ** 2, axis=2)
            / 255.0 ** 2 for c in spec.prototypes]).astype(np.float32)
        assert encode(frame, spec).data.tobytes() == want.tobytes()

    def test_size_not_divisible_by_stride(self):
        with pytest.raises(ValueError):
            encode(Frame(np.zeros((16, 18, 3), np.uint8)), spec2(stride=4))

    def test_feature_files_round_trip(self, tmp_path):
        fm = FeatureMap(np.random.default_rng(1).normal(
            0, 1, (2, 4, 4)).astype(np.float32))
        write_features(fm, feature_file_path(tmp_path, 7))
        spec = ModelSpec(feature_dir=str(tmp_path))
        frame = Frame(np.zeros((16, 16, 3), np.uint8), index=7)
        assert np.array_equal(encode(frame, spec).data, fm.data)

    def test_feature_file_must_match_frame(self, tmp_path):
        # 3x3 features cannot belong to a 64x48 frame at stride 4
        write_features(FeatureMap(np.zeros((2, 3, 3), np.float32)),
                       feature_file_path(tmp_path, 5))
        spec = ModelSpec(feature_dir=str(tmp_path))
        frame = Frame(np.zeros((48, 64, 3), np.uint8), index=5)
        with pytest.raises(ValueError, match=r"frame 5: .*000005\.mcfe"):
            encode(frame, spec)

    def test_feature_files_frame_not_multiple_of_stride(self, tmp_path):
        write_features(FeatureMap(np.zeros((2, 4, 4), np.float32)),
                       feature_file_path(tmp_path, 2))
        spec = ModelSpec(feature_dir=str(tmp_path))
        frame = Frame(np.zeros((16, 18, 3), np.uint8), index=2)
        with pytest.raises(ValueError, match="frame 2: 18x16"):
            encode(frame, spec)

    def test_feature_files_missing(self, tmp_path):
        spec = ModelSpec(feature_dir=str(tmp_path))
        with pytest.raises(FileNotFoundError):
            encode(Frame(np.zeros((8, 8, 3), np.uint8), index=0), spec)


class TestDecode:
    def test_dominant_channel(self, rng):
        data = rng.normal(0, 1, (3, 4, 4)).astype(np.float32)
        data[2] += 10.0
        spec = ModelSpec(feature_stride=2,
                         prototypes=[(i, i, i) for i in range(3)])
        mask = decode(FeatureMap(data), spec)
        assert np.all(mask.labels == 2)
        assert mask.labels.shape == (8, 8)

    def test_tie_breaks_to_lowest_index(self):
        data = np.zeros((4, 3, 3), np.float32)
        data[1] = 5.0
        data[3] = 5.0
        spec = ModelSpec(feature_stride=2,
                         prototypes=[(i, i, i) for i in range(4)])
        assert np.all(decode(FeatureMap(data), spec).labels == 1)

    def test_constant_features_constant_mask(self):
        data = np.stack([np.full((3, 3), -1.0), np.full((3, 3), 2.0)]).astype(
            np.float32)
        for stride in (1, 2, 4):
            spec = ModelSpec(feature_stride=stride,
                             prototypes=[(0, 0, 0), (9, 9, 9)])
            assert np.all(decode(FeatureMap(data), spec).labels == 1)

    @pytest.mark.parametrize("channels", [1, 257])
    def test_channel_count_bound(self, channels):
        data = np.zeros((channels, 2, 2), np.float32)
        with pytest.raises(ValueError, match=r"\[2, 256\]"):
            decode(FeatureMap(data), spec2())

    def test_argmax_invariant_to_constant_offset(self, rng):
        data = rng.normal(0, 1, (2, 5, 6)).astype(np.float32)
        spec = spec2(stride=4)
        a = decode(FeatureMap(data), spec)
        b = decode(FeatureMap(data + 3.25), spec)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2),
                                       (3, 3), (17, 23)])
    @pytest.mark.parametrize("labels", [2, 256])
    def test_min_max_3x3_matches_ndimage(self, rng, shape, labels):
        # oracle: ndimage's 3x3 filters with edges replicated, on keys as
        # decode builds them: labels, and -1 where a cell's gap is small
        key = rng.integers(-1, labels, shape).astype(np.int16)
        low, high = _min_max_3x3(key)
        want_low = ndimage.minimum_filter(key, 3, mode="nearest")
        want_high = ndimage.maximum_filter(key, 3, mode="nearest")
        assert low.dtype == high.dtype == np.int16
        assert np.array_equal(low, want_low)
        assert np.array_equal(high, want_high)
