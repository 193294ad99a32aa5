import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcma import FeatureMap, FlowField, warp_features


def random_features(rng, c=3, h=6, w=7, scale=5.0):
    return FeatureMap(rng.normal(0, scale, (c, h, w)).astype(np.float32))


def constant_flow(h, w, u, v):
    return FlowField(np.full((h, w), u, np.float32),
                     np.full((h, w), v, np.float32))


class TestBilinearSample:
    """Single-point sampling, seen through output pixel (0, 0) of a warp
    along a constant flow."""

    def test_lattice_point_exact(self, rng):
        fm = random_features(rng)
        out = warp_features(fm, constant_flow(6, 7, 2, 3), 1.0)
        assert np.array_equal(out.data[:, 0, 0], fm.data[:, 3, 2])

    def test_midpoint(self):
        data = np.zeros((1, 2, 2), np.float32)
        data[0, :, 1] = 2.0
        fm = FeatureMap(data)
        out = warp_features(fm, constant_flow(2, 2, 0.5, 0.0), 1.0)
        assert out.data[0, 0, 0] == pytest.approx(1.0)

    def test_clamp(self, rng):
        fm = random_features(rng)
        out = warp_features(fm, constant_flow(6, 7, -10, -10), 1.0)
        assert np.array_equal(out.data, np.broadcast_to(
            fm.data[:, :1, :1], fm.data.shape))


class TestWarpFeatures:
    def test_zero_flow_identity_bit_exact(self, rng):
        fm = random_features(rng)
        out = warp_features(fm, FlowField.zeros(6, 7), 2.0)
        assert np.array_equal(out.data, fm.data)

    def test_lambda_zero_identity_bit_exact(self, rng):
        fm = random_features(rng)
        flow = FlowField(rng.normal(0, 3, (6, 7)).astype(np.float32),
                         rng.normal(0, 3, (6, 7)).astype(np.float32))
        out = warp_features(fm, flow, 0.0)
        assert np.array_equal(out.data, fm.data)

    def test_horizontal_ramp_unit_flow(self):
        # gather on a ramp g(x) = x with u = 1: output(x) = min(x + 1, w - 1)
        w = 8
        ramp = np.tile(np.arange(w, dtype=np.float32), (4, 1))[None]
        fm = FeatureMap(ramp)
        flow = FlowField(np.ones((4, w), np.float32), np.zeros((4, w), np.float32))
        out = warp_features(fm, flow, 1.0)
        expected = np.minimum(np.arange(w) + 1, w - 1)
        assert np.allclose(out.data[0], np.tile(expected, (4, 1)))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            warp_features(random_features(rng), FlowField.zeros(5, 5), 1.0)

    def test_negative_lambda_rejected(self, rng):
        with pytest.raises(ValueError):
            warp_features(random_features(rng), FlowField.zeros(6, 7), -0.5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, rng, lam):
        with pytest.raises(ValueError, match="lam"):
            warp_features(random_features(rng), FlowField.zeros(6, 7), lam)

    @pytest.mark.parametrize("lam", [True, "1", None])
    def test_lambda_is_a_number(self, rng, lam):
        with pytest.raises(ValueError, match="^lam must be a real number$"):
            warp_features(random_features(rng), FlowField.zeros(6, 7), lam)

    def test_shape_preserved(self, rng):
        fm = random_features(rng)
        flow = FlowField(rng.normal(0, 2, (6, 7)).astype(np.float32),
                         rng.normal(0, 2, (6, 7)).astype(np.float32))
        out = warp_features(fm, flow, 1.3)
        assert out.data.shape == fm.data.shape

    def test_integer_shift_exact(self, rng):
        fm = random_features(rng, h=10, w=12)
        du, dv = 2, -1
        flow = FlowField(np.full((10, 12), du, np.float32),
                         np.full((10, 12), dv, np.float32))
        out = warp_features(fm, flow, 1.0)
        # interior output equals the input shifted by (du, dv), bit-exact
        assert np.array_equal(out.data[:, 2:9, 1:9],
                              fm.data[:, 2 + dv:9 + dv, 1 + du:9 + du])

    def test_linearity(self, rng):
        f = random_features(rng)
        g = random_features(rng)
        flow = FlowField(rng.normal(0, 2, (6, 7)).astype(np.float32),
                         rng.normal(0, 2, (6, 7)).astype(np.float32))
        lam = 1.0
        lhs = warp_features(
            FeatureMap(2.0 * f.data + 3.0 * g.data), flow, lam).data
        rhs = (2.0 * warp_features(f, flow, lam).data
               + 3.0 * warp_features(g, flow, lam).data)
        assert np.allclose(lhs, rhs, rtol=1e-5, atol=1e-5)

    def test_bounded_by_input_range(self, rng):
        f = random_features(rng, h=9, w=9)
        flow = FlowField(rng.normal(0, 4, (9, 9)).astype(np.float32),
                         rng.normal(0, 4, (9, 9)).astype(np.float32))
        out = warp_features(f, flow, 1.7).data
        span = float(f.data.max() - f.data.min())
        assert out.min() >= f.data.min() - 1e-5 * span
        assert out.max() <= f.data.max() + 1e-5 * span


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
       st.integers(3, 10), st.integers(3, 10),
       st.floats(0.0, 3.0, allow_nan=False))
@settings(max_examples=120, deadline=None)
def test_warp_properties_random(seed, c, h, w, lam):
    rng = np.random.default_rng(seed)
    fm = FeatureMap(rng.normal(0, 5, (c, h, w)).astype(np.float32))
    # zero flow is identity for any lambda
    out = warp_features(fm, FlowField.zeros(h, w), lam)
    assert np.array_equal(out.data, fm.data)
    # arbitrary flow with lambda = 0 is identity
    flow = FlowField(rng.normal(0, 3, (h, w)).astype(np.float32),
                     rng.normal(0, 3, (h, w)).astype(np.float32))
    out = warp_features(fm, flow, 0.0)
    assert np.array_equal(out.data, fm.data)
    # any warp keeps values inside the input range (convex combinations)
    out = warp_features(fm, flow, lam).data
    span = float(fm.data.max() - fm.data.min()) or 1.0
    assert out.min() >= fm.data.min() - 1e-5 * span
    assert out.max() <= fm.data.max() + 1e-5 * span
