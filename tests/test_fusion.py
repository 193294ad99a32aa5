import numpy as np
import pytest

from mcma import (FeatureMap, Frame, PipelineConfig, SceneObject, SceneSpec,
                  Segmenter, ema_fuse, fp_rate, generate,
                  model_spec_from_scene)
from mcma.model import decode, encode
from mcma.pipeline import PipelineError


def fmap(values):
    return FeatureMap(np.asarray(values, np.float32))


class TestEmaFuse:
    def test_alpha_one_returns_curr(self, rng):
        curr = fmap(rng.normal(0, 5, (2, 3, 3)))
        prev = fmap(rng.normal(0, 5, (2, 3, 3)))
        out = ema_fuse(curr, prev, 1.0)
        assert np.array_equal(out.data, curr.data)

    def test_fixed_point(self, rng):
        f = fmap(rng.normal(0, 5, (2, 3, 3)))
        for alpha in (0.1, 0.5, 0.75):
            assert np.allclose(ema_fuse(f, f, alpha).data, f.data, atol=1e-6)

    def test_convex_blend_arithmetic(self):
        # 0.75 * 2.0 + 0.25 * 0.0 = 1.5
        curr = fmap(np.full((1, 2, 2), 2.0))
        prev = fmap(np.zeros((1, 2, 2)))
        assert np.all(ema_fuse(curr, prev, 0.75).data == 1.5)

    def test_rejects(self, rng):
        f = fmap(rng.normal(0, 1, (1, 2, 2)))
        with pytest.raises(ValueError):
            ema_fuse(f, f, 0.0)
        with pytest.raises(ValueError):
            ema_fuse(f, fmap(np.zeros((1, 3, 3))), 0.5)
        for alpha in (True, "0.5"):
            with pytest.raises(ValueError, match="^alpha must be a real "):
                ema_fuse(f, f, alpha)


def _scene(velocity=(0, 0), frames=8, noise=0.0, seed=3):
    return SceneSpec(width=96, height=64, num_classes=2, frames=frames,
                     seed=seed, label_noise_rate=noise,
                     objects=[SceneObject("disk", 1, (200, 60, 60), (40, 32),
                                          velocity=velocity, radius=14)])


def _run_steps(seq, cfg, mspec):
    seg = Segmenter(cfg, mspec)
    return [mask for mask, _ in seg.stream(frame for frame, _, _ in seq)]


class TestMcmaStep:
    """One step of the recurrence is one frame of Segmenter.stream."""

    def test_static_sequence_matches_baseline(self):
        spec = _scene()
        seq = generate(spec)
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=0.3, lam=2.0, num_classes=2)
        masks = _run_steps(seq, cfg, mspec)
        for frame, _, _ in seq:
            baseline = decode(encode(frame, mspec), mspec)
            for mask in masks:
                assert np.array_equal(mask.labels, baseline.labels)

    def test_alpha_one_equals_baseline(self):
        spec = _scene(velocity=(3, 1))
        seq = generate(spec)
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=1.0, lam=2.0, num_classes=2)
        masks = _run_steps(seq, cfg, mspec)
        for (frame, _, _), mask in zip(seq, masks):
            baseline = decode(encode(frame, mspec), mspec)
            assert np.array_equal(mask.labels, baseline.labels)

    def test_noise_fp_below_baseline(self):
        spec = SceneSpec(width=192, height=128, num_classes=2, frames=30,
                         seed=5, label_noise_rate=0.02,
                         objects=[SceneObject("disk", 1, (200, 60, 60),
                                              (60, 64), velocity=(2, 0),
                                              radius=22)])
        seq = generate(spec)
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=0.1, lam=1.0, num_classes=2)
        masks = _run_steps(seq, cfg, mspec)
        fp_mcma = np.mean([fp_rate(m, s[1], 1)
                           for m, s in zip(masks[5:], seq[5:])])
        fp_base = np.mean([fp_rate(decode(encode(s[0], mspec), mspec), s[1], 1)
                           for s in seq[5:]])
        assert fp_base > 0.0
        assert fp_mcma < fp_base

    def test_state_bounded_by_encoder_outputs(self):
        spec = _scene(velocity=(2, 1))
        seq = generate(spec)
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=0.2, lam=1.0, num_classes=2)
        seg = Segmenter(cfg, mspec)
        lo, hi = np.inf, -np.inf
        frames = [frame for frame, _, _ in seq]
        for frame, _ in zip(frames, seg.stream(frames)):
            feats = encode(frame, mspec)
            lo = min(lo, float(feats.data.min()))
            hi = max(hi, float(feats.data.max()))
            eps = 1e-5 * (hi - lo)
            assert seg.state.data.min() >= lo - eps
            assert seg.state.data.max() <= hi + eps

    def test_deterministic(self):
        spec = _scene(velocity=(2, 0), noise=0.01)
        seq = generate(spec)
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=0.2, lam=2.0, num_classes=2)
        a = _run_steps(seq, cfg, mspec)
        b = _run_steps(seq, cfg, mspec)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.labels, mb.labels)

    def test_dimension_change_rejected(self):
        spec = _scene()
        seq = generate(spec)
        mspec = model_spec_from_scene(spec)
        cfg = PipelineConfig(alpha=0.5, num_classes=2)
        seg = Segmenter(cfg, mspec)
        other = Frame(np.zeros((32, 48, 3), np.uint8), index=1)
        with pytest.raises(PipelineError) as err:
            list(seg.stream([seq[0][0], other]))
        assert err.value.frame_index == 1
        assert isinstance(err.value.cause, ValueError)
