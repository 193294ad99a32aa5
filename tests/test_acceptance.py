"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
so the suite can double as a checklist (`pytest -s tests/test_acceptance.py`).
"""

import dataclasses
import time

import numpy as np
from scipy import ndimage, stats

from mcma import (FeatureMap, FlowField, Frame, ModelSpec, PipelineConfig,
                  SceneObject, SceneSpec, Segmenter, alpha_sweep, ema_fuse,
                  evaluate_run, fp_rate, generate, miou, model_spec_from_scene,
                  motion_quantile_partition, resize_flow, run, warp_features)
from mcma.flow import downscale_frame
from mcma.model import decode, encode

from conftest import (flow_encode_overlap, pair_flow, shifted_pair,
                      slow_sources)


def report(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def moving_scene(frames, width, height, seed, velocity, rate=0.0, radius=None):
    radius = radius if radius is not None else min(width, height) // 5
    return SceneSpec(width=width, height=height, num_classes=2, frames=frames,
                     seed=seed, label_noise_rate=rate,
                     objects=[SceneObject("disk", 1, (200, 60, 60),
                                          (width // 3, height // 2),
                                          velocity=velocity, radius=radius)])


def masks_equal(a, b):
    return len(a) == len(b) and all(np.array_equal(x.labels, y.labels)
                                    for x, y in zip(a, b))


def ema_oracle(frames, mspec, alpha):
    """The plain EMA by hand: ``ema_fuse`` of each frame's features with
    the fused features before them, decoded."""
    fused, masks = None, []
    for frame in frames:
        feats = encode(frame, mspec)
        fused = feats if fused is None else ema_fuse(feats, fused, alpha)
        masks.append(decode(fused, mspec))
    return masks


def test_criterion_1_degeneracy_suite():
    start = time.monotonic()
    spec = moving_scene(frames=100, width=320, height=256, seed=3,
                        velocity=(2, 1), radius=40)
    frames = [s[0] for s in generate(spec)]
    mspec = model_spec_from_scene(spec)

    def masks(alpha, lam=2.0):
        cfg = PipelineConfig(alpha=alpha, lam=lam, flow_scale=0.25,
                             num_classes=2)
        return run(frames, cfg, mspec)[0]

    # alpha = 1 keeps no history: identical to the per-frame baseline
    a1 = masks_equal(masks(1.0),
                     [decode(encode(f, mspec), mspec) for f in frames])
    # lambda = 0 disables the motion correction: identical to plain EMA
    l0 = masks_equal(masks(0.2, lam=0.0), ema_oracle(frames, mspec, 0.2))

    # a static sequence has exactly zero estimated flow, so warping is the
    # identity and the motion-corrected average equals the plain one
    static = moving_scene(frames=100, width=320, height=256, seed=3,
                          velocity=(0, 0), radius=40)
    sframes = [s[0] for s in generate(static)]
    smspec = model_spec_from_scene(static)
    cfg_m = PipelineConfig(alpha=0.2, flow_scale=0.25, num_classes=2)
    st = masks_equal(run(sframes, cfg_m, smspec)[0],
                     ema_oracle(sframes, smspec, 0.2))

    elapsed = time.monotonic() - start
    report("1 (degenerate settings reduce to baseline/EMA, bit-exact, "
           f"{elapsed:.1f}s < 10s)", a1 and l0 and st and elapsed < 10.0)


def test_criterion_2_warp_invariants():
    rng = np.random.default_rng(42)
    cases = 0
    ok = True
    for _ in range(250):
        c = int(rng.integers(1, 5))
        h = int(rng.integers(4, 17))
        w = int(rng.integers(4, 17))
        data = rng.normal(0, 3, (c, h, w)).astype(np.float32)
        fm = FeatureMap(data)

        # zero flow is a bit-exact identity
        zero = FlowField.zeros(h, w)
        ok &= np.array_equal(warp_features(fm, zero, 2.0).data, data)
        cases += 1

        # lambda = 0 is a bit-exact identity regardless of the flow
        wild = FlowField(rng.normal(0, 4, (h, w)).astype(np.float32),
                         rng.normal(0, 4, (h, w)).astype(np.float32))
        ok &= np.array_equal(
            warp_features(fm, wild, 0.0).data, data)
        cases += 1

        # constant integer flow gathers exactly, with border clamp
        dx = int(rng.integers(-3, 4))
        dy = int(rng.integers(-3, 4))
        const = FlowField(np.full((h, w), dx, np.float32),
                          np.full((h, w), dy, np.float32))
        sx = np.clip(np.arange(w) + dx, 0, w - 1)
        sy = np.clip(np.arange(h) + dy, 0, h - 1)
        expected = data[:, sy[:, None], sx[None, :]]
        ok &= np.array_equal(warp_features(fm, const, 1.0).data,
                             expected)
        cases += 1

        # warping is linear in the features
        other = rng.normal(0, 3, (c, h, w)).astype(np.float32)
        a, b = 0.7, -1.3
        combo = warp_features(
            FeatureMap((a * data + b * other).astype(np.float32)), wild,
            1.0).data
        parts = (a * warp_features(fm, wild, 1.0).data
                 + b * warp_features(FeatureMap(other), wild,
                                     1.0).data)
        scale = max(np.abs(parts).max(), 1.0)
        ok &= np.abs(combo - parts).max() / scale <= 1e-5
        cases += 1
    report(f"2 (warp identity/shift/linearity over {cases} randomized cases)",
           ok and cases >= 1000)


def test_criterion_3_flow_accuracy():
    rng = np.random.default_rng(7)
    full_epe, quarter_epe = [], []
    m = 16  # interior margin, away from the non-periodic border
    for trial in range(20):
        dx = int(rng.integers(-5, 6))
        dy = int(rng.integers(-5, 6))
        prev, curr = shifted_pair(128, 160, seed=100 + trial, dx=dx, dy=dy)

        flow = pair_flow(prev, curr)
        epe = np.hypot(flow.u + dx, flow.v + dy)
        full_epe.append(epe[m:-m, m:-m].mean())

        qflow = pair_flow(downscale_frame(prev, 0.25),
                          downscale_frame(curr, 0.25))
        up = resize_flow(qflow, 128, 160)
        epe_q = np.hypot(up.u + dx, up.v + dy)
        quarter_epe.append(epe_q[m:-m, m:-m].mean())
    full = float(np.mean(full_epe))
    quarter = float(np.mean(quarter_epe))
    report(f"3 (translation endpoint error: full {full:.3f}px < 0.5, "
           f"quarter-scale {quarter:.3f}px < 1.0, 20 trials)",
           max(full_epe) < 0.5 and max(quarter_epe) < 1.0)


def test_criterion_4_alignment_end_to_end():
    # (a) rigid pan with ground-truth flow and lambda = 1: the motion-
    # corrected average must match an EMA computed on stabilized frames
    v, n, alpha = (4, 0), 8, 0.1
    spec = SceneSpec(width=320, height=256, num_classes=2, frames=n, seed=9,
                     global_velocity=v,
                     objects=[SceneObject("disk", 1, (200, 60, 60),
                                          (120, 128), radius=30)])
    seq = generate(spec)
    mspec = model_spec_from_scene(spec)

    state = None
    masks_mc = []
    for frame, _, gt_flow in seq:
        feats = encode(frame, mspec)
        if state is None:
            fused = feats
        else:
            rf = resize_flow(gt_flow, feats.height, feats.width)
            fused = ema_fuse(feats, warp_features(state, rf, 1.0),
                             alpha)
        state = fused
        masks_mc.append(decode(fused, mspec))

    state = None
    masks_st = []
    for j, (frame, _, _) in enumerate(seq):
        stab = Frame(np.roll(frame.data, (-v[1] * j, -v[0] * j), axis=(0, 1)),
                     index=j)
        feats = encode(stab, mspec)
        fused = feats if state is None else ema_fuse(feats, state, alpha)
        state = fused
        masks_st.append(decode(fused, mspec))

    m = 60  # margin covering the region swept in from the border
    exact = all(
        np.array_equal(
            masks_mc[j].labels[m:-m, m:-m],
            np.roll(masks_st[j].labels, (v[1] * j, v[0] * j),
                    axis=(0, 1))[m:-m, m:-m])
        for j in range(n))

    # (b) with estimated flow, the high-motion subset must favor the
    # motion-corrected average by a wide margin
    scenes = [moving_scene(frames=15, width=192, height=128, seed=11,
                           velocity=(1, 0), radius=24),
              moving_scene(frames=15, width=192, height=128, seed=12,
                           velocity=(5, 0), radius=24)]
    gts, flows, frames_by_scene, specs = [], [], [], []
    for sc in scenes:
        sq = generate(sc)
        frames_by_scene.append([s[0] for s in sq])
        gts.extend(s[1] for s in sq)
        flows.extend(s[2] for s in sq)
        specs.append(model_spec_from_scene(sc))

    def run_all(lam):
        preds = []
        for frames, ms in zip(frames_by_scene, specs):
            cfg = PipelineConfig(alpha=alpha, lam=lam, flow_scale=0.5,
                                 num_classes=2)
            preds.extend(run(frames, cfg, ms)[0])
        return preds

    def high20(preds):
        rows = evaluate_run({"m": preds}, gts, flows, 2)
        return {subset: val for _, subset, val in rows}["high20"]

    ema_score = high20(run_all(0.0))
    mcma_score = max(high20(run_all(lam))
                     for lam in (1.0, 1.5, 2.0))
    gap = mcma_score - ema_score
    report("4 (oracle-flow alignment exact; estimated-flow high-motion "
           f"mIoU gap {gap:.3f} >= 0.10)", exact and gap >= 0.10)


def test_criterion_5_false_positive_suppression():
    spec = SceneSpec(width=320, height=256, num_classes=2, frames=40, seed=11,
                     label_noise_rate=0.02,
                     objects=[SceneObject("disk", 1, (200, 60, 60), (80, 128),
                                          velocity=(2, 0), radius=30)])
    seq = generate(spec)
    frames = [s[0] for s in seq]
    gts = [s[1] for s in seq]
    mspec = model_spec_from_scene(spec)
    skip = 5  # let the moving averages reach steady state

    def mean_fp(**settings):
        cfg = PipelineConfig(**{"alpha": 0.1, "lam": 1.0, "flow_scale": 0.5,
                                "num_classes": 2, **settings})
        preds = run(frames, cfg, mspec)[0]
        return float(np.mean([fp_rate(p, g, 1)
                              for p, g in zip(preds[skip:], gts[skip:])]))

    fp_base = mean_fp(alpha=1.0)
    fp_ema = mean_fp(lam=0.0)
    fp_mcma = mean_fp()
    report(f"5 (noisy-class FP rate: mcma {fp_mcma:.4f} < ema {fp_ema:.4f} "
           f"< baseline {fp_base:.4f})",
           fp_mcma < fp_ema < fp_base and fp_base > 0.0)


def test_criterion_6_alpha_sweep_shape():
    spec = SceneSpec(width=256, height=192, num_classes=2, frames=30, seed=3,
                     label_noise_rate=0.02,
                     objects=[SceneObject("disk", 1, (200, 60, 60), (70, 96),
                                          velocity=(4, 0), radius=28)])
    seq = generate(spec)
    frames = [s[0] for s in seq]
    gts = [s[1] for s in seq]
    alphas = [round(0.1 * k, 1) for k in range(1, 10)]
    rows = alpha_sweep(frames, gts, model_spec_from_scene(spec), lam=1.0,
                       flow_scale=0.5, alphas=alphas)
    by_alpha = {}
    for alpha, method, value in rows:
        by_alpha.setdefault(alpha, {})[method] = value
    gaps = [by_alpha[a]["mcma"] - by_alpha[a]["ema"] for a in alphas]
    dominance = all(g >= 0.0 for g in gaps)
    smallest, at = min(zip(gaps, alphas))
    rho = stats.spearmanr(alphas, gaps).statistic
    report(f"6 (mcma >= ema at every alpha, smallest gap {smallest:+.2e} "
           f"at alpha={at}; gap shrinks toward alpha=1, "
           f"spearman {rho:.2f} < 0)", dominance and rho < 0.0)


def test_criterion_7_runtime_structure():
    # executor equivalence on a long sequence
    spec = moving_scene(frames=1000, width=64, height=48, seed=6,
                        velocity=(1, 1), radius=10)
    frames = [s[0] for s in generate(spec)]
    mspec = model_spec_from_scene(spec)
    cfg = PipelineConfig(alpha=0.2, flow_scale=0.5, num_classes=2)
    par_cfg = PipelineConfig(alpha=0.2, flow_scale=0.5, num_classes=2,
                             executor="parallel")
    equal = masks_equal(run(frames, cfg, mspec)[0],
                        run(frames, par_cfg, mspec)[0])

    # with 10 ms injected into flow and encode, the parallel executor runs
    # each frame's flow beside the frame before it while the sequential one
    # pays for both; the overlap is read from the recorded spans
    tiny = [Frame(np.full((16, 16, 3), 90, np.uint8), index=i)
            for i in range(8)]
    tiny_spec = ModelSpec(prototypes=[(90, 90, 90), (0, 0, 0)],
                          feature_stride=4)
    dcfg = PipelineConfig(alpha=0.2, num_classes=2)
    delay = 0.010

    def delayed(executor):
        sources, spans = slow_sources(lambda f: encode(f, tiny_spec), delay)
        seg = Segmenter(dataclasses.replace(dcfg, executor=executor),
                        tiny_spec, **sources)
        return [timing for _, timing in seg.stream(tiny)], spans

    ts, _ = delayed("sequential")
    _, par_spans = delayed("parallel")
    seq_ms = np.mean([t.total_us for t in ts[1:]]) / 1000
    overlap_ms = 1000 * flow_encode_overlap(par_spans)
    need_ms = 1000 * 0.5 * delay * (len(tiny) - 1)

    # flow cost drops super-linearly with resolution; warp+fuse stay cheap
    big = moving_scene(frames=6, width=640, height=512, seed=8,
                       velocity=(3, 0), radius=80)
    bframes = [s[0] for s in generate(big)]
    bspec = model_spec_from_scene(big)

    def timings(scale):
        cfg = PipelineConfig(alpha=0.2, flow_scale=scale, num_classes=2)
        return run(bframes, cfg, bspec)[1][1:]

    t_full = timings(1.0)
    t_quarter = timings(0.25)
    flow_full = np.mean([t.flow_us for t in t_full])
    flow_quarter = np.mean([t.flow_us for t in t_quarter])
    speedup = flow_full / flow_quarter
    overhead = (np.mean([t.warp_us + t.fuse_us for t in t_full])
                / np.mean([t.total_us for t in t_full]))

    report("7 (parallel == sequential over 1000 frames; injected-delay "
           f"totals seq {seq_ms:.1f}ms > 20 / par flow beside encode "
           f"{overlap_ms:.1f}ms >= {need_ms:.0f}; "
           f"quarter-scale flow {speedup:.1f}x >= 2x faster; warp+fuse "
           f"{100 * overhead:.1f}% < 10% of frame total)",
           equal and seq_ms > 20.0 and overlap_ms >= need_ms
           and speedup >= 2.0 and overhead < 0.10)


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        num_classes = int(rng.integers(2, 5))
        pred = rng.integers(0, num_classes, (8, 8)).astype(np.uint8)
        gt = rng.integers(0, num_classes, (8, 8)).astype(np.uint8)

        ious = []
        for cls in range(num_classes):
            inter = int(np.sum((pred == cls) & (gt == cls)))
            union = int(np.sum((pred == cls) | (gt == cls)))
            if union:
                ious.append(inter / union)
        expect_miou = sum(ious) / len(ious)
        from mcma import SegmentationMask
        got_miou = miou(SegmentationMask(pred), SegmentationMask(gt),
                        num_classes)[0]
        ok &= abs(got_miou - expect_miou) < 1e-12

        expect_fp = int(np.sum((pred == 1) & (gt != 1))) / pred.size
        got_fp = fp_rate(SegmentationMask(pred), SegmentationMask(gt), 1)
        ok &= got_fp == expect_fp

    def oracle_quantile(values, q):
        xs = sorted(values)
        pos = q * (len(xs) - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])

    for _ in range(100):
        motions = rng.uniform(0, 10, int(rng.integers(5, 40))).tolist()
        part = motion_quantile_partition(motions)
        q20 = oracle_quantile(motions, 0.2)
        q80 = oracle_quantile(motions, 0.8)
        ok &= abs(part.low_threshold - q20) <= 1e-9
        ok &= abs(part.high_threshold - q80) <= 1e-9
        low = [i for i, m in enumerate(motions) if m <= q20]
        high = [i for i, m in enumerate(motions) if m >= q80 and m > q20]
        mid = [i for i in range(len(motions)) if i not in low + high]
        ok &= part.low == low and part.high == high and part.mid == mid
    report("8 (miou/fp_rate/quantile partition match brute-force oracles, "
           "100 random cases each)", ok)


def test_criterion_9_subpixel_pans():
    # rigid pans of band-limited noise, rendered here by cubic-spline
    # shifts: sub-pixel and integer velocities from below a pixel up to
    # MAX_SPEED on both axes, whose ground-truth backward flow is -velocity
    h, w, m = 256, 320, 24  # interior margin, past the fastest pan
    velocities = [(0.3, 0.7), (1.5, 0.5), (2.25, -1.25), (4, 1.5),
                  (-6.5, 3.25), (7.5, -6), (8, 8), (-8, -8)]
    # bounds: the worst seed at 3 iterations on every level, x 1.5, rounded
    # up (full 0.0384 px at (8, 8), quarter 0.5675 px at (-6.5, 3.25))
    full_bound, quarter_bound = 0.06, 0.86

    def gray(img, index):
        data = np.clip(np.rint(img), 0, 255).astype(np.uint8)
        return Frame(data[:, :, None], index=index)

    def interior_epe(flow, vx, vy):
        return float(np.hypot(flow.u + vx, flow.v + vy)[m:-m, m:-m].mean())

    bases = []
    for seed in (1, 2, 3):
        noise = np.random.default_rng(seed).normal(0.0, 1.0, (h, w))
        tex = ndimage.gaussian_filter(noise, 1.5)
        bases.append(tex * (110.0 / np.abs(tex).max()) + 128.0)
    worst_full, worst_quarter = {}, {}
    for vx, vy in velocities:
        full, quarter = [], []
        for base in bases:
            prev = gray(base, 0)
            curr = gray(ndimage.shift(base, (vy, vx), order=3,
                                      mode="nearest"), 1)
            full.append(interior_epe(pair_flow(prev, curr), vx, vy))
            qflow = pair_flow(downscale_frame(prev, 0.25),
                              downscale_frame(curr, 0.25))
            quarter.append(interior_epe(resize_flow(qflow, h, w), vx, vy))
        worst_full[vx, vy] = max(full)
        worst_quarter[vx, vy] = max(quarter)
    full_at, full = max(worst_full.items(), key=lambda kv: kv[1])
    quarter_at, quarter = max(worst_quarter.items(), key=lambda kv: kv[1])
    report(f"9 (sub-pixel pans, worst of 3 seeds: full {full:.4f}px at "
           f"{full_at} <= {full_bound}, quarter-scale {quarter:.4f}px at "
           f"{quarter_at} <= {quarter_bound}, {len(velocities)} velocities)",
           full <= full_bound and quarter <= quarter_bound)
